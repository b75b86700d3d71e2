//! [`WithRead`]: augment any deterministic type with a read operation.
//!
//! Readability is *the* hypothesis of the paper's robustness theorem, and
//! this adapter lets the deciders quantify exactly what it buys. The classic
//! example: a FIFO queue has consensus number 2, but an *augmented* queue
//! with a non-destructive read ("peek at everything") has infinite consensus
//! number — the head records the first enqueuer and a read exposes it.
//! With this adapter the decider derives that jump automatically, and the
//! recoverable side too: the augmented queue is n-recording *and* readable,
//! so its recoverable consensus number is also unbounded.

use crate::ids::{OpId, Outcome, Response, ValueId};
use crate::object_type::ObjectType;
use crate::zoo::require_ids;
use crate::TypeSpecError;

/// Augments an inner type with one extra operation: a read that returns the
/// current value and leaves it unchanged.
///
/// Value ids and existing op ids are preserved; the read gets op id
/// `inner.num_ops()`; its responses occupy a fresh block
/// `inner.num_responses() + value`.
///
/// # Examples
///
/// ```
/// use rcn_spec::{zoo::{BoundedQueue, WithRead}, ObjectType};
///
/// let plain = BoundedQueue::new(2, 2);
/// assert!(!plain.is_readable());
/// let augmented = WithRead::new(plain);
/// assert!(augmented.is_readable());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WithRead<T> {
    inner: T,
}

impl<T: ObjectType> WithRead<T> {
    /// Wraps `inner`, adding a read operation.
    ///
    /// # Panics
    ///
    /// Panics where [`WithRead::try_new`] errs.
    pub fn new(inner: T) -> Self {
        Self::try_new(inner).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: [`TypeSpecError::BadParameters`] if the read
    /// and its responses would take the type beyond the id space
    /// ([`MAX_IDS`](crate::zoo::MAX_IDS)).
    pub fn try_new(inner: T) -> Result<Self, TypeSpecError> {
        require_ids(
            format_args!("{}+read", inner.name()),
            [
                Some(inner.num_values()),
                inner.num_ops().checked_add(1),
                inner.num_responses().checked_add(inner.num_values()),
            ],
        )?;
        Ok(WithRead { inner })
    }

    /// The inner type.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The op id of the added read.
    pub fn added_read_op(&self) -> OpId {
        OpId(self.inner.num_ops() as u16)
    }
}

impl<T: ObjectType> ObjectType for WithRead<T> {
    fn name(&self) -> String {
        format!("{}+read", self.inner.name())
    }

    fn num_values(&self) -> usize {
        self.inner.num_values()
    }

    fn num_ops(&self) -> usize {
        self.inner.num_ops() + 1
    }

    fn num_responses(&self) -> usize {
        self.inner.num_responses() + self.inner.num_values()
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        if op.index() < self.inner.num_ops() {
            self.inner.apply(value, op)
        } else {
            let base = self.inner.num_responses() as u16;
            Outcome::new(Response(base + value.0), value)
        }
    }

    fn value_name(&self, value: ValueId) -> String {
        self.inner.value_name(value)
    }

    fn op_name(&self, op: OpId) -> String {
        if op.index() < self.inner.num_ops() {
            self.inner.op_name(op)
        } else {
            "read".into()
        }
    }

    fn response_name(&self, response: Response) -> String {
        if response.index() < self.inner.num_responses() {
            self.inner.response_name(response)
        } else {
            let v = ValueId((response.index() - self.inner.num_responses()) as u16);
            self.inner.value_name(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_type::check_closed;
    use crate::zoo::{BoundedQueue, BoundedStack, TestAndSet};

    #[test]
    fn augmentation_preserves_inner_behaviour() {
        let q = BoundedQueue::new(2, 2);
        let aug = WithRead::new(q.clone());
        assert!(check_closed(&aug).is_ok());
        for v in 0..q.num_values() {
            for op in 0..q.num_ops() {
                assert_eq!(
                    q.apply(ValueId(v as u16), OpId(op as u16)),
                    aug.apply(ValueId(v as u16), OpId(op as u16))
                );
            }
        }
    }

    #[test]
    fn added_read_is_detected_as_a_read() {
        let aug = WithRead::new(BoundedQueue::new(2, 2));
        assert!(aug.is_read_op(aug.added_read_op()));
        assert_eq!(aug.read_op(), Some(aug.added_read_op()));
    }

    #[test]
    fn augmenting_a_readable_type_is_harmless() {
        let aug = WithRead::new(TestAndSet::new());
        assert!(aug.is_readable());
        // The inner read (op 1) is still a read too.
        assert!(aug.is_read_op(OpId(1)));
    }

    #[test]
    fn names_pass_through() {
        let aug = WithRead::new(BoundedStack::new(2, 2));
        assert_eq!(aug.name(), "stack<2,2>+read");
        assert_eq!(aug.op_name(OpId(0)), "push(0)");
        assert_eq!(aug.op_name(aug.added_read_op()), "read");
        assert_eq!(aug.value_name(ValueId(0)), "[]");
    }

    #[test]
    fn read_responses_identify_values() {
        let aug = WithRead::new(BoundedQueue::new(2, 2));
        let mut seen = std::collections::HashSet::new();
        for v in 0..aug.num_values() {
            let out = aug.apply(ValueId(v as u16), aug.added_read_op());
            assert_eq!(out.next, ValueId(v as u16));
            assert!(seen.insert(out.response), "responses must be distinct");
        }
    }
}
