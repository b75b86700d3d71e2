//! Bounded container types: FIFO queue and LIFO stack.
//!
//! Queues and stacks are Herlihy's classic consensus-number-2 types. They are
//! *not* readable (neither supports an operation that reveals the whole
//! contents without mutating), which makes them useful counterpoints in the
//! hierarchy experiments: the sufficiency half of the robustness theorem does
//! not apply to them.

use crate::ids::{OpId, Outcome, Response, ValueId};
use crate::object_type::ObjectType;
use crate::{zoo::require, TypeSpecError};

/// Enumerates all sequences over `{0..alphabet}` of length at most `capacity`
/// and provides dense ids for them. Sequence id 0 is the empty sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SeqCode {
    alphabet: usize,
    capacity: usize,
    /// `offsets[len]` = id of the first sequence of length `len`.
    offsets: Vec<usize>,
}

impl SeqCode {
    fn new(alphabet: usize, capacity: usize) -> Self {
        let mut offsets = Vec::with_capacity(capacity + 2);
        let mut total = 0usize;
        let mut count = 1usize; // alphabet^len
        for _ in 0..=capacity {
            offsets.push(total);
            total += count;
            count *= alphabet;
        }
        offsets.push(total);
        SeqCode {
            alphabet,
            capacity,
            offsets,
        }
    }

    fn num_values(&self) -> usize {
        self.offsets[self.capacity + 1]
    }

    fn decode(&self, id: usize) -> Vec<usize> {
        let len = match self.offsets.binary_search(&id) {
            Ok(i) if i <= self.capacity => i,
            Ok(i) => i - 1,
            Err(i) => i - 1,
        };
        let mut rem = id - self.offsets[len];
        let mut seq = vec![0usize; len];
        for slot in seq.iter_mut().rev() {
            *slot = rem % self.alphabet;
            rem /= self.alphabet;
        }
        seq
    }

    fn encode(&self, seq: &[usize]) -> usize {
        debug_assert!(seq.len() <= self.capacity);
        let mut rem = 0usize;
        for &e in seq {
            debug_assert!(e < self.alphabet);
            rem = rem * self.alphabet + e;
        }
        self.offsets[seq.len()] + rem
    }
}

/// A bounded FIFO queue over a small element alphabet.
///
/// * Values: all element sequences of length ≤ `capacity` (front of the
///   queue first). Value 0 is the empty queue.
/// * Operations: `enq(k)` for each alphabet element (op ids `0..alphabet`),
///   then `deq` (op id `alphabet`).
/// * Responses: `0..alphabet` (dequeued element), `empty` (`alphabet`),
///   `ok` (`alphabet+1`), `full` (`alphabet+2`).
///
/// `deq` on an empty queue returns `empty`; `enq` on a full queue returns
/// `full` and leaves the queue unchanged (a deterministic total extension of
/// the usual partial specification).
///
/// # Examples
///
/// ```
/// use rcn_spec::{zoo::BoundedQueue, ObjectType, ValueId};
/// let q = BoundedQueue::new(2, 3);
/// let v = q.apply(ValueId::new(0), q.enq_op(1)).next;
/// let v = q.apply(v, q.enq_op(0)).next;
/// let out = q.apply(v, q.deq_op());
/// assert_eq!(out.response.index(), 1); // FIFO: first enqueued comes out
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedQueue {
    code: SeqCode,
}

impl BoundedQueue {
    /// Creates a queue over `{0..alphabet}` holding at most `capacity`
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics where [`BoundedQueue::try_new`] errs.
    pub fn new(alphabet: usize, capacity: usize) -> Self {
        Self::try_new(alphabet, capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: [`TypeSpecError::BadParameters`] if
    /// `alphabet == 0` or `capacity == 0`.
    pub fn try_new(alphabet: usize, capacity: usize) -> Result<Self, TypeSpecError> {
        require(
            alphabet > 0 && capacity > 0,
            format_args!("queue dimensions must be positive"),
        )?;
        Ok(BoundedQueue {
            code: SeqCode::new(alphabet, capacity),
        })
    }

    /// The op id of `enq(k)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in the alphabet.
    pub fn enq_op(&self, k: usize) -> OpId {
        assert!(k < self.code.alphabet, "element out of alphabet");
        OpId(k as u16)
    }

    /// The op id of `deq`.
    pub fn deq_op(&self) -> OpId {
        OpId(self.code.alphabet as u16)
    }
}

impl ObjectType for BoundedQueue {
    fn name(&self) -> String {
        format!("queue<{},{}>", self.code.alphabet, self.code.capacity)
    }

    fn num_values(&self) -> usize {
        self.code.num_values()
    }

    fn num_ops(&self) -> usize {
        self.code.alphabet + 1
    }

    fn num_responses(&self) -> usize {
        self.code.alphabet + 3
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        let a = self.code.alphabet;
        let mut seq = self.code.decode(value.index());
        if op.index() < a {
            // enq(k)
            if seq.len() == self.code.capacity {
                Outcome::new(Response((a + 2) as u16), value)
            } else {
                seq.push(op.index());
                Outcome::new(
                    Response((a + 1) as u16),
                    ValueId(self.code.encode(&seq) as u16),
                )
            }
        } else {
            // deq
            if seq.is_empty() {
                Outcome::new(Response(a as u16), value)
            } else {
                let front = seq.remove(0);
                Outcome::new(
                    Response(front as u16),
                    ValueId(self.code.encode(&seq) as u16),
                )
            }
        }
    }

    fn value_name(&self, value: ValueId) -> String {
        let seq = self.code.decode(value.index());
        if seq.is_empty() {
            "[]".into()
        } else {
            format!(
                "[{}]",
                seq.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            )
        }
    }

    fn op_name(&self, op: OpId) -> String {
        if op.index() < self.code.alphabet {
            format!("enq({})", op.0)
        } else {
            "deq".into()
        }
    }

    fn response_name(&self, response: Response) -> String {
        let a = self.code.alphabet;
        match response.index() {
            r if r < a => format!("{r}"),
            r if r == a => "empty".into(),
            r if r == a + 1 => "ok".into(),
            _ => "full".into(),
        }
    }
}

/// A bounded LIFO stack over a small element alphabet.
///
/// Same value/operation/response layout as [`BoundedQueue`], but `pop`
/// removes the most recently pushed element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedStack {
    code: SeqCode,
}

impl BoundedStack {
    /// Creates a stack over `{0..alphabet}` holding at most `capacity`
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics where [`BoundedStack::try_new`] errs.
    pub fn new(alphabet: usize, capacity: usize) -> Self {
        Self::try_new(alphabet, capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: [`TypeSpecError::BadParameters`] if
    /// `alphabet == 0` or `capacity == 0`.
    pub fn try_new(alphabet: usize, capacity: usize) -> Result<Self, TypeSpecError> {
        require(
            alphabet > 0 && capacity > 0,
            format_args!("stack dimensions must be positive"),
        )?;
        Ok(BoundedStack {
            code: SeqCode::new(alphabet, capacity),
        })
    }

    /// The op id of `push(k)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in the alphabet.
    pub fn push_op(&self, k: usize) -> OpId {
        assert!(k < self.code.alphabet, "element out of alphabet");
        OpId(k as u16)
    }

    /// The op id of `pop`.
    pub fn pop_op(&self) -> OpId {
        OpId(self.code.alphabet as u16)
    }
}

impl ObjectType for BoundedStack {
    fn name(&self) -> String {
        format!("stack<{},{}>", self.code.alphabet, self.code.capacity)
    }

    fn num_values(&self) -> usize {
        self.code.num_values()
    }

    fn num_ops(&self) -> usize {
        self.code.alphabet + 1
    }

    fn num_responses(&self) -> usize {
        self.code.alphabet + 3
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        let a = self.code.alphabet;
        let mut seq = self.code.decode(value.index());
        if op.index() < a {
            if seq.len() == self.code.capacity {
                Outcome::new(Response((a + 2) as u16), value)
            } else {
                seq.push(op.index());
                Outcome::new(
                    Response((a + 1) as u16),
                    ValueId(self.code.encode(&seq) as u16),
                )
            }
        } else if seq.is_empty() {
            Outcome::new(Response(a as u16), value)
        } else {
            let top = seq.pop().expect("nonempty");
            Outcome::new(Response(top as u16), ValueId(self.code.encode(&seq) as u16))
        }
    }

    fn value_name(&self, value: ValueId) -> String {
        let seq = self.code.decode(value.index());
        if seq.is_empty() {
            "[]".into()
        } else {
            format!(
                "[{}]",
                seq.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            )
        }
    }

    fn op_name(&self, op: OpId) -> String {
        if op.index() < self.code.alphabet {
            format!("push({})", op.0)
        } else {
            "pop".into()
        }
    }

    fn response_name(&self, response: Response) -> String {
        let a = self.code.alphabet;
        match response.index() {
            r if r < a => format!("{r}"),
            r if r == a => "empty".into(),
            r if r == a + 1 => "ok".into(),
            _ => "full".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_type::check_closed;

    #[test]
    fn seq_code_round_trips() {
        let code = SeqCode::new(2, 3);
        assert_eq!(code.num_values(), 1 + 2 + 4 + 8);
        for id in 0..code.num_values() {
            let seq = code.decode(id);
            assert_eq!(code.encode(&seq), id, "sequence {seq:?}");
        }
    }

    #[test]
    fn queue_is_fifo() {
        let q = BoundedQueue::new(2, 3);
        assert!(check_closed(&q).is_ok());
        let v = q.apply(ValueId(0), q.enq_op(0)).next;
        let v = q.apply(v, q.enq_op(1)).next;
        let out = q.apply(v, q.deq_op());
        assert_eq!(out.response, Response(0));
        let out2 = q.apply(out.next, q.deq_op());
        assert_eq!(out2.response, Response(1));
        assert_eq!(out2.next, ValueId(0));
    }

    #[test]
    fn stack_is_lifo() {
        let s = BoundedStack::new(2, 3);
        assert!(check_closed(&s).is_ok());
        let v = s.apply(ValueId(0), s.push_op(0)).next;
        let v = s.apply(v, s.push_op(1)).next;
        let out = s.apply(v, s.pop_op());
        assert_eq!(out.response, Response(1));
    }

    #[test]
    fn empty_deq_and_pop_report_empty() {
        let q = BoundedQueue::new(2, 2);
        let out = q.apply(ValueId(0), q.deq_op());
        assert_eq!(q.response_name(out.response), "empty");
        assert_eq!(out.next, ValueId(0));
        let s = BoundedStack::new(2, 2);
        let out = s.apply(ValueId(0), s.pop_op());
        assert_eq!(s.response_name(out.response), "empty");
    }

    #[test]
    fn full_enq_and_push_are_rejected() {
        let q = BoundedQueue::new(2, 1);
        let v = q.apply(ValueId(0), q.enq_op(1)).next;
        let out = q.apply(v, q.enq_op(0));
        assert_eq!(q.response_name(out.response), "full");
        assert_eq!(out.next, v);
    }

    #[test]
    fn containers_are_not_readable() {
        assert!(!BoundedQueue::new(2, 2).is_readable());
        assert!(!BoundedStack::new(2, 2).is_readable());
    }

    #[test]
    fn value_names_render_contents() {
        let q = BoundedQueue::new(2, 2);
        let v = q.apply(ValueId(0), q.enq_op(1)).next;
        let v = q.apply(v, q.enq_op(0)).next;
        assert_eq!(q.value_name(v), "[1,0]");
        assert_eq!(q.value_name(ValueId(0)), "[]");
    }
}
