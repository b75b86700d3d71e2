//! Multi-valued consensus object: the building block of universal
//! constructions.
//!
//! The paper (§1) recalls that recoverable consensus is *universal*: any
//! object can be implemented in a recoverable wait-free manner from objects
//! with high enough recoverable consensus number plus registers
//! (Delporte-Gallet–Fatourou–Fauconnier–Ruppert). The `rcn-universal` crate
//! implements that construction; its per-slot agreement objects are
//! instances of this type.

use crate::ids::{OpId, Outcome, Response, ValueId};
use crate::object_type::ObjectType;
use crate::{zoo::require, TypeSpecError};

/// A consensus object over the domain `{0, …, domain-1}`.
///
/// * Values: `⊥` (0) and `decided-k` (`k + 1`).
/// * Operations: `propose(k)` for each `k` (op ids `0..domain`), `read`
///   (op id `domain`).
/// * Responses: `0..domain` (the decided value), `⊥` (`domain`, returned
///   only by `read` on an undecided object).
///
/// The first proposal decides permanently; every later operation returns
/// the decided value. Like the binary [`ConsensusObject`], this type is
/// n-recording and readable for every `n`, hence sits at the top of the
/// recoverable hierarchy.
///
/// [`ConsensusObject`]: crate::zoo::ConsensusObject
///
/// # Examples
///
/// ```
/// use rcn_spec::{zoo::MultiConsensus, ObjectType, ValueId};
/// let mc = MultiConsensus::new(3);
/// let first = mc.apply(ValueId::new(0), mc.propose_op(2));
/// assert_eq!(first.response.index(), 2);
/// let later = mc.apply(first.next, mc.propose_op(0));
/// assert_eq!(later.response.index(), 2); // the first proposal won
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiConsensus {
    domain: usize,
}

impl MultiConsensus {
    /// Creates a consensus object over `{0, …, domain-1}` (initially
    /// undecided by convention).
    ///
    /// # Panics
    ///
    /// Panics where [`MultiConsensus::try_new`] errs.
    pub fn new(domain: usize) -> Self {
        Self::try_new(domain).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: [`TypeSpecError::BadParameters`] if `domain == 0`.
    pub fn try_new(domain: usize) -> Result<Self, TypeSpecError> {
        require(
            domain > 0,
            format_args!("consensus domain must be nonempty"),
        )?;
        Ok(MultiConsensus { domain })
    }

    /// The size of the proposal domain.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// The op id of `propose(k)`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= domain`.
    pub fn propose_op(&self, k: usize) -> OpId {
        assert!(k < self.domain, "proposal out of domain");
        OpId(k as u16)
    }

    /// The op id of `read`.
    pub fn read_op_id(&self) -> OpId {
        OpId(self.domain as u16)
    }

    /// The response meaning "undecided" (returned only by `read`).
    pub fn undecided_response(&self) -> Response {
        Response(self.domain as u16)
    }

    /// Decodes a decided value from a value id, if decided.
    pub fn decided(&self, value: ValueId) -> Option<usize> {
        (value.index() > 0).then(|| value.index() - 1)
    }
}

impl ObjectType for MultiConsensus {
    fn name(&self) -> String {
        format!("consensus<{}>", self.domain)
    }

    fn num_values(&self) -> usize {
        self.domain + 1
    }

    fn num_ops(&self) -> usize {
        self.domain + 1
    }

    fn num_responses(&self) -> usize {
        self.domain + 1
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        if op.index() < self.domain {
            // propose(k)
            match self.decided(value) {
                None => Outcome::new(Response(op.0), ValueId(op.0 + 1)),
                Some(w) => Outcome::new(Response(w as u16), value),
            }
        } else {
            // read
            match self.decided(value) {
                None => Outcome::new(self.undecided_response(), value),
                Some(w) => Outcome::new(Response(w as u16), value),
            }
        }
    }

    fn value_name(&self, value: ValueId) -> String {
        match self.decided(value) {
            None => "⊥".into(),
            Some(w) => format!("decided-{w}"),
        }
    }

    fn op_name(&self, op: OpId) -> String {
        if op.index() < self.domain {
            format!("propose({})", op.0)
        } else {
            "read".into()
        }
    }

    fn response_name(&self, response: Response) -> String {
        if response.index() < self.domain {
            format!("{}", response.0)
        } else {
            "⊥".into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_type::check_closed;

    #[test]
    fn multi_consensus_is_closed_and_readable() {
        for d in [1, 2, 3, 5] {
            let mc = MultiConsensus::new(d);
            assert!(check_closed(&mc).is_ok(), "domain {d}");
            assert_eq!(mc.read_op(), Some(mc.read_op_id()), "domain {d}");
        }
    }

    #[test]
    fn first_proposal_wins_forever() {
        let mc = MultiConsensus::new(4);
        let mut v = ValueId::new(0);
        v = mc.apply(v, mc.propose_op(3)).next;
        for k in 0..4 {
            let out = mc.apply(v, mc.propose_op(k));
            assert_eq!(out.response, Response(3));
            assert_eq!(out.next, v);
        }
    }

    #[test]
    fn read_distinguishes_undecided() {
        let mc = MultiConsensus::new(2);
        let out = mc.apply(ValueId::new(0), mc.read_op_id());
        assert_eq!(out.response, mc.undecided_response());
        let v = mc.apply(ValueId::new(0), mc.propose_op(1)).next;
        let out = mc.apply(v, mc.read_op_id());
        assert_eq!(out.response, Response(1));
    }

    #[test]
    fn decided_decoding() {
        let mc = MultiConsensus::new(3);
        assert_eq!(mc.decided(ValueId::new(0)), None);
        assert_eq!(mc.decided(ValueId::new(2)), Some(1));
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_proposal_panics() {
        MultiConsensus::new(2).propose_op(2);
    }
}
