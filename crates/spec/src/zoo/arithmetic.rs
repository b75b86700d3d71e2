//! Arithmetic read-modify-write types: fetch-and-add, swap, compare-and-swap.
//!
//! These populate levels 2 and ∞ of Herlihy's hierarchy and give the deciders
//! a spread of readable types whose discerning and recording numbers we can
//! compare (experiment E8).

use crate::ids::{OpId, Outcome, Response, ValueId};
use crate::object_type::ObjectType;
use crate::zoo::{require, require_ids};
use crate::TypeSpecError;

/// Fetch-and-add over `Z_m` (addition modulo `m`).
///
/// * Values: `0..m`.
/// * Operations: `fetch&add(1)` (op 0), `read` (op 1).
/// * Responses: `0..m` (the old value).
///
/// Fetch-and-add has consensus number 2. The modulus keeps the type finite;
/// the deciders only ever explore boundedly many increments, so any `m`
/// larger than the process count under study behaves like the unbounded
/// type.
///
/// # Examples
///
/// ```
/// use rcn_spec::{zoo::FetchAndAdd, ObjectType, OpId, ValueId};
/// let faa = FetchAndAdd::new(4);
/// let out = faa.apply(ValueId::new(3), OpId::new(0));
/// assert_eq!(out.response.index(), 3); // returns the old value
/// assert_eq!(out.next, ValueId::new(0)); // wraps modulo 4
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchAndAdd {
    modulus: usize,
}

impl FetchAndAdd {
    /// Creates a fetch-and-add object over `Z_modulus`.
    ///
    /// # Panics
    ///
    /// Panics where [`FetchAndAdd::try_new`] errs.
    pub fn new(modulus: usize) -> Self {
        Self::try_new(modulus).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: [`TypeSpecError::BadParameters`] if `modulus < 2`,
    /// or if the type would have more than [`MAX_IDS`](crate::zoo::MAX_IDS)
    /// values, operations or responses.
    pub fn try_new(modulus: usize) -> Result<Self, TypeSpecError> {
        require(
            modulus >= 2,
            format_args!("fetch-and-add modulus must be at least 2, got {modulus}"),
        )?;
        require_ids(
            format_args!("fetch-and-add<{modulus}>"),
            [Some(modulus), Some(2), Some(modulus)],
        )?;
        Ok(FetchAndAdd { modulus })
    }
}

impl ObjectType for FetchAndAdd {
    fn name(&self) -> String {
        format!("fetch-and-add<{}>", self.modulus)
    }

    fn num_values(&self) -> usize {
        self.modulus
    }

    fn num_ops(&self) -> usize {
        2
    }

    fn num_responses(&self) -> usize {
        self.modulus
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        match op.index() {
            0 => {
                let next = ((value.index() + 1) % self.modulus) as u16;
                Outcome::new(Response(value.0), ValueId(next))
            }
            1 => Outcome::new(Response(value.0), value),
            _ => panic!("fetch-and-add has 2 operations, got {op}"),
        }
    }

    fn op_name(&self, op: OpId) -> String {
        match op.index() {
            0 => "fetch&add(1)".into(),
            _ => "read".into(),
        }
    }

    fn value_name(&self, value: ValueId) -> String {
        format!("{}", value.0)
    }

    fn response_name(&self, response: Response) -> String {
        format!("{}", response.0)
    }
}

/// Swap over a finite domain: write a constant, return the old value.
///
/// * Values: `0..domain`.
/// * Operations: `swap(k)` (op ids `0..domain`), `read` (op id `domain`).
/// * Responses: `0..domain` (the old value).
///
/// Swap has consensus number 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swap {
    domain: usize,
}

impl Swap {
    /// Creates a swap object over `{0, …, domain-1}`.
    ///
    /// # Panics
    ///
    /// Panics where [`Swap::try_new`] errs.
    pub fn new(domain: usize) -> Self {
        Self::try_new(domain).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: [`TypeSpecError::BadParameters`] if `domain == 0`,
    /// or if the type would have more than [`MAX_IDS`](crate::zoo::MAX_IDS)
    /// values, operations or responses.
    pub fn try_new(domain: usize) -> Result<Self, TypeSpecError> {
        require(domain > 0, format_args!("swap domain must be nonempty"))?;
        require_ids(
            format_args!("swap<{domain}>"),
            [Some(domain), domain.checked_add(1), Some(domain)],
        )?;
        Ok(Swap { domain })
    }

    /// The op id of `swap(k)`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= domain`.
    pub fn swap_op(&self, k: usize) -> OpId {
        assert!(k < self.domain, "swap value out of domain");
        OpId(k as u16)
    }
}

impl ObjectType for Swap {
    fn name(&self) -> String {
        format!("swap<{}>", self.domain)
    }

    fn num_values(&self) -> usize {
        self.domain
    }

    fn num_ops(&self) -> usize {
        self.domain + 1
    }

    fn num_responses(&self) -> usize {
        self.domain
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        if op.index() < self.domain {
            Outcome::new(Response(value.0), ValueId(op.0))
        } else {
            Outcome::new(Response(value.0), value)
        }
    }

    fn op_name(&self, op: OpId) -> String {
        if op.index() < self.domain {
            format!("swap({})", op.0)
        } else {
            "read".into()
        }
    }

    fn value_name(&self, value: ValueId) -> String {
        format!("{}", value.0)
    }

    fn response_name(&self, response: Response) -> String {
        format!("{}", response.0)
    }
}

/// Compare-and-swap over a finite domain, returning the old value.
///
/// * Values: `0..domain`.
/// * Operations: `cas(a,b)` for every ordered pair `(a,b)`
///   (op id `a*domain + b`). `cas(a,a)` never changes the value and returns
///   the old value, so it doubles as the read operation.
/// * Responses: `0..domain` (the old value).
///
/// Compare-and-swap has infinite consensus number; the decider reports its
/// discerning number as "at least the cap".
///
/// # Examples
///
/// ```
/// use rcn_spec::{zoo::CompareAndSwap, ObjectType, ValueId};
/// let cas = CompareAndSwap::new(3);
/// let out = cas.apply(ValueId::new(0), cas.cas_op(0, 2));
/// assert_eq!(out.next, ValueId::new(2)); // succeeded
/// let out = cas.apply(out.next, cas.cas_op(0, 1));
/// assert_eq!(out.next, ValueId::new(2)); // failed: value was 2, not 0
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompareAndSwap {
    domain: usize,
}

impl CompareAndSwap {
    /// Creates a compare-and-swap object over `{0, …, domain-1}`.
    ///
    /// # Panics
    ///
    /// Panics where [`CompareAndSwap::try_new`] errs.
    pub fn new(domain: usize) -> Self {
        Self::try_new(domain).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: [`TypeSpecError::BadParameters`] if `domain == 0`,
    /// or if the type would have more than [`MAX_IDS`](crate::zoo::MAX_IDS)
    /// values, operations or responses.
    pub fn try_new(domain: usize) -> Result<Self, TypeSpecError> {
        require(domain > 0, format_args!("cas domain must be nonempty"))?;
        require_ids(
            format_args!("compare-and-swap<{domain}>"),
            [Some(domain), domain.checked_mul(domain), Some(domain)],
        )?;
        Ok(CompareAndSwap { domain })
    }

    /// The op id of `cas(expected, new)`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is out of domain.
    pub fn cas_op(&self, expected: usize, new: usize) -> OpId {
        assert!(
            expected < self.domain && new < self.domain,
            "cas args out of domain"
        );
        OpId((expected * self.domain + new) as u16)
    }
}

impl ObjectType for CompareAndSwap {
    fn name(&self) -> String {
        format!("compare-and-swap<{}>", self.domain)
    }

    fn num_values(&self) -> usize {
        self.domain
    }

    fn num_ops(&self) -> usize {
        self.domain * self.domain
    }

    fn num_responses(&self) -> usize {
        self.domain
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        let expected = op.index() / self.domain;
        let new = op.index() % self.domain;
        let next = if value.index() == expected {
            ValueId(new as u16)
        } else {
            value
        };
        Outcome::new(Response(value.0), next)
    }

    fn op_name(&self, op: OpId) -> String {
        let expected = op.index() / self.domain;
        let new = op.index() % self.domain;
        format!("cas({expected},{new})")
    }

    fn value_name(&self, value: ValueId) -> String {
        format!("{}", value.0)
    }

    fn response_name(&self, response: Response) -> String {
        format!("{}", response.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_type::check_closed;

    #[test]
    fn faa_wraps_and_reports_old_value() {
        let faa = FetchAndAdd::new(3);
        assert!(check_closed(&faa).is_ok());
        let out = faa.apply(ValueId(2), OpId(0));
        assert_eq!(out.response, Response(2));
        assert_eq!(out.next, ValueId(0));
    }

    #[test]
    fn faa_is_readable() {
        assert!(FetchAndAdd::new(4).is_readable());
    }

    #[test]
    fn swap_returns_old_value() {
        let sw = Swap::new(3);
        assert!(check_closed(&sw).is_ok());
        let out = sw.apply(ValueId(1), sw.swap_op(2));
        assert_eq!(out.response, Response(1));
        assert_eq!(out.next, ValueId(2));
    }

    #[test]
    fn swap_read_is_detected() {
        let sw = Swap::new(2);
        assert_eq!(sw.read_op(), Some(OpId(2)));
    }

    #[test]
    fn cas_succeeds_only_on_match() {
        let cas = CompareAndSwap::new(3);
        assert!(check_closed(&cas).is_ok());
        let hit = cas.apply(ValueId(1), cas.cas_op(1, 2));
        assert_eq!(hit.next, ValueId(2));
        let miss = cas.apply(ValueId(1), cas.cas_op(0, 2));
        assert_eq!(miss.next, ValueId(1));
        assert_eq!(miss.response, Response(1));
    }

    #[test]
    fn cas_identity_op_is_a_read() {
        let cas = CompareAndSwap::new(3);
        // cas(a,a) never mutates and returns the old value.
        assert!(cas.is_read_op(cas.cas_op(0, 0)));
        assert!(cas.is_readable());
    }

    #[test]
    fn cas_op_ids_are_dense() {
        let cas = CompareAndSwap::new(2);
        assert_eq!(cas.cas_op(1, 1), OpId(3));
        assert_eq!(cas.num_ops(), 4);
        assert_eq!(cas.op_name(OpId(2)), "cas(1,0)");
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn cas_rejects_out_of_domain_args() {
        CompareAndSwap::new(2).cas_op(2, 0);
    }
}
