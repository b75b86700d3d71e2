//! Read/write register over a finite domain.
//!
//! Registers are the "free" objects of both hierarchies: every algorithm in
//! the paper may use registers in addition to objects of the type under
//! study. Their consensus number (and recoverable consensus number) is 1.

use crate::ids::{OpId, Outcome, Response, ValueId};
use crate::object_type::ObjectType;
use crate::{zoo::require, TypeSpecError};

/// A read/write register over the domain `{0, …, domain-1}`.
///
/// * Values: `0..domain`.
/// * Operations: `write(k)` for each `k` (op ids `0..domain`), then `read`
///   (op id `domain`).
/// * Responses: `0..domain` (read results), plus `domain` (`ack`, returned
///   by writes).
///
/// # Examples
///
/// ```
/// use rcn_spec::{zoo::Register, ObjectType, ValueId};
/// let reg = Register::new(3);
/// let out = reg.apply(ValueId::new(0), reg.write_op(2));
/// assert_eq!(out.next, ValueId::new(2));
/// let out = reg.apply(out.next, reg.read_op().unwrap());
/// assert_eq!(out.response.index(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    domain: usize,
}

impl Register {
    /// Creates a register over `{0, …, domain-1}`.
    ///
    /// # Panics
    ///
    /// Panics where [`Register::try_new`] errs.
    pub fn new(domain: usize) -> Self {
        Self::try_new(domain).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: [`TypeSpecError::BadParameters`] if `domain == 0`.
    pub fn try_new(domain: usize) -> Result<Self, TypeSpecError> {
        require(domain > 0, format_args!("register domain must be nonempty"))?;
        Ok(Register { domain })
    }

    /// The size of the value domain.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// The op id of `write(k)`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= domain`.
    pub fn write_op(&self, k: usize) -> OpId {
        assert!(k < self.domain, "write value out of domain");
        OpId(k as u16)
    }
}

impl Default for Register {
    /// A binary register.
    fn default() -> Self {
        Register::new(2)
    }
}

impl ObjectType for Register {
    fn name(&self) -> String {
        format!("register<{}>", self.domain)
    }

    fn num_values(&self) -> usize {
        self.domain
    }

    fn num_ops(&self) -> usize {
        self.domain + 1
    }

    fn num_responses(&self) -> usize {
        self.domain + 1
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        let ack = Response(self.domain as u16);
        if op.index() < self.domain {
            // write(k): acknowledge and overwrite.
            Outcome::new(ack, ValueId(op.0))
        } else {
            // read: return the current value, unchanged.
            Outcome::new(Response(value.0), value)
        }
    }

    fn value_name(&self, value: ValueId) -> String {
        format!("{}", value.0)
    }

    fn op_name(&self, op: OpId) -> String {
        if op.index() < self.domain {
            format!("write({})", op.0)
        } else {
            "read".into()
        }
    }

    fn response_name(&self, response: Response) -> String {
        if response.index() < self.domain {
            format!("{}", response.0)
        } else {
            "ack".into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_type::check_closed;

    #[test]
    fn register_is_closed_and_readable() {
        let reg = Register::new(4);
        assert!(check_closed(&reg).is_ok());
        assert!(reg.is_readable());
        assert_eq!(reg.read_op(), Some(OpId(4)));
    }

    #[test]
    fn write_overwrites_and_acks() {
        let reg = Register::new(2);
        let out = reg.apply(ValueId(0), reg.write_op(1));
        assert_eq!(out.next, ValueId(1));
        assert_eq!(reg.response_name(out.response), "ack");
    }

    #[test]
    fn read_is_non_mutating_and_injective() {
        let reg = Register::new(3);
        for v in 0..3 {
            let out = reg.apply(ValueId(v), OpId(3));
            assert_eq!(out.next, ValueId(v));
            assert_eq!(out.response, Response(v));
        }
    }

    #[test]
    fn last_write_wins() {
        let reg = Register::new(3);
        let v = reg.apply(ValueId(0), reg.write_op(1)).next;
        let v = reg.apply(v, reg.write_op(2)).next;
        assert_eq!(v, ValueId(2));
    }

    #[test]
    #[should_panic(expected = "write value out of domain")]
    fn write_out_of_domain_panics() {
        Register::new(2).write_op(2);
    }

    #[test]
    fn names_are_human_readable() {
        let reg = Register::new(2);
        assert_eq!(reg.op_name(OpId(0)), "write(0)");
        assert_eq!(reg.op_name(OpId(2)), "read");
        assert_eq!(reg.value_name(ValueId(1)), "1");
    }
}
