//! Readable gap families: types whose consensus number exceeds their
//! recoverable consensus number.
//!
//! The paper's corollary (via DFFR'22's type `X_n`) is that for all `n ≥ 4`
//! there is a readable type with consensus number `n` and recoverable
//! consensus number `n−2`. The definition of `X_n` lives in DFFR'22 (reference \[4\] of the paper) and
//! is not reproduced in this paper, so this module provides:
//!
//! * [`TeamCounter`]: a readable family we designed and machine-verify with
//!   the deciders in `rcn-decide` — consensus number `n`, recoverable
//!   consensus number `n−1` (i.e. `n`-discerning, not `(n+1)`-discerning,
//!   `(n−1)`-recording, not `n`-recording). It witnesses a gap of 1 for
//!   readable types.
//! * [`Xn`]: our reconstruction attempt at a gap-2 readable family,
//!   produced by decider-driven synthesis (see `rcn-decide::synthesis`).
//!
//! `TeamCounter` works by having the first mutation permanently record its
//! operation index while a counter tracks how many mutations happened; after
//! `n` mutations the object collapses to an uninformative absorbing value.
//! With `n` processes the last applier still receives the recorded team as
//! its response, so the type is `n`-discerning; with `n` processes the value
//! set collapses (both teams reach the absorbing value), so it is not
//! `n`-recording.

use crate::ids::{OpId, Outcome, Response, ValueId};
use crate::object_type::ObjectType;
use crate::{zoo::require, TypeSpecError};

/// A readable type with consensus number `n` and recoverable consensus
/// number `n−1`.
///
/// * Values: `u` (0), `full` (1), and `(x, i)` for `x ∈ {0,1}`,
///   `i ∈ {1,…,n−1}` — value id `2 + x·(n−1) + (i−1)`.
/// * Operations: `mut_0` (0), `mut_1` (1), `read` (2).
/// * Responses: `0`, `1`, `⊥` (2), plus value reports `3 + v` for `read`.
///
/// `mut_x` applied to `u` records `x` and starts the counter at `(x,1)`;
/// either mutator applied to `(x,i)` returns the recorded `x` and advances
/// the counter; the `n`-th mutation moves to the absorbing `full` value,
/// *still* returning the recorded team; mutations on `full` return `⊥`.
///
/// # Examples
///
/// ```
/// use rcn_spec::{zoo::TeamCounter, ObjectType};
/// let tc = TeamCounter::new(4);
/// assert!(tc.is_readable());
/// let out = tc.apply(tc.u(), tc.mut_op(1));
/// assert_eq!(out.response.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamCounter {
    n: usize,
}

impl TeamCounter {
    /// Creates the team counter with collapse depth `n`.
    ///
    /// # Panics
    ///
    /// Panics where [`TeamCounter::try_new`] errs.
    pub fn new(n: usize) -> Self {
        Self::try_new(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: [`TypeSpecError::BadParameters`] if `n < 2`.
    pub fn try_new(n: usize) -> Result<Self, TypeSpecError> {
        require(n >= 2, format_args!("team counter needs n >= 2, got {n}"))?;
        Ok(TeamCounter { n })
    }

    /// The parameter `n` (the consensus number of the family).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Value id of the initial value `u`.
    pub const fn u(&self) -> ValueId {
        ValueId(0)
    }

    /// Value id of the absorbing `full` value.
    pub const fn full(&self) -> ValueId {
        ValueId(1)
    }

    /// Value id of `(x, i)`.
    ///
    /// # Panics
    ///
    /// Panics unless `x ≤ 1` and `1 ≤ i ≤ n−1`.
    pub fn xi(&self, x: usize, i: usize) -> ValueId {
        assert!(x <= 1 && (1..self.n).contains(&i), "(x,i) out of range");
        ValueId((2 + x * (self.n - 1) + (i - 1)) as u16)
    }

    /// The op id of `mut_x`.
    ///
    /// # Panics
    ///
    /// Panics if `x > 1`.
    pub fn mut_op(&self, x: usize) -> OpId {
        assert!(x <= 1, "mut_x requires x in {{0,1}}");
        OpId(x as u16)
    }

    /// The op id of `read`.
    pub const fn read_op_id(&self) -> OpId {
        OpId(2)
    }

    fn decode(&self, value: ValueId) -> Option<(usize, usize)> {
        let idx = value.index();
        if idx < 2 {
            return None;
        }
        let off = idx - 2;
        Some((off / (self.n - 1), off % (self.n - 1) + 1))
    }
}

impl ObjectType for TeamCounter {
    fn name(&self) -> String {
        format!("team-counter<{}>", self.n)
    }

    fn num_values(&self) -> usize {
        2 * self.n
    }

    fn num_ops(&self) -> usize {
        3
    }

    fn num_responses(&self) -> usize {
        3 + self.num_values()
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        match op.index() {
            x @ (0 | 1) => {
                if value == self.u() {
                    Outcome::new(Response(x as u16), self.xi(x, 1))
                } else if value == self.full() {
                    Outcome::new(Response(2), value)
                } else {
                    let (team, i) = self.decode(value).expect("in-range value");
                    let next = if i < self.n - 1 {
                        self.xi(team, i + 1)
                    } else {
                        self.full()
                    };
                    Outcome::new(Response(team as u16), next)
                }
            }
            2 => Outcome::new(Response(3 + value.0), value),
            _ => panic!("team counter has 3 operations, got {op}"),
        }
    }

    fn value_name(&self, value: ValueId) -> String {
        if value == self.u() {
            "u".into()
        } else if value == self.full() {
            "full".into()
        } else {
            let (x, i) = self.decode(value).expect("in-range value");
            format!("({x},{i})")
        }
    }

    fn op_name(&self, op: OpId) -> String {
        match op.index() {
            2 => "read".into(),
            x => format!("mut_{x}"),
        }
    }

    fn response_name(&self, response: Response) -> String {
        match response.index() {
            0 => "0".into(),
            1 => "1".into(),
            2 => "⊥".into(),
            r => self.value_name(ValueId((r - 3) as u16)),
        }
    }
}

/// Reconstruction target for DFFR'22's readable type `X_n`
/// (consensus number `n`, recoverable consensus number `n−2`).
///
/// The construction of `X_n` is given in DFFR'22 (reference \[4\] of the paper), which this paper cites
/// but does not restate. Our reconstruction is produced by the decider-driven
/// synthesis in `rcn-decide`; see `EXPERIMENTS.md` (E6) for the verification
/// status of the shipped candidate. The wrapper exists so that the rest of
/// the workspace can refer to the family by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xn {
    n: usize,
    inner: crate::table::TableType,
}

impl Xn {
    /// Wraps a synthesized candidate table for parameter `n`.
    ///
    /// The caller (normally `rcn-decide::synthesis`) is responsible for
    /// having verified the discerning/recording numbers of `table`.
    pub fn from_table(n: usize, table: crate::table::TableType) -> Self {
        Xn { n, inner: table }
    }

    /// The parameter `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Access to the underlying table.
    pub fn table(&self) -> &crate::table::TableType {
        &self.inner
    }
}

impl ObjectType for Xn {
    fn name(&self) -> String {
        format!("X_{}", self.n)
    }

    fn num_values(&self) -> usize {
        self.inner.num_values()
    }

    fn num_ops(&self) -> usize {
        self.inner.num_ops()
    }

    fn num_responses(&self) -> usize {
        self.inner.num_responses()
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        self.inner.apply(value, op)
    }

    fn value_name(&self, value: ValueId) -> String {
        self.inner.value_name(value)
    }

    fn op_name(&self, op: OpId) -> String {
        self.inner.op_name(op)
    }

    fn response_name(&self, response: Response) -> String {
        self.inner.response_name(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_type::{apply_all, check_closed};

    #[test]
    fn team_counter_is_closed_and_readable() {
        for n in 2..6 {
            let tc = TeamCounter::new(n);
            assert!(check_closed(&tc).is_ok(), "n={n}");
            assert_eq!(tc.read_op(), Some(OpId(2)), "n={n}");
        }
    }

    #[test]
    fn all_n_mutations_report_the_first_team() {
        let tc = TeamCounter::new(4);
        let ops = vec![tc.mut_op(1), tc.mut_op(0), tc.mut_op(0), tc.mut_op(0)];
        let (outs, v) = apply_all(&tc, tc.u(), &ops);
        for out in &outs {
            assert_eq!(out.response, Response(1));
        }
        assert_eq!(v, tc.full());
    }

    #[test]
    fn mutation_past_collapse_is_uninformative() {
        let tc = TeamCounter::new(3);
        let ops = vec![tc.mut_op(0); 4];
        let (outs, _) = apply_all(&tc, tc.u(), &ops);
        assert_eq!(outs[2].response, Response(0)); // n-th mutation still informs
        assert_eq!(outs[3].response, Response(2)); // (n+1)-th does not
    }

    #[test]
    fn read_reports_the_exact_value() {
        let tc = TeamCounter::new(4);
        for v in 0..tc.num_values() {
            let value = ValueId(v as u16);
            let out = tc.apply(value, tc.read_op_id());
            assert_eq!(out.next, value);
            assert_eq!(out.response, Response(3 + v as u16));
        }
    }

    #[test]
    fn value_names_are_stable() {
        let tc = TeamCounter::new(3);
        assert_eq!(tc.value_name(tc.u()), "u");
        assert_eq!(tc.value_name(tc.full()), "full");
        assert_eq!(tc.value_name(tc.xi(1, 2)), "(1,2)");
    }

    #[test]
    fn xn_wrapper_delegates_to_table() {
        let tc = TeamCounter::new(3);
        let table = crate::table::TableType::from_type(&tc);
        let xn = Xn::from_table(3, table.clone());
        assert_eq!(xn.name(), "X_3");
        assert_eq!(xn.num_values(), table.num_values());
        assert_eq!(
            xn.apply(ValueId(0), OpId(0)),
            table.apply(ValueId(0), OpId(0))
        );
        assert_eq!(xn.table(), &table);
    }
}
