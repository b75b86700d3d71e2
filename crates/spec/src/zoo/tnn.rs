//! The paper's type `T_{n,n'}` (§4): consensus number `n`, recoverable
//! consensus number `n'`, for all `n > n' ≥ 1`.
//!
//! Quoting the specification (§4 of the paper):
//!
//! * values: `s`, `s_⊥`, and `s_{x,i}` for `x ∈ {0,1}`, `i ∈ {1,…,n−1}`
//!   (2n values in total);
//! * `op_0` on `s` returns 0 and moves to `s_{0,1}`; `op_1` on `s` returns 1
//!   and moves to `s_{1,1}`;
//! * `op_0`/`op_1` on `s_{x,i}` with `i < n−1` return `x` and move to
//!   `s_{x,i+1}`; on `s_{x,n−1}` they return `x` and move to `s_⊥`;
//! * every operation on `s_⊥` returns `⊥` and leaves the value unchanged;
//! * `op_R` behaves like a read — returns the current value without changing
//!   it — except on `s_{x,i}` with `i > n'`, where it returns `⊥` and
//!   *breaks* the object by moving it to `s_⊥`.
//!
//! The counter embedded in the values records both the team of the first
//! operation and how many `op_0`/`op_1` operations have been applied; `op_R`
//! destroys the object exactly when too many operations have already been
//! applied, which is what caps the *recoverable* consensus number at `n'`
//! while leaving the plain consensus number at `n`.

use crate::ids::{OpId, Outcome, Response, ValueId};
use crate::object_type::ObjectType;
use crate::{zoo::require, TypeSpecError};

/// The deterministic type `T_{n,n'}` of §4 of the paper.
///
/// Value ids: `s` = 0, `s_⊥` = 1, `s_{x,i}` = `2 + x·(n−1) + (i−1)`.
/// Op ids: `op_0` = 0, `op_1` = 1, `op_R` = 2.
/// Response ids: `0`, `1`, `⊥` = 2, and `value(v)` = `3 + v` for the value
/// reports of `op_R`.
///
/// # Examples
///
/// ```
/// use rcn_spec::{zoo::Tnn, ObjectType};
/// let t = Tnn::new(5, 2);
/// assert_eq!(t.num_values(), 10); // 2n values, as in Figure 3
/// assert!(!t.is_readable());      // op_R is destructive on deep values
/// assert!(Tnn::new(5, 4).is_readable()); // …but T_{n,n-1} never destroys
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tnn {
    n: usize,
    n_prime: usize,
}

impl Tnn {
    /// Creates `T_{n,n'}`.
    ///
    /// # Panics
    ///
    /// Panics where [`Tnn::try_new`] errs.
    pub fn new(n: usize, n_prime: usize) -> Self {
        Self::try_new(n, n_prime).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`]: [`TypeSpecError::BadParameters`] unless `n > n' ≥ 1`.
    pub fn try_new(n: usize, n_prime: usize) -> Result<Self, TypeSpecError> {
        require(
            n > n_prime && n_prime >= 1,
            format_args!("T_(n,n') requires n > n' >= 1, got n={n}, n'={n_prime}"),
        )?;
        Ok(Tnn { n, n_prime })
    }

    /// The parameter `n` (the consensus number, Lemma 15).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The parameter `n'` (the recoverable consensus number, Lemma 16).
    pub fn n_prime(&self) -> usize {
        self.n_prime
    }

    /// Value id of the initial value `s`.
    pub const fn s(&self) -> ValueId {
        ValueId(0)
    }

    /// Value id of the broken value `s_⊥`.
    pub const fn s_bottom(&self) -> ValueId {
        ValueId(1)
    }

    /// Value id of `s_{x,i}`.
    ///
    /// # Panics
    ///
    /// Panics unless `x ≤ 1` and `1 ≤ i ≤ n−1`.
    pub fn s_xi(&self, x: usize, i: usize) -> ValueId {
        assert!(x <= 1 && (1..self.n).contains(&i), "s_(x,i) out of range");
        ValueId((2 + x * (self.n - 1) + (i - 1)) as u16)
    }

    /// Decodes a value id into `(x, i)` if it is some `s_{x,i}`.
    pub fn decode(&self, value: ValueId) -> Option<(usize, usize)> {
        let idx = value.index();
        if idx < 2 {
            return None;
        }
        let off = idx - 2;
        let x = off / (self.n - 1);
        let i = off % (self.n - 1) + 1;
        (x <= 1).then_some((x, i))
    }

    /// The op id of `op_x`.
    ///
    /// # Panics
    ///
    /// Panics if `x > 1`.
    pub fn op_x(&self, x: usize) -> OpId {
        assert!(x <= 1, "op_x requires x in {{0,1}}");
        OpId(x as u16)
    }

    /// The op id of `op_R`.
    pub const fn op_r(&self) -> OpId {
        OpId(2)
    }

    /// The response id meaning "the value is `v`" (returned by `op_R`).
    pub fn value_response(&self, v: ValueId) -> Response {
        Response(3 + v.0)
    }

    /// The response id of `⊥`.
    pub const fn bottom_response(&self) -> Response {
        Response(2)
    }
}

impl ObjectType for Tnn {
    fn name(&self) -> String {
        format!("T_({},{})", self.n, self.n_prime)
    }

    fn num_values(&self) -> usize {
        2 * self.n
    }

    fn num_ops(&self) -> usize {
        3
    }

    fn num_responses(&self) -> usize {
        // 0, 1, ⊥, plus a value-report response per value (op_R only ever
        // reports s and shallow s_{x,i}, but we keep the space dense).
        3 + self.num_values()
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        let bottom = self.bottom_response();
        match op.index() {
            x @ (0 | 1) => {
                if value == self.s() {
                    // First operation records its own index.
                    Outcome::new(Response(x as u16), self.s_xi(x, 1))
                } else if value == self.s_bottom() {
                    Outcome::new(bottom, value)
                } else {
                    let (team, i) = self.decode(value).expect("in-range value");
                    let next = if i < self.n - 1 {
                        self.s_xi(team, i + 1)
                    } else {
                        self.s_bottom()
                    };
                    Outcome::new(Response(team as u16), next)
                }
            }
            2 => {
                if value == self.s_bottom() {
                    Outcome::new(bottom, value)
                } else if value == self.s() {
                    Outcome::new(self.value_response(value), value)
                } else {
                    let (_, i) = self.decode(value).expect("in-range value");
                    if i <= self.n_prime {
                        Outcome::new(self.value_response(value), value)
                    } else {
                        // op_R "breaks" the object past depth n'.
                        Outcome::new(bottom, self.s_bottom())
                    }
                }
            }
            _ => panic!("T_(n,n') has 3 operations, got {op}"),
        }
    }

    fn value_name(&self, value: ValueId) -> String {
        if value == self.s() {
            "s".into()
        } else if value == self.s_bottom() {
            "s_⊥".into()
        } else {
            let (x, i) = self.decode(value).expect("in-range value");
            format!("s_({x},{i})")
        }
    }

    fn op_name(&self, op: OpId) -> String {
        match op.index() {
            2 => "op_R".into(),
            x => format!("op_{x}"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_type::{apply_all, check_closed};

    #[test]
    fn t52_matches_figure_3_dimensions() {
        let t = Tnn::new(5, 2);
        assert!(check_closed(&t).is_ok());
        assert_eq!(t.num_values(), 10);
        assert_eq!(t.num_ops(), 3);
    }

    #[test]
    fn first_op_records_its_index() {
        let t = Tnn::new(5, 2);
        let out0 = t.apply(t.s(), t.op_x(0));
        assert_eq!(out0.response, Response(0));
        assert_eq!(out0.next, t.s_xi(0, 1));
        let out1 = t.apply(t.s(), t.op_x(1));
        assert_eq!(out1.response, Response(1));
        assert_eq!(out1.next, t.s_xi(1, 1));
    }

    #[test]
    fn next_n_minus_1_ops_return_first_value() {
        // "the first operation applied to O determines the value returned by
        // the next n−1 operations applied to O" (§4).
        let t = Tnn::new(5, 2);
        let ops = vec![t.op_x(1), t.op_x(0), t.op_x(0), t.op_x(1), t.op_x(0)];
        let (outs, v) = apply_all(&t, t.s(), &ops);
        for out in &outs {
            assert_eq!(out.response, Response(1), "all n ops see the first value");
        }
        assert_eq!(v, t.s_bottom(), "the n-th op exhausts the counter");
    }

    #[test]
    fn n_plus_first_op_returns_bottom() {
        let t = Tnn::new(3, 1);
        let ops = vec![t.op_x(0); 4];
        let (outs, _) = apply_all(&t, t.s(), &ops);
        assert_eq!(outs[2].response, Response(0));
        assert_eq!(outs[3].response, t.bottom_response());
    }

    #[test]
    fn op_r_reads_shallow_values() {
        let t = Tnn::new(5, 2);
        // Depth 1 and 2 are ≤ n' = 2: op_R reports the value, non-mutating.
        let v1 = t.apply(t.s(), t.op_x(0)).next;
        let out = t.apply(v1, t.op_r());
        assert_eq!(out.response, t.value_response(v1));
        assert_eq!(out.next, v1);
        let v2 = t.apply(v1, t.op_x(1)).next;
        let out = t.apply(v2, t.op_r());
        assert_eq!(out.response, t.value_response(v2));
        assert_eq!(out.next, v2);
    }

    #[test]
    fn op_r_breaks_deep_values() {
        let t = Tnn::new(5, 2);
        let v3 = t.s_xi(0, 3); // depth 3 > n' = 2
        let out = t.apply(v3, t.op_r());
        assert_eq!(out.response, t.bottom_response());
        assert_eq!(out.next, t.s_bottom());
    }

    #[test]
    fn op_r_on_initial_value_reports_s() {
        let t = Tnn::new(4, 2);
        let out = t.apply(t.s(), t.op_r());
        assert_eq!(out.response, t.value_response(t.s()));
        assert_eq!(out.next, t.s());
    }

    #[test]
    fn bottom_absorbs_everything() {
        let t = Tnn::new(4, 2);
        for op in 0..3u16 {
            let out = t.apply(t.s_bottom(), OpId(op));
            assert_eq!(out.response, t.bottom_response());
            assert_eq!(out.next, t.s_bottom());
        }
    }

    #[test]
    fn readability_depends_on_gap() {
        // op_R is destructive iff some s_{x,i} with i > n' exists, i.e.
        // iff n' < n−1.
        assert!(!Tnn::new(5, 2).is_readable());
        assert!(!Tnn::new(3, 1).is_readable());
        assert!(Tnn::new(5, 4).is_readable());
        assert!(Tnn::new(2, 1).is_readable());
    }

    #[test]
    fn value_names_match_paper_notation() {
        let t = Tnn::new(5, 2);
        assert_eq!(t.value_name(t.s()), "s");
        assert_eq!(t.value_name(t.s_bottom()), "s_⊥");
        assert_eq!(t.value_name(t.s_xi(1, 3)), "s_(1,3)");
        assert_eq!(t.op_name(t.op_r()), "op_R");
    }

    #[test]
    fn decode_inverts_s_xi() {
        let t = Tnn::new(6, 3);
        for x in 0..2 {
            for i in 1..6 {
                assert_eq!(t.decode(t.s_xi(x, i)), Some((x, i)));
            }
        }
        assert_eq!(t.decode(t.s()), None);
        assert_eq!(t.decode(t.s_bottom()), None);
    }

    #[test]
    #[should_panic(expected = "requires n > n'")]
    fn invalid_parameters_are_rejected() {
        Tnn::new(3, 3);
    }
}
