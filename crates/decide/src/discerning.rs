//! The *n-discerning* condition (Ruppert 2000, as restated in §2 of the
//! paper) and its decision procedure.
//!
//! A deterministic type `T` is *n-discerning* if there exist a value `u`, a
//! partition of the processes into two nonempty teams, and an operation
//! `o_i` per process such that for all `j`, `R_{0,j} ∩ R_{1,j} = ∅`, where
//! `R_{x,j}` is the set of pairs `(r, v)` arising from schedules
//! `σ ∈ S(P)` containing `p_j` whose first process is on team `x`: `r` is
//! the response of `p_j`'s operation and `v` the resulting value of the
//! object.
//!
//! Ruppert proved that a deterministic **readable** type has consensus
//! number ≥ n **iff** it is n-discerning, and that n-discerning is necessary
//! for any deterministic type.

use crate::engine::{or_panic, SearchEngine};
use crate::reach::Analysis;
use crate::witness::{Witness, WitnessError};
use rcn_spec::ObjectType;
use serde::{Deserialize, Serialize};

/// Checks whether a concrete witness establishes that `ty` is
/// `witness.n()`-discerning.
///
/// # Errors
///
/// Returns [`WitnessError`] if the witness is malformed for `ty`.
///
/// # Examples
///
/// ```
/// use rcn_decide::{check_discerning, Team, Witness};
/// use rcn_spec::{zoo::TestAndSet, OpId, ValueId};
///
/// // Test-and-set is 2-discerning: both processes apply test&set from the
/// // clear value; the winner's response (0) betrays who went first.
/// let w = Witness::new(
///     ValueId::new(0),
///     vec![Team::T0, Team::T1],
///     vec![OpId::new(0), OpId::new(0)],
/// );
/// assert_eq!(check_discerning(&TestAndSet::new(), &w), Ok(true));
/// ```
pub fn check_discerning<T: ObjectType + ?Sized>(
    ty: &T,
    witness: &Witness,
) -> Result<bool, WitnessError> {
    witness.validate(ty)?;
    let analysis = Analysis::new(ty, witness.initial, &witness.ops);
    let (t0, t1) = witness.team_masks();
    Ok(pairs_disjoint(&analysis, t0, t1))
}

/// `R_{0,j} ∩ R_{1,j} = ∅` for every `j`, for the teams with bitmasks `t0`
/// and `t1`: each pair-set word of both unions is ORed on the stack.
pub(crate) fn pairs_disjoint(analysis: &Analysis, t0: u32, t1: u32) -> bool {
    (0..analysis.n()).all(|j| {
        (0..analysis.pair_width())
            .all(|w| analysis.pair_word(t0, j, w) & analysis.pair_word(t1, j, w) == 0)
    })
}

/// Searches exhaustively for an `n`-discerning witness, on
/// [`SearchEngine::sequential`].
///
/// Returns the first witness found (initial values in id order, op
/// assignments in multiset order, partitions with `p_0 ∈ T_0`), or `None`
/// if the type is not `n`-discerning.
///
/// # Panics
///
/// Panics with the [`SearchError`](crate::SearchError) message if `n < 2`
/// (the condition requires two nonempty teams), if `n > MAX_PROCESSES`, or
/// if the type's `apply` panics.
pub fn find_discerning_witness<T: ObjectType + Sync + ?Sized>(ty: &T, n: usize) -> Option<Witness> {
    or_panic(SearchEngine::sequential().find_discerning_witness(ty, n))
}

/// Returns `true` if `ty` is `n`-discerning.
///
/// # Panics
///
/// As [`find_discerning_witness`].
pub fn is_n_discerning<T: ObjectType + Sync + ?Sized>(ty: &T, n: usize) -> bool {
    find_discerning_witness(ty, n).is_some()
}

/// The result of computing a level (discerning number / recording number)
/// by scanning `n = 2, 3, …` up to a cap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelResult {
    /// The largest `n` for which the property holds (1 if it fails at 2 —
    /// level 1 is the trivial single-process level).
    pub level: usize,
    /// `true` if the property still held at the cap, so `level` is only a
    /// lower bound.
    pub capped: bool,
    /// A witness at `level`, when `level ≥ 2`.
    pub witness: Option<Witness>,
}

impl LevelResult {
    /// Renders `level` with a `≥` when capped.
    pub fn display_level(&self) -> String {
        if self.capped {
            format!("≥{}", self.level)
        } else {
            format!("{}", self.level)
        }
    }
}

/// Computes the *discerning number* of `ty`: the largest `n ≤ cap` such
/// that `ty` is `n`-discerning (1 if it is not even 2-discerning).
///
/// Both conditions are monotone in `n` (drop a process from a team of size
/// ≥ 2 and the `R`/`U` sets shrink), so a linear scan from 2 is exact.
///
/// For a deterministic **readable** type the discerning number *is* the
/// consensus number (Ruppert); for other deterministic types it is an upper
/// bound.
///
/// # Panics
///
/// Panics with the [`SearchError`](crate::SearchError) message if
/// `cap < 2`, if `cap > MAX_PROCESSES`, or if the type's `apply` panics.
///
/// # Examples
///
/// ```
/// use rcn_decide::discerning_number;
/// use rcn_spec::zoo::{Register, TestAndSet};
///
/// assert_eq!(discerning_number(&Register::new(2), 4).level, 1);
/// assert_eq!(discerning_number(&TestAndSet::new(), 4).level, 2);
/// ```
pub fn discerning_number<T: ObjectType + Sync + ?Sized>(ty: &T, cap: usize) -> LevelResult {
    or_panic(SearchEngine::sequential().discerning_number(ty, cap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::Team;
    use rcn_spec::zoo::{
        BoundedQueue, CompareAndSwap, ConsensusObject, FetchAndAdd, Register, StickyBit, Swap,
        TestAndSet,
    };
    use rcn_spec::ValueId;

    #[test]
    fn register_is_not_2_discerning() {
        // Registers have consensus number 1 (FLP-style).
        assert!(!is_n_discerning(&Register::new(2), 2));
        assert!(!is_n_discerning(&Register::new(3), 2));
    }

    #[test]
    fn test_and_set_has_discerning_number_2() {
        let tas = TestAndSet::new();
        assert!(is_n_discerning(&tas, 2));
        assert!(!is_n_discerning(&tas, 3));
        let res = discerning_number(&tas, 5);
        assert_eq!(res.level, 2);
        assert!(!res.capped);
        let w = res.witness.expect("witness at level 2");
        assert_eq!(check_discerning(&tas, &w), Ok(true));
    }

    #[test]
    fn fetch_and_add_has_discerning_number_2() {
        let faa = FetchAndAdd::new(5);
        let res = discerning_number(&faa, 4);
        assert_eq!(res.level, 2);
    }

    #[test]
    fn swap_has_discerning_number_2() {
        let res = discerning_number(&Swap::new(2), 4);
        assert_eq!(res.level, 2);
    }

    #[test]
    fn queue_is_discerning_at_every_level_but_not_readable() {
        // Instructive: with enq-only witnesses the queue's head records the
        // first enqueuer forever, so the queue is n-discerning for every n.
        // This does NOT contradict Herlihy's CN(queue) = 2: the queue is not
        // readable, and for non-readable types n-discerning is necessary but
        // not sufficient — no process can observe the head non-destructively.
        let q = BoundedQueue::new(2, 2);
        assert!(!q.is_readable());
        let res = discerning_number(&q, 4);
        assert!(res.capped);
        assert_eq!(res.level, 4);
    }

    #[test]
    fn cas_and_sticky_bit_hit_the_cap() {
        // Note the domain: over {0,1,2} a first cas(0,1)/cas(0,2) is
        // permanently visible; binary CAS behaves like test-and-set.
        assert!(discerning_number(&CompareAndSwap::new(3), 4).capped);
        let sticky = discerning_number(&StickyBit::new(), 5);
        assert!(sticky.capped);
        assert_eq!(sticky.level, 5);
        assert!(discerning_number(&ConsensusObject::new(), 4).capped);
    }

    #[test]
    fn witnesses_replay() {
        for n in 2..5 {
            let w = find_discerning_witness(&StickyBit::new(), n).expect("sticky bit witness");
            assert_eq!(check_discerning(&StickyBit::new(), &w), Ok(true), "n={n}");
        }
    }

    #[test]
    fn malformed_witness_is_an_error() {
        let w = Witness::new(ValueId::new(9), vec![Team::T0, Team::T1], vec![]);
        assert!(check_discerning(&TestAndSet::new(), &w).is_err());
    }

    #[test]
    fn level_result_display() {
        let r = LevelResult {
            level: 4,
            capped: true,
            witness: None,
        };
        assert_eq!(r.display_level(), "≥4");
        let r = LevelResult {
            level: 2,
            capped: false,
            witness: None,
        };
        assert_eq!(r.display_level(), "2");
    }
}
