//! The *n-recording* condition (DFFR'22, as restated in §2 of the paper)
//! and its decision procedure.
//!
//! A deterministic type `T` is *n-recording* if there exist a value `u`, a
//! partition of the processes into two nonempty teams, and an operation
//! `o_i` per process such that:
//!
//! * `U_0 ∩ U_1 = ∅`, where `U_x` is the set of values resulting from
//!   schedules `σ ∈ S(P)` whose first process is on team `x`, and
//! * if `u ∈ U_x`, then `|T_x̄| = 1` (the *hiding* clause: if team `x` can
//!   leave the object looking untouched, the other team must be a single
//!   process).
//!
//! This paper's **Theorem 13** shows n-recording is *necessary* for solving
//! n-process recoverable wait-free consensus with deterministic types;
//! DFFR'22 (Theorem 8) shows it is *sufficient* for deterministic readable
//! types. Hence for readable deterministic types the *recording number*
//! computed here **is** the recoverable consensus number.

use crate::discerning::LevelResult;
use crate::reach::Analysis;
use crate::search::{op_multisets, partitions, team_of};
use crate::witness::{Witness, WitnessError};
use rcn_spec::{ObjectType, ValueId};

/// Checks whether a concrete witness establishes that `ty` is
/// `witness.n()`-recording.
///
/// # Errors
///
/// Returns [`WitnessError`] if the witness is malformed for `ty`.
///
/// # Examples
///
/// ```
/// use rcn_decide::{check_recording, Team, Witness};
/// use rcn_spec::{zoo::TestAndSet, OpId, ValueId};
///
/// // Test-and-set is NOT 2-recording with the natural witness: whoever
/// // goes first, the bit ends up set, so U_0 ∩ U_1 ≠ ∅. (Golab: its
/// // recoverable consensus number is 1.)
/// let w = Witness::new(
///     ValueId::new(0),
///     vec![Team::T0, Team::T1],
///     vec![OpId::new(0), OpId::new(0)],
/// );
/// assert_eq!(check_recording(&TestAndSet::new(), &w), Ok(false));
/// ```
pub fn check_recording<T: ObjectType + ?Sized>(
    ty: &T,
    witness: &Witness,
) -> Result<bool, WitnessError> {
    witness.validate(ty)?;
    let analysis = Analysis::new(ty, witness.initial, &witness.ops);
    let (t0, t1) = witness.team_masks();
    Ok(recording_holds(&analysis, witness.initial, t0, t1))
}

/// The recording condition for the teams with bitmasks `t0` and `t1`:
/// `U_0 ∩ U_1 = ∅` (each value-set word of both unions ORed on the stack)
/// and the hiding clause.
pub(crate) fn recording_holds(analysis: &Analysis, u: ValueId, t0: u32, t1: u32) -> bool {
    if (0..analysis.value_width())
        .any(|w| analysis.value_word(t0, w) & analysis.value_word(t1, w) != 0)
    {
        return false;
    }
    // Hiding clause: if u ∈ U_x then |T_x̄| = 1.
    let (w, bit) = (u.index() / 64, 1u64 << (u.index() % 64));
    let hides = |team: u32| analysis.value_word(team, w) & bit != 0;
    if hides(t0) && t1.count_ones() != 1 {
        return false;
    }
    if hides(t1) && t0.count_ones() != 1 {
        return false;
    }
    true
}

/// Searches exhaustively for an `n`-recording witness.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn find_recording_witness<T: ObjectType + ?Sized>(ty: &T, n: usize) -> Option<Witness> {
    assert!(n >= 2, "n-recording requires n >= 2");
    for u in 0..ty.num_values() {
        let u = ValueId(u as u16);
        for ops in op_multisets(ty.num_ops(), n) {
            let analysis = Analysis::new(ty, u, &ops);
            for (t0, t1) in partitions(n) {
                if recording_holds(&analysis, u, t0, t1) {
                    return Some(Witness::new(u, team_of(n, t1), ops));
                }
            }
        }
    }
    None
}

/// Returns `true` if `ty` is `n`-recording.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn is_n_recording<T: ObjectType + ?Sized>(ty: &T, n: usize) -> bool {
    find_recording_witness(ty, n).is_some()
}

/// Computes the *recording number* of `ty`: the largest `n ≤ cap` such that
/// `ty` is `n`-recording (1 if not even 2-recording).
///
/// For a deterministic **readable** type this is exactly the recoverable
/// consensus number (Theorem 13 of the paper + DFFR'22 Theorem 8); for
/// other deterministic types it is an upper bound (Theorem 13 alone).
///
/// # Panics
///
/// Panics if `cap < 2`.
///
/// # Examples
///
/// ```
/// use rcn_decide::recording_number;
/// use rcn_spec::zoo::{StickyBit, TestAndSet};
///
/// // Golab: test-and-set cannot solve 2-process recoverable consensus.
/// assert_eq!(recording_number(&TestAndSet::new(), 4).level, 1);
/// // The sticky bit keeps its full power.
/// assert!(recording_number(&StickyBit::new(), 4).capped);
/// ```
pub fn recording_number<T: ObjectType + ?Sized>(ty: &T, cap: usize) -> LevelResult {
    assert!(cap >= 2, "cap must be at least 2");
    let mut best = LevelResult {
        level: 1,
        capped: false,
        witness: None,
    };
    for n in 2..=cap {
        match find_recording_witness(ty, n) {
            Some(w) => {
                best = LevelResult {
                    level: n,
                    capped: n == cap,
                    witness: Some(w),
                };
            }
            None => return best,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_spec::zoo::{
        CompareAndSwap, ConsensusObject, Register, StickyBit, TeamCounter, TestAndSet, Tnn,
    };

    #[test]
    fn test_and_set_is_not_2_recording() {
        // Golab's separation, via the decider: 2-discerning (consensus
        // number 2) but not 2-recording (recoverable consensus number 1).
        assert!(!is_n_recording(&TestAndSet::new(), 2));
        assert_eq!(recording_number(&TestAndSet::new(), 3).level, 1);
    }

    #[test]
    fn register_is_not_2_recording() {
        assert!(!is_n_recording(&Register::new(2), 2));
    }

    #[test]
    fn sticky_bit_and_consensus_object_keep_full_power() {
        for n in 2..5 {
            assert!(is_n_recording(&StickyBit::new(), n), "sticky n={n}");
            assert!(
                is_n_recording(&ConsensusObject::new(), n),
                "consensus n={n}"
            );
        }
    }

    #[test]
    fn cas_is_recording_at_small_n() {
        // Domain ≥ 3 is essential: with two fresh targets, cas(0,1) vs
        // cas(0,2) records the first team in the value forever.
        assert!(is_n_recording(&CompareAndSwap::new(3), 2));
        assert!(is_n_recording(&CompareAndSwap::new(3), 3));
        // Binary CAS has only two values — no room to record disjointly.
        assert!(!is_n_recording(&CompareAndSwap::new(2), 2));
    }

    #[test]
    fn tnn_recording_number_is_n_minus_1() {
        // For T_{n,n'} the value counter records the first team up to depth
        // n−1 and collapses to s_⊥ at depth n, so the recording number is
        // n−1 regardless of n′. (Because T_{n,n'} is not readable for
        // n′ < n−1, this does NOT contradict its recoverable consensus
        // number being n′ — recording is only sufficient for readable
        // types; see §4 of the paper and EXPERIMENTS.md E3.)
        let t = Tnn::new(4, 2);
        assert!(is_n_recording(&t, 3));
        assert!(!is_n_recording(&t, 4));
        let t = Tnn::new(4, 1);
        assert_eq!(recording_number(&t, 5).level, 3);
    }

    #[test]
    fn team_counter_recording_number_is_n_minus_1() {
        let tc = TeamCounter::new(4);
        assert!(is_n_recording(&tc, 3));
        assert!(!is_n_recording(&tc, 4));
    }

    #[test]
    fn recording_witnesses_replay() {
        for n in 2..5 {
            let w = find_recording_witness(&StickyBit::new(), n).expect("witness");
            assert_eq!(check_recording(&StickyBit::new(), &w), Ok(true), "n={n}");
        }
    }

    #[test]
    fn recording_implies_discerning_on_zoo() {
        // Intuition check (not a theorem we rely on): every recording
        // witness found for these types also certifies discerning at the
        // same level via a (possibly different) witness.
        use crate::discerning::is_n_discerning;
        for n in 2..4 {
            for ty in [&TestAndSet::new() as &dyn rcn_spec::ObjectType] {
                if is_n_recording(ty, n) {
                    assert!(is_n_discerning(ty, n));
                }
            }
        }
    }
}
