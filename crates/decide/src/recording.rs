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
use crate::engine::{or_panic, SearchEngine};
use crate::reach::Analysis;
use crate::witness::{Witness, WitnessError};
use rcn_spec::{ObjectType, ValueId};
use std::fmt;

/// The trichotomy of Observation 11: what the `U_x` sets of a witness (a
/// critical configuration's object value, poised operations and teams)
/// say about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CriticalClass {
    /// `U_0 ∩ U_1 = ∅` and the hiding clause holds: the witness is
    /// *n-recording* (which certifies the type is n-recording).
    Recording,
    /// `U_0 ∩ U_1 = ∅`, but `u ∈ U_v` while the other team has more than
    /// one process: *v-hiding*.
    Hiding(u32),
    /// The two teams can drive the object to a common value.
    Colliding,
}

impl fmt::Display for CriticalClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CriticalClass::Recording => write!(f, "n-recording"),
            CriticalClass::Hiding(v) => write!(f, "{v}-hiding"),
            CriticalClass::Colliding => write!(f, "colliding"),
        }
    }
}

/// Checks whether a concrete witness establishes that `ty` is
/// `witness.n()`-recording: [`recording_class`] is
/// [`CriticalClass::Recording`].
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
    Ok(recording_class(ty, witness)? == CriticalClass::Recording)
}

/// Classifies a witness by Observation 11 (one analysis). This is the one
/// definition of the recording condition: the deciders, the valency
/// machinery's critical configurations and the tournament's contests all
/// go through it.
///
/// # Errors
///
/// Returns [`WitnessError`] if the witness is malformed for `ty` (among
/// others, if it has fewer than 2 processes or an empty team).
pub fn recording_class<T: ObjectType + ?Sized>(
    ty: &T,
    witness: &Witness,
) -> Result<CriticalClass, WitnessError> {
    witness.validate(ty)?;
    let analysis = Analysis::new(ty, witness.initial, &witness.ops);
    let (t0, t1) = witness.team_masks();
    Ok(class_of(&analysis, witness.initial, t0, t1))
}

/// The class of the teams with bitmasks `t0` and `t1` from `u`: colliding
/// unless `U_0 ∩ U_1 = ∅` (each value-set word of both unions ORed on the
/// stack), then recording unless the hiding clause (`u ∈ U_x` implies
/// `|T_x̄| = 1`) fails.
pub(crate) fn class_of(analysis: &Analysis, u: ValueId, t0: u32, t1: u32) -> CriticalClass {
    if (0..analysis.value_width())
        .any(|w| analysis.value_word(t0, w) & analysis.value_word(t1, w) != 0)
    {
        return CriticalClass::Colliding;
    }
    let (w, bit) = (u.index() / 64, 1u64 << (u.index() % 64));
    let hides = |team: u32| analysis.value_word(team, w) & bit != 0;
    if hides(t0) && t1.count_ones() != 1 {
        CriticalClass::Hiding(0)
    } else if hides(t1) && t0.count_ones() != 1 {
        CriticalClass::Hiding(1)
    } else {
        CriticalClass::Recording
    }
}

/// Searches exhaustively for an `n`-recording witness, on
/// [`SearchEngine::sequential`].
///
/// # Panics
///
/// Panics with the [`SearchError`](crate::SearchError) message if `n < 2`,
/// if `n > MAX_PROCESSES`, or if the type's `apply` panics.
pub fn find_recording_witness<T: ObjectType + Sync + ?Sized>(ty: &T, n: usize) -> Option<Witness> {
    or_panic(SearchEngine::sequential().find_recording_witness(ty, n))
}

/// Returns `true` if `ty` is `n`-recording.
///
/// # Panics
///
/// As [`find_recording_witness`].
pub fn is_n_recording<T: ObjectType + Sync + ?Sized>(ty: &T, n: usize) -> bool {
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
/// Panics with the [`SearchError`](crate::SearchError) message if
/// `cap < 2`, if `cap > MAX_PROCESSES`, or if the type's `apply` panics.
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
pub fn recording_number<T: ObjectType + Sync + ?Sized>(ty: &T, cap: usize) -> LevelResult {
    or_panic(SearchEngine::sequential().recording_number(ty, cap))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Team;
    use rcn_spec::zoo::{
        CompareAndSwap, ConsensusObject, Register, StickyBit, TeamCounter, TestAndSet, Tnn,
    };
    use rcn_spec::{OpId, Outcome, Response};

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

    /// Two ops `a` (0) and `b` (1) over 12 values, every cell not listed
    /// a self-loop. From 0, `a` then `b b` return to 0 while `b`-first
    /// schedules stay in 3..=7; from 8, `a b` returns to 8 while `b a`
    /// goes to 10, 11. It has witnesses of every Observation 11 class
    /// (shared with `brute.rs`' differentials).
    pub(crate) fn hider() -> rcn_spec::TableType {
        let mut b = rcn_spec::TableType::builder("hider", 12, 2, 1);
        for v in 0..12 {
            for op in 0..2 {
                b.set(v, op, Outcome::new(Response(0), ValueId(v)));
            }
        }
        for (v, op, next) in [
            (0, 0, 1),
            (1, 1, 2),
            (2, 1, 0),
            (0, 1, 3),
            (3, 1, 4),
            (3, 0, 5),
            (5, 1, 6),
            (4, 0, 7),
            (8, 0, 9),
            (9, 1, 8),
            (8, 1, 10),
            (10, 0, 11),
        ] {
            b.set(v, op, Outcome::new(Response(0), ValueId(next)));
        }
        b.build().unwrap()
    }

    fn witness(u: u16, teams: &[usize], ops: &[u16]) -> Witness {
        Witness::new(
            ValueId(u),
            teams.iter().map(|&t| Team::from_index(t)).collect(),
            ops.iter().map(|&op| OpId(op)).collect(),
        )
    }

    #[test]
    fn each_class_has_a_witness() {
        use CriticalClass::{Colliding, Hiding, Recording};
        // Test-and-set from clear: both teams set the bit.
        let tas = witness(0, &[0, 1], &[0, 0]);
        assert_eq!(recording_class(&TestAndSet::new(), &tas), Ok(Colliding));
        // Sticky bit from ⊥, write(0) against write(1).
        let sticky = witness(0, &[0, 1], &[0, 1]);
        assert_eq!(recording_class(&StickyBit::new(), &sticky), Ok(Recording));
        // U_0 = {0, 1, 2} ∋ u = 0 and U_1 = {3, …, 7}: the lone `a` team
        // hides behind a team of two, and with the labels swapped so does
        // team 1.
        let hider = hider();
        let hide0 = witness(0, &[0, 1, 1], &[0, 1, 1]);
        assert_eq!(recording_class(&hider, &hide0), Ok(Hiding(0)));
        let hide1 = witness(0, &[0, 0, 1], &[1, 1, 0]);
        assert_eq!(recording_class(&hider, &hide1), Ok(Hiding(1)));
        // U_0 = {8, 9} ∋ u = 8, U_1 = {10, 11}: u ∈ U_0, but the other
        // team is one process, so the witness hides and still records.
        let lone = witness(8, &[0, 1], &[0, 1]);
        assert!(crate::brute::u_set(&hider, &lone, Team::T0).contains(&8));
        assert_eq!(recording_class(&hider, &lone), Ok(Recording));
        assert_eq!(check_recording(&hider, &lone), Ok(true));
        assert_eq!(check_recording(&hider, &hide0), Ok(false));
        // A malformed witness is an error, not a class.
        let lonely = witness(0, &[0], &[0]);
        assert_eq!(
            recording_class(&hider, &lonely),
            Err(WitnessError::TooFewProcesses)
        );
        assert_eq!(
            recording_class(&hider, &witness(0, &[0, 0], &[0, 1])),
            Err(WitnessError::EmptyTeam)
        );
    }

    #[test]
    fn classes_display_as_observation_11_names() {
        assert_eq!(CriticalClass::Recording.to_string(), "n-recording");
        assert_eq!(CriticalClass::Hiding(1).to_string(), "1-hiding");
        assert_eq!(CriticalClass::Colliding.to_string(), "colliding");
    }

    #[test]
    fn recording_implies_discerning_on_zoo() {
        // Intuition check (not a theorem we rely on): every recording
        // witness found for these types also certifies discerning at the
        // same level via a (possibly different) witness.
        use crate::discerning::is_n_discerning;
        for n in 2..4 {
            for ty in [&TestAndSet::new() as &(dyn rcn_spec::ObjectType + Sync)] {
                if is_n_recording(ty, n) {
                    assert!(is_n_discerning(ty, n));
                }
            }
        }
    }
}
