//! Brute-force reference implementations of the discerning/recording
//! checks, by direct enumeration of `S(P)` schedules.
//!
//! These are exponentially slower than the BFS in [`crate::Analysis`] and
//! exist purely as an oracle: the differential tests (unit, property-based,
//! and the `rcn` integration suite) check that the fast decider agrees with
//! this transliteration of the paper's definitions on thousands of random
//! instances. Keep this module boring and obviously correct.

use crate::witness::{Team, Witness};
use rcn_model::{s_p_first_in, ProcessId};
use rcn_spec::{apply_all, ObjectType, OpId};
use std::collections::HashSet;

/// `U_x` by definition: the set of (ids of) values `v` such that some
/// schedule `σ ∈ S(P)` whose first process is on team `x` leaves the object
/// with value `v` when the processes apply their assigned operations in
/// order from `witness.initial`.
pub fn u_set<T: ObjectType + ?Sized>(ty: &T, witness: &Witness, x: Team) -> HashSet<usize> {
    let procs: Vec<ProcessId> = (0..witness.n()).map(|i| ProcessId(i as u16)).collect();
    let first: Vec<ProcessId> = witness
        .team_members(x)
        .into_iter()
        .map(|i| ProcessId(i as u16))
        .collect();
    let mut out = HashSet::new();
    for sched in s_p_first_in(&procs, &first) {
        let seq: Vec<OpId> = sched
            .iter()
            .map(|e| {
                witness.ops[e
                    .process()
                    .expect("S(P\u{2032}) schedules are step-only")
                    .index()]
            })
            .collect();
        let (_, v) = apply_all(ty, witness.initial, &seq);
        out.insert(v.index());
    }
    out
}

/// `R_{x,j}` by definition: the set of `(response, final value)` pairs of
/// `p_j`'s operation over schedules `σ ∈ S(P)` containing `p_j` whose first
/// process is on team `x`.
pub fn r_set<T: ObjectType + ?Sized>(
    ty: &T,
    witness: &Witness,
    x: Team,
    j: usize,
) -> HashSet<(usize, usize)> {
    let procs: Vec<ProcessId> = (0..witness.n()).map(|i| ProcessId(i as u16)).collect();
    let first: Vec<ProcessId> = witness
        .team_members(x)
        .into_iter()
        .map(|i| ProcessId(i as u16))
        .collect();
    let mut out = HashSet::new();
    for sched in s_p_first_in(&procs, &first) {
        let Some(pos) = sched
            .iter()
            .position(|e| e.process().map(ProcessId::index) == Some(j))
        else {
            continue;
        };
        let seq: Vec<OpId> = sched
            .iter()
            .map(|e| {
                witness.ops[e
                    .process()
                    .expect("S(P\u{2032}) schedules are step-only")
                    .index()]
            })
            .collect();
        let (outs, v) = apply_all(ty, witness.initial, &seq);
        out.insert((outs[pos].response.index(), v.index()));
    }
    out
}

/// Checks a discerning witness by direct enumeration:
/// `∀j: R_{0,j} ∩ R_{1,j} = ∅`.
pub fn check_discerning_brute<T: ObjectType + ?Sized>(ty: &T, witness: &Witness) -> bool {
    (0..witness.n())
        .all(|j| r_set(ty, witness, Team::T0, j).is_disjoint(&r_set(ty, witness, Team::T1, j)))
}

/// Checks a recording witness by direct enumeration:
/// `U_0 ∩ U_1 = ∅` and the hiding clause.
pub fn check_recording_brute<T: ObjectType + ?Sized>(ty: &T, witness: &Witness) -> bool {
    let u0 = u_set(ty, witness, Team::T0);
    let u1 = u_set(ty, witness, Team::T1);
    if !u0.is_disjoint(&u1) {
        return false;
    }
    let u = witness.initial.index();
    if u0.contains(&u) && witness.team_members(Team::T1).len() != 1 {
        return false;
    }
    if u1.contains(&u) && witness.team_members(Team::T0).len() != 1 {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discerning::check_discerning;
    use crate::recording::tests::hider;
    use crate::recording::{check_recording, recording_class, CriticalClass};
    use crate::synthesis;
    use rand::Rng;
    use rcn_spec::zoo::{StickyBit, TestAndSet, Tnn};
    use rcn_spec::ValueId;

    fn random_witness(
        rng: &mut rand::rngs::StdRng,
        num_values: usize,
        num_ops: usize,
        n: usize,
    ) -> Witness {
        let mut team_of: Vec<Team> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Team::T0
                } else {
                    Team::T1
                }
            })
            .collect();
        team_of[0] = Team::T0;
        if !team_of.contains(&Team::T1) {
            team_of[n - 1] = Team::T1;
        }
        Witness::new(
            ValueId::new(rng.gen_range(0..num_values) as u16),
            team_of,
            (0..n)
                .map(|_| OpId(rng.gen_range(0..num_ops) as u16))
                .collect(),
        )
    }

    /// A random 3-process witness over [`hider`] from one of the two values
    /// its hiding schedules start at, 0 and 8: about one draw in 64 hides
    /// team 0, and one in 64 team 1.
    fn random_hider_witness(rng: &mut rand::rngs::StdRng) -> Witness {
        let mut w = random_witness(rng, 1, 2, 3);
        w.initial = ValueId::new(if rng.gen_bool(0.5) { 0 } else { 8 });
        w
    }

    /// The fast checks agree with the definitions on `w`: both conditions,
    /// and the whole Observation 11 trichotomy read off the brute `U_x`.
    /// Returns the class.
    fn assert_agree<T: ObjectType + ?Sized>(ty: &T, w: &Witness, context: &str) -> CriticalClass {
        assert_eq!(
            check_discerning(ty, w),
            Ok(check_discerning_brute(ty, w)),
            "{context}: {w}"
        );
        assert_eq!(
            check_recording(ty, w),
            Ok(check_recording_brute(ty, w)),
            "{context}: {w}"
        );
        let (u0, u1) = (u_set(ty, w, Team::T0), u_set(ty, w, Team::T1));
        let u = w.initial.index();
        let crowded = |x: Team| w.team_members(x).len() > 1;
        let class = if !u0.is_disjoint(&u1) {
            CriticalClass::Colliding
        } else if u0.contains(&u) && crowded(Team::T1) {
            CriticalClass::Hiding(0)
        } else if u1.contains(&u) && crowded(Team::T0) {
            CriticalClass::Hiding(1)
        } else {
            CriticalClass::Recording
        };
        assert_eq!(recording_class(ty, w), Ok(class), "{context}: {w}");
        class
    }

    /// Every class of the trichotomy, in the order [`assert_drawn`] checks.
    const CLASSES: [CriticalClass; 4] = [
        CriticalClass::Colliding,
        CriticalClass::Hiding(0),
        CriticalClass::Hiding(1),
        CriticalClass::Recording,
    ];

    /// A differential that never drew some class has not compared it.
    fn assert_drawn(drawn: &[CriticalClass]) {
        for class in CLASSES {
            assert!(drawn.contains(&class), "no {class:?} witness drawn");
        }
    }

    #[test]
    fn fast_and_brute_agree_on_zoo_witnesses() {
        let mut rng = synthesis::rng(42);
        let hider = hider();
        let mut drawn = Vec::new();
        for round in 0..200 {
            let n = rng.gen_range(2..5);
            let context = format!("round {round}");
            // Alternate between types.
            drawn.push(match rng.gen_range(0..4) {
                0 => assert_agree(
                    &TestAndSet::new(),
                    &random_witness(&mut rng, 2, 2, n),
                    &context,
                ),
                1 => assert_agree(
                    &StickyBit::new(),
                    &random_witness(&mut rng, 3, 3, n),
                    &context,
                ),
                2 => assert_agree(
                    &Tnn::new(4, 2),
                    &random_witness(&mut rng, 8, 3, n),
                    &context,
                ),
                _ => assert_agree(&hider, &random_witness(&mut rng, 12, 2, n), &context),
            });
            // Uniform draws almost never hide: add two aimed ones.
            for _ in 0..2 {
                let w = random_hider_witness(&mut rng);
                drawn.push(assert_agree(&hider, &w, &format!("{context}, hider")));
            }
        }
        assert_drawn(&drawn);
    }

    #[test]
    fn fast_and_brute_agree_on_random_tables() {
        let mut rng = synthesis::rng(7);
        let hider = hider();
        let mut drawn = Vec::new();
        for round in 0..60 {
            let table = synthesis::random_readable_table(&mut rng, 4, 2);
            let n = rng.gen_range(2..5);
            let w = random_witness(&mut rng, 4, 3, n);
            let context = format!("round {round}");
            drawn.push(assert_agree(&table, &w, &context));
            // Random tables rarely hide: interleave the hiding table.
            for _ in 0..4 {
                let w = random_hider_witness(&mut rng);
                drawn.push(assert_agree(&hider, &w, &format!("{context}, hider")));
            }
        }
        assert_drawn(&drawn);
    }

    #[test]
    fn brute_u_sets_match_known_tas_structure() {
        // Both apply test&set from clear: whoever is first, the bit is set.
        let w = Witness::new(
            ValueId::new(0),
            vec![Team::T0, Team::T1],
            vec![OpId::new(0), OpId::new(0)],
        );
        let tas = TestAndSet::new();
        assert_eq!(u_set(&tas, &w, Team::T0), HashSet::from([1]));
        assert_eq!(u_set(&tas, &w, Team::T1), HashSet::from([1]));
        assert!(!check_recording_brute(&tas, &w));
    }
}
