//! Theorem 8 ∘ Theorem 13 as a round trip.
//!
//! DFFR's Theorem 8 turns an n-recording readable type into n-process
//! recoverable consensus; the tournament is this repository's variant of
//! that construction, for non-hiding witnesses. The paper's Theorem 13
//! turns any such protocol back into an n-recording configuration. For
//! each type and `n` this suite builds the tournament and checks both
//! directions against the decider:
//!
//! * (a) a built tournament implies the type is n-recording;
//! * (b) a type that is not n-recording gets `PlanError::NoWitness`;
//! * (c) every built system is correct under crashes, and its Theorem 13
//!   chain ends at a recording critical configuration whose witness the
//!   brute-force oracle accepts for the object's type;
//! * (d) every type that is n-recording but gets no tournament is printed
//!   (run with `--nocapture`); at n = 2 each must have only hiding
//!   recording witnesses, which the construction does not cover.

use rcn::decide::brute::{check_recording_brute, u_set};
use rcn::decide::{is_n_recording, op_multisets, recording_class, synthesis};
use rcn::decide::{CriticalClass, Team, Witness};
use rcn::protocols::{PlanError, TournamentConsensus};
use rcn::spec::zoo::{
    CompareAndSwap, ConsensusObject, FetchAndAdd, MultiConsensus, Register, StickyBit, Swap,
    TeamCounter, TestAndSet, Tnn, WithRead,
};
use rcn::spec::{ObjectType, ValueId};
use rcn::valency::{check_consensus, theorem13_chain};
use std::sync::Arc;

type Shared = Arc<dyn ObjectType + Send + Sync>;

/// What the round trip found for one `(type, n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// A tournament was built and verified; its chain had this many links.
    Built { configs: usize, links: usize },
    /// The type is not n-recording, and no tournament was built.
    NotRecording,
    /// The type is n-recording, but no contest has a non-hiding witness.
    HidingOnly,
}

fn inputs(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| i % 2).collect()
}

/// Runs the round trip for `ty` at `n` processes, asserting (a)–(c), and
/// prints the outcome.
fn round_trip(label: &str, ty: Shared, n: usize) -> Outcome {
    let recording = is_n_recording(&*ty, n);
    let outcome = match TournamentConsensus::try_new(ty.clone(), inputs(n)) {
        Ok(system) => {
            assert!(recording, "(a) {label} n={n}: built but not n-recording");
            let report = check_consensus(&system, 2_000_000).expect("fits");
            assert!(
                report.verdict.is_correct(),
                "(c) {label} n={n}: {}",
                report.verdict
            );
            let chain = theorem13_chain(&system, 1, 2, 2_000_000).expect("chain");
            let last = &chain.links.last().expect("a link").critical;
            assert!(chain.reached_recording, "(c) {label} n={n}");
            assert_eq!(last.class, Some(CriticalClass::Recording), "(c) {label}");
            let object = system.layout().object_type(last.object.expect("object"));
            let witness = last.witness.as_ref().expect("witness");
            assert!(
                check_recording_brute(object, witness),
                "(c) {label} n={n}: brute rejects {witness}"
            );
            Outcome::Built {
                configs: report.configs,
                links: chain.links.len(),
            }
        }
        Err(PlanError::NoWitness { team0, team1 }) => {
            if recording {
                println!("(d) {label} n={n}: n-recording, no ({team0} vs {team1}) contest");
                if n == 2 {
                    assert_only_hiding_witnesses(label, &*ty);
                }
                Outcome::HidingOnly
            } else {
                Outcome::NotRecording
            }
        }
        Err(other) => panic!("{label} n={n}: {other}"),
    };
    if !recording {
        assert_eq!(outcome, Outcome::NotRecording, "(b) {label} n={n}");
    }
    println!("{label} n={n}: {outcome:?}");
    outcome
}

/// Every 2-process recording witness of `ty` hides: `u ∈ U_0 ∪ U_1`. (At
/// n = 2 the tournament's one contest searches every value and op pair, so
/// this is exactly why it found none.)
fn assert_only_hiding_witnesses(label: &str, ty: &dyn ObjectType) {
    for u in 0..ty.num_values() {
        for ops in op_multisets(ty.num_ops(), 2) {
            let w = Witness::new(ValueId(u as u16), vec![Team::T0, Team::T1], ops);
            if recording_class(ty, &w) == Ok(CriticalClass::Recording) {
                let hides = [Team::T0, Team::T1]
                    .into_iter()
                    .any(|x| u_set(ty, &w, x).contains(&w.initial.index()));
                assert!(
                    hides,
                    "(d) {label}: non-hiding witness {w} but no tournament"
                );
            }
        }
    }
}

/// The zoo's readable types.
fn readable_zoo() -> Vec<Shared> {
    let zoo: Vec<Shared> = vec![
        Arc::new(Register::new(2)),
        Arc::new(Register::new(4)),
        Arc::new(TestAndSet::new()),
        Arc::new(FetchAndAdd::new(4)),
        Arc::new(Swap::new(3)),
        Arc::new(CompareAndSwap::new(3)),
        Arc::new(StickyBit::new()),
        Arc::new(ConsensusObject::new()),
        Arc::new(MultiConsensus::new(3)),
        Arc::new(Tnn::new(5, 2)),
        Arc::new(Tnn::new(3, 2)),
        Arc::new(Tnn::new(3, 1)),
        Arc::new(TeamCounter::new(3)),
        Arc::new(TeamCounter::new(4)),
        Arc::new(rcn::shipped_xn(4).expect("shipped X_4")),
        Arc::new(WithRead::new(TestAndSet::new())),
    ];
    zoo.into_iter().filter(|ty| ty.is_readable()).collect()
}

#[test]
fn zoo_round_trips_at_two_processes() {
    let mut built = 0;
    for ty in readable_zoo() {
        if matches!(round_trip(&ty.name(), ty, 2), Outcome::Built { .. }) {
            built += 1;
        }
    }
    // Golab's separation keeps test-and-set (with or without a read) out,
    // and registers, fetch-and-add and swap are not 2-recording; the other
    // eight all build.
    assert_eq!(built, 8);
}

#[test]
fn sticky_and_cas_round_trip_at_three_processes() {
    for ty in [
        Arc::new(StickyBit::new()) as Shared,
        Arc::new(CompareAndSwap::new(3)),
    ] {
        let outcome = round_trip(&ty.name(), ty, 3);
        assert!(
            matches!(outcome, Outcome::Built { links: 1, .. }),
            "{outcome:?}"
        );
    }
}

/// `X_4` is only 2-recording, so its 3-process tournament must be refused
/// at the (1 vs 2) root contest.
#[test]
fn xn_stops_at_three_processes() {
    let x4: Shared = Arc::new(rcn::shipped_xn(4).expect("shipped X_4"));
    assert_eq!(round_trip("X_4", x4.clone(), 3), Outcome::NotRecording);
    assert_eq!(
        TournamentConsensus::try_new(x4, inputs(3)).unwrap_err(),
        PlanError::NoWitness { team0: 1, team1: 2 }
    );
}

/// Random readable tables at n = 2: 40 with 4 values and 40 with 3
/// values, each with 2 mutators and a read.
#[test]
fn random_tables_round_trip_at_two_processes() {
    let mut rng = synthesis::rng(7);
    for (num_values, counts) in [(4, (7, 13)), (3, (4, 3))] {
        let (mut built, mut hiding_only) = (0, 0);
        for index in 0..40 {
            let table = synthesis::random_readable_table(&mut rng, num_values, 2);
            match round_trip(&format!("table {num_values}v #{index}"), Arc::new(table), 2) {
                Outcome::Built { .. } => built += 1,
                Outcome::HidingOnly => hiding_only += 1,
                Outcome::NotRecording => {}
            }
        }
        println!("{num_values} values: {built} built, {hiding_only} hiding-only of 40");
        assert_eq!((built, hiding_only), counts, "{num_values} values");
    }
}

/// `T_{4,3}` at 3 processes (about 1 s in release): run with `--ignored`.
#[test]
#[ignore = "slow in debug builds"]
fn tnn_round_trips_at_three_processes() {
    let outcome = round_trip("T_(4,3)", Arc::new(Tnn::new(4, 3)), 3);
    assert!(matches!(outcome, Outcome::Built { .. }), "{outcome:?}");
}
