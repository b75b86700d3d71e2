//! Integration tests: exhaustive model-checking of every protocol in the
//! repository, positive and negative — the executable form of Lemma 16 and
//! of the robustness theorem's algorithmic direction. The tournament
//! construction is checked in `round_trip.rs`, against the decider.

use rcn::model::Schedule;
use rcn::protocols::{TasConsensus, TnnRecoverable, TnnWaitFree};
use rcn::valency::{check_consensus, check_graph, ConfigGraph, Verdict};

fn inputs(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| i % 2).collect()
}

/// Lemma 16, algorithmic half: the recoverable algorithm is correct at
/// exactly n' processes — for every (n, n') we can afford.
#[test]
fn tnn_recoverable_correct_at_n_prime() {
    for (n, n_prime) in [(2usize, 1usize), (3, 1), (3, 2), (4, 2), (5, 2), (4, 3)] {
        let ins = if n_prime >= 2 {
            inputs(n_prime)
        } else {
            vec![0]
        };
        let sys = TnnRecoverable::system(n, n_prime, ins);
        let report = check_consensus(&sys, 10_000_000).expect("fits");
        assert!(
            report.verdict.is_correct(),
            "T_({n},{n_prime}) at {n_prime} procs: {}",
            report.verdict
        );
    }
}

/// Lemma 16, impossibility half (for this protocol): one extra process
/// breaks it, with a concrete replayable counterexample.
#[test]
fn tnn_recoverable_breaks_at_n_prime_plus_1() {
    for (n, n_prime) in [(3usize, 1usize), (4, 2), (5, 2), (4, 3)] {
        let sys = TnnRecoverable::system(n, n_prime, inputs(n_prime + 1));
        let report = check_consensus(&sys, 10_000_000).expect("fits");
        match report.verdict {
            Verdict::Unsafe {
                ref counterexample, ..
            } => {
                // Counterexamples replay to a real violation.
                let (_, violation) = sys.run_from_start(&counterexample.prefix);
                assert!(
                    violation.is_some(),
                    "T_({n},{n_prime}): stale counterexample"
                );
            }
            Verdict::NotRecoverableWaitFree { .. } => {}
            Verdict::Correct => panic!("T_({n},{n_prime}) at {} procs must fail", n_prime + 1),
        }
    }
}

/// The wait-free algorithm is exactly wait-free: correct on the crash-free
/// graph at n processes, broken once crash edges are added.
#[test]
fn tnn_wait_free_is_exactly_wait_free() {
    for (n, n_prime) in [(2usize, 1usize), (3, 1), (4, 2)] {
        let sys = TnnWaitFree::system(n, n_prime, inputs(n));
        let crash_free = ConfigGraph::explore_with(&sys, 10_000_000, false).expect("fits");
        assert!(
            check_graph(&crash_free).is_correct(),
            "T_({n},{n_prime}) crash-free"
        );
        let crashy = check_consensus(&sys, 10_000_000).expect("fits");
        assert!(
            !crashy.verdict.is_correct(),
            "T_({n},{n_prime}) with crashes"
        );
    }
}

/// Golab's protocol-level separation: classic T&S consensus is wait-free
/// correct and crash-broken.
#[test]
fn tas_consensus_is_exactly_wait_free() {
    let sys = TasConsensus::system(vec![0, 1]);
    let crash_free = ConfigGraph::explore_with(&sys, 1_000_000, false).expect("fits");
    assert!(check_graph(&crash_free).is_correct());
    let crashy = check_consensus(&sys, 1_000_000).expect("fits");
    assert!(!crashy.verdict.is_correct());
}

/// Uniform inputs decide the unique input (validity), under any schedule.
#[test]
fn uniform_inputs_decide_that_input() {
    for v in [0u32, 1] {
        let sys = TnnRecoverable::system(4, 2, vec![v, v]);
        let report = check_consensus(&sys, 1_000_000).expect("fits");
        assert!(report.verdict.is_correct());
        // Any concrete run decides v.
        let mut config = sys.initial_config();
        let sched: Schedule = "p0 p0 p1 p1 p1".parse().unwrap();
        sys.run(&mut config, &sched);
        assert_eq!(config.outputs(), vec![v]);
    }
}

/// Counterexample schedules in verdicts are valid schedules (parse/print
/// round trip) — keeps the reporting layer honest.
#[test]
fn counterexamples_round_trip_as_schedules() {
    let sys = TnnRecoverable::system(5, 2, inputs(3));
    let report = check_consensus(&sys, 10_000_000).expect("fits");
    if let Verdict::Unsafe {
        ref counterexample, ..
    } = report.verdict
    {
        let text = counterexample.prefix.to_string();
        let parsed: Schedule = text.parse().expect("schedule text parses");
        assert_eq!(parsed, counterexample.prefix);
    } else {
        panic!("expected unsafe verdict");
    }
}
