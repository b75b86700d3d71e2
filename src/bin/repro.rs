//! `repro` — regenerates every checkable artifact of *"Determining
//! Recoverable Consensus Numbers"* (Ovens, PODC 2024).
//!
//! Usage: `repro [--out PATH] [experiment-id …]` where ids are `fig3`,
//! `lemma15`, `lemma16`, `valency`, `hierarchy`, `xn`, `tas`, `zoo`,
//! `universal`, `readability` (default: all). An unknown id is a usage
//! error (exit 2). See EXPERIMENTS.md for the mapping to the paper.
//!
//! With `--out PATH` the report is additionally written to `PATH` (the
//! driver used to dump `repro_output.txt` into the working directory
//! unconditionally; now nothing is written unless asked).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rcn_core::{shipped_xn, HierarchyReport};
use rcn_decide::{
    classify, explain_recording, is_n_discerning, is_n_recording, Bound, SearchEngine, Team,
    Witness,
};
use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
use rcn_runtime::{run_threaded, RunOptions};
use rcn_spec::dot::{to_dot, to_table_text};
use rcn_spec::zoo::{
    CompareAndSwap, ConsensusObject, FetchAndAdd, Register, StickyBit, Swap, TeamCounter,
    TestAndSet, Tnn,
};
use rcn_spec::{ObjectType, OpId, Response};
use rcn_valency::{check_consensus, theorem13_chain, BudgetedGraph, ConfigGraph, Valency};
use std::io::{ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Optional tee target for `--out PATH`: everything the experiments print
/// also lands here when set.
static OUT_FILE: OnceLock<Mutex<std::fs::File>> = OnceLock::new();

/// Set once stdout's reader has gone away (`repro fig3 | head -3`): the
/// experiments still run and still tee into `--out`, but print nothing
/// more, and the exit status is theirs.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `text` to `w`: `false` when the reader has gone away.
fn write_open(w: &mut impl Write, text: &str) -> bool {
    match w.write_all(text.as_bytes()).and_then(|()| w.flush()) {
        Ok(()) => true,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => false,
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// Prints `text` (until stdout's reader goes away), teeing it into the
/// `--out` file when one is open.
fn emit(text: &str) {
    if !STDOUT_CLOSED.load(Ordering::Relaxed) && !write_open(&mut std::io::stdout().lock(), text) {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
    if let Some(f) = OUT_FILE.get() {
        let _ = f.lock().expect("out file").write_all(text.as_bytes());
    }
}

/// Like `print!`, through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        crate::emit(&format!($($arg)*))
    };
}

/// Like `println!`, through [`emit`].
macro_rules! outln {
    () => { crate::emit("\n") };
    ($($arg:tt)*) => {
        crate::emit(&format!("{}\n", format_args!($($arg)*)))
    };
}

/// The experiments by id, in the order they run.
const EXPERIMENTS: [(&str, fn()); 10] = [
    ("fig3", e1_fig3),
    ("lemma15", e2_lemma15),
    ("lemma16", e3_lemma16),
    ("valency", e4_valency),
    ("hierarchy", e5_hierarchy),
    ("xn", e6_xn),
    ("tas", e7_tas),
    ("zoo", e8_zoo),
    ("universal", e9_universal),
    ("readability", e10_readability),
];

fn main() {
    let mut out_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            let Some(path) = args.next() else {
                eprintln!("error: missing value for `--out`");
                std::process::exit(2);
            };
            out_path = Some(path);
        } else if let Some(path) = arg.strip_prefix("--out=") {
            out_path = Some(path.to_string());
        } else {
            ids.push(arg);
        }
    }
    if let Some(unknown) = ids
        .iter()
        .find(|id| EXPERIMENTS.iter().all(|(known, _)| known != id))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "error: unknown experiment `{unknown}` (ids: {})",
            known.join(", ")
        );
        std::process::exit(2);
    }
    if let Some(path) = &out_path {
        let path = std::path::Path::new(path);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("error: cannot create {}: {e}", parent.display());
                    std::process::exit(2);
                }
            }
        }
        match std::fs::File::create(path) {
            Ok(file) => {
                let _ = OUT_FILE.set(Mutex::new(file));
            }
            Err(e) => {
                eprintln!("error: cannot open --out {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    outln!("rcn repro — Determining Recoverable Consensus Numbers (PODC 2024)");
    outln!("==================================================================");
    for (id, run) in EXPERIMENTS {
        if ids.is_empty() || ids.iter().any(|a| a == id) {
            run();
        }
    }
    outln!("\nall requested experiments completed");
}

/// The readable zoo of E5 and E8, as boxed trait objects in a stable order.
fn readable_zoo() -> Vec<Box<dyn ObjectType + Send + Sync>> {
    vec![
        Box::new(Register::new(2)),
        Box::new(TestAndSet::new()),
        Box::new(FetchAndAdd::new(4)),
        Box::new(Swap::new(2)),
        Box::new(CompareAndSwap::new(3)),
        Box::new(StickyBit::new()),
        Box::new(ConsensusObject::new()),
    ]
}

/// Alternating binary inputs of length `n` (always contains both values for
/// `n ≥ 2`).
fn mixed_inputs(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| i % 2).collect()
}

fn banner(id: &str, what: &str) {
    outln!("\n--- {id}: {what} ---");
}

/// E1 / Figure 3: the state machine of `T_{5,2}`, checked against the prose
/// specification of §4 and rendered as a transition table + DOT.
fn e1_fig3() {
    banner("E1 (Figure 3)", "state machine of T_(5,2)");
    let t = Tnn::new(5, 2);
    // Check the §4 prose point-by-point.
    assert_eq!(t.num_values(), 10, "2n values");
    assert_eq!(
        t.apply(t.s(), t.op_x(0)),
        rcn_spec::Outcome::new(Response(0), t.s_xi(0, 1))
    );
    assert_eq!(
        t.apply(t.s(), t.op_x(1)),
        rcn_spec::Outcome::new(Response(1), t.s_xi(1, 1))
    );
    for x in 0..2 {
        for i in 1..4 {
            for op in 0..2 {
                let out = t.apply(t.s_xi(x, i), t.op_x(op));
                assert_eq!(out.response, Response(x as u16));
                assert_eq!(out.next, t.s_xi(x, i + 1));
            }
        }
        let out = t.apply(t.s_xi(x, 4), t.op_x(0));
        assert_eq!(out.next, t.s_bottom());
        // op_R reads at depth ≤ 2 and breaks at depth > 2.
        for i in 1..=2 {
            let out = t.apply(t.s_xi(x, i), t.op_r());
            assert_eq!(out.next, t.s_xi(x, i));
        }
        for i in 3..5 {
            let out = t.apply(t.s_xi(x, i), t.op_r());
            assert_eq!(out.next, t.s_bottom());
            assert_eq!(out.response, t.bottom_response());
        }
    }
    for op in 0..3u16 {
        let out = t.apply(t.s_bottom(), OpId::new(op));
        assert_eq!(out.next, t.s_bottom());
        assert_eq!(out.response, t.bottom_response());
    }
    outln!("prose specification of §4: all transitions verified ✓");
    outln!("{}", to_table_text(&t));
    let dot = to_dot(&t, false);
    outln!("(DOT output: {} bytes; render with `dot -Tpng`)", dot.len());
}

/// E2 / Lemma 15: `CN(T_{n,n'}) = n` — the decider confirms n-discerning
/// and refutes (n+1)-discerning across a parameter sweep.
fn e2_lemma15() {
    banner("E2 (Lemma 15)", "consensus number of T_(n,n') is n");
    outln!(
        "{:<10} {:>14} {:>18}",
        "type",
        "n-discerning",
        "(n+1)-discerning"
    );
    for (n, n_prime) in [
        (2, 1),
        (3, 1),
        (3, 2),
        (4, 1),
        (4, 2),
        (4, 3),
        (5, 2),
        (5, 4),
    ] {
        let t = Tnn::new(n, n_prime);
        let pos = is_n_discerning(&t, n);
        let neg = is_n_discerning(&t, n + 1);
        outln!("{:<10} {:>14} {:>18}", t.name(), pos, neg);
        assert!(pos && !neg, "Lemma 15 shape violated for {}", t.name());
    }
    outln!("paper: n-discerning ✓, not (n+1)-discerning ✓ for every (n,n')");
}

/// E3 / Lemma 16: `RCN(T_{n,n'}) = n'` — exhaustive model checks of the
/// paper's recoverable algorithm at n' (correct) and n'+1 (violation),
/// plus the wait-free algorithm correct crash-free and broken with crashes,
/// plus threaded runs.
fn e3_lemma16() {
    banner(
        "E3 (Lemma 16)",
        "recoverable consensus number of T_(n,n') is n'",
    );
    for (n, n_prime) in [(3usize, 1usize), (4, 2), (5, 2), (4, 3)] {
        // n' = 1 is the degenerate single-process case (one input).
        let inputs_ok = if n_prime >= 2 {
            mixed_inputs(n_prime)
        } else {
            vec![1]
        };
        let sys_ok = TnnRecoverable::system(n, n_prime, inputs_ok);
        let r_ok = check_consensus(&sys_ok, 10_000_000).expect("state space fits");
        let sys_bad = TnnRecoverable::system(n, n_prime, mixed_inputs(n_prime + 1));
        let r_bad = check_consensus(&sys_bad, 10_000_000).expect("state space fits");
        outln!(
            "T_({n},{n_prime}): @{n_prime} procs {} [{} configs] | @{} procs {}",
            if r_ok.verdict.is_correct() {
                "correct ✓"
            } else {
                "BROKEN ✗"
            },
            r_ok.configs,
            n_prime + 1,
            if r_bad.verdict.is_correct() {
                "correct (UNEXPECTED)"
            } else {
                "violation found ✓"
            },
        );
        assert!(r_ok.verdict.is_correct());
        assert!(!r_bad.verdict.is_correct());
    }
    // Wait-free algorithm: correct crash-free at n processes, broken with
    // crashes.
    let sys = TnnWaitFree::system(4, 2, mixed_inputs(4));
    let crash_free = ConfigGraph::explore_with(&sys, 10_000_000, false).expect("fits");
    let crash_free_verdict = rcn_valency::check_graph(&crash_free);
    let crashy = check_consensus(&sys, 10_000_000).expect("fits");
    outln!(
        "wait-free T_(4,2) @4 procs: crash-free {} | with crashes {}",
        if crash_free_verdict.is_correct() {
            "correct ✓"
        } else {
            "BROKEN ✗"
        },
        if crashy.verdict.is_correct() {
            "correct (UNEXPECTED)"
        } else {
            "violation found ✓"
        },
    );
    assert!(crash_free_verdict.is_correct());
    assert!(!crashy.verdict.is_correct());
    // Threaded confirmation.
    let mut clean = 0;
    for seed in 0..30 {
        let sys = TnnRecoverable::system(5, 2, vec![1, 0]);
        if run_threaded(
            &sys,
            RunOptions {
                seed,
                crash_prob: 0.25,
                max_crashes: 4,
                ..Default::default()
            },
        )
        .is_clean_consensus()
        {
            clean += 1;
        }
    }
    outln!("threaded runs (2 threads, 25% crash prob): {clean}/30 clean ✓");
    assert_eq!(clean, 30);
}

/// E4 / Figures 1–2: the §3 valency machinery on a live protocol —
/// bivalence, critical execution, teams, common object, Observation 11
/// classification.
fn e4_valency() {
    banner(
        "E4 (Theorem 13 machinery, Figures 1-2)",
        "critical executions in E_z*",
    );
    for (label, sys) in [
        (
            "sticky-bit tournament, 2 procs",
            TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![0, 1]).expect("witness"),
        ),
        (
            "T_(5,2) recoverable, 2 procs",
            TnnRecoverable::system(5, 2, vec![0, 1]),
        ),
    ] {
        let graph = BudgetedGraph::explore(&sys, 1, 6, 2_000_000).expect("fits");
        assert_eq!(graph.initial_valency(), Valency::Bivalent, "Observation 1");
        let critical = graph.find_critical().expect("Lemma 6(a)");
        let info = graph.analyze_critical(critical);
        let teams: Vec<String> = info
            .teams
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|v| format!("p{i}→{v}")))
            .collect();
        outln!(
            "{label}: |E_1*-states|={}, critical α = {}, teams [{}], object {}, class {}",
            graph.len(),
            info.schedule,
            teams.join(", "),
            info.object
                .map(|o| sys.layout().name(o).to_string())
                .unwrap_or_else(|| "??".into()),
            info.class
                .map(|c| c.to_string())
                .unwrap_or_else(|| "n/a".into()),
        );
    }
    // The Theorem 13 chain walk (Figures 1-2): for every correct protocol
    // we ship, the first critical configuration already classifies as
    // n-recording, so the chain has a single link and no continuation.
    let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
    let chain = theorem13_chain(&sys, 1, 6, 2_000_000).expect("chain walk succeeds");
    outln!(
        "Theorem 13 chain on T_(5,2): {} link(s), reached n-recording = {} ✓",
        chain.links.len(),
        chain.reached_recording
    );
    assert!(chain.reached_recording);
}

/// E5 / Theorem 14: the hierarchy table over the readable zoo and the
/// robust level of type sets.
fn e5_hierarchy() {
    banner(
        "E5 (Theorem 14)",
        "robustness: classification of the readable zoo",
    );
    // One worker, so the search stops at the same point on every run and
    // the counts below are the same; the busy time is left out.
    let engine = SearchEngine::sequential();
    let mut report = HierarchyReport::new(4);
    let mut types: Vec<Box<dyn ObjectType + Send + Sync>> = readable_zoo();
    types.push(Box::new(Tnn::new(4, 3)));
    types.push(Box::new(TeamCounter::new(4)));
    let stats = report
        .add_all(&types, &engine)
        .expect("cap 4 within engine range");
    outln!("{report}");
    outln!(
        "search engine (1 thread): {} analyses ({} cache hits, {} disk hits), {} partitions over {} instances",
        stats.analyses_computed,
        stats.cache_hits,
        stats.disk_hits,
        stats.partitions_tested,
        stats.instances_visited
    );
    outln!("(readable types: CN = discerning number, RCN = recording number, by Ruppert + Thm 13 + DFFR Thm 8)");
}

/// E6: the `X_n` corollary — a readable type with CN n and RCN n−2.
fn e6_xn() {
    banner(
        "E6 (X_n corollary)",
        "readable type with CN n, RCN n−2 (n = 4)",
    );
    match shipped_xn(4) {
        Some(x4) => {
            let c = classify(&x4, 5);
            outln!(
                "synthesized X_4: readable={}, discerning={}, recording={}, CN={}, RCN={}",
                x4.is_readable(),
                c.discerning.display_level(),
                c.recording.display_level(),
                c.consensus_number,
                c.recoverable_consensus_number
            );
            assert_eq!(c.consensus_number, Bound::Exact(4));
            assert_eq!(c.recoverable_consensus_number, Bound::Exact(2));
            outln!("paper: CN(X_4) = 4, RCN(X_4) = 4 − 2 = 2 ✓ (synthesized reconstruction)");
        }
        None => outln!("no X_4 table shipped (run rcn-decide's xn_hunt)"),
    }
    // The gap-1 family we can also exhibit, as context.
    let c = classify(&TeamCounter::new(4), 5);
    outln!(
        "team-counter<4> (gap-1 family): CN={}, RCN={}",
        c.consensus_number,
        c.recoverable_consensus_number
    );
}

/// E7 / Golab's separation: test-and-set has CN 2 but RCN 1, with the
/// decider facts and a concrete crash counterexample for the classic
/// protocol.
fn e7_tas() {
    banner(
        "E7 (Golab)",
        "test-and-set: consensus 2, recoverable consensus 1",
    );
    let tas = TestAndSet::new();
    outln!(
        "decider: 2-discerning={} (⇒ CN ≥ 2), 2-recording={} (⇒ RCN < 2 by Thm 13)",
        is_n_discerning(&tas, 2),
        is_n_recording(&tas, 2)
    );
    assert!(is_n_discerning(&tas, 2) && !is_n_recording(&tas, 2));
    // Spell out why the natural witness cannot record:
    let w = Witness::new(
        rcn_spec::ValueId::new(0),
        vec![Team::T0, Team::T1],
        vec![OpId::new(0), OpId::new(0)],
    );
    out!("{}", explain_recording(&tas, &w));
    outln!();
    let sys = TasConsensus::system(vec![0, 1]);
    let crash_free = ConfigGraph::explore_with(&sys, 1_000_000, false).expect("fits");
    let cf = rcn_valency::check_graph(&crash_free);
    let crashy = check_consensus(&sys, 1_000_000).expect("fits");
    outln!("classic T&S protocol: crash-free {cf}");
    outln!("with crashes: {}", crashy.verdict);
    assert!(cf.is_correct() && !crashy.verdict.is_correct());
}

/// E8: sanity of the consensus hierarchy levels against Herlihy's known
/// values for the readable zoo.
fn e8_zoo() {
    banner(
        "E8 (hierarchy sanity)",
        "decider levels vs known consensus numbers",
    );
    // The known (CN, RCN) of each `readable_zoo` type, in its order; at
    // cap 4 an infinite level reads as `≥4`.
    let expectations = [
        (Bound::Exact(1), Bound::Exact(1)),
        (Bound::Exact(2), Bound::Exact(1)),
        (Bound::Exact(2), Bound::Exact(1)),
        (Bound::Exact(2), Bound::Exact(1)),
        (Bound::AtLeast(4), Bound::AtLeast(4)),
        (Bound::AtLeast(4), Bound::AtLeast(4)),
        (Bound::AtLeast(4), Bound::AtLeast(4)),
    ];
    outln!("{:<24} {:>8} {:>8}  match", "type", "CN", "RCN");
    for (ty, (cn, rcn)) in readable_zoo().into_iter().zip(expectations) {
        let c = classify(&*ty, 4);
        let ok = c.consensus_number == cn && c.recoverable_consensus_number == rcn;
        outln!(
            "{:<24} {:>8} {:>8}  {}",
            c.type_name,
            c.consensus_number.to_string(),
            c.recoverable_consensus_number.to_string(),
            if ok { "✓" } else { "✗" }
        );
        assert!(ok, "{} mismatch", c.type_name);
    }
    outln!("note: fetch-and-add and swap drop to RCN 1 — same forgetful-value");
    outln!("phenomenon as test-and-set, discovered automatically by the decider");
}

/// E9: universality (§1) — the one-shot universal simulation of an
/// arbitrary object from consensus slots, verified exhaustively.
fn e9_universal() {
    banner(
        "E9 (universality, §1)",
        "recoverable simulation of arbitrary objects",
    );
    use rcn_spec::ValueId;
    use rcn_universal::{verify_simulation, UniversalSim};
    let q = rcn_spec::zoo::BoundedQueue::new(2, 3);
    let inputs = vec![
        q.enq_op(0).index() as u32,
        q.enq_op(1).index() as u32,
        q.deq_op().index() as u32,
    ];
    let sys = UniversalSim::system(Arc::new(q.clone()), ValueId::new(0), inputs);
    let report = verify_simulation(&sys, &q, ValueId::new(0), 50_000_000).expect("fits");
    outln!(
        "queue<2,3>, 3 procs (2 enq + 1 deq): {} configs, linearizable = {} ✓",
        report.configs,
        report.is_linearizable()
    );
    assert!(report.is_linearizable());
    let s = rcn_spec::zoo::BoundedStack::new(2, 2);
    let inputs = vec![s.push_op(1).index() as u32, s.pop_op().index() as u32];
    let sys = UniversalSim::system(Arc::new(s.clone()), ValueId::new(0), inputs);
    let report = verify_simulation(&sys, &s, ValueId::new(0), 10_000_000).expect("fits");
    outln!(
        "stack<2,2>, 2 procs (push + pop): {} configs, linearizable = {} ✓",
        report.configs,
        report.is_linearizable()
    );
    assert!(report.is_linearizable());
}

/// E10: the readability hypothesis quantified — augmenting a queue with a
/// read operation lifts it to the top of both hierarchies, and the
/// tournament construction then solves recoverable consensus from it.
fn e10_readability() {
    banner(
        "E10 (readability)",
        "augmented queue: read turns CN 2 into CN ∞",
    );
    use rcn_spec::zoo::{BoundedQueue, WithRead};
    let plain = BoundedQueue::new(2, 2);
    let aug = WithRead::new(BoundedQueue::new(2, 2));
    let c_plain = classify(&plain, 4);
    let c_aug = classify(&aug, 4);
    outln!(
        "queue<2,2>       : readable={} CN={} RCN={}",
        c_plain.readable,
        c_plain.consensus_number,
        c_plain.recoverable_consensus_number
    );
    outln!(
        "queue<2,2>+read  : readable={} CN={} RCN={}",
        c_aug.readable,
        c_aug.consensus_number,
        c_aug.recoverable_consensus_number
    );
    let sys =
        rcn_core::solve_recoverable(Arc::new(WithRead::new(BoundedQueue::new(2, 2))), vec![0, 1])
            .expect("augmented queue has witnesses");
    let report = check_consensus(&sys, 10_000_000).expect("fits");
    outln!(
        "tournament over queue+read, 2 procs: {} ({} configs)",
        report.verdict,
        report.configs
    );
    assert!(report.verdict.is_correct());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_is_nonempty_and_readable() {
        let zoo = readable_zoo();
        assert!(zoo.len() >= 7);
        for ty in &zoo {
            assert!(ty.is_readable(), "{}", ty.name());
        }
    }

    #[test]
    fn a_reader_that_went_away_stops_printing_quietly() {
        /// A writer whose every write fails with a broken pipe.
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(!write_open(&mut Closed, "rcn repro\n"));
        assert!(write_open(&mut Vec::new(), "rcn repro\n"));
    }

    #[test]
    fn mixed_inputs_contain_both_values() {
        let inputs = mixed_inputs(5);
        assert!(inputs.contains(&0) && inputs.contains(&1));
        assert_eq!(inputs.len(), 5);
    }
}
