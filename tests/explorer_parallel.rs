//! Differential tests of the persistent crash explorer: the disk-resumed
//! engine must be *bit-identical* to the memo-less work-list search — same
//! verdict, same (lexicographically least) counterexample — on every
//! protocol in the zoo, on random table-driven programs, and at every
//! filesystem fault injection point in the memo's I/O.

mod common;

use common::scratch;
use proptest::prelude::*;
use rcn::decide::{CacheIo, FaultMode, FaultyIo};
use rcn::faults::{CrashExplorer, CrashtestConfig, CrashtestReport, ExplorerMemo};
use rcn::model::{
    Action, FaultModel, HeapLayout, LocalState, ObjectId, ProcessId, Program, System,
};
use rcn::protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
use rcn::spec::zoo::{Register, StickyBit};
use rcn::spec::{OpId, Response, ValueId};
use std::path::Path;
use std::sync::Arc;

fn protocols() -> Vec<(&'static str, System)> {
    vec![
        ("tas", TasConsensus::system(vec![0, 1])),
        ("tnn-wait-free:2,1", TnnWaitFree::system(2, 1, vec![0, 1])),
        (
            "tnn-recoverable:5,2",
            TnnRecoverable::system(5, 2, vec![0, 1]),
        ),
        (
            "tournament:sticky",
            TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1, 0]).unwrap(),
        ),
    ]
}

fn assert_same(a: &CrashtestReport, b: &CrashtestReport, ctx: &str) {
    assert_eq!(
        a.counterexample.as_ref().map(|c| c.schedule.to_string()),
        b.counterexample.as_ref().map(|c| c.schedule.to_string()),
        "{ctx}: counterexample"
    );
    assert_eq!(a.counterexample, b.counterexample, "{ctx}: diagnosis");
    assert_eq!(
        a.is_certified_clean(),
        b.is_certified_clean(),
        "{ctx}: certification"
    );
}

/// The four CLI fault models every differential sweep in this file
/// quantifies over.
const FAULT_MODELS: [FaultModel; 4] = [
    FaultModel::PER_PROCESS,
    FaultModel::SYSTEM,
    FaultModel::MID_OP,
    FaultModel::ALL,
];

/// Persistence round-trip: a warm run (same system fingerprint, same
/// budget triple) reproduces the cold verdict bit-for-bit and actually
/// resumes (`resumed_states > 0`) — for both a counterexample protocol
/// (stored-verdict short-circuit) and a certified-clean one (stored memo
/// facts).
#[test]
fn memo_resume_reproduces_the_verdict_bit_for_bit() {
    for fault_model in FAULT_MODELS {
        memo_resume_under(fault_model);
    }
}

fn memo_resume_under(fault_model: FaultModel) {
    let config = CrashtestConfig {
        max_crashes: 1,
        max_depth: 6,
        max_states: 500_000,
        fault_model,
    };
    for (name, sys) in protocols() {
        let name = &format!("{name} model={fault_model}");
        let dir = scratch(&format!(
            "resume-{}",
            name.replace([':', ',', ' ', '=', '+'], "-")
        ));
        let cold = CrashExplorer::new(&sys, config)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        let warm = CrashExplorer::new(&sys, config)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        assert_same(&cold, &warm, &format!("{name} warm resume"));
        assert!(
            warm.stats.resumed_states > 0,
            "{name}: the warm run must resume from disk, not recompute"
        );
        // A different budget is a different key: no stale cross-talk.
        let tighter = CrashtestConfig {
            max_depth: 4,
            ..config
        };
        let other = CrashExplorer::new(&sys, tighter)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        let reference = CrashExplorer::new(&sys, tighter).explore();
        assert_same(&reference, &other, &format!("{name} budget isolation"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Fault-model key isolation: a memo written under one fault model is
/// never consumed under another. A clean verdict under `per-process`
/// proves nothing about `system` or `mid-op` crashes, so resuming across
/// models would be unsound — the run under the other model must be cold
/// (`resumed_states == 0`) and must still match its own memo-less
/// reference bit-for-bit.
#[test]
fn memo_written_under_one_fault_model_is_never_consumed_under_another() {
    for (name, sys) in protocols() {
        let dir = scratch(&format!("isolate-{}", name.replace([':', ','], "-")));
        for writer in FAULT_MODELS {
            let config = CrashtestConfig {
                max_crashes: 1,
                max_depth: 6,
                max_states: 500_000,
                fault_model: writer,
            };
            let cold = CrashExplorer::new(&sys, config)
                .with_memo(ExplorerMemo::new(&dir))
                .explore();
            assert_same(
                &CrashExplorer::new(&sys, config).explore(),
                &cold,
                &format!("{name} writer={writer}"),
            );
            for reader in FAULT_MODELS {
                if reader == writer {
                    continue;
                }
                let other = CrashtestConfig {
                    fault_model: reader,
                    ..config
                };
                let run = CrashExplorer::new(&sys, other)
                    .with_memo(ExplorerMemo::new(&dir))
                    .explore();
                assert_eq!(
                    run.stats.resumed_states, 0,
                    "{name}: a {reader} run resumed from a {writer} memo"
                );
                assert_same(
                    &CrashExplorer::new(&sys, other).explore(),
                    &run,
                    &format!("{name} writer={writer} reader={reader}"),
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

// ---------------------------------------------------------------------------
// Fail-point sweep of the persistent memo: inject a filesystem fault at
// every I/O operation (cold-run store traffic and warm-run load traffic,
// hard-error and torn-write flavors) and demand the fault-free verdict at
// every single injection point. The memo is an accelerator: no fault may
// change an answer or crash a search.
// ---------------------------------------------------------------------------

fn explore_with_io(
    sys: &System,
    config: CrashtestConfig,
    dir: &Path,
    io: Arc<FaultyIo>,
) -> CrashtestReport {
    CrashExplorer::new(sys, config)
        .with_memo(ExplorerMemo::with_io(dir, io as Arc<dyn CacheIo>))
        .explore()
}

fn sweep_protocol(name: &str, sys: &System) {
    let config = CrashtestConfig {
        max_crashes: 1,
        max_depth: 6,
        max_states: 500_000,
        ..Default::default()
    };
    let reference = CrashExplorer::new(sys, config).explore();

    // Count the injection points of a cold store and a warm load.
    let dir = scratch(&format!("sweep-base-{name}"));
    let cold_io = Arc::new(FaultyIo::counting());
    let cold = explore_with_io(sys, config, &dir, cold_io.clone());
    assert_same(&reference, &cold, &format!("{name} fault-free cold"));
    let cold_ops = cold_io.ops_seen();
    let warm_io = Arc::new(FaultyIo::counting());
    let warm = explore_with_io(sys, config, &dir, warm_io.clone());
    assert_same(&reference, &warm, &format!("{name} fault-free warm"));
    let warm_ops = warm_io.ops_seen();
    std::fs::remove_dir_all(&dir).ok();
    assert!(cold_ops > 0, "{name}: cold run must touch the disk");
    assert!(warm_ops > 0, "{name}: warm run must touch the disk");

    let mut saw_quarantine = false;
    for mode in [
        FaultMode::Error,
        FaultMode::Truncate,
        FaultMode::Reorder,
        FaultMode::Duplicate,
    ] {
        // Cold sweep: the fault lands in the store path (or the initial
        // miss-read); the verdict is computed, not read, so it must be
        // byte-identical regardless.
        for k in 0..cold_ops {
            let dir = scratch(&format!("sweep-cold-{name}-{mode:?}-{k}"));
            let io = Arc::new(FaultyIo::new(k, mode));
            let hurt = explore_with_io(sys, config, &dir, io.clone());
            assert_same(&reference, &hurt, &format!("{name} cold {mode:?} @ {k}"));
            assert_eq!(io.injected(), 1, "{name} cold {mode:?} @ {k}: must fire");

            // Self-repair: whatever the fault left behind (a missing file,
            // a torn file the next run quarantines to `.bad`), the next
            // clean run answers identically.
            let after = explore_with_io(sys, config, &dir, Arc::new(FaultyIo::counting()));
            assert_same(&reference, &after, &format!("{name} repair {mode:?} @ {k}"));
            if std::fs::read_dir(&dir).is_ok_and(|entries| {
                entries
                    .filter_map(Result::ok)
                    .any(|e| e.path().extension().is_some_and(|x| x == "bad"))
            }) {
                saw_quarantine = true;
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        // Warm sweep: populate cleanly, then fault one of the load's reads.
        for k in 0..warm_ops {
            let dir = scratch(&format!("sweep-warm-{name}-{mode:?}-{k}"));
            let populate = explore_with_io(sys, config, &dir, Arc::new(FaultyIo::counting()));
            assert_same(&reference, &populate, &format!("{name} populate"));

            let io = Arc::new(FaultyIo::new(k, mode));
            let hurt = explore_with_io(sys, config, &dir, io.clone());
            assert_same(&reference, &hurt, &format!("{name} warm {mode:?} @ {k}"));
            assert_eq!(io.injected(), 1, "{name} warm {mode:?} @ {k}: must fire");

            let after = explore_with_io(sys, config, &dir, Arc::new(FaultyIo::counting()));
            assert_same(&reference, &after, &format!("{name} warm repair @ {k}"));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    assert!(
        saw_quarantine,
        "{name}: some torn write must end in a .bad quarantine across the sweep"
    );
}

#[test]
fn memo_fault_sweep_never_changes_a_counterexample_verdict() {
    sweep_protocol("tas", &TasConsensus::system(vec![0, 1]));
}

#[test]
fn memo_fault_sweep_never_changes_a_clean_verdict() {
    sweep_protocol(
        "tnn-recoverable:3,1",
        &TnnRecoverable::system(3, 1, vec![0, 1]),
    );
}

// ---------------------------------------------------------------------------
// Random table-driven programs (the checker-fuzz generator): the resumed
// engine must agree with the memo-less one on arbitrary protocols, not
// just the hand-written zoo.
// ---------------------------------------------------------------------------

/// A random table-driven program over one shared register: states `0..s`
/// invoke a random op and branch on the response; states `s..s+2` output
/// 0 and 1 (mirrors `tests/checker_fuzz.rs`).
#[derive(Debug, Clone)]
struct RandomProgram {
    reg: ObjectId,
    active_states: usize,
    op: Vec<u16>,
    next: Vec<Vec<u32>>,
    start: [u32; 2],
}

impl Program for RandomProgram {
    fn name(&self) -> String {
        "random-program".into()
    }

    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::word1(self.start[input as usize])
    }

    fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
        let s = state.word(0) as usize;
        if s < self.active_states {
            Action::Invoke {
                object: self.reg,
                op: OpId::new(self.op[s]),
            }
        } else {
            Action::Output((s - self.active_states) as u32)
        }
    }

    fn transition(&self, _pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
        let s = state.word(0) as usize;
        LocalState::word1(self.next[s][response.index()])
    }
}

fn build_system(
    active_states: usize,
    op: Vec<u16>,
    next: Vec<Vec<u32>>,
    start: [u32; 2],
) -> System {
    let mut layout = HeapLayout::new();
    let reg = layout.add_object("R", Arc::new(Register::new(2)), ValueId::new(0));
    System::new(
        Arc::new(RandomProgram {
            reg,
            active_states,
            op,
            next,
            start,
        }),
        Arc::new(layout),
        vec![0, 1],
    )
}

fn arb_program(s: usize) -> impl Strategy<Value = (Vec<u16>, Vec<Vec<u32>>, [u32; 2])> {
    let total = (s + 2) as u32;
    (
        prop::collection::vec(0u16..3, s),
        prop::collection::vec(prop::collection::vec(0u32..total, 3), s + 2),
        prop::collection::vec(0u32..total, 2),
    )
        .prop_map(|(op, next, start)| (op, next, [start[0], start[1]]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memo-less and disk-resumed searches agree — verdict and
    /// counterexample — on random (mostly broken) readable-table programs,
    /// under every fault model.
    #[test]
    fn engines_agree_on_random_programs(
        (op, next, start) in arb_program(4),
        model_idx in 0usize..4,
    ) {
        let sys = build_system(4, op, next, start);
        let config = CrashtestConfig {
            max_crashes: 1,
            max_depth: 6,
            max_states: 500_000,
            fault_model: FAULT_MODELS[model_idx],
        };
        let seq = CrashExplorer::new(&sys, config).explore();
        let dir = scratch("fuzz");
        let cold = CrashExplorer::new(&sys, config)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        let warm = CrashExplorer::new(&sys, config)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&seq.counterexample, &cold.counterexample);
        prop_assert_eq!(&seq.counterexample, &warm.counterexample);
        prop_assert_eq!(seq.is_certified_clean(), warm.is_certified_clean());
    }
}
