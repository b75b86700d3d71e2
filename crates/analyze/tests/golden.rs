//! Golden tests: every lint code fires on a deliberately broken input,
//! with its code, severity, and message pinned.
//!
//! Broken tables enter through `serde_json::from_str`, which (unlike
//! `TableTypeBuilder::build`) performs no validation — exactly the door a
//! hand-edited `table:FILE` would come through.

use rcn_analyze::{ExploreConfig, Registry, Report, Severity};
use rcn_model::{Action, HeapLayout, LocalState, ProcessId, Program, System};
use rcn_spec::zoo::{Register, StickyBit, TestAndSet};
use rcn_spec::{ObjectType, Outcome, Response, TableType, ValueId};
use std::sync::Arc;

fn lint(ty: &dyn ObjectType) -> Report {
    Registry::with_defaults().lint_type(ty)
}

fn lint_sys(sys: &System) -> Report {
    Registry::with_defaults().lint_system(sys, &ExploreConfig::default())
}

/// A diagnostic with this code, severity, and message fragment exists.
fn pin(report: &Report, code: &str, severity: Severity, fragment: &str) {
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == code && d.severity == severity && d.message.contains(fragment)),
        "no {code} {severity:?} diagnostic containing {fragment:?} in:\n{}",
        report.render_text()
    );
}

/// An unvalidated table with an out-of-range response (cell v0/op0) and an
/// out-of-range next value (cell v1/op0).
const BROKEN_TABLE_JSON: &str = r#"{
  "name": "broken",
  "num_values": 2,
  "num_ops": 1,
  "num_responses": 2,
  "table": [
    [ { "response": 9, "next": 0 } ],
    [ { "response": 0, "next": 5 } ]
  ],
  "value_names": ["v0", "v1"],
  "op_names": ["op0"],
  "response_names": ["r0", "r1"]
}"#;

#[test]
fn rcn001_closedness_errors_are_pinned() {
    let table: TableType = serde_json::from_str(BROKEN_TABLE_JSON).unwrap();
    assert!(table.validate().is_err(), "the fixture must be invalid");
    let report = lint(&table);
    assert_eq!(report.errors(), 2);
    pin(
        &report,
        "RCN001",
        Severity::Error,
        "returns out-of-range response r9 (type has 2 responses)",
    );
    pin(
        &report,
        "RCN001",
        Severity::Error,
        "targets out-of-range value v5 (type has 2 values)",
    );
    // Closedness gates the rest: nothing but RCN001 in the report.
    assert!(report.diagnostics.iter().all(|d| d.code == "RCN001"));
}

#[test]
fn rcn001_panicking_apply_is_reported_not_propagated() {
    struct Panicky;
    impl ObjectType for Panicky {
        fn name(&self) -> String {
            "panicky".into()
        }
        fn num_values(&self) -> usize {
            1
        }
        fn num_ops(&self) -> usize {
            1
        }
        fn num_responses(&self) -> usize {
            1
        }
        fn apply(&self, _v: ValueId, _op: rcn_spec::OpId) -> Outcome {
            panic!("spec hole")
        }
    }
    let report = lint(&Panicky);
    pin(&report, "RCN001", Severity::Error, "panicked: spec hole");
}

#[test]
fn rcn002_unreachable_values_are_pinned() {
    // v0 is the only source; v1 and v2 feed each other and are unreachable.
    let mut b = TableType::builder("island", 3, 1, 1);
    b.set(0, 0, Outcome::new(Response(0), ValueId(0)));
    b.set(1, 0, Outcome::new(Response(0), ValueId(2)));
    b.set(2, 0, Outcome::new(Response(0), ValueId(1)));
    let report = lint(&b.build().unwrap());
    pin(
        &report,
        "RCN002",
        Severity::Warn,
        "unreachable from every candidate initial value (v0)",
    );
    assert_eq!(report.warnings(), 2);
}

#[test]
fn rcn003_dead_responses_are_pinned() {
    let mut b = TableType::builder("gappy", 1, 1, 3);
    b.set(0, 0, Outcome::new(Response(2), ValueId(0)));
    let report = lint(&b.build().unwrap());
    pin(&report, "RCN003", Severity::Info, "never returned");
}

#[test]
fn rcn004_duplicate_ops_are_pinned() {
    let mut b = TableType::builder("dup", 2, 2, 2);
    for v in 0..2u16 {
        for op in 0..2u16 {
            b.set(v, op, Outcome::new(Response(v), ValueId(v)));
        }
    }
    let report = lint(&b.build().unwrap());
    pin(
        &report,
        "RCN004",
        Severity::Info,
        "op1 is indistinguishable from op0",
    );
}

#[test]
fn rcn005_readability_verdicts_are_pinned() {
    // TAS read: certified with an explicit value↦response witness.
    pin(
        &lint(&TestAndSet::new()),
        "RCN005",
        Severity::Info,
        "certified readable",
    );
    // A write-only register variant refutes: writes mutate.
    let mut b = TableType::builder("write-only", 2, 2, 1);
    for v in 0..2u16 {
        for op in 0..2u16 {
            b.set(v, op, Outcome::new(Response(0), ValueId(op)));
        }
    }
    pin(
        &lint(&b.build().unwrap()),
        "RCN005",
        Severity::Info,
        "not readable",
    );
}

#[test]
fn rcn006_idempotent_ops_are_pinned() {
    pin(
        &lint(&Register::new(2)),
        "RCN006",
        Severity::Info,
        "crash-retry safe (idempotent in value and response)",
    );
}

/// A program whose local state grows without bound: the exploration
/// truncates (RCN100) rather than spinning.
struct Unbounded {
    object: rcn_model::ObjectId,
}
impl Program for Unbounded {
    fn name(&self) -> String {
        "unbounded".into()
    }
    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::word1(input)
    }
    fn action(&self, _pid: ProcessId, _state: &LocalState) -> Action {
        Action::Invoke {
            object: self.object,
            op: rcn_spec::OpId(2), // read
        }
    }
    fn transition(&self, _pid: ProcessId, state: &LocalState, _r: Response) -> LocalState {
        LocalState::word1(state.word(0) + 1)
    }
}

fn register_layout() -> (Arc<HeapLayout>, rcn_model::ObjectId) {
    let mut layout = HeapLayout::new();
    let object = layout.add_object("R", Arc::new(Register::new(2)), ValueId(0));
    (Arc::new(layout), object)
}

#[test]
fn rcn100_truncation_is_pinned() {
    let (layout, object) = register_layout();
    let sys = System::new_unchecked(Arc::new(Unbounded { object }), layout, vec![0]);
    let cfg = ExploreConfig { max_states: 16 };
    let report = Registry::with_defaults().lint_system(&sys, &cfg);
    pin(
        &report,
        "RCN100",
        Severity::Info,
        "abstract state space exceeds the bound",
    );
}

/// A program that can never output: it rewrites the register forever.
struct Spinner {
    object: rcn_model::ObjectId,
}
impl Program for Spinner {
    fn name(&self) -> String {
        "spinner".into()
    }
    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::word1(input)
    }
    fn action(&self, _pid: ProcessId, _state: &LocalState) -> Action {
        Action::Invoke {
            object: self.object,
            op: rcn_spec::OpId(0),
        }
    }
    fn transition(&self, _pid: ProcessId, state: &LocalState, _r: Response) -> LocalState {
        state.clone()
    }
}

#[test]
fn rcn101_no_output_path_is_pinned() {
    let (layout, object) = register_layout();
    let sys = System::new_unchecked(Arc::new(Spinner { object }), layout, vec![0]);
    let report = lint_sys(&sys);
    pin(
        &report,
        "RCN101",
        Severity::Warn,
        "can never reach an output state",
    );
}

/// A program that panics on a feasible response: TAS `test&set` can return
/// r1 (on a set bit), which this transition does not handle.
struct Partial {
    object: rcn_model::ObjectId,
}
impl Program for Partial {
    fn name(&self) -> String {
        "partial".into()
    }
    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::from_words([input, 0, 0])
    }
    fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
        match state.word(1) {
            0 => Action::Invoke {
                object: self.object,
                op: rcn_spec::OpId(0),
            },
            _ => Action::Output(state.word(2)),
        }
    }
    fn transition(&self, _pid: ProcessId, state: &LocalState, r: Response) -> LocalState {
        match r.index() {
            0 => LocalState::from_words([state.word(0), 1, state.word(0)]),
            other => panic!("unhandled response r{other}"),
        }
    }
}

#[test]
fn rcn102_transition_panic_is_pinned() {
    let mut layout = HeapLayout::new();
    let object = layout.add_object("T", Arc::new(TestAndSet::new()), ValueId(0));
    let sys = System::new_unchecked(Arc::new(Partial { object }), Arc::new(layout), vec![0]);
    let report = lint_sys(&sys);
    pin(
        &report,
        "RCN102",
        Severity::Error,
        "transition panics on feasible response r1",
    );
    pin(&report, "RCN102", Severity::Error, "unhandled response r1");
}

#[test]
fn rcn103_dead_object_is_pinned() {
    // OutputInput decides immediately; the sticky bit in the layout is
    // never touched.
    let mut layout = HeapLayout::new();
    layout.add_object("S", Arc::new(StickyBit::new()), ValueId(0));
    let sys = System::new_unchecked(
        Arc::new(rcn_model::OutputInput),
        Arc::new(layout),
        vec![3, 3],
    );
    let report = lint_sys(&sys);
    pin(&report, "RCN103", Severity::Warn, "is never accessed");
}

#[test]
fn rcn104_crash_divergence_is_pinned() {
    let sys = rcn_protocols::TnnWaitFree::system(2, 1, vec![0, 1]);
    let report = lint_sys(&sys);
    pin(
        &report,
        "RCN104",
        Severity::Warn,
        "along the crash schedule",
    );
    // On T&S the one DFS run and the one BFS run of the RCN200 lint yield
    // all three verdicts: the divergence, the engines' agreement, and the
    // replay of the checker's counterexample.
    let sys = rcn_protocols::TasConsensus::system(vec![0, 1]);
    let report = lint_sys(&sys);
    pin(
        &report,
        "RCN104",
        Severity::Warn,
        "process p0 (input 0) outputs 0 and later 1 along the crash schedule `p0 p0 p1 p1 p1 c0 p0 p0 p0`",
    );
    pin(
        &report,
        "RCN200",
        Severity::Info,
        "both find a violating schedule",
    );
    pin(
        &report,
        "RCN203",
        Severity::Info,
        "confirmed by the abstract↔threaded replay bridge",
    );
}

fn synthetic_counterexample() -> rcn_faults::Counterexample {
    rcn_faults::Counterexample {
        schedule: rcn_model::Schedule::of_steps([ProcessId(0)]),
        violation: rcn_model::Violation::Agreement {
            process: ProcessId(0),
            output: 1,
            earlier: 0,
        },
        divergence: None,
    }
}

fn clean_mc_report() -> rcn_mc::McReport {
    rcn_mc::McReport {
        stats: rcn_mc::McStats::default(),
        coverage: rcn_mc::Coverage::Exhaustive,
        counterexample: None,
    }
}

#[test]
fn rcn200_divergence_is_pinned_in_both_directions() {
    // DFS finds a schedule the BFS checker does not...
    let dfs = rcn_faults::CrashtestReport {
        stats: rcn_faults::ExplorerStats::default(),
        counterexample: Some(synthetic_counterexample()),
    };
    let mut report = Report::new();
    rcn_analyze::compare_crashtest_verdicts(
        "x",
        "crashes=1, depth=10",
        &dfs,
        &clean_mc_report(),
        &mut report,
    );
    report.finish();
    pin(
        &report,
        "RCN200",
        Severity::Error,
        "the DFS explorer finds a violating schedule but the BFS checker certifies clean",
    );

    // ...and the converse: the BFS checker believes in a schedule the DFS
    // explorer never found.
    let clean_dfs = rcn_faults::CrashtestReport {
        stats: rcn_faults::ExplorerStats::default(),
        counterexample: None,
    };
    let cex = synthetic_counterexample();
    let bfs = rcn_mc::McReport {
        counterexample: Some(rcn_mc::McCounterexample {
            schedule: cex.schedule,
            violation: cex.violation,
        }),
        ..clean_mc_report()
    };
    let mut report = Report::new();
    rcn_analyze::compare_crashtest_verdicts(
        "x",
        "crashes=1, depth=10",
        &clean_dfs,
        &bfs,
        &mut report,
    );
    report.finish();
    pin(
        &report,
        "RCN200",
        Severity::Error,
        "the BFS checker finds `p0` but the DFS explorer certifies clean",
    );
}

#[test]
fn rcn200_agreement_certificates_are_pinned() {
    // Real run: both engines find the TAS violation.
    let sys = rcn_protocols::TasConsensus::system(vec![0, 1]);
    let report = lint_sys(&sys);
    pin(
        &report,
        "RCN200",
        Severity::Info,
        "both find a violating schedule",
    );
    // Real run: both engines certify the recoverable protocol clean.
    let sys = rcn_protocols::TnnRecoverable::system(5, 2, vec![0, 1]);
    let report = lint_sys(&sys);
    pin(&report, "RCN200", Severity::Info, "both certify clean");
}

#[test]
fn rcn201_divergence_and_agreement_are_pinned() {
    let mut report = Report::new();
    rcn_analyze::compare_valency_verdicts(
        "x",
        "z=1, clamp=2",
        "bivalent",
        "0-univalent",
        &mut report,
    );
    report.finish();
    pin(
        &report,
        "RCN201",
        Severity::Error,
        "the decider stack says the initial configuration is bivalent, the BFS checker says 0-univalent",
    );

    let mut report = Report::new();
    rcn_analyze::compare_valency_verdicts("x", "z=1, clamp=2", "bivalent", "bivalent", &mut report);
    report.finish();
    pin(
        &report,
        "RCN201",
        Severity::Info,
        "differential valency agrees at z=1, clamp=2: initial configuration is bivalent",
    );
}

#[test]
fn rcn202_budget_clip_is_pinned() {
    // A state cap of 3 clips both engines on any real protocol: the
    // comparison must be skipped with a warning, never trusted.
    let sys = rcn_protocols::TasConsensus::system(vec![0, 1]);
    let cfg = ExploreConfig::default();
    let graphs: Vec<_> = sys
        .processes()
        .into_iter()
        .map(|pid| rcn_analyze::explore_process(&sys, pid, &cfg))
        .collect();
    let mut report = Report::new();
    rcn_analyze::cross_crashtest(&sys, &graphs, 3, &mut report);
    report.finish();
    pin(
        &report,
        "RCN202",
        Severity::Warn,
        "cross-check budget too small",
    );
    pin(
        &report,
        "RCN202",
        Severity::Warn,
        "the RCN200 comparison was skipped",
    );
    assert_eq!(report.errors(), 0, "a clipped comparison must not error");
}

#[test]
fn rcn203_bridge_verdicts_are_pinned() {
    let sys = rcn_protocols::TasConsensus::system(vec![0, 1]);

    // A schedule that violates nothing cannot clear the bridge: replay
    // finds no violation on either side, so confirmation fails.
    let benign = rcn_model::Schedule::of_steps([ProcessId(0)]);
    let mut report = Report::new();
    rcn_analyze::check_replay_bridge("test&set consensus", &sys, &benign, &mut report);
    report.finish();
    pin(
        &report,
        "RCN203",
        Severity::Error,
        "fails the abstract↔threaded replay bridge",
    );

    // The checker's real TAS counterexample must be confirmed.
    let bfs = rcn_mc::model_check(&sys, rcn_mc::McConfig::default());
    let cex = bfs.counterexample.expect("TAS diverges under one crash");
    let mut report = Report::new();
    rcn_analyze::check_replay_bridge("test&set consensus", &sys, &cex.schedule, &mut report);
    report.finish();
    pin(
        &report,
        "RCN203",
        Severity::Info,
        "confirmed by the abstract↔threaded replay bridge",
    );
}

#[test]
fn text_rendering_is_pinned() {
    let table: TableType = serde_json::from_str(BROKEN_TABLE_JSON).unwrap();
    let report = lint(&table);
    let expected = "\
error[RCN001]: outcome of op0 on v0 returns out-of-range response r9 (type has 2 responses)
  --> broken: cell (v0, op0)
  = help: keep response ids below num_responses

error[RCN001]: outcome of op0 on v1 targets out-of-range value v5 (type has 2 values)
  --> broken: cell (v1, op0)
  = help: keep next-value ids below num_values

2 errors, 0 warnings, 0 info
";
    assert_eq!(report.render_text(), expected);
}

#[test]
fn json_rendering_is_machine_readable() {
    let table: TableType = serde_json::from_str(BROKEN_TABLE_JSON).unwrap();
    let report = lint(&table);
    let json = report.render_json();
    for fragment in ["\"RCN001\"", "\"Error\"", "\"broken\"", "out-of-range"] {
        assert!(json.contains(fragment), "missing {fragment} in:\n{json}");
    }
}

#[test]
fn deny_warnings_gates_reports() {
    let mut b = TableType::builder("island", 3, 1, 1);
    b.set(0, 0, Outcome::new(Response(0), ValueId(0)));
    b.set(1, 0, Outcome::new(Response(0), ValueId(2)));
    b.set(2, 0, Outcome::new(Response(0), ValueId(1)));
    let report = lint(&b.build().unwrap());
    assert_eq!(report.errors(), 0);
    assert!(report.warnings() > 0);
    assert!(!report.should_fail(false));
    assert!(report.should_fail(true));
}
