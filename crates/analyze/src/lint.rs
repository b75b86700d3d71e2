//! The lint tables and the entry points that run them.
//!
//! A lint is a plain function with a stable `RCN0xx`/`RCN1xx`/`RCN2xx`
//! code. [`SPEC_LINTS`] and [`PROGRAM_LINTS`] are the only place that says
//! which lints run and in what order; [`Registry::lint_type`] runs the
//! first over a sequential specification and [`Registry::lint_system`]
//! the second over a protocol program.

use crate::cross_lints::{cross_crashtest, cross_valency, CRASHTEST_MAX_STATES};
use crate::diag::Report;
use crate::explore::{explore_process, ExploreConfig, ProcessGraph};
use crate::program_lints::{analysis_bound, dead_objects, no_output_path, transition_totality};
use crate::spec_lints::{
    closedness, dead_responses, duplicate_ops, idempotent_ops, readability, unreachable_values,
};
use rcn_model::System;
use rcn_obs::Tracer;
use rcn_spec::ObjectType;

/// A lint over a sequential specification: pushes its diagnostics.
type SpecCheck = fn(&dyn ObjectType, &mut Report);

/// A lint over a protocol program, given its per-process abstract state
/// graphs: pushes its diagnostics.
type ProgramCheck = fn(&System, &[ProcessGraph], &mut Report);

/// The spec lints, by code, in run order. `RCN001` runs first and, when it
/// finds errors, stops the rest.
const SPEC_LINTS: [(&str, SpecCheck); 6] = [
    ("RCN001", closedness),
    ("RCN002", unreachable_values),
    ("RCN003", dead_responses),
    ("RCN004", duplicate_ops),
    ("RCN005", readability),
    ("RCN006", idempotent_ops),
];

/// The program lints, by code, in run order. `RCN200` runs the crash
/// explorer and the BFS checker once and also emits crash divergence
/// (`RCN104`), the budget-clip warning (`RCN202`) and the replay-bridge
/// verdict (`RCN203`); `RCN201` also emits `RCN202`.
const PROGRAM_LINTS: [(&str, ProgramCheck); 6] = [
    ("RCN100", analysis_bound),
    ("RCN101", no_output_path),
    ("RCN102", transition_totality),
    ("RCN103", dead_objects),
    ("RCN200", |sys, graphs, report| {
        cross_crashtest(sys, graphs, CRASHTEST_MAX_STATES, report)
    }),
    ("RCN201", cross_valency),
];

/// Runs the lint tables. It holds no state: every registry runs the same
/// lints in the same order.
#[derive(Debug, Default, Clone, Copy)]
pub struct Registry;

impl Registry {
    /// The full built-in lint set: `RCN001`–`RCN006` over specifications,
    /// `RCN100`–`RCN104` over programs, and the `RCN200`–`RCN203`
    /// differential cross-checks.
    pub fn with_defaults() -> Self {
        Registry
    }

    /// Lints a sequential specification.
    ///
    /// Runs `SPEC_LINTS` in order. Closedness (`RCN001`) gates the
    /// rest: if the table is not a valid total specification, the
    /// structural lints would chase nonsense, so they are skipped.
    pub fn lint_type(&self, ty: &dyn ObjectType) -> Report {
        self.lint_type_traced(ty, &Tracer::disabled())
    }

    /// [`lint_type`](Self::lint_type) with observability: one `lint.type`
    /// span per run, a `lint.spec_passes` counter per lint executed, and
    /// `lint.diagnostics` incremented per diagnostic produced.
    pub fn lint_type_traced(&self, ty: &dyn ObjectType, tracer: &Tracer) -> Report {
        let _span = tracer.span_with("lint.type", SPEC_LINTS.len() as i64, &ty.name());
        let passes = tracer.counter("lint.spec_passes");
        let diags = tracer.counter("lint.diagnostics");
        let mut report = Report::new();
        for (code, lint) in SPEC_LINTS {
            passes.incr();
            lint(ty, &mut report);
            if code == "RCN001" && report.errors() > 0 {
                break;
            }
        }
        report.finish();
        diags.add(report.diagnostics.len() as u64);
        report
    }

    /// Lints a protocol program by exploring each process's abstract
    /// state graph once and handing the graphs to every program lint in
    /// `PROGRAM_LINTS` order.
    pub fn lint_system(&self, sys: &System, cfg: &ExploreConfig) -> Report {
        self.lint_system_traced(sys, cfg, &Tracer::disabled())
    }

    /// [`lint_system`](Self::lint_system) with observability: one
    /// `lint.system` span per run, a `lint.graphs_explored` counter per
    /// process graph built, `lint.program_passes` per lint executed, and
    /// `lint.diagnostics` per diagnostic produced.
    pub fn lint_system_traced(&self, sys: &System, cfg: &ExploreConfig, tracer: &Tracer) -> Report {
        let _span = tracer.span_with(
            "lint.system",
            PROGRAM_LINTS.len() as i64,
            &sys.program().name(),
        );
        let graphs_counter = tracer.counter("lint.graphs_explored");
        let passes = tracer.counter("lint.program_passes");
        let diags = tracer.counter("lint.diagnostics");
        let graphs: Vec<ProcessGraph> = sys
            .processes()
            .into_iter()
            .map(|pid| {
                graphs_counter.incr();
                explore_process(sys, pid, cfg)
            })
            .collect();
        let mut report = Report::new();
        for (_, lint) in PROGRAM_LINTS {
            passes.incr();
            lint(sys, &graphs, &mut report);
        }
        report.finish();
        diags.add(report.diagnostics.len() as u64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_codes() {
        let codes: Vec<&str> = SPEC_LINTS
            .iter()
            .map(|(c, _)| *c)
            .chain(PROGRAM_LINTS.iter().map(|(c, _)| *c))
            .collect();
        // RCN104 and RCN203 (emitted by the RCN200 lint) and RCN202
        // (emitted by the RCN200/RCN201 lints) have no table entry of
        // their own, so they do not appear here.
        assert_eq!(
            codes,
            [
                "RCN001", "RCN002", "RCN003", "RCN004", "RCN005", "RCN006", "RCN100", "RCN101",
                "RCN102", "RCN103", "RCN200", "RCN201"
            ]
        );
    }

    #[test]
    fn unclosed_spec_gates_structural_lints() {
        struct Broken;
        impl rcn_spec::ObjectType for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn num_values(&self) -> usize {
                2
            }
            fn num_ops(&self) -> usize {
                1
            }
            fn num_responses(&self) -> usize {
                1
            }
            fn apply(&self, v: rcn_spec::ValueId, _op: rcn_spec::OpId) -> rcn_spec::Outcome {
                // Out-of-range next value for v1.
                rcn_spec::Outcome::new(rcn_spec::Response(0), rcn_spec::ValueId(v.0 + 7))
            }
        }
        let report = Registry::with_defaults().lint_type(&Broken);
        assert!(report.errors() > 0);
        assert!(report.diagnostics.iter().all(|d| d.code == "RCN001"));
    }

    #[test]
    fn traced_lint_counts_passes_and_diagnostics() {
        let tracer = Tracer::metrics_only();
        let reg = Registry::with_defaults();
        let report = reg.lint_type_traced(&rcn_spec::zoo::Register::new(3), &tracer);
        let snap = tracer.snapshot().expect("metrics tracer has a snapshot");
        assert_eq!(snap.counter("lint.spec_passes"), Some(6));
        assert_eq!(
            snap.counter("lint.diagnostics"),
            Some(report.diagnostics.len() as u64)
        );
        // Untraced runs produce the identical report.
        assert_eq!(report, reg.lint_type(&rcn_spec::zoo::Register::new(3)));
    }

    #[test]
    fn clean_type_reaches_info_lints() {
        let reg = Registry::with_defaults();
        let report = reg.lint_type(&rcn_spec::zoo::Register::new(3));
        assert_eq!(report.errors(), 0);
        // Readability + idempotence always have something to say.
        assert!(report.diagnostics.iter().any(|d| d.code == "RCN005"));
    }
}
