//! The lint traits and the default registry.
//!
//! A lint is a small, named check with a stable `RCN0xx`/`RCN1xx` code.
//! [`Registry::with_defaults`] wires up every built-in lint; callers then
//! use [`Registry::lint_type`] for sequential specifications and
//! [`Registry::lint_system`] for protocol programs.

use crate::diag::Report;
use crate::explore::{explore_process, ExploreConfig, ProcessGraph};
use rcn_model::System;
use rcn_obs::Tracer;
use rcn_spec::ObjectType;

/// A lint over a sequential specification ([`ObjectType`]).
pub trait SpecLint {
    /// Stable diagnostic code, e.g. `"RCN001"`.
    fn code(&self) -> &'static str;
    /// Short kebab-case name, e.g. `"closedness"`.
    fn name(&self) -> &'static str;
    /// One-line description of what the lint checks.
    fn description(&self) -> &'static str;
    /// Runs the lint, pushing diagnostics into `report`.
    fn check(&self, ty: &dyn ObjectType, report: &mut Report);
}

/// A lint over a protocol program, given its per-process abstract state
/// graphs.
pub trait ProgramLint {
    /// Stable diagnostic code, e.g. `"RCN101"`.
    fn code(&self) -> &'static str;
    /// Short kebab-case name, e.g. `"no-output-path"`.
    fn name(&self) -> &'static str;
    /// One-line description of what the lint checks.
    fn description(&self) -> &'static str;
    /// Runs the lint, pushing diagnostics into `report`.
    fn check(
        &self,
        sys: &System,
        graphs: &[ProcessGraph],
        cfg: &ExploreConfig,
        report: &mut Report,
    );
}

/// The set of lints to run, in order.
pub struct Registry {
    spec_lints: Vec<Box<dyn SpecLint>>,
    program_lints: Vec<Box<dyn ProgramLint>>,
}

impl Registry {
    /// An empty registry with no lints.
    pub fn new() -> Self {
        Registry {
            spec_lints: Vec::new(),
            program_lints: Vec::new(),
        }
    }

    /// The full built-in lint set: `RCN001`–`RCN006` over specifications,
    /// `RCN100`–`RCN104` over programs, and the `RCN200`–`RCN203`
    /// differential cross-checks. The `RCN200` lint runs the crash explorer
    /// and the BFS checker once and also emits crash divergence (`RCN104`)
    /// and the replay-bridge verdict (`RCN203`); the budget-clip warning
    /// `RCN202` is emitted by the `RCN200`/`RCN201` lints, which own the
    /// budgets.
    pub fn with_defaults() -> Self {
        let mut r = Registry::new();
        r.register_spec(Box::new(crate::spec_lints::Closedness));
        r.register_spec(Box::new(crate::spec_lints::UnreachableValues));
        r.register_spec(Box::new(crate::spec_lints::DeadResponses));
        r.register_spec(Box::new(crate::spec_lints::DuplicateOps));
        r.register_spec(Box::new(crate::spec_lints::Readability));
        r.register_spec(Box::new(crate::spec_lints::IdempotentOps));
        r.register_program(Box::new(crate::program_lints::AnalysisBound));
        r.register_program(Box::new(crate::program_lints::NoOutputPath));
        r.register_program(Box::new(crate::program_lints::TransitionTotality));
        r.register_program(Box::new(crate::program_lints::DeadObjects));
        r.register_program(Box::new(crate::cross_lints::CrossCrashtest::default()));
        r.register_program(Box::new(crate::cross_lints::CrossValency::default()));
        r
    }

    /// Appends a specification lint.
    pub fn register_spec(&mut self, lint: Box<dyn SpecLint>) {
        self.spec_lints.push(lint);
    }

    /// Appends a program lint.
    pub fn register_program(&mut self, lint: Box<dyn ProgramLint>) {
        self.program_lints.push(lint);
    }

    /// `(code, name, description)` for every registered lint, spec lints
    /// first.
    pub fn descriptions(&self) -> Vec<(&'static str, &'static str, &'static str)> {
        let mut out: Vec<_> = self
            .spec_lints
            .iter()
            .map(|l| (l.code(), l.name(), l.description()))
            .collect();
        out.extend(
            self.program_lints
                .iter()
                .map(|l| (l.code(), l.name(), l.description())),
        );
        out
    }

    /// Lints a sequential specification.
    ///
    /// Closedness (`RCN001`) gates the rest: if the table is not a valid
    /// total specification, the structural lints would chase nonsense, so
    /// they are skipped.
    pub fn lint_type(&self, ty: &dyn ObjectType) -> Report {
        self.lint_type_traced(ty, &Tracer::disabled())
    }

    /// [`lint_type`](Self::lint_type) with observability: one `lint.type`
    /// span per run, a `lint.spec_passes` counter per lint executed, and
    /// `lint.diagnostics` incremented per diagnostic produced.
    pub fn lint_type_traced(&self, ty: &dyn ObjectType, tracer: &Tracer) -> Report {
        let _span = tracer.span_with("lint.type", self.spec_lints.len() as i64, &ty.name());
        let passes = tracer.counter("lint.spec_passes");
        let diags = tracer.counter("lint.diagnostics");
        let mut report = Report::new();
        for lint in &self.spec_lints {
            passes.incr();
            lint.check(ty, &mut report);
            if lint.code() == "RCN001" && report.errors() > 0 {
                break;
            }
        }
        report.finish();
        diags.add(report.diagnostics.len() as u64);
        report
    }

    /// Lints a protocol program by exploring each process's abstract
    /// state graph once and handing the graphs to every program lint.
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
            self.program_lints.len() as i64,
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
        for lint in &self.program_lints {
            passes.incr();
            lint.check(sys, &graphs, cfg, &mut report);
        }
        report.finish();
        diags.add(report.diagnostics.len() as u64);
        report
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_codes() {
        let r = Registry::with_defaults();
        let codes: Vec<&str> = r.descriptions().iter().map(|(c, _, _)| *c).collect();
        // RCN104 and RCN203 (emitted by the RCN200 lint) and RCN202
        // (emitted by the RCN200/RCN201 lints) are not registered
        // separately, so they do not appear here.
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
