//! Program lints (`RCN1xx`): hypotheses about protocol programs.
//!
//! The §4 algorithms assume programs whose crash-restart behavior is total
//! and deterministic, and recoverable wait-freedom requires every state to
//! keep a path to an output. These lints check those hypotheses on the
//! abstract per-process state machine ([`crate::ProcessGraph`]). Crash
//! divergence (`RCN104`) is read off the crash explorer's counterexample by
//! the `RCN200` cross-check ([`crate::CrossCrashtest`]), which runs that
//! search anyway.

use crate::diag::{Diagnostic, Locus, Report, Severity};
use crate::explore::{ExploreConfig, ProcessGraph};
use crate::lint::ProgramLint;
use rcn_model::{ObjectId, System};

fn subject(sys: &System) -> String {
    sys.program().name()
}

/// `RCN100` — the exploration bound was hit; downstream results are
/// partial.
pub struct AnalysisBound;

impl ProgramLint for AnalysisBound {
    fn code(&self) -> &'static str {
        "RCN100"
    }
    fn name(&self) -> &'static str {
        "analysis-bound"
    }
    fn description(&self) -> &'static str {
        "the bounded exploration was truncated; results are partial"
    }
    fn check(
        &self,
        sys: &System,
        graphs: &[ProcessGraph],
        _cfg: &ExploreConfig,
        report: &mut Report,
    ) {
        for (i, g) in graphs.iter().enumerate() {
            if g.truncated {
                report.push(Diagnostic::new(
                    self.code(),
                    Severity::Info,
                    Locus::program(subject(sys)),
                    format!(
                        "process p{i}: abstract state space exceeds the bound \
                         ({} states explored); liveness lints are partial",
                        g.states.len()
                    ),
                ));
            }
        }
    }
}

/// `RCN101` — every reachable state must keep a path to an output.
///
/// Recoverable wait-freedom demands that a process running solo decides;
/// a reachable local state with no path to any [`rcn_model::Action::Output`]
/// (under feasible responses) is a liveness red flag.
pub struct NoOutputPath;

impl ProgramLint for NoOutputPath {
    fn code(&self) -> &'static str {
        "RCN101"
    }
    fn name(&self) -> &'static str {
        "no-output-path"
    }
    fn description(&self) -> &'static str {
        "reachable states with no path to any output state"
    }
    fn check(
        &self,
        sys: &System,
        graphs: &[ProcessGraph],
        _cfg: &ExploreConfig,
        report: &mut Report,
    ) {
        for (i, g) in graphs.iter().enumerate() {
            if g.truncated {
                continue; // RCN100 reports the truncation
            }
            let stuck = g.states_without_output_path();
            if stuck.is_empty() {
                continue;
            }
            if g.output_states().is_empty() {
                report.push(
                    Diagnostic::new(
                        self.code(),
                        Severity::Warn,
                        Locus::program(subject(sys)),
                        format!(
                            "process p{i} (input {}) can never reach an output state \
                             ({} states explored)",
                            g.input,
                            g.states.len()
                        ),
                    )
                    .with_suggestion("a recoverable wait-free program must decide in solo runs"),
                );
                continue;
            }
            let exemplar = &g.states[stuck[0]];
            report.push(
                Diagnostic::new(
                    self.code(),
                    Severity::Warn,
                    Locus::state(subject(sys), exemplar.to_string()),
                    format!(
                        "process p{i} (input {}): {} of {} reachable states have no \
                         path to an output, e.g. {exemplar}",
                        g.input,
                        stuck.len(),
                        g.states.len()
                    ),
                )
                .with_suggestion(
                    "check for retry loops that can spin forever under some response \
                     sequence",
                ),
            );
        }
    }
}

/// `RCN102` — programs must be total on feasible responses.
///
/// `transition` must not panic for any response its invoked operation can
/// actually return (and `action` must not panic at all): the §4 protocols
/// assume total deterministic programs.
pub struct TransitionTotality;

impl ProgramLint for TransitionTotality {
    fn code(&self) -> &'static str {
        "RCN102"
    }
    fn name(&self) -> &'static str {
        "transition-totality"
    }
    fn description(&self) -> &'static str {
        "action/transition panics on reachable states and feasible responses"
    }
    fn check(
        &self,
        sys: &System,
        graphs: &[ProcessGraph],
        _cfg: &ExploreConfig,
        report: &mut Report,
    ) {
        for (i, g) in graphs.iter().enumerate() {
            for site in &g.panics {
                let state = &g.states[site.state];
                let message = match site.response {
                    Some(r) => format!(
                        "process p{i}: transition panics on feasible response {r} in \
                         state {state}: {}",
                        site.payload
                    ),
                    None => format!(
                        "process p{i}: action fails in state {state}: {}",
                        site.payload
                    ),
                };
                report.push(
                    Diagnostic::new(
                        self.code(),
                        Severity::Error,
                        Locus::state(subject(sys), state.to_string()),
                        message,
                    )
                    .with_suggestion(
                        "make the program total for every response the invoked \
                         operation can return",
                    ),
                );
            }
        }
    }
}

/// `RCN103` — every shared object should be reachable.
///
/// An object in the heap layout that no reachable state of any process
/// ever invokes is dead weight in the layout (and often a sign that the
/// plan builder and the program disagree).
pub struct DeadObjects;

impl ProgramLint for DeadObjects {
    fn code(&self) -> &'static str {
        "RCN103"
    }
    fn name(&self) -> &'static str {
        "dead-object"
    }
    fn description(&self) -> &'static str {
        "shared objects never accessed by any reachable state"
    }
    fn check(
        &self,
        sys: &System,
        graphs: &[ProcessGraph],
        _cfg: &ExploreConfig,
        report: &mut Report,
    ) {
        if graphs.iter().any(|g| g.truncated) {
            return; // partial graphs would produce false positives
        }
        let mut touched = vec![false; sys.layout().len()];
        for g in graphs {
            for obj in g.touched_objects() {
                touched[obj.index()] = true;
            }
        }
        for (idx, hit) in touched.iter().enumerate() {
            if !hit {
                let id = ObjectId(idx as u16);
                let layout = sys.layout();
                report.push(
                    Diagnostic::new(
                        self.code(),
                        Severity::Warn,
                        Locus::object(
                            subject(sys),
                            format!(
                                "{id} ({} : {})",
                                layout.name(id),
                                layout.object_type(id).name()
                            ),
                        ),
                        format!(
                            "object {id} ({}) is never accessed by any reachable state \
                             of any process",
                            layout.name(id)
                        ),
                    )
                    .with_suggestion("drop the object from the layout"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_process;
    use rcn_model::{Action, HeapLayout, LocalState, ProcessId, Program};
    use rcn_spec::Response;
    use std::sync::Arc;

    /// A program that invokes a register op forever and never outputs.
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

    fn spinner_system() -> System {
        let mut layout = HeapLayout::new();
        let object = layout.add_object(
            "R",
            Arc::new(rcn_spec::zoo::Register::new(2)),
            rcn_spec::ValueId(0),
        );
        System::new(Arc::new(Spinner { object }), Arc::new(layout), vec![0, 1])
    }

    #[test]
    fn spinner_never_outputs() {
        let sys = spinner_system();
        let cfg = ExploreConfig::default();
        let graphs: Vec<_> = sys
            .processes()
            .into_iter()
            .map(|p| explore_process(&sys, p, &cfg))
            .collect();
        let mut report = Report::new();
        NoOutputPath.check(&sys, &graphs, &cfg, &mut report);
        assert_eq!(report.warnings(), 2);
        assert!(report.diagnostics[0]
            .message
            .contains("never reach an output"));
    }
}
