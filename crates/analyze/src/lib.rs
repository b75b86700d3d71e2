//! Static analysis for the `rcn` workspace.
//!
//! This crate turns the paper's hypotheses about sequential specifications
//! and recoverable protocols into *lints*: small named checks with stable
//! `RCN0xx`/`RCN1xx` codes that either certify a property (with an explicit
//! witness) or refute it (with a concrete counterexample), rendered in a
//! rustc-style text format or as JSON.
//!
//! Two lint families:
//!
//! * **Spec lints** (`RCN001`–`RCN006`) run over any
//!   [`ObjectType`](rcn_spec::ObjectType): closedness of the transition
//!   table, unreachable values, dead response codes, duplicate operations,
//!   a readability certificate or refutation (Definition 2 of the paper),
//!   and idempotent-operation detection.
//! * **Program lints** (`RCN100`–`RCN104`) run over a
//!   [`System`](rcn_model::System): bounded abstract exploration of each
//!   process's reachable local states checks output-liveness, totality of
//!   `transition` on feasible responses and dead shared objects; `RCN104`
//!   reports crash-divergence, the failure mode that separates the
//!   recoverable consensus hierarchy from the classical one, from the
//!   crash explorer's counterexample (emitted by [`cross_crashtest`]).
//! * **Cross-checker lints** (`RCN200`–`RCN203`) run two structurally
//!   independent engines on the same question — `rcn-faults`' DFS vs
//!   `rcn-mc`'s BFS for crashtest verdicts, `rcn-valency`'s budgeted
//!   graph vs `rcn-mc`'s forward search for valency facts, plus the
//!   abstract↔threaded replay bridge for checker counterexamples — and
//!   turn any disagreement into a hard error (see [`cross_crashtest`]).
//!
//! Every lint is a plain function; one fixed table per family says which
//! run and in what order. Entry points: [`Registry::with_defaults`], then
//! [`Registry::lint_type`] / [`Registry::lint_system`]; the resulting
//! [`Report`] knows how to render itself and whether it should fail a
//! build ([`Report::should_fail`]).
//!
//! ```
//! use rcn_analyze::Registry;
//!
//! let registry = Registry::with_defaults();
//! let report = registry.lint_type(&rcn_spec::zoo::StickyBit);
//! assert_eq!(report.errors(), 0);
//! println!("{}", report.render_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cross_lints;
mod diag;
mod explore;
mod lint;
mod program_lints;
mod spec_lints;

pub use cross_lints::{
    check_replay_bridge, compare_crashtest_verdicts, compare_valency_verdicts, cross_crashtest,
};
pub use diag::{Diagnostic, Locus, LocusKind, Report, Severity};
pub use explore::{explore_process, ExploreConfig, PanicSite, ProcessGraph};
pub use lint::Registry;
