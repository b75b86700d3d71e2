//! # rcn-faults — systematic fault injection for crash-recovery protocols
//!
//! The paper's adversary chooses *where* processes crash; correctness means
//! surviving every choice. This crate makes that quantifier executable:
//!
//! * [`CrashExplorer`] — a bounded, memoized, deterministic work-list
//!   search over the abstract executor that enumerates every crash
//!   placement within a per-process crash budget and a depth cap, instead
//!   of sampling placements from an RNG, whose counterexample is the
//!   lexicographically-least violating schedule on every run;
//! * [`ExplorerMemo`] — persistence for the explorer's certified
//!   verdicts through `rcn-decide`'s `VerdictStore`, keyed by
//!   [`system_fingerprint`] plus the budget and fault model, so a repeated
//!   `crashtest` run short-circuits instead of searching again;
//! * [`shrink_schedule`] / [`shrink_counterexample`] — delta-debugging
//!   reduction of a violating schedule to a 1-minimal one, so the reported
//!   counterexample contains only necessary events;
//! * [`replay`] — end-to-end confirmation: the shrunk schedule is
//!   re-executed through both the abstract executor and the threaded
//!   runtime ([`rcn_runtime::run_schedule`]) and must produce the same
//!   outputs and the same violation on both.
//!
//! The CLI surface is `rcn crashtest` (see the `rcn-cli` crate), which
//! rediscovers Golab's Test&Set counterexample and `T_{2,1}`'s
//! ⊥-divergence from scratch, and certifies `TnnRecoverable` and the
//! tournament protocol clean at the same budget.
//!
//! ## Quickstart
//!
//! ```
//! use rcn_faults::{crashtest, CrashtestConfig};
//! use rcn_protocols::TasConsensus;
//!
//! let sys = TasConsensus::system(vec![0, 1]);
//! let report = crashtest(&sys, CrashtestConfig::default());
//! let cex = report.counterexample.expect("T&S breaks under crashes");
//! assert!(!cex.schedule.is_crash_free());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diagnose;
mod explorer;
mod memo;
mod replay;
mod shrink;

pub use diagnose::{diagnose, Diagnosis, Divergence};
pub use explorer::{
    Counterexample, CrashExplorer, CrashtestConfig, CrashtestReport, ExplorerStats,
};
pub use memo::{system_fingerprint, ExplorerMemo, EXPLORER_MEMO_VERSION};
pub use replay::{replay, replay_traced, ReplayReport};
pub use shrink::{
    shrink_counterexample, shrink_counterexample_traced, shrink_schedule, shrink_schedule_traced,
};

use rcn_model::System;
use rcn_obs::Tracer;

/// One-call crash exploration: runs a [`CrashExplorer`] over `system` with
/// the given budgets.
pub fn crashtest(system: &System, config: CrashtestConfig) -> CrashtestReport {
    CrashExplorer::new(system, config).explore()
}

/// [`crashtest`] with observability: the exploration is bracketed in a
/// `crashtest.explore` span and the `crashtest.*` counters and depth
/// histogram are maintained (see [`CrashExplorer::with_tracer`]).
pub fn crashtest_traced(
    system: &System,
    config: CrashtestConfig,
    tracer: &Tracer,
) -> CrashtestReport {
    CrashExplorer::new(system, config)
        .with_tracer(tracer.clone())
        .explore()
}
