//! # rcn-model — the crash-recovery shared-memory execution model
//!
//! Mechanizes §2–§3 of *"Determining Recoverable Consensus Numbers"*
//! (Ovens, PODC 2024):
//!
//! * [`ProcessId`], [`Event`], [`Schedule`] — steps `p_i` and crashes `c_i`,
//!   parsed and printed in the paper's notation;
//! * [`Program`] / [`System`] / [`Configuration`] — deterministic process
//!   programs over a [`HeapLayout`] of shared objects; crashes reset local
//!   state while shared objects persist (the non-volatile memory model);
//! * [`CrashBudget`] — the execution sets `E_z(C)` / `E_z*(C)` of §3, where
//!   the crashes of `p_i` are funded by the steps of lower-id processes;
//! * [`s_p`] — enumeration of the schedule sets `S(P′)` of §2, which the
//!   *n-discerning* / *n-recording* conditions quantify over;
//! * [`Adversary`] implementations including a budget-respecting crash
//!   injector.
//!
//! ## Quickstart
//!
//! ```
//! use rcn_model::{BudgetKind, CrashBudget, Schedule};
//!
//! // The paper's example (§3, n = 2): p1 crashes before p0 has funded it.
//! let sched: Schedule = "p1 c1 p0".parse().unwrap();
//! let budget = CrashBudget::new(1, 2);
//! assert!(budget.admits(&sched, BudgetKind::Final));        // ∈ E_1(C)
//! assert!(!budget.admits(&sched, BudgetKind::EveryPrefix)); // ∉ E_1*(C)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod budget;
mod execution;
mod hash;
mod heap;
mod program;
mod schedule;
mod sp;
mod system;

pub use adversary::{drive, Adversary, CrashyAdversary, DriveReport, RoundRobin};
pub use budget::{BudgetKind, BudgetTracker, CrashBudget};
pub use execution::Execution;
pub use hash::{Fnv1a, WordHasher};
pub use heap::{HeapLayout, ObjectId};
pub use program::{Action, LocalState, OutputInput, Program};
pub use schedule::{
    Event, FaultModel, ParseFaultModelError, ParseScheduleError, ProcessId, Schedule,
};
pub use sp::{s_p, s_p_first_in, s_p_len};
pub use system::{charge_crashes, event_enabled, Configuration, StepEffect, System, Violation};
