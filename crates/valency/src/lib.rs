//! # rcn-valency — model checking recoverable consensus protocols
//!
//! Two complementary engines, both exact on finite protocols:
//!
//! * [`ConfigGraph`] / [`check_consensus`] — explores every reachable
//!   configuration under unconstrained steps and crashes and decides
//!   **agreement**, **validity** and **recoverable wait-freedom** (the
//!   paper's §2 progress condition) exactly; counterexamples come out as
//!   replayable schedules (safety) or lassos (liveness).
//! * [`BudgetedGraph`] — explores exactly the crash-budgeted executions
//!   `E_z*(C)` of §3 (with a clamp on stored allowances) and mechanizes the
//!   paper's valency machinery: bivalence (Observation 1), critical
//!   executions (Lemma 6), teams (Lemma 7), the common poised object
//!   (Lemma 9), and the Observation 11 trichotomy
//!   (*n-recording* / *v-hiding* / colliding).
//!
//! ## Quickstart
//!
//! ```
//! use rcn_model::{HeapLayout, OutputInput, System};
//! use rcn_valency::check_consensus;
//! use std::sync::Arc;
//!
//! let sys = System::new(Arc::new(OutputInput), Arc::new(HeapLayout::new()), vec![0, 0]);
//! assert!(check_consensus(&sys, 1_000).unwrap().verdict.is_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod checker;
mod graph;
mod scc;
mod store;
mod valency;

pub use chain::{theorem13_chain, ChainError, ChainLink, ChainReport};
pub use checker::{check_consensus, check_graph, CheckReport, Counterexample, Verdict};
pub use graph::{ConfigGraph, ConfigId, EdgeInfo, ExploreError};
pub use valency::{BudgetedGraph, CriticalClass, CriticalInfo, Valency};
