//! The Theorem 13 chain construction (Figures 1 and 2), mechanized.
//!
//! The paper's main proof builds configurations `D_0, D'_0, …, D_ℓ, D'_ℓ`:
//! each `D'_i` is reached from `D_i` by a critical execution; if `D'_i` is
//! *n-recording* the construction stops (the object's type is n-recording);
//! if it is *v-hiding* the processes `p_{n-i}, …, p_{n-1}` crash
//! (`λ_{n-i}`) and the search repeats (Figure 2); the "neither" case is
//! resolved once at the start via `p_{n-1} c_{n-1}` (Figure 1).
//!
//! [`theorem13_chain`] follows exactly that recipe on a concrete protocol,
//! over the clamped `E_z*` exploration of [`BudgetedGraph`]. For the
//! protocols in this repository the very first critical configuration
//! classifies as n-recording (length-0 chains) — the walk exists to
//! demonstrate and test the proof's control flow, and to report faithfully
//! should a protocol ever present hiding or colliding criticals.

use crate::graph::ExploreError;
use crate::valency::{BudgetedGraph, CriticalClass, CriticalInfo};
use rcn_model::{Event, ProcessId, Schedule, System};

/// One link of the chain: the critical execution found at this stage and
/// its classification.
#[derive(Debug, Clone)]
pub struct ChainLink {
    /// Schedule from the stage's starting configuration to the critical
    /// configuration (the execution `α_i`).
    pub critical: CriticalInfo,
    /// The crash schedule appended after this link (`λ_k`, or the
    /// Figure 1 `p_{n-1} c_{n-1}` step), empty for the final link.
    pub continuation: Schedule,
}

/// The result of walking the Theorem 13 construction.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// The links `(D_i, D'_i)` in order.
    pub links: Vec<ChainLink>,
    /// Whether the walk ended at an n-recording configuration (the
    /// theorem's conclusion).
    pub reached_recording: bool,
}

impl ChainReport {
    /// The full schedule of the walk, concatenating every critical
    /// execution and continuation.
    pub fn full_schedule(&self) -> Schedule {
        let mut out = Schedule::new();
        for link in &self.links {
            out.extend(&link.critical.schedule);
            out.extend(&link.continuation);
        }
        out
    }
}

/// Errors from [`theorem13_chain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// Exploration exceeded the state limit.
    Explore(ExploreError),
    /// No critical configuration was found (the protocol is not a correct
    /// bivalent-start consensus algorithm, or the clamp is too tight).
    NoCritical,
    /// A critical configuration could not be classified (no common object).
    Unclassifiable,
    /// The chain exceeded `n` links, which Theorem 13 proves impossible for
    /// a correct algorithm — report rather than loop.
    TooLong,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Explore(e) => write!(f, "exploration failed: {e}"),
            ChainError::NoCritical => write!(f, "no critical configuration found"),
            ChainError::Unclassifiable => write!(f, "critical configuration unclassifiable"),
            ChainError::TooLong => write!(f, "chain exceeded n links (impossible per Theorem 13)"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<ExploreError> for ChainError {
    fn from(e: ExploreError) -> Self {
        ChainError::Explore(e)
    }
}

/// Walks the Theorem 13 construction on `system`: find a critical
/// execution, classify it, and while it is not n-recording append the
/// paper's crash continuation and repeat from the resulting configuration.
///
/// `z`, `clamp` and `max_states` parameterize each stage's
/// [`BudgetedGraph`] exploration.
///
/// # Errors
///
/// Returns [`ChainError`] if exploration blows the limit, no critical
/// configuration exists, or the chain exceeds `n` links.
pub fn theorem13_chain(
    system: &System,
    z: usize,
    clamp: u16,
    max_states: usize,
) -> Result<ChainReport, ChainError> {
    let n = system.n();
    let mut links = Vec::new();
    let mut prefix = Schedule::new();
    // Stage i: explore from the configuration reached by `prefix`.
    for stage in 0..=n {
        let graph = BudgetedGraph::explore_from(system, &prefix, z, clamp, max_states)?;
        let critical = graph.find_critical().ok_or(ChainError::NoCritical)?;
        let info = graph.analyze_critical(critical);
        let continuation = match info.class.ok_or(ChainError::Unclassifiable)? {
            CriticalClass::Recording => Schedule::new(),
            // Figure 2: crash the suffix p_{n-i-1}, …, p_{n-1}.
            CriticalClass::Hiding(_) => Schedule::lambda(n.saturating_sub(stage + 1).max(1), n),
            // Figure 1: step then crash the highest process.
            CriticalClass::Colliding => {
                let p = ProcessId((n - 1) as u16);
                Schedule::from_events([Event::Step(p), Event::Crash(p)])
            }
        };
        let reached_recording = info.class == Some(CriticalClass::Recording);
        prefix.extend(&info.schedule.concat(&continuation));
        links.push(ChainLink {
            critical: info,
            continuation,
        });
        if reached_recording {
            return Ok(ChainReport {
                links,
                reached_recording,
            });
        }
    }
    Err(ChainError::TooLong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{Action, HeapLayout, LocalState, Program};
    use rcn_spec::zoo::StickyBit;
    use std::sync::Arc;

    /// Sticky-bit consensus, as in the sibling modules' tests.
    struct StickyConsensus {
        sticky: rcn_model::ObjectId,
    }

    impl Program for StickyConsensus {
        fn name(&self) -> String {
            "sticky-consensus".into()
        }
        fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
            LocalState::word2(input, 0)
        }
        fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
            match state.word(1) {
                0 => Action::Invoke {
                    object: self.sticky,
                    op: rcn_spec::OpId::new(state.word(0) as u16),
                },
                _ => Action::Output(state.word(2)),
            }
        }
        fn transition(
            &self,
            _pid: ProcessId,
            state: &LocalState,
            response: rcn_spec::Response,
        ) -> LocalState {
            LocalState::from_words([state.word(0), 1, response.index() as u32])
        }
    }

    fn sticky_sys(inputs: Vec<u32>) -> System {
        let mut layout = HeapLayout::new();
        let sticky = layout.add_object("S", Arc::new(StickyBit::new()), rcn_spec::ValueId::new(0));
        System::new(
            Arc::new(StickyConsensus { sticky }),
            Arc::new(layout),
            inputs,
        )
    }

    #[test]
    fn sticky_chain_terminates_immediately_at_recording() {
        let report = theorem13_chain(&sticky_sys(vec![0, 1]), 1, 6, 200_000).unwrap();
        assert!(report.reached_recording);
        assert_eq!(report.links.len(), 1);
        assert!(report.links[0].continuation.is_empty());
    }

    #[test]
    fn chain_full_schedule_replays_cleanly() {
        let sys = sticky_sys(vec![0, 1]);
        let report = theorem13_chain(&sys, 1, 6, 200_000).unwrap();
        let sched = report.full_schedule();
        let (_, violation) = sys.run_from_start(&sched);
        assert!(violation.is_none());
    }

    #[test]
    fn uniform_inputs_have_no_critical() {
        // Univalent from the start: no bivalent configuration exists.
        let err = theorem13_chain(&sticky_sys(vec![1, 1]), 1, 6, 200_000).unwrap_err();
        assert_eq!(err, ChainError::NoCritical);
    }
}
