//! The breadth-first crash-placement checker.
//!
//! This is a deliberate re-implementation of the crashtest question — *does
//! any schedule within a per-process crash budget and a length cap violate
//! agreement or validity?* — answered by a different algorithm than
//! `rcn-faults`' memoized DFS: a plain breadth-first search over
//! structurally keyed `(configuration, crash-counts)` states with parent
//! pointers. The two engines share no search code (this crate depends only
//! on `rcn-model` and `rcn-obs`), so a verdict they agree on does not rest
//! on any single search's pruning being sound — exactly the bug class the
//! depth-aware-memoization regression in the DFS explorer belongs to. What
//! they do share is the crash semantics itself: which crash events are
//! enabled under the budget ([`rcn_model::event_enabled`]) and how each one
//! charges the crash counts ([`rcn_model::charge_crashes`]).
//!
//! Properties the BFS buys structurally:
//!
//! * **Minimal-depth counterexamples.** States are expanded in distance
//!   order, so the first violating event found closes a schedule no longer
//!   than any other violating schedule in budget — no shrinking needed for
//!   length (the DFS needs delta-debugging to get there).
//! * **No pruning to audit.** Every enabled event is applied; no-op steps
//!   and wasted crashes simply deduplicate into already-visited states.
//!   The DFS's skip rules (no-op steps, crashes in the initial state) are
//!   optimizations this checker intentionally does not copy.

use crate::store::{digest, Store};
use rcn_model::{
    charge_crashes, event_enabled, Event, FaultModel, ProcessId, Schedule, System, Violation,
};
use rcn_obs::Tracer;
use std::fmt;

/// Budgets for one breadth-first check. The semantics match the DFS
/// explorer's budgets exactly — same `K` crashes per process, same
/// schedule-length cap `D` — so verdicts are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Maximum crashes per process along any schedule (the budget `K`).
    pub max_crashes: usize,
    /// Maximum schedule length (the depth cap `D`).
    pub max_depth: usize,
    /// Maximum number of distinct states stored before the search stops
    /// growing; hitting it demotes the result to [`Coverage::Bounded`].
    pub max_states: usize,
    /// Which crash-event families the adversary may schedule. Part of the
    /// verdict's identity (a system-wide crash charges every process one
    /// crash, a mid-operation crash charges the crashing process; see
    /// [`rcn_model::charge_crashes`]).
    pub fault_model: FaultModel,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_crashes: 2,
            max_depth: 16,
            max_states: 500_000,
            fault_model: FaultModel::PER_PROCESS,
        }
    }
}

/// How much of the stated budget a verdict actually covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Every schedule within the crash/depth budget was covered: a clean
    /// verdict is a certification.
    Exhaustive,
    /// The state cap stopped the search; a clean verdict only covers the
    /// states actually stored.
    Bounded,
}

impl Coverage {
    /// `true` for [`Coverage::Exhaustive`].
    pub fn is_exhaustive(self) -> bool {
        matches!(self, Coverage::Exhaustive)
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Coverage::Exhaustive => write!(f, "exhaustive"),
            Coverage::Bounded => write!(f, "bounded"),
        }
    }
}

/// Counters of one breadth-first check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McStats {
    /// Distinct `(configuration, crash-counts)` states stored.
    pub states_visited: u64,
    /// Events applied (counting ones that deduplicated).
    pub events_applied: u64,
    /// Events whose successor was already stored (the dedup ratio's
    /// numerator: `dedup_hits / events_applied`).
    pub dedup_hits: u64,
    /// Largest number of discovered-but-unexpanded states at any point.
    /// Not a memory bound: every state stays stored until the check ends,
    /// so the store holds `states_visited` states.
    pub frontier_peak: u64,
    /// `true` if some state sat at the depth cap with events still
    /// enabled. Expected for any non-trivial protocol; the cap is part of
    /// the stated budget and does not void exhaustiveness within it.
    pub depth_clipped: bool,
    /// `true` if the state cap was hit (the search stopped growing).
    pub state_clipped: bool,
}

impl McStats {
    /// The fraction of applied events that landed on an already-stored
    /// state (0 when no events were applied).
    pub fn dedup_ratio(&self) -> f64 {
        if self.events_applied == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.events_applied as f64
        }
    }
}

impl fmt::Display for McStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} events, frontier peak {}, dedup {:.0}%",
            self.states_visited,
            self.events_applied,
            self.frontier_peak,
            self.dedup_ratio() * 100.0
        )?;
        if self.state_clipped {
            write!(f, " (state cap hit)")?;
        }
        Ok(())
    }
}

/// A violating schedule found by the breadth-first search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McCounterexample {
    /// The violating schedule. Breadth-first order guarantees it is
    /// *minimal-depth*: no in-budget schedule shorter than this violates.
    pub schedule: Schedule,
    /// The violation its final event triggers (or, for an empty schedule,
    /// the time-zero violation of the initial configuration).
    pub violation: Violation,
}

impl fmt::Display for McCounterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}  ⇒  {}", self.schedule, self.violation)
    }
}

/// The outcome of one breadth-first check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McReport {
    /// Search counters.
    pub stats: McStats,
    /// Whether the stated budget was fully covered.
    pub coverage: Coverage,
    /// The minimal-depth counterexample, or `None` if every covered
    /// schedule is safe.
    pub counterexample: Option<McCounterexample>,
}

impl McReport {
    /// `true` if no violation was found *and* the whole budget was
    /// covered — the same bar the DFS explorer's certification sets.
    pub fn is_certified_clean(&self) -> bool {
        self.counterexample.is_none() && self.coverage.is_exhaustive()
    }
}

/// The back-pointer that reconstructs a stored state's schedule; node `i`
/// belongs to the state with id `i` in the store. A `u32` depth cannot wrap:
/// a BFS depth is below the number of stored states, which `u32` indices
/// already bound.
struct Node {
    parent: Option<(u32, Event)>,
    depth: u32,
}

/// The breadth-first checker.
pub struct ModelChecker<'s> {
    system: &'s System,
    config: McConfig,
    tracer: Tracer,
}

impl<'s> ModelChecker<'s> {
    /// A checker for `system` with the given budgets.
    pub fn new(system: &'s System, config: McConfig) -> Self {
        ModelChecker {
            system,
            config,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer: the search is bracketed in an `mc.check` span,
    /// the loop maintains an `mc.depth` histogram (one observation per
    /// stored state), and each check adds its final [`McStats`] to the
    /// `mc.*` counters once (`mc.frontier_peak` keeps the maximum).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Runs the breadth-first search.
    pub fn check(&self) -> McReport {
        let span = self.tracer.span_with(
            "mc.check",
            i64::try_from(self.config.max_depth).unwrap_or(i64::MAX),
            &format!(
                "crashes={} states={} model={}",
                self.config.max_crashes, self.config.max_states, self.config.fault_model
            ),
        );
        let depths = self.tracer.histogram("mc.depth");

        let mut stats = McStats::default();
        let initial = self.system.initial_config();
        if let Some(violation) = self.system.check_initial_outputs(&initial) {
            let report = McReport {
                stats,
                coverage: Coverage::Exhaustive,
                counterexample: Some(McCounterexample {
                    schedule: Schedule::new(),
                    violation,
                }),
            };
            self.publish(&report, &span);
            return report;
        }

        let n = self.system.n();
        let mut nodes = vec![Node {
            parent: None,
            depth: 0,
        }];
        // A state is its configuration plus the per-process crash counts
        // spent reaching it.
        let mut crashes = vec![0usize; n];
        let mut store = Store::new(n, initial.values.len());
        store.push(digest(&initial, &crashes), &initial, &crashes);
        stats.states_visited = 1;
        stats.frontier_peak = 1;
        depths.observe(0);

        // Each expanded state is loaded into `current` and `crashes`; every
        // successor is built in `next` and `next_crashes`, and only a state
        // seen for the first time is copied into the store.
        let (mut current, mut next) = (initial.clone(), initial);
        let mut next_crashes = crashes.clone();
        let mut head = 0usize;
        while head < nodes.len() {
            let id = head;
            head += 1;
            let depth = nodes[id].depth;
            if depth as usize >= self.config.max_depth {
                stats.depth_clipped = true;
                continue;
            }
            store.load(id, &mut current, &mut crashes);
            // Steps, per-process crashes, the system-wide crash, then
            // mid-operation crashes — the same candidate order as the DFS
            // explorer, though breadth-first expansion makes the order
            // irrelevant to the verdict. Faithful to the BFS philosophy,
            // the DFS's no-op skip rules (crashes in the initial state,
            // degenerate mid-operation crashes with no pending invocation)
            // are *not* copied: those successors simply deduplicate or
            // strictly shrink the remaining budget, so verdicts agree.
            let candidates = (0..n)
                .map(|i| Event::Step(ProcessId(i as u16)))
                .chain((0..n).map(|i| Event::Crash(ProcessId(i as u16))))
                .chain(std::iter::once(Event::SystemCrash))
                .chain((0..n).map(|i| Event::CrashDuring(ProcessId(i as u16))));
            for event in candidates {
                if !event_enabled(
                    self.config.fault_model,
                    &crashes,
                    self.config.max_crashes,
                    event,
                ) {
                    continue;
                }
                next.clone_from(&current);
                let effect = self.system.apply(&mut next, event);
                stats.events_applied += 1;
                if let Some(violation) = effect.violation {
                    let mut schedule = self.schedule_to(&nodes, id);
                    schedule.push(event);
                    let report = McReport {
                        stats,
                        coverage: Coverage::Exhaustive,
                        counterexample: Some(McCounterexample {
                            schedule,
                            violation,
                        }),
                    };
                    self.publish(&report, &span);
                    return report;
                }
                next_crashes.copy_from_slice(&crashes);
                charge_crashes(&mut next_crashes, event);
                let digest = digest(&next, &next_crashes);
                if store.find(digest, &next, &next_crashes).is_some() {
                    stats.dedup_hits += 1;
                    continue;
                }
                if nodes.len() >= self.config.max_states {
                    stats.state_clipped = true;
                    continue;
                }
                store.push(digest, &next, &next_crashes);
                nodes.push(Node {
                    parent: Some((id as u32, event)),
                    depth: depth + 1,
                });
                stats.states_visited += 1;
                depths.observe(u64::from(depth) + 1);
                let frontier = (nodes.len() - head) as u64;
                if frontier > stats.frontier_peak {
                    stats.frontier_peak = frontier;
                }
            }
        }

        let coverage = if stats.state_clipped {
            Coverage::Bounded
        } else {
            Coverage::Exhaustive
        };
        let report = McReport {
            stats,
            coverage,
            counterexample: None,
        };
        self.publish(&report, &span);
        report
    }

    /// The schedule from the initial state to `id`, by parent pointers.
    fn schedule_to(&self, nodes: &[Node], id: usize) -> Schedule {
        let mut events = Vec::new();
        let mut cur = id;
        while let Some((parent, event)) = nodes[cur].parent {
            events.push(event);
            cur = parent as usize;
        }
        events.reverse();
        Schedule::from_events(events)
    }

    /// Adds the final stats to the `mc.*` counters (a flag counts the
    /// checks that set it; `mc.frontier_peak` keeps the maximum) and
    /// records the counterexample (if any) as an event inside the check
    /// span.
    fn publish(&self, report: &McReport, span: &rcn_obs::Span) {
        if !self.tracer.enabled() {
            return;
        }
        let stats = &report.stats;
        let tracer = &self.tracer;
        tracer.add("mc.states_visited", stats.states_visited);
        tracer.add("mc.events_applied", stats.events_applied);
        tracer.add("mc.dedup_hits", stats.dedup_hits);
        tracer.counter("mc.frontier_peak").max(stats.frontier_peak);
        tracer.add("mc.depth_clipped", u64::from(stats.depth_clipped));
        tracer.add("mc.state_clipped", u64::from(stats.state_clipped));
        tracer.add(
            "mc.counterexamples",
            u64::from(report.counterexample.is_some()),
        );
        if self.tracer.recording() {
            if let Some(cex) = &report.counterexample {
                span.event(
                    "mc.counterexample",
                    i64::try_from(cex.schedule.len()).unwrap_or(i64::MAX),
                    &cex.violation.to_string(),
                );
            }
        }
    }
}

/// One-call breadth-first check with the given budgets.
pub fn model_check(system: &System, config: McConfig) -> McReport {
    ModelChecker::new(system, config).check()
}

/// [`model_check`] with observability (see [`ModelChecker::with_tracer`]).
pub fn model_check_traced(system: &System, config: McConfig, tracer: &Tracer) -> McReport {
    ModelChecker::new(system, config)
        .with_tracer(tracer.clone())
        .check()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
    use rcn_spec::zoo::{Register, StickyBit};
    use std::sync::Arc;

    fn check(system: &System) -> McReport {
        model_check(system, McConfig::default())
    }

    #[test]
    fn rediscovers_golabs_tas_counterexample_at_minimal_depth() {
        let sys = TasConsensus::system(vec![0, 1]);
        let report = check(&sys);
        let cex = report.counterexample.expect("T&S breaks under crashes");
        assert!(!cex.schedule.is_crash_free());
        // The schedule independently replays to the same violation.
        let (_, violation) = sys.run_from_start(&cex.schedule);
        assert_eq!(violation, Some(cex.violation));
        // BFS minimality: no strictly shorter budgeted schedule violates.
        let shorter = model_check(
            &sys,
            McConfig {
                max_depth: cex.schedule.len() - 1,
                ..McConfig::default()
            },
        );
        assert!(shorter.is_certified_clean(), "{:?}", shorter.counterexample);
    }

    #[test]
    fn rediscovers_tnn_bottom_divergence() {
        let sys = TnnWaitFree::system(2, 1, vec![0, 1]);
        let report = check(&sys);
        let cex = report
            .counterexample
            .expect("T_{2,1} wait-free must diverge once the object saturates");
        let (_, violation) = sys.run_from_start(&cex.schedule);
        assert_eq!(violation, Some(cex.violation));
        // The known-minimal divergence is 4 events (p1 p0 c0 p0).
        assert_eq!(cex.schedule.len(), 4);
    }

    #[test]
    fn certifies_tnn_recoverable_clean() {
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = check(&sys);
        assert!(
            report.is_certified_clean(),
            "recoverable T_{{5,2}} must survive every budgeted crash placement: {:?}",
            report.counterexample
        );
        assert!(report.stats.states_visited > 1);
        assert!(report.stats.dedup_hits > 0);
        assert!(report.stats.frontier_peak > 1);
    }

    #[test]
    fn certifies_all_tournament_variants_clean() {
        // Every readable zoo type with a contest witness (T&S has none —
        // that is Golab's separation, pinned in rcn-protocols).
        let variants: Vec<(&str, Arc<dyn rcn_spec::ObjectType + Send + Sync>)> = vec![
            ("sticky", Arc::new(StickyBit::new())),
            ("cas", Arc::new(rcn_spec::zoo::CompareAndSwap::new(3))),
            ("tnn(3,2)", Arc::new(rcn_spec::zoo::Tnn::new(3, 2))),
        ];
        for (label, ty) in variants {
            let sys = TournamentConsensus::try_new(ty, vec![1, 0]).unwrap();
            let report = check(&sys);
            assert!(
                report.is_certified_clean(),
                "{label} tournament must survive every budgeted crash placement: {:?}",
                report.counterexample
            );
        }
    }

    #[test]
    fn zero_crash_budget_certifies_crash_free_correct_protocols() {
        let sys = TasConsensus::system(vec![0, 1]);
        let report = model_check(
            &sys,
            McConfig {
                max_crashes: 0,
                ..McConfig::default()
            },
        );
        assert!(report.is_certified_clean(), "{:?}", report.counterexample);
    }

    #[test]
    fn check_is_deterministic() {
        let sys = TasConsensus::system(vec![0, 1]);
        let first = check(&sys);
        for _ in 0..3 {
            assert_eq!(check(&sys), first);
        }
    }

    #[test]
    fn state_cap_demotes_coverage_honestly() {
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = model_check(
            &sys,
            McConfig {
                max_states: 10,
                ..McConfig::default()
            },
        );
        assert!(report.stats.state_clipped);
        assert_eq!(report.coverage, Coverage::Bounded);
        assert!(!report.is_certified_clean());
    }

    #[test]
    fn time_zero_violations_yield_empty_schedules() {
        // OutputInput outputs its input immediately: mixed inputs violate
        // agreement before any event.
        let sys = System::new(
            Arc::new(rcn_model::OutputInput),
            Arc::new(rcn_model::HeapLayout::new()),
            vec![0, 1],
        );
        let report = check(&sys);
        let cex = report.counterexample.expect("time-zero divergence");
        assert_eq!(cex.schedule.len(), 0);
    }

    #[test]
    fn traced_check_is_transparent_and_counts_the_search() {
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let tracer = Tracer::metrics_only();
        let traced = model_check_traced(&sys, McConfig::default(), &tracer);
        assert_eq!(traced, check(&sys), "tracing must not perturb the verdict");
        let snap = tracer.snapshot().expect("enabled tracer");
        assert_eq!(
            snap.counter("mc.events_applied"),
            Some(traced.stats.events_applied)
        );
        assert_eq!(
            snap.counter("mc.states_visited"),
            Some(traced.stats.states_visited)
        );
        assert_eq!(snap.counter("mc.dedup_hits"), Some(traced.stats.dedup_hits));
        assert_eq!(
            snap.counter("mc.frontier_peak"),
            Some(traced.stats.frontier_peak)
        );
        assert_eq!(snap.counter("mc.counterexamples"), Some(0));
        let depth = snap
            .histograms
            .iter()
            .find(|h| h.name == "mc.depth")
            .expect("depth histogram");
        assert_eq!(depth.count, traced.stats.states_visited);
    }

    #[test]
    fn no_op_heavy_programs_deduplicate_instead_of_exploding() {
        // A 2-process register ping-pong: most schedules permute into the
        // same few configurations, so dedup must dominate.
        struct Toggle {
            object: rcn_model::ObjectId,
        }
        impl rcn_model::Program for Toggle {
            fn name(&self) -> String {
                "toggle".into()
            }
            fn initial_state(&self, _pid: ProcessId, _input: u32) -> rcn_model::LocalState {
                rcn_model::LocalState::word1(0)
            }
            fn action(&self, _pid: ProcessId, state: &rcn_model::LocalState) -> rcn_model::Action {
                rcn_model::Action::Invoke {
                    object: self.object,
                    op: rcn_spec::OpId::new(1 - state.word(0) as u16),
                }
            }
            fn transition(
                &self,
                _pid: ProcessId,
                state: &rcn_model::LocalState,
                _r: rcn_spec::Response,
            ) -> rcn_model::LocalState {
                rcn_model::LocalState::word1(1 - state.word(0))
            }
        }
        let mut layout = rcn_model::HeapLayout::new();
        let object = layout.add_object("R", Arc::new(Register::new(2)), rcn_spec::ValueId::new(0));
        let sys = System::new_unchecked(Arc::new(Toggle { object }), Arc::new(layout), vec![0, 0]);
        let report = check(&sys);
        assert!(report.is_certified_clean());
        assert!(report.stats.dedup_ratio() > 0.5, "{}", report.stats);
    }
}
