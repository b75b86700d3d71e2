//! Systematic crash-schedule exploration.
//!
//! The paper's adversary places crashes at arbitrary points of a schedule;
//! `rcn-runtime`'s `CrashyAdversary` and `run_threaded` only *sample* such
//! placements from a seeded RNG. This module enumerates them: a bounded,
//! memoized search over the abstract executor that considers a crash of
//! every process at every reachable configuration, up to a per-process
//! crash budget (the paper's `E_z`-style budgets bound crashes per process,
//! not globally) and a schedule-length cap.
//!
//! The search is an explicit work-list depth-first traversal (no
//! recursion, so `--depth` in the thousands cannot overflow the stack).
//! Candidate events are tried in a fixed order — steps of `p0..pn`, then
//! crashes of `p0..pn` — so the traversal enumerates schedules in
//! lexicographic order and the first counterexample found is the
//! lexicographically-least violating schedule, on every run. With a
//! persistent memo ([`CrashExplorer::with_memo`]) certified verdicts are
//! stored, and a repeated run with the same system fingerprint and budget
//! short-circuits on the stored verdict (see [`crate::ExplorerMemo`]).
//!
//! Which crash events are enabled under the budget, and how each one
//! charges the per-process crash counts, is [`rcn_model::event_enabled`] and
//! [`rcn_model::charge_crashes`] — the semantics the breadth-first checker
//! in `rcn-mc` uses too. The skip rules on top of them (no-op steps and
//! crashes) are this search's own pruning.
//!
//! The search is exhaustive within its budget unless the state cap or the
//! wall-clock timeout is hit, which the verdict reports honestly
//! ([`ExplorerStats::state_capped`], [`ExplorerStats::timed_out`]). Once
//! the state cap trips the search short-circuits immediately — walking
//! the remaining frontier could only burn events without restoring
//! exhaustiveness.
//!
//! Memoization is depth-aware: each `(configuration, crash-counts)` state
//! records the largest *remaining* schedule budget it has been explored
//! with, and is re-explored whenever it is reached with more budget left.
//! A plain visited-set would be unsound under the depth cap — a state first
//! reached deep (little budget left) would be skipped when reached again
//! along a shorter prefix, pruning schedules still within `max_depth`.

use crate::diagnose::{diagnose, Divergence};
use crate::memo::{system_fingerprint, ExplorerMemo};
use rcn_model::{
    charge_crashes, event_enabled, Action, Configuration, Event, FaultModel, LocalState, ProcessId,
    Schedule, System, Violation,
};
use rcn_obs::{HistogramHandle, Tracer};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Budgets for a crash-exploration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashtestConfig {
    /// Maximum crashes injected per process (the budget `K`): each process
    /// may crash at most this many times along any explored schedule. A
    /// system-wide crash charges every process one crash at once; a
    /// mid-operation crash charges its process like an individual crash.
    pub max_crashes: usize,
    /// Maximum schedule length explored (the depth cap `D`).
    pub max_depth: usize,
    /// Maximum number of distinct `(configuration, crash-counts)` states
    /// memoized before the search refuses to grow (a memory safety valve;
    /// hitting it makes a `Clean` verdict non-exhaustive).
    pub max_states: usize,
    /// Which crash events the adversary may place
    /// ([`FaultModel::PER_PROCESS`] — the paper's model — by default).
    /// Part of the verdict's identity: the persistent memo keys on it, so
    /// a memo certified under one model is never consumed under another.
    pub fault_model: FaultModel,
}

impl Default for CrashtestConfig {
    fn default() -> Self {
        CrashtestConfig {
            max_crashes: 2,
            max_depth: 16,
            max_states: 500_000,
            fault_model: FaultModel::PER_PROCESS,
        }
    }
}

/// The explorer's public search-effort counters — the stable seam other
/// crates (the RCN200 cross-checker lint, the CLI's verdict records) compare
/// and report. Tracer counters mirror these; the struct is authoritative
/// and available without any tracer attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorerStats {
    /// Distinct `(configuration, crash-counts)` states visited.
    pub states_visited: u64,
    /// Events applied (edges traversed), counting revisits.
    pub events_applied: u64,
    /// Child states skipped because the memo had already explored them
    /// with at least as much remaining budget.
    pub memo_hits: u64,
    /// Memoized states explored *again* because they were re-reached with
    /// more remaining budget (the depth-aware refinement).
    pub re_explored: u64,
    /// When a verdict stored in the persistent memo short-circuits the
    /// run, the `states_visited` of the run that stored it (this run then
    /// reports 0 states and 0 events); 0 otherwise. It says how much
    /// search the disk saved.
    pub resumed_states: u64,
    /// `true` if some path was cut short by [`CrashtestConfig::max_depth`]
    /// while events were still enabled. Expected for any non-trivial
    /// protocol; the depth cap is part of the stated budget, and the
    /// depth-aware memoization keeps the search exhaustive over schedules
    /// of length ≤ `max_depth` even when this flag is set.
    pub depth_limited: bool,
    /// `true` if [`CrashtestConfig::max_states`] was hit: a clean verdict
    /// then only covers the states actually visited.
    pub state_capped: bool,
    /// `true` if the wall-clock timeout expired before the budget was
    /// covered: the verdict is an honest partial.
    pub timed_out: bool,
}

impl ExplorerStats {
    /// `true` if a clean verdict covers *every* schedule within the
    /// configured budget. `depth_limited` does not void exhaustiveness:
    /// the memoization is depth-aware, so every schedule of length ≤
    /// `max_depth` is still covered. Only the state cap or a timeout —
    /// each of which stops the search from growing — makes a clean verdict
    /// partial.
    pub fn exhaustive(&self) -> bool {
        !self.state_capped && !self.timed_out
    }
}

impl fmt::Display for ExplorerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} events, {} memo hits",
            self.states_visited, self.events_applied, self.memo_hits
        )?;
        if self.resumed_states > 0 {
            write!(f, ", {} resumed", self.resumed_states)?;
        }
        if self.state_capped {
            write!(f, " (state cap hit)")?;
        }
        if self.timed_out {
            write!(f, " (timed out)")?;
        }
        Ok(())
    }
}

/// A schedule on which the system breaks a consensus condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The violating schedule (the lexicographically-least violating
    /// path within the budget; see [`crate::shrink_counterexample`] for
    /// minimization).
    pub schedule: Schedule,
    /// The violation the final event of the schedule triggers.
    pub violation: Violation,
    /// When the violating process itself had already output a different
    /// value (the crash-divergence pattern of Golab's T&S counterexample),
    /// the pair of conflicting outputs.
    pub divergence: Option<Divergence>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}  ⇒  {}", self.schedule, self.violation)?;
        if let Some(d) = &self.divergence {
            write!(f, " ({d})")?;
        }
        Ok(())
    }
}

/// The outcome of a crash exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashtestReport {
    /// Exploration counters (including the honesty flags).
    pub stats: ExplorerStats,
    /// The first counterexample found, or `None` if every explored
    /// schedule is safe.
    pub counterexample: Option<Counterexample>,
}

impl CrashtestReport {
    /// `true` if no violation was found *and* the search covered the whole
    /// budget (no state cap or timeout).
    pub fn is_certified_clean(&self) -> bool {
        self.counterexample.is_none() && self.stats.exhaustive()
    }
}

/// The memo key: a configuration plus the per-process crash counts spent
/// reaching it.
type MemoKey = (Configuration, Vec<usize>);

/// The bounded, memoized work-list DFS over crash placements.
pub struct CrashExplorer<'s> {
    system: &'s System,
    config: CrashtestConfig,
    tracer: Tracer,
    timeout: Option<Duration>,
    memo: Option<ExplorerMemo>,
}

impl<'s> CrashExplorer<'s> {
    /// Creates an explorer for `system` with the given budgets.
    pub fn new(system: &'s System, config: CrashtestConfig) -> Self {
        CrashExplorer {
            system,
            config,
            tracer: Tracer::disabled(),
            timeout: None,
            memo: None,
        }
    }

    /// Attaches a tracer: the exploration is bracketed in a
    /// `crashtest.explore` span, the DFS maintains a `crashtest.depth`
    /// histogram (one observation per newly visited state), and each
    /// exploration adds its final [`ExplorerStats`] to the `crashtest.*`
    /// counters once.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Bounds the exploration by wall-clock time. On expiry the search
    /// stops and the verdict is an honest partial
    /// ([`ExplorerStats::timed_out`]).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches a persistent memo: certified verdicts are stored through
    /// the `CacheIo` machinery, and repeated runs with the same system
    /// fingerprint and budget short-circuit on them instead of searching
    /// ([`ExplorerStats::resumed_states`]).
    #[must_use]
    pub fn with_memo(mut self, memo: ExplorerMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The attached tracer ([`Tracer::disabled`] unless
    /// [`with_tracer`](Self::with_tracer) was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Runs the exploration: every schedule of length ≤ `max_depth` whose
    /// per-process crash counts stay within `max_crashes`, modulo
    /// memoization of already-seen `(configuration, crash-counts)` states.
    ///
    /// Deterministic: at each configuration the candidate events are tried
    /// in a fixed order (steps of `p0..pn`, then crashes of `p0..pn`), so
    /// the returned counterexample is the lexicographically-least
    /// violating schedule — the same on every run, warm or cold.
    pub fn explore(&self) -> CrashtestReport {
        let span = self.tracer.span_with(
            "crashtest.explore",
            i64::try_from(self.config.max_depth).unwrap_or(i64::MAX),
            &format!(
                "crashes={} states={}",
                self.config.max_crashes, self.config.max_states
            ),
        );
        let initial = self.system.initial_config();
        // A protocol can violate before any event (conflicting or invalid
        // initial-state outputs).
        if let Some(violation) = self.system.check_initial_outputs(&initial) {
            let report = CrashtestReport {
                stats: ExplorerStats::default(),
                counterexample: Some(self.diagnosed(Schedule::new(), violation)),
            };
            self.publish(&report, &span);
            return report;
        }

        // A stored verdict for this exact (fingerprint, budget)
        // short-circuits the search.
        let memo = self
            .memo
            .as_ref()
            .map(|memo| (memo, system_fingerprint(self.system)));
        if let Some((memo, fingerprint)) = memo {
            if let Some(mut report) =
                memo.load(self.system, fingerprint, &self.config, &self.tracer)
            {
                report.counterexample = report
                    .counterexample
                    .map(|cex| self.diagnosed(cex.schedule, cex.violation));
                self.publish(&report, &span);
                return report;
            }
        }

        // A timeout past the end of the clock means no deadline.
        let deadline = self.timeout.and_then(|t| Instant::now().checked_add(t));
        let (stats, found) = self.search(initial, deadline);
        let report = CrashtestReport {
            stats,
            counterexample: found.map(|(path, v)| self.diagnosed(Schedule::from_events(path), v)),
        };
        if let Some((memo, fingerprint)) = memo {
            memo.store(fingerprint, &self.config, &report, &self.tracer);
        }
        self.publish(&report, &span);
        report
    }

    /// Runs the work-list search from `initial`: its stats, and the
    /// lex-least violation with its path if there is one.
    fn search(
        &self,
        initial: Configuration,
        deadline: Option<Instant>,
    ) -> (ExplorerStats, Option<(Vec<Event>, Violation)>) {
        let mut search = Search::new(self.system, self.config, &self.tracer, deadline);
        let crash_counts = vec![0usize; self.system.n()];
        search.visited.insert(
            (initial.clone(), crash_counts.clone()),
            self.config.max_depth,
        );
        search.stats.states_visited = 1;
        search.depths.observe(0);
        let found = search.run(initial, crash_counts).map(|v| (search.path, v));
        (search.stats, found)
    }

    /// Adds the final [`ExplorerStats`] to the `crashtest.*` counters (a
    /// flag counts the explorations that set it) and records the
    /// counterexample (if any) as an event inside the exploration span.
    fn publish(&self, report: &CrashtestReport, span: &rcn_obs::Span) {
        if !self.tracer.enabled() {
            return;
        }
        let stats = &report.stats;
        let tracer = &self.tracer;
        tracer.add("crashtest.states_visited", stats.states_visited);
        tracer.add("crashtest.events_applied", stats.events_applied);
        tracer.add("crashtest.memo_hits", stats.memo_hits);
        tracer.add("crashtest.re_explored", stats.re_explored);
        tracer.add("crashtest.resumed_states", stats.resumed_states);
        tracer.add("crashtest.depth_limited", u64::from(stats.depth_limited));
        tracer.add("crashtest.state_capped", u64::from(stats.state_capped));
        tracer.add("crashtest.timed_out", u64::from(stats.timed_out));
        tracer.add(
            "crashtest.counterexamples",
            u64::from(report.counterexample.is_some()),
        );
        if self.tracer.recording() {
            if let Some(cex) = &report.counterexample {
                span.event(
                    "crashtest.counterexample",
                    i64::try_from(cex.schedule.len()).unwrap_or(i64::MAX),
                    &cex.violation.to_string(),
                );
            }
        }
    }

    /// Attaches the divergence diagnosis to a found violation.
    fn diagnosed(&self, schedule: Schedule, violation: Violation) -> Counterexample {
        let diagnosis = diagnose(self.system, &schedule);
        Counterexample {
            schedule,
            violation,
            divergence: diagnosis.divergence,
        }
    }
}

/// The size of the candidate index space for `n` processes: steps
/// (`0..n`), per-process crashes (`n..2n`), the system-wide crash (`2n`),
/// and mid-operation crashes (`2n+1..3n+1`).
fn candidate_limit(n: usize) -> usize {
    3 * n + 1
}

/// One explicit DFS frame: a configuration with the index of the next
/// candidate event to try. The frame owns the path slot its arrival event
/// occupies (`has_event` is false only for the search root).
struct Frame {
    config: Configuration,
    counts: Vec<usize>,
    depth: usize,
    next: usize,
    has_event: bool,
}

/// How the memo judged a freshly generated child state.
enum MemoVerdict {
    Explore,
    Skip,
    Capped,
}

/// The mutable half of the work-list DFS.
struct Search<'a> {
    system: &'a System,
    budget: CrashtestConfig,
    /// Memo: for each state already explored *from*, the largest remaining
    /// schedule budget (`max_depth - depth`) it was explored with. Crash
    /// counts are part of the key, and a state reached again with *more*
    /// remaining budget is re-explored — the same configuration with more
    /// budget (crash or depth) left can reach strictly more.
    visited: HashMap<MemoKey, usize>,
    path: Vec<Event>,
    stats: ExplorerStats,
    /// The live depth histogram (a no-op under a disabled tracer), resolved
    /// once so the hot loop never touches the registry's lock.
    depths: HistogramHandle,
    deadline: Option<Instant>,
    /// Each process's initial (and post-crash) local state, computed once
    /// for the crash no-op test.
    initial_states: Vec<LocalState>,
}

impl<'a> Search<'a> {
    fn new(
        system: &'a System,
        budget: CrashtestConfig,
        tracer: &Tracer,
        deadline: Option<Instant>,
    ) -> Self {
        Search {
            system,
            budget,
            visited: HashMap::new(),
            path: Vec::new(),
            stats: ExplorerStats::default(),
            depths: tracer.histogram("crashtest.depth"),
            deadline,
            initial_states: system.initial_config().states,
        }
    }

    /// The candidate event at `idx` (see [`candidate_limit`] for the index
    /// layout), or `None` if it is skipped at this configuration. Budget
    /// and fault-model gating is [`event_enabled`]; on top of it the search
    /// skips events that are no-ops: steps of output states, crashes of
    /// processes already in their initial state (the state reset changes
    /// nothing, and any re-output it would re-check was already checked
    /// when an earlier event recorded the conflicting value), system-wide
    /// crashes with every process in its initial state, and mid-operation
    /// crashes of processes with no operation in flight (those degenerate
    /// to an ordinary crash, covered by the `c_p` candidate when
    /// per-process crashes are enabled).
    fn candidate(&self, config: &Configuration, counts: &[usize], idx: usize) -> Option<Event> {
        let n = self.system.n();
        let pid = |i: usize| ProcessId(i as u16);
        let event = if idx < n {
            Event::Step(pid(idx))
        } else if idx < 2 * n {
            Event::Crash(pid(idx - n))
        } else if idx == 2 * n {
            Event::SystemCrash
        } else {
            Event::CrashDuring(pid(idx - 2 * n - 1))
        };
        if !event_enabled(
            self.budget.fault_model,
            counts,
            self.budget.max_crashes,
            event,
        ) {
            return None;
        }
        let initial = |i: usize| config.states[i] == self.initial_states[i];
        let no_op = match event {
            Event::Step(p) => matches!(self.system.action_of(config, p), Action::Output(_)),
            Event::Crash(p) => initial(p.index()),
            Event::SystemCrash => (0..n).all(initial),
            Event::CrashDuring(p) => {
                !matches!(self.system.action_of(config, p), Action::Invoke { .. })
            }
        };
        (!no_op).then_some(event)
    }

    /// Explores every enabled event from the root, depth-first via an
    /// explicit frame stack (no recursion: `--depth` in the thousands is
    /// a heap allocation, not a stack overflow). Returns the violation, if
    /// one is found, with its schedule left in `self.path`; `None` covers
    /// both an exhausted budget and a search cut short by the state cap or
    /// the deadline (flagged in the stats).
    fn run(&mut self, config: Configuration, counts: Vec<usize>) -> Option<Violation> {
        let n = self.system.n();
        let mut stack = vec![Frame {
            config,
            counts,
            depth: 0,
            next: 0,
            has_event: false,
        }];
        let mut ticks: u32 = 0;
        while !stack.is_empty() {
            ticks = ticks.wrapping_add(1);
            // Checked on the first iteration (an already-expired deadline
            // aborts before any work) and every 1024th thereafter.
            if ticks & 0x3FF == 1 && self.deadline_passed() {
                return None;
            }
            let top = stack.len() - 1;
            if stack[top].depth >= self.budget.max_depth {
                self.stats.depth_limited = true;
                self.pop_frame(&mut stack);
                continue;
            }
            if stack[top].next >= candidate_limit(n) {
                self.pop_frame(&mut stack);
                continue;
            }
            let idx = stack[top].next;
            stack[top].next += 1;
            let frame = &stack[top];
            let Some(event) = self.candidate(&frame.config, &frame.counts, idx) else {
                continue;
            };
            let mut next_config = frame.config.clone();
            let effect = self.system.apply(&mut next_config, event);
            self.stats.events_applied += 1;
            self.path.push(event);
            if let Some(violation) = effect.violation {
                return Some(violation);
            }
            let mut next_counts = frame.counts.to_vec();
            charge_crashes(&mut next_counts, event);
            // Remaining schedule budget at the child. A state is skipped
            // only if it was already explored with at least this much
            // budget left — skipping on mere membership would prune
            // in-budget schedules when a state first reached deep is
            // reached again along a shorter prefix.
            let child_depth = frame.depth + 1;
            let remaining = self.budget.max_depth - child_depth;
            let key = (next_config, next_counts);
            match self.memo_check(&key, remaining, child_depth) {
                MemoVerdict::Explore => {
                    let (config, counts) = key;
                    stack.push(Frame {
                        config,
                        counts,
                        depth: child_depth,
                        next: 0,
                        has_event: true,
                    });
                }
                MemoVerdict::Skip => {
                    self.path.pop();
                }
                MemoVerdict::Capped => {
                    // Walking the rest of the frontier cannot restore
                    // exhaustiveness; stop burning events immediately.
                    self.stats.state_capped = true;
                    return None;
                }
            }
        }
        None
    }

    fn pop_frame(&mut self, stack: &mut Vec<Frame>) {
        if let Some(frame) = stack.pop() {
            if frame.has_event {
                self.path.pop();
            }
        }
    }

    /// Looks a child up in the memo and decides whether to explore it.
    fn memo_check(&mut self, key: &MemoKey, remaining: usize, child_depth: usize) -> MemoVerdict {
        if let Some(&explored) = self.visited.get(key) {
            if explored >= remaining {
                self.stats.memo_hits += 1;
                return MemoVerdict::Skip;
            }
            self.stats.re_explored += 1;
        } else {
            // A genuinely fresh state: counts against the state cap.
            if self.stats.states_visited >= self.budget.max_states as u64 {
                return MemoVerdict::Capped;
            }
            self.stats.states_visited += 1;
            self.depths.observe(child_depth as u64);
        }
        self.visited.insert(key.clone(), remaining);
        MemoVerdict::Explore
    }

    fn deadline_passed(&mut self) -> bool {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stats.timed_out = true;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{HeapLayout, LocalState, ObjectId, Program};
    use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
    use rcn_spec::zoo::{FetchAndAdd, Register, StickyBit};
    use rcn_spec::{OpId, Response, ValueId};
    use std::sync::Arc;

    fn explore(system: &System) -> CrashtestReport {
        CrashExplorer::new(system, CrashtestConfig::default()).explore()
    }

    /// A crafted program whose only in-budget violation hides behind a
    /// state the DFS first creates at the depth frontier. `p0` increments a
    /// fetch-and-add counter and outputs the invalid value 99 exactly when
    /// its second step after a reset returns 3 — so the one violating
    /// schedule of length ≤ 5 is `p0 p0 c0 p0 p0` (crash while the counter
    /// holds 2, then two fresh steps). `p1` toggles a register, which gives
    /// the violating post-crash state a second, *longer* route
    /// (`p0 p0 p1 c0 p1`) that depth-first order reaches first — right at
    /// the depth cap, with no budget left to step into the violation.
    struct TrapProgram {
        counter: ObjectId,
        toggle: ObjectId,
    }

    impl Program for TrapProgram {
        fn name(&self) -> String {
            "memo-trap".into()
        }

        fn initial_state(&self, pid: ProcessId, _input: u32) -> LocalState {
            if pid.index() == 0 {
                // [steps since last reset, last response seen]
                LocalState::word2(0, 0)
            } else {
                // [current register value]
                LocalState::word1(0)
            }
        }

        fn action(&self, pid: ProcessId, state: &LocalState) -> Action {
            if pid.index() == 0 {
                if state.word(0) == 2 && state.word(1) == 3 {
                    Action::Output(99)
                } else {
                    Action::Invoke {
                        object: self.counter,
                        op: OpId::new(0), // fetch&add(1)
                    }
                }
            } else {
                Action::Invoke {
                    object: self.toggle,
                    op: OpId::new(1 - state.word(0) as u16), // write(1 - b)
                }
            }
        }

        fn transition(&self, pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
            if pid.index() == 0 {
                LocalState::word2(state.word(0) + 1, response.index() as u32)
            } else {
                LocalState::word1(1 - state.word(0))
            }
        }
    }

    fn trap_system() -> System {
        let mut layout = HeapLayout::new();
        let counter = layout.add_object("F", Arc::new(FetchAndAdd::new(8)), ValueId::new(0));
        let toggle = layout.add_object("R", Arc::new(Register::new(2)), ValueId::new(0));
        System::new(
            Arc::new(TrapProgram { counter, toggle }),
            Arc::new(layout),
            vec![0, 0],
        )
    }

    /// Bounded DFS with *no* memoization at all: the ground truth the
    /// memoized explorer must agree with on violation existence. Applies
    /// the shared crash semantics but none of the explorer's no-op crash
    /// skipping: a violation reached through a no-op crash is also
    /// reachable without it on a shorter schedule, so existence matches.
    fn oracle_finds_violation(
        sys: &System,
        config: &Configuration,
        crash_counts: &[usize],
        depth: usize,
        cfg: &CrashtestConfig,
    ) -> bool {
        if depth >= cfg.max_depth {
            return false;
        }
        let n = sys.n();
        let candidates = (0..n)
            .map(|i| Event::Step(ProcessId(i as u16)))
            .chain((0..n).map(|i| Event::Crash(ProcessId(i as u16))))
            .chain(std::iter::once(Event::SystemCrash))
            .chain((0..n).map(|i| Event::CrashDuring(ProcessId(i as u16))));
        for event in candidates {
            if !event_enabled(cfg.fault_model, crash_counts, cfg.max_crashes, event) {
                continue;
            }
            if let Event::Step(p) = event {
                if matches!(sys.action_of(config, p), Action::Output(_)) {
                    continue;
                }
            }
            let mut next = config.clone();
            if sys.apply(&mut next, event).violation.is_some() {
                return true;
            }
            let mut next_counts = crash_counts.to_vec();
            charge_crashes(&mut next_counts, event);
            if oracle_finds_violation(sys, &next, &next_counts, depth + 1, cfg) {
                return true;
            }
        }
        false
    }

    fn oracle(sys: &System, cfg: &CrashtestConfig) -> bool {
        let initial = sys.initial_config();
        if sys.check_initial_outputs(&initial).is_some() {
            return true;
        }
        let counts = vec![0usize; sys.n()];
        oracle_finds_violation(sys, &initial, &counts, 0, cfg)
    }

    #[test]
    fn depth_cap_memoization_is_depth_aware() {
        // Regression: a visited-set keyed only on (configuration,
        // crash-counts) skipped states first created at the depth frontier
        // when they were reached again along a shorter prefix, and the trap
        // system was wrongly certified clean at this exact budget.
        let sys = trap_system();
        let cfg = CrashtestConfig {
            max_crashes: 1,
            max_depth: 5,
            ..Default::default()
        };
        let report = CrashExplorer::new(&sys, cfg).explore();
        let cex = report
            .counterexample
            .expect("the depth-5 violation must be found despite the deep-first revisit");
        assert!(!cex.schedule.is_crash_free());
        assert!(cex.schedule.len() <= 5);
        // The found schedule independently replays to the same violation.
        let (_, violation) = sys.run_from_start(&cex.schedule);
        assert_eq!(violation, Some(cex.violation));
    }

    #[test]
    fn memoized_search_agrees_with_unmemoized_oracle() {
        // Violation existence must match a memo-free bounded DFS across
        // systems and tight budgets (where unsound pruning would show).
        let systems: Vec<(&str, System)> = vec![
            ("trap", trap_system()),
            ("tas", TasConsensus::system(vec![0, 1])),
            ("tnn-wait-free", TnnWaitFree::system(2, 1, vec![0, 1])),
            ("tnn-recoverable", TnnRecoverable::system(3, 1, vec![0, 1])),
        ];
        for (name, sys) in &systems {
            for fault_model in [
                FaultModel::PER_PROCESS,
                FaultModel::SYSTEM,
                FaultModel::MID_OP,
                FaultModel::ALL,
            ] {
                for (max_crashes, max_depth) in [(1, 4), (1, 5), (1, 6), (2, 6), (1, 8)] {
                    let cfg = CrashtestConfig {
                        max_crashes,
                        max_depth,
                        fault_model,
                        ..Default::default()
                    };
                    let report = CrashExplorer::new(sys, cfg).explore();
                    assert!(
                        report.stats.exhaustive(),
                        "{name} {cfg:?} hit the state cap"
                    );
                    assert_eq!(
                        report.counterexample.is_some(),
                        oracle(sys, &cfg),
                        "memoized explorer disagrees with the oracle on {name} at {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rediscovers_golabs_tas_counterexample() {
        let sys = TasConsensus::system(vec![0, 1]);
        let report = explore(&sys);
        let cex = report.counterexample.expect("T&S must break under crashes");
        // Independently confirm the found schedule through the executor.
        let (_, violation) = sys.run_from_start(&cex.schedule);
        assert_eq!(violation, Some(cex.violation));
        assert!(
            !cex.schedule.is_crash_free(),
            "crash-free T&S runs are safe; the violation needs a crash: {cex}"
        );
    }

    #[test]
    fn rediscovers_tnn_bottom_divergence() {
        let sys = TnnWaitFree::system(2, 1, vec![0, 1]);
        let report = explore(&sys);
        let cex = report
            .counterexample
            .expect("T_{2,1} wait-free must diverge once the object saturates");
        let (_, violation) = sys.run_from_start(&cex.schedule);
        assert_eq!(violation, Some(cex.violation));
    }

    #[test]
    fn certifies_tnn_recoverable_clean() {
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = explore(&sys);
        assert!(
            report.is_certified_clean(),
            "recoverable T_{{5,2}} must survive every budgeted crash placement: {:?}",
            report.counterexample
        );
        assert!(report.stats.states_visited > 1);
    }

    #[test]
    fn certifies_tournament_clean() {
        let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1, 0]).unwrap();
        let report = explore(&sys);
        assert!(
            report.is_certified_clean(),
            "tournament consensus must survive every budgeted crash placement: {:?}",
            report.counterexample
        );
    }

    #[test]
    fn exploration_is_deterministic() {
        let sys = TasConsensus::system(vec![0, 1]);
        let first = explore(&sys);
        for _ in 0..3 {
            assert_eq!(explore(&sys), first);
        }
    }

    #[test]
    fn zero_crash_budget_finds_nothing_on_crash_safe_protocols() {
        // T&S consensus is correct in the crash-free model; with a zero
        // crash budget the explorer must certify it clean.
        let sys = TasConsensus::system(vec![0, 1]);
        let report = CrashExplorer::new(
            &sys,
            CrashtestConfig {
                max_crashes: 0,
                ..Default::default()
            },
        )
        .explore();
        assert!(report.is_certified_clean(), "{:?}", report.counterexample);
    }

    #[test]
    fn traced_exploration_is_transparent_and_counts_the_search() {
        let sys = TasConsensus::system(vec![0, 1]);
        let tracer = Tracer::ring(4096);
        let traced = CrashExplorer::new(&sys, CrashtestConfig::default())
            .with_tracer(tracer.clone())
            .explore();
        let plain = explore(&sys);
        assert_eq!(traced, plain, "tracing must not perturb the verdict");

        let snap = tracer.snapshot().expect("enabled tracer");
        assert_eq!(
            snap.counter("crashtest.events_applied"),
            Some(traced.stats.events_applied)
        );
        assert_eq!(
            snap.counter("crashtest.states_visited"),
            Some(traced.stats.states_visited)
        );
        assert_eq!(snap.counter("crashtest.counterexamples"), Some(1));
        // One depth observation per visited state.
        let depth = snap
            .histograms
            .iter()
            .find(|h| h.name == "crashtest.depth")
            .expect("depth histogram");
        assert_eq!(depth.count, traced.stats.states_visited);

        let rows = tracer.ring_events();
        assert!(rows.iter().any(|r| r.name == "crashtest.explore"));
        let cex_event = rows
            .iter()
            .find(|r| r.name == "crashtest.counterexample")
            .expect("counterexample event");
        assert_eq!(
            cex_event.value,
            traced.counterexample.as_ref().unwrap().schedule.len() as i64
        );

        // A clean system is explored exhaustively, so the memo must get
        // exercised (T&S above unwinds at the first counterexample and may
        // never revisit a state).
        let clean_tracer = Tracer::metrics_only();
        let clean = CrashExplorer::new(
            &TnnRecoverable::system(5, 2, vec![0, 1]),
            CrashtestConfig::default(),
        )
        .with_tracer(clean_tracer.clone())
        .explore();
        assert!(clean.is_certified_clean());
        let snap = clean_tracer.snapshot().expect("enabled tracer");
        assert!(
            snap.counter("crashtest.memo_hits").unwrap_or(0) > 0,
            "an exhaustive exploration must hit its memo: {snap:?}"
        );
        assert_eq!(snap.counter("crashtest.counterexamples"), Some(0));
        // The public stats carry the same memo counters the tracer saw.
        assert_eq!(
            snap.counter("crashtest.memo_hits"),
            Some(clean.stats.memo_hits)
        );
        assert_eq!(
            snap.counter("crashtest.re_explored"),
            Some(clean.stats.re_explored)
        );
    }

    #[test]
    fn public_stats_expose_memo_effort_without_a_tracer() {
        // The stable ExplorerStats seam: memo effort is visible on the
        // plain (untraced) report, so cross-checkers can cite both sides'
        // search effort without instrumenting anything.
        let report = explore(&TnnRecoverable::system(5, 2, vec![0, 1]));
        assert!(report.is_certified_clean());
        assert!(report.stats.memo_hits > 0, "{}", report.stats);
        assert!(report.stats.events_applied > report.stats.states_visited);
    }

    #[test]
    fn state_cap_is_reported_honestly() {
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = CrashExplorer::new(
            &sys,
            CrashtestConfig {
                max_states: 10,
                ..Default::default()
            },
        )
        .explore();
        assert!(report.stats.state_capped);
        assert!(!report.is_certified_clean());
    }

    /// A one-process program whose crash-free run is a single acyclic
    /// chain: each step increments a local counter until it outputs at
    /// `len`. Every state along the chain is distinct, so the explorer
    /// must hold `len` frames at once — the regression shape for the old
    /// recursive DFS, which overflowed the thread stack at `--depth` in
    /// the thousands.
    struct ChainProgram {
        counter: ObjectId,
        len: u32,
    }

    impl Program for ChainProgram {
        fn name(&self) -> String {
            format!("chain:{}", self.len)
        }

        fn initial_state(&self, _pid: ProcessId, _input: u32) -> LocalState {
            LocalState::word1(0)
        }

        fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
            if state.word(0) >= self.len {
                Action::Output(0)
            } else {
                Action::Invoke {
                    object: self.counter,
                    op: OpId::new(0),
                }
            }
        }

        fn transition(
            &self,
            _pid: ProcessId,
            state: &LocalState,
            _response: Response,
        ) -> LocalState {
            LocalState::word1(state.word(0) + 1)
        }
    }

    fn chain_system(len: u32) -> System {
        let mut layout = HeapLayout::new();
        let counter = layout.add_object("F", Arc::new(FetchAndAdd::new(4)), ValueId::new(0));
        System::new(
            Arc::new(ChainProgram { counter, len }),
            Arc::new(layout),
            vec![0],
        )
    }

    #[test]
    fn depth_5000_does_not_overflow_the_stack() {
        // Regression for the recursive DFS: one frame per schedule event
        // meant `--depth 5000` aborted the process. The work-list keeps
        // frames on the heap.
        let sys = chain_system(5000);
        let report = CrashExplorer::new(
            &sys,
            CrashtestConfig {
                max_crashes: 0,
                max_depth: 5000,
                ..Default::default()
            },
        )
        .explore();
        assert!(report.is_certified_clean(), "{:?}", report.counterexample);
        // The chain has exactly 5001 states: initial plus one per step.
        assert_eq!(report.stats.states_visited, 5001);
        assert_eq!(report.stats.events_applied, 5000);
    }

    #[test]
    fn state_cap_short_circuits_the_search() {
        // Regression: the old DFS kept walking (and applying events) under
        // every remaining frame after the cap tripped, although no new
        // state could be explored. The work-list returns immediately, so
        // the whole run applies at most (max_states + 1) * 2n events —
        // each explored frame tries at most 2n candidates.
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let full = explore(&sys);
        assert!(full.is_certified_clean());
        let cap = 10u64;
        let capped = CrashExplorer::new(
            &sys,
            CrashtestConfig {
                max_states: cap as usize,
                ..Default::default()
            },
        )
        .explore();
        assert!(capped.stats.state_capped);
        let n = sys.n() as u64;
        let bound = (cap + 1) * 2 * n;
        assert!(
            capped.stats.events_applied <= bound,
            "events kept growing after the cap: {} > {bound}",
            capped.stats.events_applied
        );
        assert!(capped.stats.events_applied < full.stats.events_applied);
    }

    #[test]
    fn unrepresentable_timeout_means_no_deadline() {
        // `Instant::now() + Duration::MAX` overflowed and panicked.
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = CrashExplorer::new(&sys, CrashtestConfig::default())
            .with_timeout(Duration::MAX)
            .explore();
        assert!(!report.stats.timed_out);
        assert!(report.is_certified_clean());
    }

    #[test]
    fn zero_timeout_reports_an_honest_partial() {
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = CrashExplorer::new(&sys, CrashtestConfig::default())
            .with_timeout(Duration::from_secs(0))
            .explore();
        assert!(report.stats.timed_out);
        assert!(!report.is_certified_clean());
        assert!(report.counterexample.is_none());
    }
}
