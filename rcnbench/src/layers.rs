//! Per-layer accumulators, fed from outside each crate: time inside each
//! public call the benchmark makes, and the counts the calls' own stats
//! structs return (`SearchStats`, `ExplorerStats`, `McStats`, `RunReport`,
//! `CheckReport`, `SimReport`, `Report`).

use crate::plan::Phase;
use rcn_decide::SearchStats;
use rcn_faults::ExplorerStats;
use rcn_mc::McStats;
use std::time::Duration;

/// Time and call count of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timer {
    /// Summed time inside the call.
    pub total: Duration,
    /// Calls made.
    pub calls: u64,
}

impl Timer {
    /// Adds one call.
    pub fn add(&mut self, elapsed: Duration) {
        self.total += elapsed;
        self.calls += 1;
    }

    /// Summed milliseconds.
    pub fn ms(&self) -> f64 {
        self.total.as_secs_f64() * 1e3
    }

    /// Mean milliseconds per call (0 with no calls).
    pub fn mean_ms(&self) -> f64 {
        ratio(self.ms(), self.calls as f64)
    }

    /// `count` per second spent inside the call (0 with no time).
    pub fn rate(&self, count: u64) -> f64 {
        ratio(count as f64, self.total.as_secs_f64())
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Cold, warm and control timers of a persistence layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Cold runs (write a fresh directory).
    pub cold: Timer,
    /// Warm runs (read it).
    pub warm: Timer,
    /// Control runs (no cache or memo).
    pub control: Timer,
    /// Summed directory bytes after each cold run.
    pub bytes: u64,
}

impl Phases {
    /// The timer of `phase`.
    pub fn timer(&mut self, phase: Phase) -> &mut Timer {
        match phase {
            Phase::Cold => &mut self.cold,
            Phase::Warm => &mut self.warm,
            Phase::Control => &mut self.control,
        }
    }

    /// Control time over warm time per call: above 1 when the layer pays.
    pub fn warm_speedup(&self) -> f64 {
        ratio(self.control.mean_ms(), self.warm.mean_ms())
    }

    /// Mean directory bytes per cold run.
    pub fn mean_bytes(&self) -> f64 {
        ratio(self.bytes as f64, self.cold.calls as f64)
    }
}

/// Everything measured per layer over a set of executed jobs.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `SearchEngine::classify`.
    pub classify: Timer,
    /// Summed `SearchStats` of those calls.
    pub search: SearchStats,
    /// `classify` with a `DiskCache` by phase.
    pub disk: Phases,
    /// `CrashExplorer::explore`.
    pub explore: Timer,
    /// Summed explorer counters.
    pub explorer: ExplorerStats,
    /// `shrink_counterexample`.
    pub shrink: Timer,
    /// Summed lengths of schedules before and after shrinking.
    pub shrink_lengths: (u64, u64),
    /// `replay`.
    pub replay: Timer,
    /// `explore` with an `ExplorerMemo` by phase.
    pub memo: Phases,
    /// `model_check`.
    pub check: Timer,
    /// Summed BFS counters (`frontier_peak` is the maximum).
    pub mc: McStats,
    /// `run_threaded`.
    pub run: Timer,
    /// Steps and crashes of those runs.
    pub runtime: (u64, u64),
    /// `check_consensus`.
    pub graph: Timer,
    /// Configurations those checks explored.
    pub configs: u64,
    /// `BudgetedGraph::explore`.
    pub budgeted: Timer,
    /// Budgeted states explored.
    pub budgeted_states: u64,
    /// `find_critical` + `analyze_critical`.
    pub critical: Timer,
    /// `theorem13_chain`.
    pub chain: Timer,
    /// `verify_simulation`.
    pub verify: Timer,
    /// Configurations the simulations explored.
    pub sim_configs: u64,
    /// `Registry::lint_type`.
    pub lint_type: Timer,
    /// `Registry::lint_system`.
    pub lint_system: Timer,
}

impl Layers {
    /// Adds one engine's counters.
    pub fn add_search(&mut self, s: &SearchStats) {
        let t = &mut self.search;
        t.analyses_computed += s.analyses_computed;
        t.cache_hits += s.cache_hits;
        t.disk_hits += s.disk_hits;
        t.incremental_hits += s.incremental_hits;
        t.disk_entries_written += s.disk_entries_written;
        t.partitions_tested += s.partitions_tested;
        t.instances_visited += s.instances_visited;
    }

    /// Adds one exploration's counters.
    pub fn add_explorer(&mut self, s: &ExplorerStats) {
        let t = &mut self.explorer;
        t.states_visited += s.states_visited;
        t.events_applied += s.events_applied;
        t.memo_hits += s.memo_hits;
        t.re_explored += s.re_explored;
        t.resumed_states += s.resumed_states;
    }

    /// Adds one BFS check's counters.
    pub fn add_mc(&mut self, s: &McStats) {
        let t = &mut self.mc;
        t.states_visited += s.states_visited;
        t.events_applied += s.events_applied;
        t.dedup_hits += s.dedup_hits;
        t.frontier_peak = t.frontier_peak.max(s.frontier_peak);
    }

    /// The layer metrics of `metrics::PER_LAYER` (all but the span,
    /// class and overhead ones), with sums and counts scaled by `per_pass`
    /// so they read per pass of the job list.
    pub fn metrics(&self, per_pass: f64) -> Vec<(&'static str, f64)> {
        let pass = |x: f64| x * per_pass;
        let count = |x: u64| x as f64 * per_pass;
        let s = &self.search;
        let e = &self.explorer;
        let (steps, crashes) = self.runtime;
        vec![
            ("decide.classify_ms", pass(self.classify.ms())),
            ("decide.analyses_computed", count(s.analyses_computed)),
            (
                "decide.analyses_per_s",
                self.classify.rate(s.analyses_computed),
            ),
            ("decide.partitions_tested", count(s.partitions_tested)),
            (
                "decide.partitions_per_s",
                self.classify.rate(s.partitions_tested),
            ),
            ("decide.instances_visited", count(s.instances_visited)),
            (
                "decide.memo_hit_ratio",
                ratio(
                    s.cache_hits as f64,
                    (s.analyses_computed + s.cache_hits) as f64,
                ),
            ),
            (
                "decide.incremental_ratio",
                ratio(s.incremental_hits as f64, s.analyses_computed as f64),
            ),
            ("decide.disk_cold_ms", self.disk.cold.mean_ms()),
            ("decide.disk_warm_ms", self.disk.warm.mean_ms()),
            ("decide.disk_nocache_ms", self.disk.control.mean_ms()),
            ("decide.disk_warm_speedup", self.disk.warm_speedup()),
            ("decide.disk_hits", count(s.disk_hits)),
            ("decide.disk_entries_written", count(s.disk_entries_written)),
            ("decide.disk_bytes", self.disk.mean_bytes()),
            ("faults.explore_ms", pass(self.explore.ms())),
            ("faults.states_visited", count(e.states_visited)),
            ("faults.events_applied", count(e.events_applied)),
            ("faults.states_per_s", self.explore.rate(e.states_visited)),
            (
                "faults.memo_hit_ratio",
                ratio(e.memo_hits as f64, e.events_applied as f64),
            ),
            ("faults.re_explored", count(e.re_explored)),
            ("faults.shrink_ms", pass(self.shrink.ms())),
            (
                "faults.shrink_ratio",
                ratio(self.shrink_lengths.1 as f64, self.shrink_lengths.0 as f64),
            ),
            ("faults.replay_ms", pass(self.replay.ms())),
            ("faults.memo_cold_ms", self.memo.cold.mean_ms()),
            ("faults.memo_warm_ms", self.memo.warm.mean_ms()),
            ("faults.memo_nomemo_ms", self.memo.control.mean_ms()),
            ("faults.memo_warm_speedup", self.memo.warm_speedup()),
            ("faults.memo_resumed_states", count(e.resumed_states)),
            ("faults.memo_bytes", self.memo.mean_bytes()),
            ("mc.check_ms", pass(self.check.ms())),
            ("mc.states_visited", count(self.mc.states_visited)),
            ("mc.events_applied", count(self.mc.events_applied)),
            ("mc.states_per_s", self.check.rate(self.mc.states_visited)),
            ("mc.dedup_ratio", self.mc.dedup_ratio()),
            ("mc.frontier_peak", self.mc.frontier_peak as f64),
            ("runtime.run_ms", pass(self.run.ms())),
            ("runtime.runs", count(self.run.calls)),
            ("runtime.steps_per_s", self.run.rate(steps)),
            ("runtime.crashes", count(crashes)),
            ("valency.graph_ms", pass(self.graph.ms())),
            ("valency.configs", count(self.configs)),
            ("valency.configs_per_s", self.graph.rate(self.configs)),
            ("valency.budgeted_ms", pass(self.budgeted.ms())),
            ("valency.budgeted_states", count(self.budgeted_states)),
            ("valency.critical_ms", pass(self.critical.ms())),
            ("valency.chain_ms", pass(self.chain.ms())),
            ("universal.verify_ms", pass(self.verify.ms())),
            ("universal.configs", count(self.sim_configs)),
            ("analyze.lint_type_ms", pass(self.lint_type.ms())),
            ("analyze.lint_system_ms", pass(self.lint_system.ms())),
        ]
    }
}
