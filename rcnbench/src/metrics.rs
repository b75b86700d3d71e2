//! Metric definitions (names, units, directions, bounds), the
//! `BENCHMARK.json` manifest built from them, and JSON helpers over the
//! vendored serde data model.

use crate::plan::Workload;
use serde::{Deserialize, Serialize, Value};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work).
    Lower,
    /// Larger is better (throughput, hit ratios).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `a` is better than `b`.
    pub fn wins(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// One end-to-end metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name in results and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// An absolute amount, in the metric's unit, by which it may always
    /// worsen, however small the share (0: the share alone).
    pub floor: f64,
}

impl MetricDef {
    /// How much worse than `baseline` the metric may read before a change
    /// counts as a regression.
    pub fn allowed(&self, baseline: f64) -> f64 {
        (self.bound * baseline.abs()).max(self.floor)
    }
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        floor: 0.0,
    }
}

/// The end-to-end metrics of every untraced run.
pub const END_TO_END: [MetricDef; 5] = [
    // Set-up carries the widest bound: the 0.06–0.5 s set-ups are short
    // enough that run-to-run noise reaches 10%. A set-up of 0.05 s may
    // always drift by 0.02 s, whatever its share; `BENCHMARK.json` has no
    // key for the floor and carries only the share.
    MetricDef {
        floor: 0.02,
        ..def("setup_s", "s", Better::Lower, 0.25)
    },
    def("verdicts_per_s", "verdicts/s", Better::Higher, 0.10),
    def("verdict_p50_ms", "ms", Better::Lower, 0.10),
    def("verdict_p99_ms", "ms", Better::Lower, 0.10),
    def("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// Wrong, errored or panicked verdicts over verdicts attempted: 0 at every
/// correct commit, so any increase is a regression. It is printed and
/// written to result files, and `compare` calls it, but it is kept out of
/// `BENCHMARK.json`, whose end-to-end metrics must never read 0; the
/// result line's `failed` count carries it there.
pub const ERROR_RATE: MetricDef = def("verdict_error_rate", "ratio", Better::Lower, 0.0);

/// One per-layer metric: reported by traced runs, never bounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMetric {
    /// Name in results and `BENCHMARK.json` (`<crate>.<metric>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The workload that drives the layer (`None`: every workload). On
    /// the other workloads the layer is bypassed, and its times and counts
    /// are sums over no calls.
    pub on: Option<Workload>,
}

impl LayerMetric {
    /// Whether the metric describes `workload`'s traffic.
    pub fn measured_on(&self, workload: Workload) -> bool {
        self.on.is_none_or(|w| w == workload)
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: Workload,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        on: Some(on),
    }
}

const fn every(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        on: None,
    }
}

use Better::{Higher, Lower};
use Workload::{Certify, Classify, Crashtest, Warm};

/// The per-layer metrics, each with the workload it is measured on. The
/// last line of a traced run carries all of them, as `BENCHMARK.json`
/// requires; the printed report and the result file carry the run's own.
/// `/pass` units are sums over the run scaled to one pass of the
/// workload's job list; `/call` units are means. Error counters (lint
/// findings, diverged replays, watchdog timeouts) are not among them: the
/// oracle fails any job where one is not 0, so `failed` already counts it.
pub const PER_LAYER: [LayerMetric; 56] = [
    layer("decide.classify_ms", "ms/pass", Lower, Classify),
    layer("decide.analyses_computed", "count/pass", Lower, Classify),
    layer("decide.analyses_per_s", "1/s", Higher, Classify),
    layer("decide.partitions_tested", "count/pass", Lower, Classify),
    layer("decide.partitions_per_s", "1/s", Higher, Classify),
    layer("decide.instances_visited", "count/pass", Lower, Classify),
    layer("decide.memo_hit_ratio", "ratio", Higher, Classify),
    layer("decide.incremental_ratio", "ratio", Higher, Classify),
    layer("decide.analysis_self_ms", "ms/pass", Lower, Classify),
    layer("decide.level_self_ms", "ms/pass", Lower, Classify),
    layer("decide.disk_cold_ms", "ms/call", Lower, Warm),
    layer("decide.disk_warm_ms", "ms/call", Lower, Warm),
    layer("decide.disk_nocache_ms", "ms/call", Lower, Warm),
    layer("decide.disk_warm_speedup", "ratio", Higher, Warm),
    layer("decide.disk_hits", "count/pass", Higher, Warm),
    layer("decide.disk_entries_written", "count/pass", Lower, Warm),
    layer("decide.disk_bytes", "bytes", Lower, Warm),
    layer("faults.explore_ms", "ms/pass", Lower, Crashtest),
    layer("faults.states_visited", "count/pass", Lower, Crashtest),
    layer("faults.events_applied", "count/pass", Lower, Crashtest),
    layer("faults.states_per_s", "1/s", Higher, Crashtest),
    layer("faults.memo_hit_ratio", "ratio", Higher, Crashtest),
    layer("faults.re_explored", "count/pass", Lower, Crashtest),
    layer("faults.shrink_ms", "ms/pass", Lower, Crashtest),
    layer("faults.shrink_ratio", "ratio", Lower, Crashtest),
    layer("faults.replay_ms", "ms/pass", Lower, Crashtest),
    layer("faults.memo_cold_ms", "ms/call", Lower, Warm),
    layer("faults.memo_warm_ms", "ms/call", Lower, Warm),
    layer("faults.memo_nomemo_ms", "ms/call", Lower, Warm),
    layer("faults.memo_warm_speedup", "ratio", Higher, Warm),
    layer("faults.memo_resumed_states", "count/pass", Higher, Warm),
    layer("faults.memo_bytes", "bytes", Lower, Warm),
    layer("mc.check_ms", "ms/pass", Lower, Crashtest),
    layer("mc.states_visited", "count/pass", Lower, Crashtest),
    layer("mc.events_applied", "count/pass", Lower, Crashtest),
    layer("mc.states_per_s", "1/s", Higher, Crashtest),
    layer("mc.dedup_ratio", "ratio", Higher, Crashtest),
    layer("mc.frontier_peak", "count", Lower, Crashtest),
    layer("runtime.run_ms", "ms/pass", Lower, Crashtest),
    layer("runtime.runs", "count/pass", Higher, Crashtest),
    layer("runtime.steps_per_s", "1/s", Higher, Crashtest),
    layer("runtime.crashes", "count/pass", Higher, Crashtest),
    layer("valency.graph_ms", "ms/pass", Lower, Certify),
    layer("valency.configs", "count/pass", Lower, Certify),
    layer("valency.configs_per_s", "1/s", Higher, Certify),
    layer("valency.budgeted_ms", "ms/pass", Lower, Certify),
    layer("valency.budgeted_states", "count/pass", Lower, Certify),
    layer("valency.critical_ms", "ms/pass", Lower, Certify),
    layer("valency.chain_ms", "ms/pass", Lower, Certify),
    layer("universal.verify_ms", "ms/pass", Lower, Certify),
    layer("universal.configs", "count/pass", Lower, Certify),
    layer("analyze.lint_type_ms", "ms/pass", Lower, Certify),
    layer("analyze.lint_system_ms", "ms/pass", Lower, Certify),
    // Which class a moved percentile belongs to: the median latency of the
    // class p50 falls in, and of the class p99 falls in (the result file
    // names both classes and gives every class's median).
    every("job.p50_class_p50_ms", "ms", Lower),
    every("job.p99_class_p50_ms", "ms", Lower),
    every("obs.trace_overhead_pct", "%", Lower),
];

/// Seconds one benchmark run measures.
pub const RUN_SECONDS: u64 = 25;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "rcnbench/Cargo.toml",
    "--",
    "run",
];

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|s| str_value(s)).collect());
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            obj(vec![
                ("name", str_value(w.name())),
                ("why", str_value(w.why())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj(vec![
                ("name", str_value(m.name)),
                ("unit", str_value(m.unit)),
                ("better", str_value(m.better.name())),
                ("bound", Value::Float(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj(vec![
                ("name", str_value(m.name)),
                ("unit", str_value(m.unit)),
                ("better", str_value(m.better.name())),
            ])
        })
        .collect();
    obj(vec![
        ("command", strings(&COMMAND)),
        ("paths", strings(&["rcnbench"])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        ("workloads", Value::Array(workloads)),
        ("end_to_end", Value::Array(end_to_end)),
        ("per_layer", Value::Array(per_layer)),
    ])
}

/// A JSON object from ordered entries.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON string.
pub fn str_value(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// `{"value": v, "unit": u}`.
pub fn measured(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", Value::Float(value)),
        ("unit", str_value(unit)),
    ])
}

struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

/// Compact JSON text.
pub fn to_json(value: &Value) -> String {
    serde_json::to_string(&Json(value.clone())).expect("metrics are finite (ratios guard 0)")
}

/// Indented JSON text.
pub fn to_json_pretty(value: &Value) -> String {
    serde_json::to_string_pretty(&Json(value.clone())).expect("metrics are finite (ratios guard 0)")
}

/// Parses JSON text.
///
/// # Errors
///
/// Malformed JSON.
pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// The field `key` of an object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// A JSON number as `f64`.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(x) => Some(*x),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}
