//! Rendering a run: the human-readable lines, the one-line JSON result
//! the last line of standard output carries, and the fuller result file
//! `compare` reads.

use crate::harness::{class_medians, RunResult};
use crate::metrics::{measured, obj, str_value, END_TO_END, PER_LAYER};
use serde::Value;
use std::fmt::Write as _;

/// The human-readable report (everything but the final JSON line).
pub fn human(result: &RunResult) -> String {
    let o = &result.options;
    let w = o.workload;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "rcnbench {} seed {}{}: closed loop, 1 client, at most 2 threads",
        w.name(),
        o.seed,
        if o.traced { " (traced)" } else { "" }
    );
    let classes: Vec<String> = w
        .class_counts()
        .iter()
        .map(|(c, n)| format!("{c} {n}"))
        .collect();
    let _ = writeln!(
        out,
        "job list: N = {} jobs, {} blocks of {}: {}",
        w.jobs_per_pass(),
        w.blocks_per_pass(),
        w.block_len(),
        classes.join(", ")
    );
    let setups: Vec<String> = result.setups_s.iter().map(|s| format!("{s:.3}")).collect();
    let _ = writeln!(out, "set-up: {} s", setups.join(" / "));
    let _ = writeln!(
        out,
        "measured: {} jobs in {} blocks ({:.1} passes; each request's median timed), {:.2} s; {} of {} verdicts failed",
        result.samples.len(),
        result.blocks,
        result.passes(),
        result.measured_s,
        result.failed,
        result.attempted
    );
    if !o.traced {
        let at = |q| result.class_at(q).unwrap_or("-");
        let _ = writeln!(out, "p50 falls in {}, p99 in {}", at(0.50), at(0.99));
    } else {
        let _ = writeln!(
            out,
            "benchmark spans cover {:.1}% of traced job time",
            result.span_coverage_pct
        );
    }
    for error in &result.errors {
        let _ = writeln!(out, "FAILED: {error}");
    }
    for (name, value, unit) in own_metrics(result) {
        let _ = writeln!(out, "metric {name} = {value} {unit}");
    }
    out
}

/// The metrics that describe the run's workload: every end-to-end one
/// untraced; traced, the per-layer metrics measured on the workload (the
/// others read 0, from layers the workload bypasses).
fn own_metrics(result: &RunResult) -> impl Iterator<Item = &(&'static str, f64, &'static str)> {
    let workload = result.options.workload;
    result.metrics.iter().filter(move |(name, ..)| {
        PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .is_none_or(|m| m.measured_on(workload))
    })
}

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and `metrics` (the `BENCHMARK.json` end-to-end metrics untraced, every
/// `BENCHMARK.json` per-layer metric traced).
pub fn line(result: &RunResult) -> Value {
    let wanted = |name: &str| result.options.traced || END_TO_END.iter().any(|m| m.name == name);
    let metrics = result
        .metrics
        .iter()
        .filter(|(name, ..)| wanted(name))
        .map(|(name, value, unit)| (name.to_string(), measured(*value, unit)))
        .collect();
    obj(vec![
        ("correct", Value::Bool(result.correct())),
        ("attempted", Value::UInt(result.attempted)),
        ("failed", Value::UInt(result.failed)),
        ("metrics", Value::Object(metrics)),
    ])
}

/// The result file: the line's content plus what produced it.
pub fn file(result: &RunResult) -> Value {
    let o = &result.options;
    let w = o.workload;
    let counts = w
        .class_counts()
        .into_iter()
        .map(|(c, n)| (c.to_string(), Value::UInt(n as u64)))
        .collect();
    let spans = result
        .spans
        .iter()
        .map(|(name, s)| {
            let median_ms = |v: &[u64]| {
                crate::stats::median(&v.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>())
            };
            obj(vec![
                ("name", str_value(name)),
                ("calls", Value::UInt(s.calls)),
                ("total_ms", Value::Float(s.total_ns as f64 / 1e6)),
                ("self_ms", Value::Float(s.self_ns as f64 / 1e6)),
                ("p50_ms", Value::Float(median_ms(&s.p50_ns))),
                ("p99_ms", Value::Float(median_ms(&s.p99_ns))),
            ])
        })
        .collect();
    let class_at = |q| result.class_at(q).map_or(Value::Null, str_value);
    let latencies = result.latencies();
    let class_p50 = class_medians(&latencies)
        .into_iter()
        .map(|(class, ms)| (class.to_string(), Value::Float(ms)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let metrics = own_metrics(result)
        .map(|(name, value, unit)| (name.to_string(), measured(*value, unit)))
        .collect();
    obj(vec![
        ("workload", str_value(w.name())),
        ("seed", Value::UInt(o.seed)),
        ("traced", Value::Bool(o.traced)),
        ("seconds", Value::Float(o.seconds)),
        ("nproc", Value::UInt(nproc as u64)),
        ("jobs_per_pass", Value::UInt(w.jobs_per_pass() as u64)),
        ("block_len", Value::UInt(w.block_len() as u64)),
        ("class_counts", Value::Object(counts)),
        ("correct", Value::Bool(result.correct())),
        ("attempted", Value::UInt(result.attempted)),
        ("failed", Value::UInt(result.failed)),
        (
            "errors",
            Value::Array(result.errors.iter().map(|e| str_value(e)).collect()),
        ),
        ("setups_s", floats(&result.setups_s)),
        ("setup_speeds", floats(&result.setup_speeds)),
        ("block_speeds", floats(&result.block_speeds)),
        ("samples", Value::UInt(result.samples.len() as u64)),
        ("timed_jobs", Value::UInt(latencies.len() as u64)),
        ("blocks", Value::UInt(result.blocks as u64)),
        ("passes", Value::Float(result.passes())),
        ("measured_s", Value::Float(result.measured_s)),
        ("p50_class", class_at(0.50)),
        ("p99_class", class_at(0.99)),
        ("metrics", Value::Object(metrics)),
        ("span_coverage_pct", Value::Float(result.span_coverage_pct)),
        ("class_p50_ms", Value::Object(class_p50)),
        ("spans", Value::Array(spans)),
    ])
}

fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
}
