//! `rcnbench compare <runs-A> <runs-B>`: two sets of untraced result
//! files, one row per workload × end-to-end metric.
//!
//! The i-th run of A (by file name) is paired with the i-th run of B. A
//! row's call is *gain* only if B wins at least nine tenths of the pairs
//! and the medians differ by more than A's interquartile range;
//! *regression* if B's median is worse than A's by more than the metric's
//! bound; *unresolved* if either side's spread (interquartile range)
//! exceeds the bound and neither side wins every pair; otherwise *within
//! bound*. The bound is the metric's share of the median, or its absolute
//! floor when that is larger ([`MetricDef::allowed`]).

use crate::metrics::{field, number, parse_json, MetricDef, END_TO_END, ERROR_RATE};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// A row's call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// B is better, beyond noise.
    Gain,
    /// B is worse than the bound allows.
    Regression,
    /// The noise is wider than the bound.
    Unresolved,
    /// No change the bound can see.
    WithinBound,
}

impl Call {
    /// The call as printed.
    pub fn name(self) -> &'static str {
        match self {
            Call::Gain => "gain",
            Call::Regression => "regression",
            Call::Unresolved => "unresolved",
            Call::WithinBound => "within bound",
        }
    }
}

/// Calls one metric from paired runs; also returns B's wins and the
/// number of pairs.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Call, usize, usize) {
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| def.better.wins(b[i], a[i])).count();
    let losses = (0..pairs).filter(|&i| def.better.wins(a[i], b[i])).count();
    let (ma, mb) = (median(a), median(b));
    let (q1a, q3a) = quartiles(a);
    let (q1b, q3b) = quartiles(b);
    let worse = if def.better.wins(ma, mb) {
        (mb - ma).abs()
    } else {
        0.0
    };
    let call = if pairs > 0
        && wins * 10 >= pairs * 9
        && def.better.wins(mb, ma)
        && (mb - ma).abs() > q3a - q1a
    {
        Call::Gain
    } else if worse > def.allowed(ma) {
        Call::Regression
    } else if (q3a - q1a > def.allowed(ma) || q3b - q1b > def.allowed(mb))
        && wins < pairs
        && losses < pairs
    {
        Call::Unresolved
    } else {
        Call::WithinBound
    };
    (call, wins, pairs)
}

/// Untraced result files in `dir`, by workload: each run's metric values,
/// in file-name order.
///
/// # Errors
///
/// An unreadable directory or a file that is not a result.
pub fn load(dir: &Path) -> Result<BTreeMap<String, Vec<BTreeMap<String, f64>>>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs: BTreeMap<String, Vec<BTreeMap<String, f64>>> = BTreeMap::new();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        // Other JSON files (such as an environment record) are skipped, as
        // are traced runs, which carry no end-to-end metrics.
        let Some(serde::Value::Str(workload)) = field(&doc, "workload") else {
            continue;
        };
        if matches!(field(&doc, "traced"), Some(serde::Value::Bool(true))) {
            continue;
        }
        let bad = || format!("{} has no metrics", path.display());
        let metrics = field(&doc, "metrics")
            .and_then(serde::Value::as_object)
            .ok_or_else(bad)?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), number(field(m, "value")?)?)))
            .collect();
        runs.entry(workload.clone()).or_default().push(metrics);
    }
    Ok(runs)
}

/// The comparison table of two result directories.
///
/// # Errors
///
/// A directory that cannot be loaded.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<String, String> {
    let (a, b) = (load(a_dir)?, load(b_dir)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<20} {:>28} {:>28} {:>7}  call",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B won"
    );
    for (workload, a_runs) in &a {
        let Some(b_runs) = b.get(workload) else {
            continue;
        };
        for def in END_TO_END.iter().chain(std::iter::once(&ERROR_RATE)) {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(def.name).copied())
                    .collect()
            };
            let (av, bv) = (values(a_runs), values(b_runs));
            if av.is_empty() || bv.is_empty() {
                continue;
            }
            let (call, wins, pairs) = judge(def, &av, &bv);
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(v))
            };
            let _ = writeln!(
                out,
                "{workload:<10} {:<20} {:>28} {:>28} {:>7}  {}",
                def.name,
                side(&av),
                side(&bv),
                format!("{wins}/{pairs}"),
                call.name()
            );
        }
    }
    Ok(out)
}
