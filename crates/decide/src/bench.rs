//! Machine-readable benchmark records (`BENCH_<name>.json`).
//!
//! EXPERIMENTS.md curves used to live only in prose; a [`BenchRecorder`]
//! turns a run (a Criterion bench, an `rcn classify --bench-json PATH`
//! invocation, or a CI smoke step) into a small JSON trajectory file that
//! later PRs can diff and CI can assert on. One file holds one named
//! recorder with a list of [`BenchRecord`]s; the schema is flat on purpose
//! so `python3 -c "json.load(...)"`-style checks stay one-liners.

use crate::cache::CACHE_FORMAT_VERSION;
use crate::engine::{SearchEngine, SearchStats};
use rcn_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::Path;

/// One measured configuration: identifying name, run metadata (version,
/// cache format), thread count, wall/busy times, the
/// engine's work/cache counters, and a full metrics snapshot — enough to
/// tell BENCH files from different configurations apart without guessing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// What was measured (e.g. `"classify/team-counter:5/cap=4"`).
    pub name: String,
    /// The `rcn` workspace version that produced the record.
    pub rcn_version: String,
    /// The disk-cache format version in effect
    /// ([`CACHE_FORMAT_VERSION`](crate::CACHE_FORMAT_VERSION)).
    pub cache_format_version: u32,
    /// Search worker threads the run used.
    pub threads: usize,
    /// Real elapsed time, in seconds.
    pub wall_seconds: f64,
    /// Summed per-worker busy time, in seconds (≥ wall when workers overlap).
    pub busy_seconds: f64,
    /// Reachability analyses actually computed.
    pub analyses_computed: u64,
    /// Analyses served from the in-memory memo.
    pub cache_hits: u64,
    /// Analyses served from the persistent disk cache.
    pub disk_hits: u64,
    /// Analyses newly persisted to the disk cache.
    pub disk_entries_written: u64,
    /// Team partitions evaluated.
    pub partitions_tested: u64,
    /// `(initial value, op multiset)` instances visited.
    pub instances_visited: u64,
    /// Whether the run hit a search deadline (numbers are then partial).
    pub timed_out: bool,
    /// The full metrics snapshot at record time (the `engine.*` counters,
    /// plus whatever else the run's tracer registered), so the file is
    /// self-explaining without cross-referencing the flat fields.
    pub metrics: MetricsSnapshot,
}

impl BenchRecord {
    /// Builds a record from an engine's [`SearchStats`] snapshot; use
    /// [`from_engine`](Self::from_engine) when the engine is at hand.
    pub fn from_stats(name: impl Into<String>, threads: usize, stats: &SearchStats) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            rcn_version: env!("CARGO_PKG_VERSION").to_string(),
            cache_format_version: CACHE_FORMAT_VERSION,
            threads,
            wall_seconds: stats.wall_time.as_secs_f64(),
            busy_seconds: stats.busy_time.as_secs_f64(),
            analyses_computed: stats.analyses_computed,
            cache_hits: stats.cache_hits,
            disk_hits: stats.disk_hits,
            disk_entries_written: stats.disk_entries_written,
            partitions_tested: stats.partitions_tested,
            instances_visited: stats.instances_visited,
            timed_out: stats.timed_out,
            metrics: stats.metrics(),
        }
    }

    /// Builds a record straight from an engine: [`Self::from_stats`] with
    /// the engine's thread count and, when a tracer is attached, its full
    /// metrics registry instead of the stats-only snapshot.
    pub fn from_engine(name: impl Into<String>, engine: &SearchEngine) -> BenchRecord {
        let mut record = BenchRecord::from_stats(name, engine.threads(), &engine.stats());
        if let Some(snapshot) = engine.tracer().snapshot() {
            record.metrics = snapshot;
        }
        record
    }

    /// Builds a record from a raw timing (for benches that measure a
    /// function directly rather than through an engine); the counters other
    /// than `analyses_computed` are zero.
    pub fn from_timing(
        name: impl Into<String>,
        threads: usize,
        wall_seconds: f64,
        iterations: u64,
    ) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            rcn_version: env!("CARGO_PKG_VERSION").to_string(),
            cache_format_version: CACHE_FORMAT_VERSION,
            threads,
            wall_seconds,
            busy_seconds: wall_seconds,
            analyses_computed: iterations,
            cache_hits: 0,
            disk_hits: 0,
            disk_entries_written: 0,
            partitions_tested: 0,
            instances_visited: 0,
            timed_out: false,
            metrics: MetricsSnapshot::new(),
        }
    }
}

/// Collects [`BenchRecord`]s and writes them as a `BENCH_<name>.json` file.
///
/// # Examples
///
/// ```
/// use rcn_decide::{BenchRecord, BenchRecorder, SearchEngine};
/// use rcn_spec::zoo::TestAndSet;
///
/// let engine = SearchEngine::sequential();
/// engine.classify(&TestAndSet::new(), 3).unwrap();
/// let mut rec = BenchRecorder::new("doctest");
/// rec.record(BenchRecord::from_stats("classify/test-and-set", 1, &engine.stats()));
/// let json = rec.to_json();
/// assert!(json.contains("\"analyses_computed\""));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecorder {
    /// The recorder's name (used for the default file name).
    pub name: String,
    /// The accumulated records, in insertion order.
    pub records: Vec<BenchRecord>,
}

impl BenchRecorder {
    /// Creates an empty recorder.
    pub fn new(name: impl Into<String>) -> BenchRecorder {
        BenchRecorder {
            name: name.into(),
            records: Vec::new(),
        }
    }

    /// Appends one record.
    pub fn record(&mut self, record: BenchRecord) {
        self.records.push(record);
    }

    /// The JSON document (pretty-printed; stable key order from the field
    /// declaration order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench records always serialize")
    }

    /// Writes the JSON document to `path`, creating parent directories as
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())?;
        file.write_all(b"\n")
    }

    /// The conventional file name for this recorder: `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use rcn_spec::zoo::TestAndSet;

    #[test]
    fn record_round_trips_through_json() {
        let engine = SearchEngine::sequential();
        engine
            .classify(&TestAndSet::new(), 3)
            .expect("cap in range");
        let mut rec = BenchRecorder::new("roundtrip");
        rec.record(BenchRecord::from_stats(
            "classify/test-and-set",
            1,
            &engine.stats(),
        ));
        let json = rec.to_json();
        let back: BenchRecorder = serde_json::from_str(&json).expect("parse back");
        assert_eq!(back, rec);
        assert_eq!(back.records.len(), 1);
        assert!(back.records[0].analyses_computed > 0);
    }

    #[test]
    fn write_to_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("rcn-bench-test-{}", std::process::id()));
        let path = dir.join("nested").join("BENCH_x.json");
        let mut rec = BenchRecorder::new("x");
        rec.record(BenchRecord::from_timing("t", 1, 0.5, 10));
        rec.write_to(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("\"wall_seconds\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_engine_captures_configuration_and_metrics() {
        let engine = SearchEngine::new(2);
        engine
            .classify(&TestAndSet::new(), 3)
            .expect("cap in range");
        let record = BenchRecord::from_engine("classify/tas", &engine);
        assert_eq!(record.rcn_version, env!("CARGO_PKG_VERSION"));
        assert_eq!(
            record.cache_format_version,
            crate::cache::CACHE_FORMAT_VERSION
        );
        assert_eq!(record.threads, 2);
        assert_eq!(
            record.metrics.counter("engine.analyses_computed"),
            Some(record.analyses_computed)
        );
        // The metadata survives the JSON round trip.
        let mut rec = BenchRecorder::new("meta");
        rec.record(record);
        let back: BenchRecorder = serde_json::from_str(&rec.to_json()).expect("parse back");
        assert_eq!(back, rec);
    }

    #[test]
    fn file_name_follows_convention() {
        assert_eq!(
            BenchRecorder::new("kernels").file_name(),
            "BENCH_kernels.json"
        );
    }
}
