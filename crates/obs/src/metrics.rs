//! The counter/histogram metrics registry.
//!
//! A [`MetricsRegistry`] is the always-on half of a [`Tracer`]: named
//! monotonic [`Counter`]s and log₂-bucketed [`HistogramHandle`]s that hot
//! loops bump through pre-resolved `Arc` handles. A [`MetricsSnapshot`]
//! freezes the registry into plain sorted vectors with serde derives, so
//! the CLI's `--metrics` flag can render it as aligned text or embed it in
//! the `--json` verdict document verbatim.
//!
//! [`Tracer`]: crate::Tracer

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets a histogram keeps (covers the full `u64` range).
const BUCKETS: usize = 65;

/// A pre-resolved handle to one named counter. Cloning shares the cell;
/// a handle from a disabled tracer is a no-op. All operations are relaxed
/// atomics — counters are for accounting, not synchronization.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// The inert handle (what disabled tracers hand out).
    pub fn noop() -> Counter {
        Counter { cell: None }
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Raises the value to `value` if it is larger (for high-water marks
    /// published once per call).
    pub fn max(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Overwrites the value (for publishing externally-aggregated totals).
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// The current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Lock-free histogram storage: log₂ buckets plus count/sum/min/max.
#[derive(Debug)]
pub(crate) struct Histo {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histo {
    fn new() -> Histo {
        Histo {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: 0 holds exactly 0, bucket `k ≥ 1` holds
    /// `[2^(k-1), 2^k)`.
    fn bucket(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Upper bound reported for a bucket (the quantile approximation).
    fn bucket_upper(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    fn observe(&self, value: u64) {
        self.buckets[Self::bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// The smallest bucket upper bound at or above quantile `q` (0..=1).
    fn quantile(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Never report past the observed extremes.
                return Self::bucket_upper(index).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    fn entry(&self, name: &str) -> HistogramEntry {
        let count = self.count.load(Ordering::Relaxed);
        HistogramEntry {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// A pre-resolved handle to one named histogram; no-op when obtained from
/// a disabled tracer.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle {
    histo: Option<Arc<Histo>>,
}

impl HistogramHandle {
    /// The inert handle.
    pub fn noop() -> HistogramHandle {
        HistogramHandle { histo: None }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        if let Some(histo) = &self.histo {
            histo.observe(value);
        }
    }
}

/// Named counters and histograms, created on first use. The registry is
/// embedded in every enabled [`Tracer`](crate::Tracer); it can also stand
/// alone (e.g. in tests).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histo>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The named counter, created at 0 on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("metrics counters");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter {
            cell: Some(Arc::clone(cell)),
        }
    }

    /// The named histogram, created empty on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut map = self.histograms.lock().expect("metrics histograms");
        let histo = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histo::new()));
        HistogramHandle {
            histo: Some(Arc::clone(histo)),
        }
    }

    /// Freezes the registry into sorted, serializable vectors.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics counters")
            .iter()
            .map(|(name, cell)| CounterEntry {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics histograms")
            .iter()
            .map(|(name, histo)| histo.entry(name))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// One counter's name and value in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// The counter's registered name.
    pub name: String,
    /// The value at snapshot time.
    pub value: u64,
}

/// One histogram's summary in a snapshot. Quantiles are log₂-bucket upper
/// bounds, clamped to the observed max.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// The histogram's registered name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Approximate 50th-percentile value.
    pub p50: u64,
    /// Approximate 90th-percentile value.
    pub p90: u64,
    /// Approximate 99th-percentile value.
    pub p99: u64,
}

/// A frozen registry: sorted counters and histograms, serde-round-trippable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// The named counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|entry| entry.name == name)
            .map(|entry| entry.value)
    }

    /// Appends a counter entry, keeping name order (for building snapshots
    /// by hand from an existing stats struct).
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        let entry = CounterEntry {
            name: name.into(),
            value,
        };
        let at = self
            .counters
            .partition_point(|existing| existing.name <= entry.name);
        self.counters.insert(at, entry);
    }

    /// `true` when the snapshot holds no instruments at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Aligned human-readable rendering (counters, then histograms).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let width = self
                .counters
                .iter()
                .map(|entry| entry.name.len())
                .max()
                .unwrap_or(0);
            for entry in &self.counters {
                let _ = writeln!(out, "{:width$}  {}", entry.name, entry.value);
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            for histogram in &self.histograms {
                let _ = writeln!(
                    out,
                    "{}  count={} sum={} min={} max={} p50={} p90={} p99={}",
                    histogram.name,
                    histogram.count,
                    histogram.sum,
                    histogram.min,
                    histogram.max,
                    histogram.p50,
                    histogram.p90,
                    histogram.p99,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let registry = MetricsRegistry::new();
        registry.counter("zeta").add(3);
        let alpha = registry.counter("alpha");
        alpha.incr();
        alpha.incr();
        // Re-resolving the same name shares the cell.
        registry.counter("zeta").add(4);
        let snap = registry.snapshot();
        let names: Vec<_> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(snap.counter("alpha"), Some(2));
        assert_eq!(snap.counter("zeta"), Some(7));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn counter_set_overwrites() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("gauge");
        c.add(10);
        c.set(3);
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn noop_handles_are_inert() {
        let c = Counter::noop();
        c.add(5);
        c.set(9);
        assert_eq!(c.get(), 0);
        let h = HistogramHandle::noop();
        h.observe(1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        assert_eq!(Histo::bucket(0), 0);
        assert_eq!(Histo::bucket(1), 1);
        assert_eq!(Histo::bucket(2), 2);
        assert_eq!(Histo::bucket(3), 2);
        assert_eq!(Histo::bucket(4), 3);
        assert_eq!(Histo::bucket(u64::MAX), 64);

        let registry = MetricsRegistry::new();
        let h = registry.histogram("depth");
        for v in [1u64, 2, 2, 3, 8] {
            h.observe(v);
        }
        let snap = registry.snapshot();
        let entry = &snap.histograms[0];
        assert_eq!(entry.name, "depth");
        assert_eq!(entry.count, 5);
        assert_eq!(entry.sum, 16);
        assert_eq!(entry.min, 1);
        assert_eq!(entry.max, 8);
        // p50 falls in the [2,4) bucket → upper bound 3.
        assert_eq!(entry.p50, 3);
        // p99 is the top observation's bucket, clamped to max.
        assert_eq!(entry.p99, 8);
    }

    #[test]
    fn empty_histogram_entry_is_zeroed() {
        let registry = MetricsRegistry::new();
        let _ = registry.histogram("empty");
        let entry = &registry.snapshot().histograms[0];
        assert_eq!((entry.count, entry.min, entry.max, entry.p50), (0, 0, 0, 0));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let registry = MetricsRegistry::new();
        registry.counter("a").add(1);
        registry.histogram("h").observe(42);
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parse back");
        assert_eq!(back, snap);
    }

    #[test]
    fn push_counter_keeps_order() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("m", 1);
        snap.push_counter("a", 2);
        snap.push_counter("z", 3);
        let names: Vec<_> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn render_text_aligns_counters() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("short", 1);
        snap.push_counter("much.longer.name", 22);
        let text = snap.render_text();
        assert!(text.contains("short             1"), "{text}");
        assert!(text.contains("much.longer.name  22"), "{text}");
    }
}
