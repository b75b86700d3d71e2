//! # rcn-obs — observability for the rcn workspace
//!
//! Structured tracing, a metrics registry, and trace profiling: the
//! substrate the search engine, disk cache, crash explorer, and threaded
//! runtime report through, and that `rcn serve` will one day surface
//! per-request.
//!
//! Three layers:
//!
//! * [`Tracer`] / [`Span`] / [`TraceEvent`] — hierarchical spans and point
//!   events with monotonic timestamps, per-tracer thread ids, and
//!   deterministic sequence ids, recorded to an in-memory ring or an
//!   append-only JSONL file. [`Tracer::disabled`] is a true no-op (no
//!   allocation, no global state), so instrumented code keeps a tracer
//!   field unconditionally.
//! * [`MetricsRegistry`] / [`Counter`] / [`HistogramHandle`] — named
//!   instruments behind pre-resolved atomic handles, frozen into a
//!   serializable [`MetricsSnapshot`] for `--metrics` and the `--json`
//!   verdict records.
//! * [`ProfileReport`] / [`parse_jsonl`] — aggregation of a recorded
//!   trace back into a per-span breakdown (calls, total vs self time,
//!   p50/p99) for `rcn profile <trace.jsonl>`.
//!
//! The contract with the instrumented layers: observability must never
//! perturb results. The tracer only reads the computation it watches; the
//! workspace's transparency tests pin verdict bit-identity with tracing
//! on vs off.
//!
//! ```
//! use rcn_obs::{ProfileReport, Tracer};
//!
//! let tracer = Tracer::ring(1024);
//! {
//!     let _level = tracer.span_with("engine.level", 2, "discerning");
//!     tracer.counter("engine.partitions_tested").add(17);
//! }
//! let report = ProfileReport::build(&tracer.ring_events());
//! assert_eq!(report.rows[0].name, "engine.level");
//! assert_eq!(
//!     tracer.snapshot().unwrap().counter("engine.partitions_tested"),
//!     Some(17)
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod profile;
mod trace;

pub use metrics::{
    Counter, CounterEntry, HistogramEntry, HistogramHandle, MetricsRegistry, MetricsSnapshot,
};
pub use profile::{parse_jsonl, ProfileError, ProfileReport, ProfileRow};
pub use trace::{Span, TraceEvent, Tracer, KIND_CLOSE, KIND_EVENT, KIND_OPEN};
