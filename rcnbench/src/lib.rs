//! # rcnbench — the rcn verdict benchmark
//!
//! Users of `rcn` wait on two kinds of verdict: *what is this type's
//! (recoverable) consensus number?* and *is this recoverable protocol
//! correct under crashes?* The benchmark asks the layers for such verdicts
//! in process, as one closed-loop client, checks every verdict against an
//! oracle, and times every call it makes into a layer.
//!
//! * [`plan`] — the four workloads, their job classes and the seeded job
//!   list;
//! * [`job`] — executing one job (layer calls, spans, verdict) and the
//!   oracle;
//! * [`layers`] — per-layer time and counts, measured from outside each
//!   crate;
//! * [`harness`] — set-up, the measured loop, traced block pairs, metrics;
//! * [`calib`] — the calibration kernel that reports times at one
//!   reference speed;
//! * [`metrics`] — metric definitions and the `BENCHMARK.json` manifest;
//! * [`report`] — the printed report, the result line and result file;
//! * [`compare`] — two sets of result files, one call per metric;
//! * [`stats`] and [`rng`] — order statistics and the seeded generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod compare;
pub mod harness;
pub mod job;
pub mod layers;
pub mod metrics;
pub mod plan;
pub mod report;
pub mod rng;
pub mod stats;
