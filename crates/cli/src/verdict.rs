//! The one `--json` document the verdict commands (`classify`,
//! `crashtest`, `check`, `lint`) print.
//!
//! Every document is an [`Envelope`]: the same four top-level keys whatever
//! the command, the number of subjects, or the `--stats`/`--metrics` flags.
//! Each type or protocol gets one [`VerdictRecord`] whose shared fields say
//! how the verdict was reached; the command's own verdict rides in the
//! externally tagged [`Payload`] (`{"Crashtest": {…}}`).

use rcn_analyze::Report;
use rcn_decide::TypeClassification;
use rcn_obs::MetricsSnapshot;
use serde::Serialize;

/// One `--json` document.
#[derive(Serialize)]
pub struct Envelope {
    /// The version of the `rcn` build that produced the document.
    pub rcn_version: &'static str,
    /// The command that ran: `classify`, `crashtest`, `check` or `lint`.
    pub command: &'static str,
    /// One record per type or protocol, in command-line order.
    pub records: Vec<VerdictRecord>,
    /// The run's metrics registry under `--metrics`, otherwise `null`.
    pub metrics: Option<MetricsSnapshot>,
}

/// One subject's verdict and how it was reached.
#[derive(Serialize)]
pub struct VerdictRecord {
    /// The type or protocol expression, as given.
    pub subject: String,
    /// `false` exactly when this record fails the command: a counterexample
    /// (`crashtest`, `check`) or a finding at the `--deny` level (`lint`).
    /// A classification is always clean.
    pub clean: bool,
    /// How much of the stated budget the verdict covers: `exhaustive`,
    /// `bounded` (a state cap, a level cap or a truncated lint exploration
    /// cut it short) or `timed_out`.
    pub coverage: &'static str,
    /// States the search stored (`classify`: instances visited; `lint`: 0).
    pub states: u64,
    /// Wall-clock seconds spent on this subject.
    pub wall_seconds: f64,
    /// The search's own counters, under the names the tracer publishes them
    /// as (`engine.*`, `crashtest.*`, `mc.*`); `null` for `lint`.
    pub stats: Option<MetricsSnapshot>,
    /// The command's verdict.
    pub payload: Payload,
}

/// A command's verdict beyond the shared record fields.
#[derive(Serialize)]
pub enum Payload {
    /// `classify`: both levels and the consensus numbers they license.
    Classify(TypeClassification),
    /// `crashtest`: the DFS explorer's verdict.
    Crashtest(CrashtestVerdict),
    /// `check`: the breadth-first checker's verdict.
    Check(CheckVerdict),
    /// `lint`: the findings for this subject.
    Lint(Report),
}

/// `crashtest`'s budget and counterexample.
#[derive(Serialize)]
pub struct CrashtestVerdict {
    /// Crashes allowed per process.
    pub crashes: usize,
    /// `true` for a crash budget of zero (no crash robustness tested).
    pub crash_free: bool,
    /// Longest schedule explored.
    pub depth: usize,
    /// The adversary's crash events.
    pub fault_model: String,
    /// Whether `--shrink` minimized the counterexample.
    pub shrunk: bool,
    /// The violating schedule, if one was found.
    pub schedule: Option<String>,
    /// The violation that schedule triggers.
    pub violation: Option<String>,
    /// The violating process's own conflicting outputs, if any.
    pub divergence: Option<String>,
    /// Whether the threaded runtime reproduced the counterexample.
    pub replay_confirmed: Option<bool>,
}

/// `check`'s budget, counterexample and optional valency verdict.
#[derive(Serialize)]
pub struct CheckVerdict {
    /// Crashes allowed per process.
    pub crashes: usize,
    /// Longest schedule explored.
    pub depth: usize,
    /// The adversary's crash events.
    pub fault_model: String,
    /// The minimal-depth violating schedule, if one was found.
    pub schedule: Option<String>,
    /// The violation that schedule triggers.
    pub violation: Option<String>,
    /// The initial configuration's valency under `--valency`.
    pub valency: Option<ValencyVerdict>,
}

/// `check --valency`: the initial configuration's valency over `E_z*`.
#[derive(Serialize)]
pub struct ValencyVerdict {
    /// `bivalent`, `v-univalent` or `undetermined`.
    pub verdict: String,
    /// The crash-budget multiplier.
    pub z: usize,
    /// The per-process allowance clamp.
    pub clamp: u16,
    /// Budgeted states stored when the verdict settled: the whole graph
    /// unless the verdict is bivalent.
    pub states: u64,
    /// `exhaustive` or `bounded`.
    pub coverage: String,
}

/// The coverage tag of a verdict: a timeout outranks a cap.
pub fn coverage(timed_out: bool, exhaustive: bool) -> &'static str {
    match (timed_out, exhaustive) {
        (true, _) => "timed_out",
        (false, true) => "exhaustive",
        (false, false) => "bounded",
    }
}

/// A snapshot holding just the given counters.
pub fn counters(entries: &[(&str, u64)]) -> MetricsSnapshot {
    let mut snapshot = MetricsSnapshot::new();
    for &(name, value) in entries {
        snapshot.push_counter(name, value);
    }
    snapshot
}
