//! Persistent crash-exploration memo: `crashtest` runs resume from disk.
//!
//! A crash exploration is pure in `(system, budget)` — the same system
//! explored under the same [`CrashtestConfig`] always yields the same
//! verdict and the same certified-clean memo facts. This module makes
//! that purity durable, exactly as `rcn-decide`'s `DiskCache` does for
//! reachability analyses:
//!
//! * one JSON file per `(system fingerprint, budget triple, fault
//!   model)`, named `crashtest-<fp>-c<K>-d<D>-s<S>-m<model>.json`,
//!   carrying a format-version header so stale layouts degrade to a
//!   cold run. The fault model is part of the key *and* the header: a
//!   clean verdict under `per-process` proves nothing about `system` or
//!   `mid-op` crashes, so memos written under one model must never be
//!   consumed under another;
//! * the key is a *content* hash ([`system_fingerprint`]): process
//!   count, inputs, every object's full transition table and initial
//!   value, plus a bounded walk of the crash-free step graph — renaming
//!   a protocol changes nothing, editing its table invalidates its memo;
//! * only *certified* results are stored: a found counterexample (a
//!   definitive verdict whatever else was cut short) or an exhaustive
//!   clean run together with its complete depth-aware memo. Partial
//!   runs (state-capped, timed out, panicked tasks) are never persisted
//!   — resuming from them could mislabel an under-explored state clean;
//! * a warm run with a stored counterexample replays it through the
//!   executor before trusting it (a stored schedule that no longer
//!   violates is damage, and quarantined); a warm run with stored clean
//!   facts re-runs the search seeded with them, so the traversal
//!   collapses onto the disk's work and [`resumed_states`] reports how
//!   much search the disk saved;
//! * damage handling is identical to `DiskCache`: unparseable or
//!   wrong-header files are quarantined to `.bad` (evidence preserved,
//!   recompute-forever loops broken), invalid facts are skipped at entry
//!   granularity, writes publish via unique temp file + atomic rename
//!   with one retry per operation, and every filesystem call goes
//!   through the [`CacheIo`] seam so the fail-point sweep covers each
//!   injection point.
//!
//! Trust model: as with `DiskCache`, a well-formed file whose *facts*
//! are falsified (states marked clean that are not) is indistinguishable
//! from a genuine one; counterexamples are replay-validated, clean facts
//! are not re-derived. Delete the memo directory to rebuild from
//! scratch.
//!
//! [`resumed_states`]: crate::ExplorerStats::resumed_states

use crate::explorer::{Counterexample, CrashtestConfig, CrashtestReport, ExplorerStats, MemoKey};
use rcn_decide::{type_fingerprint, CacheIo, SystemIo};
use rcn_model::{
    charge_crashes, event_enabled, Action, Configuration, Event, LocalState, ProcessId, Schedule,
    System,
};
use rcn_obs::Tracer;
use rcn_spec::ValueId;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version stamp written into every explorer-memo file. Bump on any
/// change to the serialized shape; readers quarantine files with any
/// other version (unlike a wrong fingerprint, a wrong version at the
/// right path is damage worth evicting, not a neighbour's file).
///
/// Version history: 1 = budget triple only; 2 = the fault model joined
/// the header (and the file name), because a verdict under `per-process`
/// says nothing about `system` or `mid-op` crashes.
pub const EXPLORER_MEMO_VERSION: u32 = 2;

/// How many configurations the fingerprint's bounded crash-free walk
/// visits before truncating. The walk only needs to separate systems
/// whose object tables and inputs agree but whose programs differ, so a
/// bounded prefix of the step graph is plenty — and keeps fingerprinting
/// O(1)-ish even for systems whose full state space is the thing the
/// explorer is being paid to enumerate.
const FINGERPRINT_WALK_CAP: usize = 2048;

/// 64-bit FNV-1a content hash of a *system's* semantics: process count,
/// inputs, each heap object's [`type_fingerprint`] and initial value,
/// and a bounded breadth-first walk of the crash-free step graph
/// (configurations and step edges, in deterministic order).
///
/// Two systems with the same fingerprint behave identically under the
/// explored events (up to hash collision and walk truncation, which is
/// itself mixed in). Names and display strings deliberately do not
/// participate — two differently-named wrappers of one protocol share a
/// memo, and two random-table programs that share a name do not.
pub fn system_fingerprint(system: &System) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mix_config = |mix: &mut dyn FnMut(u64), config: &Configuration| {
        for state in &config.states {
            mix(state.words().len() as u64);
            for &w in state.words() {
                mix(u64::from(w));
            }
        }
        for &v in &config.values {
            mix(u64::from(v.index() as u16));
        }
        for d in &config.decided {
            match d {
                Some(v) => mix(u64::from(*v) + 2),
                None => mix(1),
            }
        }
    };

    mix(system.n() as u64);
    for &input in system.inputs() {
        mix(u64::from(input));
    }
    let layout = system.layout();
    for id in layout.object_ids() {
        mix(type_fingerprint(layout.object_type(id)));
        mix(layout.initial(id).index() as u64);
    }

    // Bounded BFS over crash-free steps. `System::apply` is total (steps
    // of decided processes are no-ops), so unlike hashing raw transition
    // tables this can never panic on an infeasible (state, response)
    // combination.
    let initial = system.initial_config();
    let mut seen: HashSet<Configuration> = HashSet::new();
    let mut queue: VecDeque<Configuration> = VecDeque::new();
    seen.insert(initial.clone());
    queue.push_back(initial);
    let mut truncated = false;
    while let Some(config) = queue.pop_front() {
        mix_config(&mut mix, &config);
        for i in 0..system.n() {
            let p = ProcessId::new(i as u16);
            if matches!(system.action_of(&config, p), Action::Output(_)) {
                continue;
            }
            let mut next = config.clone();
            let effect = system.apply(&mut next, Event::Step(p));
            mix(i as u64);
            mix(u64::from(effect.violation.is_some()));
            if seen.len() < FINGERPRINT_WALK_CAP && seen.insert(next.clone()) {
                queue.push_back(next);
            } else if seen.len() >= FINGERPRINT_WALK_CAP {
                truncated = true;
            }
        }
    }
    mix(u64::from(truncated));
    hash
}

/// One persisted certified-clean memo fact: a `(configuration,
/// crash-counts)` state and the largest remaining schedule budget it was
/// exhaustively explored with.
#[derive(Serialize, Deserialize)]
struct FactRec {
    /// Per-process local-state words.
    states: Vec<Vec<u32>>,
    /// Per-object current values.
    values: Vec<u16>,
    /// Per-process first outputs (`None` = undecided).
    decided: Vec<Option<u32>>,
    /// Per-process crash counts spent reaching the state.
    counts: Vec<u64>,
    /// Remaining schedule budget the state was explored with.
    remaining: u64,
}

/// The stored verdict: the violating schedule (empty string = certified
/// clean) plus the effort counters of the run that produced it, so a
/// short-circuited warm run can report the original run's work as
/// `resumed_states`.
#[derive(Serialize, Deserialize)]
struct OutcomeRec {
    /// Paper-notation schedule (`p0 c1 …`); `""` means certified clean.
    schedule: String,
    states_visited: u64,
    events_applied: u64,
    memo_hits: u64,
    re_explored: u64,
    depth_limited: bool,
}

/// The on-disk file shape: versioned header, budget triple, verdict,
/// certified facts.
#[derive(Serialize, Deserialize)]
struct MemoFile {
    /// Must equal [`EXPLORER_MEMO_VERSION`].
    version: u32,
    /// Must equal the [`system_fingerprint`] of the system explored.
    fingerprint: u64,
    max_crashes: u64,
    max_depth: u64,
    max_states: u64,
    /// The three [`FaultModel`] flags the verdict was computed under.
    per_process: bool,
    system_wide: bool,
    mid_operation: bool,
    outcome: OutcomeRec,
    facts: Vec<FactRec>,
}

/// What a warm load produced.
pub(crate) enum MemoLoad {
    /// A stored, replay-validated verdict for this exact budget: the
    /// whole run short-circuits.
    Report(CrashtestReport),
    /// Stored certified-clean facts: pre-seed the memo and re-run.
    Facts(Vec<(MemoKey, usize)>),
    /// Nothing usable on disk.
    Miss,
}

/// Makes concurrent [`ExplorerMemo`] stores in one process use distinct
/// temp paths (same rationale as `DiskCache`).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of persisted crash-exploration memos.
///
/// Cheap to construct; the directory is created lazily on the first
/// successful write. All read errors are silent misses — the memo is a
/// pure accelerator and must never turn a computable verdict into a
/// failure.
///
/// # Examples
///
/// ```
/// use rcn_faults::{CrashExplorer, CrashtestConfig, ExplorerMemo};
/// use rcn_protocols::TasConsensus;
///
/// let dir = std::env::temp_dir().join("rcn-doctest-explorer-memo");
/// let sys = TasConsensus::system(vec![0, 1]);
/// let cold = CrashExplorer::new(&sys, CrashtestConfig::default())
///     .with_memo(ExplorerMemo::new(&dir))
///     .explore();
/// let warm = CrashExplorer::new(&sys, CrashtestConfig::default())
///     .with_memo(ExplorerMemo::new(&dir))
///     .explore();
/// assert_eq!(warm.counterexample, cold.counterexample);
/// assert!(warm.stats.resumed_states > 0, "warm run resumes from disk");
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct ExplorerMemo {
    dir: PathBuf,
    io: Arc<dyn CacheIo>,
}

impl ExplorerMemo {
    /// Creates a handle on `dir` (not touched until the first write).
    pub fn new(dir: impl Into<PathBuf>) -> ExplorerMemo {
        ExplorerMemo::with_io(dir, Arc::new(SystemIo))
    }

    /// Creates a handle performing all filesystem operations through
    /// `io` — the seam the fault-injection tests use.
    pub fn with_io(dir: impl Into<PathBuf>, io: Arc<dyn CacheIo>) -> ExplorerMemo {
        ExplorerMemo {
            dir: dir.into(),
            io,
        }
    }

    /// The memo directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file that holds the verdict and facts for this exact
    /// `(system, budget)` pair.
    fn file_path(&self, fingerprint: u64, config: &CrashtestConfig) -> PathBuf {
        self.dir.join(format!(
            "crashtest-{fingerprint:016x}-c{}-d{}-s{}-m{}.json",
            config.max_crashes,
            config.max_depth,
            config.max_states,
            config.fault_model.key()
        ))
    }

    /// Moves a damaged memo file aside to `.bad` — same semantics as
    /// `DiskCache`: evidence preserved, recompute-forever loops broken,
    /// best-effort.
    fn quarantine(&self, path: &Path, tracer: &Tracer) {
        let _ = self.io.rename(path, &path.with_extension("bad"));
        tracer.counter("crashtest.memo_quarantined").incr();
        if tracer.recording() {
            tracer.event("crashtest.memo.quarantine", 0, &path.to_string_lossy());
        }
    }

    /// Loads whatever this exact `(system, budget)` pair has on disk.
    ///
    /// A stored counterexample is replayed through the executor before
    /// being trusted; a schedule that does not violate (or does not fit
    /// the budget) is damage and quarantines the file. Stored clean
    /// facts are validated entry-by-entry; invalid facts are skipped.
    pub(crate) fn load(
        &self,
        system: &System,
        config: &CrashtestConfig,
        tracer: &Tracer,
    ) -> MemoLoad {
        let fingerprint = system_fingerprint(system);
        let path = self.file_path(fingerprint, config);
        let Ok(text) = self.io.read_to_string(&path) else {
            tracer.event("crashtest.memo.load", 0, "miss");
            return MemoLoad::Miss;
        };
        let bytes = i64::try_from(text.len()).unwrap_or(i64::MAX);
        let Ok(file) = serde_json::from_str::<MemoFile>(&text) else {
            self.quarantine(&path, tracer);
            tracer.event("crashtest.memo.load", bytes, "corrupt");
            return MemoLoad::Miss;
        };
        if file.version != EXPLORER_MEMO_VERSION
            || file.fingerprint != fingerprint
            || file.max_crashes != config.max_crashes as u64
            || file.max_depth != config.max_depth as u64
            || file.max_states != config.max_states as u64
            || file.per_process != config.fault_model.per_process
            || file.system_wide != config.fault_model.system_wide
            || file.mid_operation != config.fault_model.mid_operation
        {
            self.quarantine(&path, tracer);
            tracer.event("crashtest.memo.load", bytes, "header-mismatch");
            return MemoLoad::Miss;
        }

        if !file.outcome.schedule.is_empty() {
            // A stored violation: validate it is budget-legal and really
            // violates before short-circuiting the run on it.
            let Some(report) = self.validated_counterexample(system, config, &file.outcome) else {
                self.quarantine(&path, tracer);
                tracer.event("crashtest.memo.load", bytes, "replay-mismatch");
                return MemoLoad::Miss;
            };
            if tracer.recording() {
                tracer.event("crashtest.memo.load", bytes, "ok counterexample");
            }
            return MemoLoad::Report(report);
        }

        // A certified-clean outcome: validate facts entry-by-entry.
        let facts = self.validated_facts(system, config, file.facts);
        if tracer.recording() {
            tracer.event(
                "crashtest.memo.load",
                bytes,
                &format!("ok clean facts={}", facts.len()),
            );
        }
        MemoLoad::Facts(facts)
    }

    /// Replays a stored violating schedule; `None` means the record is
    /// damaged (illegal budget or no violation on replay).
    fn validated_counterexample(
        &self,
        system: &System,
        config: &CrashtestConfig,
        outcome: &OutcomeRec,
    ) -> Option<CrashtestReport> {
        let schedule: Schedule = outcome.schedule.parse().ok()?;
        if schedule.is_empty() || schedule.len() > config.max_depth {
            return None;
        }
        let n = system.n();
        let mut counts = vec![0usize; n];
        for event in schedule.iter() {
            if event.process().is_some_and(|p| p.index() >= n)
                || !event_enabled(config.fault_model, &counts, config.max_crashes, event)
            {
                return None;
            }
            charge_crashes(&mut counts, event);
        }
        let (_, violation) = system.run_from_start(&schedule);
        let violation = violation?;
        let stats = ExplorerStats {
            states_visited: outcome.states_visited,
            events_applied: outcome.events_applied,
            memo_hits: outcome.memo_hits,
            re_explored: outcome.re_explored,
            // The whole original search is what the disk saved.
            resumed_states: outcome.states_visited,
            depth_limited: outcome.depth_limited,
            ..ExplorerStats::default()
        };
        Some(CrashtestReport {
            stats,
            counterexample: Some(Counterexample {
                schedule,
                violation,
                // The caller re-runs diagnosis; divergence is derived, not
                // stored.
                divergence: None,
            }),
        })
    }

    /// Shape-validates stored facts against the system and budget;
    /// invalid records are skipped (entry granularity, like
    /// `DiskCache`'s per-entry validation).
    fn validated_facts(
        &self,
        system: &System,
        config: &CrashtestConfig,
        facts: Vec<FactRec>,
    ) -> Vec<(MemoKey, usize)> {
        let n = system.n();
        let layout = system.layout();
        let num_objects = layout.initial_values().len();
        let mut out = Vec::with_capacity(facts.len());
        for fact in facts {
            if fact.states.len() != n
                || fact.values.len() != num_objects
                || fact.decided.len() != n
                || fact.counts.len() != n
            {
                continue;
            }
            if fact
                .values
                .iter()
                .zip(layout.object_ids())
                .any(|(&v, id)| usize::from(v) >= layout.object_type(id).num_values())
            {
                continue;
            }
            if fact.counts.iter().any(|&c| c > config.max_crashes as u64)
                || fact.remaining > config.max_depth as u64
            {
                continue;
            }
            let key: MemoKey = (
                Configuration {
                    states: fact
                        .states
                        .into_iter()
                        .map(LocalState::from_words)
                        .collect(),
                    values: fact.values.into_iter().map(ValueId::new).collect(),
                    decided: fact.decided,
                },
                fact.counts.into_iter().map(|c| c as usize).collect(),
            );
            out.push((key, fact.remaining as usize));
        }
        out
    }

    /// Persists a certified result: a found counterexample, or an
    /// exhaustive clean verdict with its memo facts. Partial runs are
    /// not eligible and return `false` without touching the disk.
    /// Returns `true` on a successful publish; IO failures are silent
    /// (best-effort, reported through the tracer only), each operation
    /// retried once.
    pub(crate) fn store(
        &self,
        system: &System,
        config: &CrashtestConfig,
        report: &CrashtestReport,
        certified: &[(MemoKey, usize)],
        tracer: &Tracer,
    ) -> bool {
        let eligible = report.counterexample.is_some() || report.is_certified_clean();
        if !eligible {
            return false;
        }
        let fingerprint = system_fingerprint(system);
        let file = MemoFile {
            version: EXPLORER_MEMO_VERSION,
            fingerprint,
            max_crashes: config.max_crashes as u64,
            max_depth: config.max_depth as u64,
            max_states: config.max_states as u64,
            per_process: config.fault_model.per_process,
            system_wide: config.fault_model.system_wide,
            mid_operation: config.fault_model.mid_operation,
            outcome: OutcomeRec {
                schedule: report
                    .counterexample
                    .as_ref()
                    .map(|c| c.schedule.to_string())
                    .unwrap_or_default(),
                states_visited: report.stats.states_visited,
                events_applied: report.stats.events_applied,
                memo_hits: report.stats.memo_hits,
                re_explored: report.stats.re_explored,
                depth_limited: report.stats.depth_limited,
            },
            facts: if report.counterexample.is_some() {
                // A violation short-circuits warm runs entirely; partial
                // memo facts from an unwound search are not certified.
                Vec::new()
            } else {
                certified
                    .iter()
                    .map(|((config, counts), remaining)| FactRec {
                        states: config.states.iter().map(|s| s.words().to_vec()).collect(),
                        values: config.values.iter().map(|v| v.index() as u16).collect(),
                        decided: config.decided.clone(),
                        counts: counts.iter().map(|&c| c as u64).collect(),
                        remaining: *remaining as u64,
                    })
                    .collect()
            },
        };
        let fact_count = file.facts.len();
        let Ok(json) = serde_json::to_string(&file) else {
            return false;
        };
        let retries = tracer.counter("crashtest.memo_retries");
        let retry = |op: &dyn Fn() -> io::Result<()>| match op() {
            Ok(()) => true,
            // Transient fault: count the first failure, try once more.
            Err(_) => {
                retries.incr();
                op().is_ok()
            }
        };
        if !retry(&|| self.io.create_dir_all(&self.dir)) {
            self.store_event(tracer, false, 0, fact_count);
            return false;
        }
        let path = self.file_path(fingerprint, config);
        let tmp = path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let json = json.as_bytes();
        let ok = retry(&|| self.io.write(&tmp, json)) && retry(&|| self.io.rename(&tmp, &path));
        if !ok {
            // Don't leave temp litter behind a failed publish; through
            // the io seam so the fail-point sweep covers it.
            let _ = self.io.remove_file(&tmp);
        }
        self.store_event(tracer, ok, json.len(), fact_count);
        ok
    }

    /// Records one `crashtest.memo.store` event plus the outcome counter.
    fn store_event(&self, tracer: &Tracer, ok: bool, bytes: usize, facts: usize) {
        tracer
            .counter(if ok {
                "crashtest.memo_stores"
            } else {
                "crashtest.memo_store_failures"
            })
            .incr();
        if tracer.recording() {
            tracer.event(
                "crashtest.memo.store",
                i64::try_from(bytes).unwrap_or(i64::MAX),
                &format!("{} facts={facts}", if ok { "ok" } else { "failed" }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashExplorer;
    use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree};

    fn unit_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rcn-explorer-memo-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn fingerprint_is_semantic_and_deterministic() {
        let tas = TasConsensus::system(vec![0, 1]);
        assert_eq!(
            system_fingerprint(&tas),
            system_fingerprint(&TasConsensus::system(vec![0, 1]))
        );
        // Different inputs, different fingerprint.
        assert_ne!(
            system_fingerprint(&tas),
            system_fingerprint(&TasConsensus::system(vec![1, 0]))
        );
        // Different protocol dynamics, different fingerprint.
        assert_ne!(
            system_fingerprint(&TnnWaitFree::system(2, 1, vec![0, 1])),
            system_fingerprint(&TnnRecoverable::system(2, 1, vec![0, 1]))
        );
        // Different parameters of one family, different fingerprint.
        assert_ne!(
            system_fingerprint(&TnnRecoverable::system(5, 2, vec![0, 1])),
            system_fingerprint(&TnnRecoverable::system(5, 1, vec![0, 1]))
        );
    }

    #[test]
    fn warm_resume_short_circuits_on_a_stored_counterexample() {
        let dir = unit_dir("cex");
        let sys = TasConsensus::system(vec![0, 1]);
        let cold = CrashExplorer::new(&sys, CrashtestConfig::default())
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        let cold_cex = cold.counterexample.clone().expect("T&S breaks");
        assert_eq!(cold.stats.resumed_states, 0);

        let warm = CrashExplorer::new(&sys, CrashtestConfig::default())
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        assert_eq!(warm.counterexample, Some(cold_cex));
        assert!(
            warm.stats.resumed_states > 0,
            "the stored verdict must be credited as resumed work: {}",
            warm.stats
        );
        assert_eq!(warm.stats.resumed_states, cold.stats.states_visited);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_resume_collapses_a_clean_search_onto_disk_facts() {
        let dir = unit_dir("clean");
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let cfg = CrashtestConfig {
            max_crashes: 1,
            max_depth: 8,
            ..Default::default()
        };
        let cold = CrashExplorer::new(&sys, cfg)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        assert!(cold.is_certified_clean());
        assert_eq!(cold.stats.resumed_states, 0);

        let warm = CrashExplorer::new(&sys, cfg)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        assert!(warm.is_certified_clean());
        assert!(
            warm.stats.resumed_states > 0,
            "disk facts must prune the warm search: {}",
            warm.stats
        );
        assert!(
            warm.stats.states_visited < cold.stats.states_visited,
            "warm {} vs cold {}",
            warm.stats,
            cold.stats
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_is_part_of_the_key() {
        let dir = unit_dir("budget");
        let sys = TnnRecoverable::system(3, 1, vec![0, 1]);
        let tight = CrashtestConfig {
            max_crashes: 1,
            max_depth: 6,
            ..Default::default()
        };
        CrashExplorer::new(&sys, tight)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        // A different budget misses the stored file entirely.
        let wide = CrashtestConfig {
            max_crashes: 1,
            max_depth: 8,
            ..Default::default()
        };
        let report = CrashExplorer::new(&sys, wide)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        assert_eq!(
            report.stats.resumed_states, 0,
            "a different depth budget must not resume"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_memo_files_are_quarantined_to_bad() {
        let dir = unit_dir("quarantine");
        let sys = TasConsensus::system(vec![0, 1]);
        let cfg = CrashtestConfig::default();
        let memo = ExplorerMemo::new(&dir);
        let path = memo.file_path(system_fingerprint(&sys), &cfg);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, b"{definitely not a memo file").unwrap();

        let report = CrashExplorer::new(&sys, cfg).with_memo(memo).explore();
        assert!(report.counterexample.is_some(), "cold verdict still stands");
        assert_eq!(report.stats.resumed_states, 0);
        assert!(
            path.with_extension("bad").exists(),
            "evidence must be preserved as .bad"
        );
        // The slot was freed by the quarantine, so the same run
        // republished a fresh, loadable file.
        let warm = CrashExplorer::new(&sys, cfg)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        assert!(warm.stats.resumed_states > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stored_counterexamples_are_replay_validated() {
        let dir = unit_dir("replay");
        let sys = TasConsensus::system(vec![0, 1]);
        let cfg = CrashtestConfig::default();
        CrashExplorer::new(&sys, cfg)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        let memo = ExplorerMemo::new(&dir);
        let path = memo.file_path(system_fingerprint(&sys), &cfg);
        // Falsify the stored schedule into a harmless crash-free step —
        // a well-formed record whose replay finds no violation.
        let text = std::fs::read_to_string(&path).unwrap();
        let cold_cex = CrashExplorer::new(&sys, cfg)
            .explore()
            .counterexample
            .unwrap();
        let falsified = text.replace(&cold_cex.schedule.to_string(), "p0");
        assert_ne!(falsified, text, "the schedule must appear in the file");
        std::fs::write(&path, falsified).unwrap();

        let warm = CrashExplorer::new(&sys, cfg)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        assert_eq!(
            warm.counterexample,
            Some(cold_cex),
            "a falsified record must fall back to a cold search"
        );
        assert!(
            path.with_extension("bad").exists(),
            "the falsified record is quarantined"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_runs_are_never_persisted() {
        let dir = unit_dir("partial");
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let capped = CrashExplorer::new(
            &sys,
            CrashtestConfig {
                max_states: 10,
                ..Default::default()
            },
        )
        .with_memo(ExplorerMemo::new(&dir))
        .explore();
        assert!(capped.stats.state_capped);
        assert!(
            !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
            "a capped run must not write a memo file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
