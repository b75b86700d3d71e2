//! Persistent crash-exploration verdicts: repeated `crashtest` runs
//! short-circuit from disk.
//!
//! A crash exploration is pure in `(system, budget)` — the same system
//! explored under the same [`CrashtestConfig`] always yields the same
//! verdict. This module makes that purity durable through `rcn-decide`'s
//! [`VerdictStore`], the file store under its `DiskCache` too:
//!
//! * one JSON file per `(system fingerprint, budget triple, fault
//!   model)`, named `crashtest-<fp>-c<K>-d<D>-s<S>-m<model>.json`,
//!   carrying a format-version header so stale layouts degrade to a
//!   cold run. The fault model is part of the key *and* the header: a
//!   clean verdict under `per-process` proves nothing about `system` or
//!   `mid-op` crashes, so a verdict written under one model is never
//!   consumed under another;
//! * the key is a *content* hash ([`system_fingerprint`]): process
//!   count, inputs, every object's full transition table and initial
//!   value, plus a bounded walk of the crash-free step graph — renaming
//!   a protocol changes nothing, editing its table invalidates its file;
//! * only *certified* verdicts are stored: a found counterexample (a
//!   definitive verdict whatever else was cut short) or an exhaustive
//!   clean run. A file holds the verdict's schedule (empty means
//!   certified clean) and the effort of the run that produced it. Partial
//!   runs (state-capped or timed out) are never stored;
//! * a warm run short-circuits on either verdict: a stored counterexample
//!   is first replayed through the executor (a schedule that does not fit
//!   the budget or does not violate is damage, and quarantined), a stored
//!   clean verdict is taken as is. The short-circuited run reports 0
//!   states and 0 events, and [`resumed_states`] reports the stored run's
//!   states;
//! * damage handling is the store's: unparseable or wrong-header files
//!   are quarantined to `.bad`, writes publish via unique temp file +
//!   atomic rename with one retry per operation, and every filesystem
//!   call goes through the [`CacheIo`] seam so the fail-point sweep covers
//!   each injection point.
//!
//! Trust model: a counterexample is replay-checked; a clean verdict has no
//! certificate short of re-running the search, so a falsified clean file
//! is indistinguishable from a genuine one. Delete the memo directory to
//! rebuild from scratch.
//!
//! [`resumed_states`]: crate::ExplorerStats::resumed_states

use crate::explorer::{Counterexample, CrashtestConfig, CrashtestReport, ExplorerStats};
use rcn_decide::{type_fingerprint, CacheIo, StoreNames, SystemIo, VerdictStore};
use rcn_model::{
    charge_crashes, event_enabled, Action, Configuration, Event, Fnv1a, ProcessId, Schedule,
    System, WordHasher,
};
use rcn_obs::Tracer;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::PathBuf;
use std::sync::Arc;

/// Version stamp written into every explorer-memo file. Bump on any
/// change to the serialized shape; readers quarantine files with any
/// other version.
///
/// Version history: 1 = budget triple only; 2 = the fault model joined
/// the header (and the file name), because a verdict under `per-process`
/// says nothing about `system` or `mid-op` crashes; 3 = the verdict alone
/// (schedule, `states_visited`, `depth_limited`), without the certified
/// memo facts v1 and v2 stored beside it.
pub const EXPLORER_MEMO_VERSION: u32 = 3;

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
    let mut hash = Fnv1a::new();
    let mix_config = |hash: &mut Fnv1a, config: &Configuration| {
        for state in &config.states {
            hash.mix(state.words().len() as u64);
            for &w in state.words() {
                hash.mix(u64::from(w));
            }
        }
        for &v in &config.values {
            hash.mix(u64::from(v.index() as u16));
        }
        for d in &config.decided {
            match d {
                Some(v) => hash.mix(u64::from(*v) + 2),
                None => hash.mix(1),
            }
        }
    };

    hash.mix(system.n() as u64);
    for &input in system.inputs() {
        hash.mix(u64::from(input));
    }
    let layout = system.layout();
    for id in layout.object_ids() {
        hash.mix(type_fingerprint(layout.object_type(id)));
        hash.mix(layout.initial(id).index() as u64);
    }

    // Bounded BFS over crash-free steps. `System::apply` is total (steps
    // of decided processes are no-ops), so unlike hashing raw transition
    // tables this can never panic on an infeasible (state, response)
    // combination.
    //
    // A configuration is keyed by its packed words. The queue is every
    // configuration reached, as words back to back in discovery order; each
    // is unpacked into `config` once, and every successor is built in
    // `next`.
    let mut config = system.initial_config();
    let mut next = config.clone();
    let mut key = Vec::new();
    config.pack_into(&mut key);
    let mut queue = key.clone();
    let mut seen: HashSet<Vec<u32>, BuildHasherDefault<WordHasher>> = HashSet::default();
    seen.insert(key.clone());
    let mut head = 0;
    let mut truncated = false;
    while head < queue.len() {
        head += config.unpack_from(&queue[head..]);
        mix_config(&mut hash, &config);
        for i in 0..system.n() {
            let p = ProcessId::new(i as u16);
            if matches!(system.action_of(&config, p), Action::Output(_)) {
                continue;
            }
            next.clone_from(&config);
            let effect = system.apply(&mut next, Event::Step(p));
            hash.mix(i as u64);
            hash.mix(u64::from(effect.violation.is_some()));
            if seen.len() >= FINGERPRINT_WALK_CAP {
                truncated = true;
                continue;
            }
            key.clear();
            next.pack_into(&mut key);
            if !seen.contains(&key) {
                queue.extend_from_slice(&key);
                seen.insert(key.clone());
            }
        }
    }
    hash.mix(u64::from(truncated));
    hash.finish()
}

/// The names the [`ExplorerMemo`] reports under.
static MEMO_NAMES: StoreNames = StoreNames {
    load: "crashtest.memo.load",
    store: "crashtest.memo.store",
    quarantine: "crashtest.memo.quarantine",
    stores: "crashtest.memo.stores",
    store_failures: "crashtest.memo.store_failures",
    retries: "crashtest.memo.retries",
    quarantined: "crashtest.memo.quarantined",
};

/// The on-disk file shape: versioned header, budget triple, fault model,
/// verdict.
#[derive(Serialize, Deserialize)]
struct MemoFile {
    /// Must equal [`EXPLORER_MEMO_VERSION`].
    version: u32,
    /// Must equal the [`system_fingerprint`] of the system explored.
    fingerprint: u64,
    max_crashes: u64,
    max_depth: u64,
    max_states: u64,
    /// The three [`FaultModel`](rcn_model::FaultModel) flags the verdict
    /// was computed under.
    per_process: bool,
    system_wide: bool,
    mid_operation: bool,
    /// Paper-notation schedule (`p0 c1 …`); `""` means certified clean.
    schedule: String,
    /// States the storing run visited (a warm run's `resumed_states`).
    states_visited: u64,
    depth_limited: bool,
}

impl MemoFile {
    /// Whether this file's header is the one `config` on the system with
    /// this fingerprint would write.
    fn matches(&self, fingerprint: u64, config: &CrashtestConfig) -> bool {
        self.version == EXPLORER_MEMO_VERSION
            && self.fingerprint == fingerprint
            && self.max_crashes == config.max_crashes as u64
            && self.max_depth == config.max_depth as u64
            && self.max_states == config.max_states as u64
            && self.per_process == config.fault_model.per_process
            && self.system_wide == config.fault_model.system_wide
            && self.mid_operation == config.fault_model.mid_operation
    }
}

/// A directory of persisted crash-exploration verdicts.
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
/// assert_eq!(warm.stats.states_visited, 0, "warm run short-circuits");
/// assert_eq!(warm.stats.resumed_states, cold.stats.states_visited);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct ExplorerMemo {
    store: VerdictStore,
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
            store: VerdictStore::new(dir, io, &MEMO_NAMES),
        }
    }

    /// The file that holds the verdict for this exact `(system, budget)`
    /// pair.
    fn file_name(fingerprint: u64, config: &CrashtestConfig) -> String {
        format!(
            "crashtest-{fingerprint:016x}-c{}-d{}-s{}-m{}.json",
            config.max_crashes,
            config.max_depth,
            config.max_states,
            config.fault_model.key()
        )
    }

    /// The stored verdict for this exact `(system, budget)` pair, as a
    /// short-circuited report: 0 states and 0 events, `resumed_states` =
    /// the stored run's states. A stored counterexample is replayed before
    /// being trusted (its divergence is left to the caller's diagnosis).
    pub(crate) fn load(
        &self,
        system: &System,
        fingerprint: u64,
        config: &CrashtestConfig,
        tracer: &Tracer,
    ) -> Option<CrashtestReport> {
        let name = Self::file_name(fingerprint, config);
        self.store.load(&name, tracer, |file: MemoFile| {
            if !file.matches(fingerprint, config) {
                return Err("header-mismatch");
            }
            let counterexample = if file.schedule.is_empty() {
                None
            } else {
                let cex = replayed_counterexample(system, config, &file.schedule);
                Some(cex.ok_or("replay-mismatch")?)
            };
            Ok(CrashtestReport {
                stats: ExplorerStats {
                    resumed_states: file.states_visited,
                    depth_limited: file.depth_limited,
                    ..ExplorerStats::default()
                },
                counterexample,
            })
        })
    }

    /// Persists a certified verdict: a found counterexample or an
    /// exhaustive clean run. Partial runs are not eligible and return
    /// `false` without touching the disk. Returns `true` on a successful
    /// publish.
    pub(crate) fn store(
        &self,
        fingerprint: u64,
        config: &CrashtestConfig,
        report: &CrashtestReport,
        tracer: &Tracer,
    ) -> bool {
        if report.counterexample.is_none() && !report.is_certified_clean() {
            return false;
        }
        let file = MemoFile {
            version: EXPLORER_MEMO_VERSION,
            fingerprint,
            max_crashes: config.max_crashes as u64,
            max_depth: config.max_depth as u64,
            max_states: config.max_states as u64,
            per_process: config.fault_model.per_process,
            system_wide: config.fault_model.system_wide,
            mid_operation: config.fault_model.mid_operation,
            schedule: report
                .counterexample
                .as_ref()
                .map(|c| c.schedule.to_string())
                .unwrap_or_default(),
            states_visited: report.stats.states_visited,
            depth_limited: report.stats.depth_limited,
        };
        self.store
            .store(&Self::file_name(fingerprint, config), &file, tracer)
    }
}

/// Replays a stored violating schedule; `None` means the record is
/// damaged (unparseable, over budget, or no violation on replay).
fn replayed_counterexample(
    system: &System,
    config: &CrashtestConfig,
    schedule: &str,
) -> Option<Counterexample> {
    let schedule: Schedule = schedule.parse().ok()?;
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
    Some(Counterexample {
        schedule,
        violation: violation?,
        divergence: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashExplorer;
    use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree};
    use std::path::Path;

    fn unit_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rcn-explorer-memo-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn memo_path(dir: &Path, sys: &System, config: &CrashtestConfig) -> PathBuf {
        dir.join(ExplorerMemo::file_name(system_fingerprint(sys), config))
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

    /// The fingerprints name the memo files, so a change to the walk that
    /// moves any of these digests orphans every stored verdict.
    #[test]
    fn fingerprints_are_pinned() {
        use rcn_protocols::TournamentConsensus;
        let sticky = || Arc::new(rcn_spec::zoo::StickyBit::new());
        // The first 4-value random readable table (seed 7) the tournament
        // accepts at two processes.
        let table = {
            let mut rng = rcn_decide::synthesis::rng(7);
            std::iter::repeat_with(|| rcn_decide::synthesis::random_readable_table(&mut rng, 4, 2))
                .take(40)
                .find(|t| TournamentConsensus::try_new(Arc::new(t.clone()), vec![0, 1]).is_ok())
                .expect("a table the tournament accepts")
        };
        let systems = [
            ("tas 0,1", TasConsensus::system(vec![0, 1])),
            ("tas 1,0", TasConsensus::system(vec![1, 0])),
            (
                "tnn-wait-free:2,1 0,1",
                TnnWaitFree::system(2, 1, vec![0, 1]),
            ),
            (
                "tnn-wait-free:2,1 1,0",
                TnnWaitFree::system(2, 1, vec![1, 0]),
            ),
            (
                "tnn-recoverable:5,2 0,1",
                TnnRecoverable::system(5, 2, vec![0, 1]),
            ),
            (
                "tnn-recoverable:5,2 1,0",
                TnnRecoverable::system(5, 2, vec![1, 0]),
            ),
            (
                "tournament:sticky 0,1",
                TournamentConsensus::try_new(sticky(), vec![0, 1]).unwrap(),
            ),
            (
                "tournament:sticky 1,0,1",
                TournamentConsensus::try_new(sticky(), vec![1, 0, 1]).unwrap(),
            ),
            // Its crash-free walk reaches the cap, so the digest pins the
            // truncation rule too.
            (
                "tournament:sticky 0,1,0,1",
                TournamentConsensus::try_new(sticky(), vec![0, 1, 0, 1]).unwrap(),
            ),
            (
                "tournament:table 0,1",
                TournamentConsensus::try_new(Arc::new(table), vec![0, 1]).unwrap(),
            ),
        ];
        let got: Vec<(&str, u64)> = systems
            .iter()
            .map(|(label, sys)| (*label, system_fingerprint(sys)))
            .collect();
        let want: [(&str, u64); 10] = [
            ("tas 0,1", 0xac91_12fc_35d8_53a2),
            ("tas 1,0", 0x5e1a_b3f2_8cc6_f422),
            ("tnn-wait-free:2,1 0,1", 0xbbdd_792d_1026_a8bc),
            ("tnn-wait-free:2,1 1,0", 0x08a4_5aa1_9064_019c),
            ("tnn-recoverable:5,2 0,1", 0xa006_4757_e37b_b552),
            ("tnn-recoverable:5,2 1,0", 0xecf0_5caa_4d40_b232),
            ("tournament:sticky 0,1", 0x2b56_228a_0597_08b3),
            ("tournament:sticky 1,0,1", 0x4138_1089_8dc6_c13c),
            ("tournament:sticky 0,1,0,1", 0x27ae_f4b0_ce6d_6f93),
            ("tournament:table 0,1", 0xaa48_2b64_d02f_b7ee),
        ];
        assert_eq!(got, want);
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
        assert_eq!(warm.stats.states_visited, 0, "{}", warm.stats);
        assert_eq!(warm.stats.events_applied, 0, "{}", warm.stats);
        assert_eq!(warm.stats.resumed_states, cold.stats.states_visited);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_resume_short_circuits_on_a_stored_clean_verdict() {
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
        assert_eq!(warm.stats.states_visited, 0, "{}", warm.stats);
        assert_eq!(warm.stats.events_applied, 0, "{}", warm.stats);
        assert_eq!(warm.stats.resumed_states, cold.stats.states_visited);
        assert_eq!(warm.stats.depth_limited, cold.stats.depth_limited);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memo_traffic_is_reported_under_crashtest_memo() {
        let dir = unit_dir("traced");
        let sys = TasConsensus::system(vec![0, 1]);
        let tracer = Tracer::metrics_only();
        for _ in 0..2 {
            CrashExplorer::new(&sys, CrashtestConfig::default())
                .with_tracer(tracer.clone())
                .with_memo(ExplorerMemo::new(&dir))
                .explore();
        }
        let snap = tracer.snapshot().expect("enabled tracer");
        // The cold run stores, the warm run short-circuits.
        assert_eq!(snap.counter("crashtest.memo.stores"), Some(1));
        assert!(snap.counter("crashtest.resumed_states") > Some(0));
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
        let path = memo_path(&dir, &sys, &cfg);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, b"{definitely not a memo file").unwrap();

        let report = CrashExplorer::new(&sys, cfg)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
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
        let cold = CrashExplorer::new(&sys, cfg)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        let cold_cex = cold.counterexample.unwrap();
        let path = memo_path(&dir, &sys, &cfg);
        // Falsify the stored schedule into a harmless crash-free step —
        // a well-formed record whose replay finds no violation.
        let text = std::fs::read_to_string(&path).unwrap();
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
        assert_eq!(warm.stats.resumed_states, 0, "recomputed, not resumed");
        assert!(
            path.with_extension("bad").exists(),
            "the falsified record is quarantined"
        );
        // The recompute republished a genuine record.
        let again = CrashExplorer::new(&sys, cfg)
            .with_memo(ExplorerMemo::new(&dir))
            .explore();
        assert_eq!(again.stats.resumed_states, cold.stats.states_visited);
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
