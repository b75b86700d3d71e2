//! Persistent level verdicts for the search engine, and the file store
//! both persistence layers share.
//!
//! The deciders answer "is `T` n-discerning / n-recording?" one level at a
//! time, and a yes comes with a certificate that one [`Analysis`] re-checks
//! (a [`Witness`]). So the thing worth persisting is the per-level verdict,
//! not the analyses that produced it:
//!
//! * [`DiskCache`] keeps one small JSON file per `(type, condition,
//!   level)` holding that level's `Option<Witness>`, behind a header of
//!   format version, content [`type_fingerprint`], condition and level. A
//!   search reads the file before searching the level; a hit answers the
//!   level at once.
//! * [`VerdictStore`] is the file store under it, shared with
//!   `rcn-faults`' `ExplorerMemo`: writes go to a unique temp file and are
//!   published with an atomic rename, so concurrent invocations sharing a
//!   directory never observe half-written files; reads parse and validate
//!   the whole file; anything rejected is quarantined to `.bad` (evidence
//!   preserved, recompute-forever loops broken).
//!
//! Trust model: a stored verdict is used only if the file parses, the
//! header matches, and a stored witness has the level's arity and passes
//! [`check_discerning`] / [`check_recording`]. A falsified witness is
//! quarantined and the level recomputed. A stored refutation (`None`)
//! carries no certificate and is trusted like any persisted index — delete
//! the cache directory to rebuild from scratch.
//!
//! Fault tolerance: every filesystem call goes through the [`CacheIo`]
//! seam, so the workspace fail-point sweeps can fail, truncate, reorder or
//! duplicate each individual read/write/rename/create_dir/remove_file and
//! prove the fallback story holds at *every* injection point. Transient
//! write failures are retried once.
//!
//! [`check_discerning`]: crate::check_discerning
//! [`check_recording`]: crate::check_recording

use crate::engine::Condition;
use crate::witness::Witness;
use rcn_model::Fnv1a;
use rcn_obs::Tracer;
use rcn_spec::{ObjectType, OpId, ValueId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The filesystem operations the cache performs, abstracted so tests can
/// inject faults at every call site (see [`FaultyIo`]).
///
/// Implementations must be safe to share across the engine's worker
/// threads.
pub trait CacheIo: Send + Sync + fmt::Debug {
    /// Reads a whole file to a string.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] of the underlying filesystem (or an injected one).
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Writes `data` to `path`, replacing any existing file.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] of the underlying filesystem (or an injected one).
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Renames `from` to `to` (atomic on the same filesystem).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] of the underlying filesystem (or an injected one).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Creates `path` and any missing parents.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] of the underlying filesystem (or an injected one).
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Removes a file (used to clean up temp files after a failed publish).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] of the underlying filesystem (or an injected one).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem (the default [`CacheIo`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemIo;

impl CacheIo for SystemIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// What an injected fault does to the targeted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails with an [`io::Error`] and has no effect.
    Error,
    /// The operation processes only half its data: a read returns the
    /// first half of the file, a write silently persists only the first
    /// half of its bytes (a torn write that *reports success* — the
    /// nastiest case, caught only by the next reader's validation).
    /// Operations with no data to halve (rename, create_dir, remove_file)
    /// fail as [`FaultMode::Error`].
    Truncate,
    /// The faulted *write* reports success but its bytes reach the disk
    /// only after the **next** operation (of any kind) completes — and
    /// never, if the run issues no further operation. Models a reordered
    /// writeback buffer: a subsequent rename can observe the file missing,
    /// and the late flush can resurrect a path the store already moved or
    /// removed. Non-write operations fail as [`FaultMode::Error`].
    Reorder,
    /// The faulted *write* persists immediately **and** is executed a
    /// second time after the next operation completes — so a later rename
    /// or removal of the same path is silently undone by the replayed
    /// write. Models a duplicated journal entry. Non-write operations fail
    /// as [`FaultMode::Error`].
    Duplicate,
}

/// A [`CacheIo`] that injects exactly one fault: the `fail_at`-th
/// operation (0-based, counted across all five operation kinds) is hit
/// with the configured [`FaultMode`]; every other operation passes through
/// to the real filesystem. Sweeping `fail_at` over `0..ops_seen()` of a
/// clean run visits every injection point the cache has — the fail-point
/// sweep in the workspace tests proves classification survives all of
/// them.
#[derive(Debug)]
pub struct FaultyIo {
    fail_at: u64,
    mode: FaultMode,
    next_op: AtomicU64,
    injected: AtomicU64,
    /// A write deferred by [`FaultMode::Reorder`] or queued for replay by
    /// [`FaultMode::Duplicate`]; flushed after the next operation. The
    /// flush bypasses [`FaultyIo::trip`] so deferred traffic does not
    /// shift the sweep's operation indices.
    pending: Mutex<Option<(PathBuf, Vec<u8>)>>,
}

impl FaultyIo {
    /// Injects `mode` at the `fail_at`-th operation.
    pub fn new(fail_at: u64, mode: FaultMode) -> FaultyIo {
        FaultyIo {
            fail_at,
            mode,
            next_op: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            pending: Mutex::new(None),
        }
    }

    /// An io layer that never injects — used to count a run's operations
    /// (the sweep range).
    pub fn counting() -> FaultyIo {
        FaultyIo::new(u64::MAX, FaultMode::Error)
    }

    /// Operations issued so far.
    pub fn ops_seen(&self) -> u64 {
        self.next_op.load(Ordering::Relaxed)
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Claims the next operation index; `true` means this operation is the
    /// faulted one.
    fn trip(&self) -> bool {
        let hit = self.next_op.fetch_add(1, Ordering::Relaxed) == self.fail_at;
        if hit {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn error(kind: &str) -> io::Error {
        io::Error::other(format!("injected {kind} fault"))
    }

    /// Lands any deferred/duplicated write. Called after every
    /// non-faulted operation; best-effort and uncounted, exactly like a
    /// kernel writeback that happens to be late.
    fn flush_pending(&self) {
        if let Some((path, data)) = self.pending.lock().unwrap().take() {
            let _ = std::fs::write(&path, data);
        }
    }

    /// Runs the underlying operation, then lands any pending write
    /// *after* it — the ordering that makes Reorder/Duplicate faults
    /// visible to the store's rename/remove traffic.
    fn then_flush<T>(&self, result: io::Result<T>) -> io::Result<T> {
        self.flush_pending();
        result
    }
}

impl CacheIo for FaultyIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        if self.trip() {
            return match self.mode {
                FaultMode::Error | FaultMode::Reorder | FaultMode::Duplicate => {
                    Err(Self::error("read"))
                }
                FaultMode::Truncate => {
                    let text = std::fs::read_to_string(path)?;
                    let mut cut = text.len() / 2;
                    while cut > 0 && !text.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    Ok(text[..cut].to_string())
                }
            };
        }
        self.then_flush(std::fs::read_to_string(path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if self.trip() {
            return match self.mode {
                FaultMode::Error => Err(Self::error("write")),
                // Torn write: half the bytes land, success is reported.
                FaultMode::Truncate => std::fs::write(path, &data[..data.len() / 2]),
                // Reordered write: success is reported, nothing lands yet.
                FaultMode::Reorder => {
                    *self.pending.lock().unwrap() = Some((path.to_path_buf(), data.to_vec()));
                    Ok(())
                }
                // Duplicated write: lands now and replays after the next op.
                FaultMode::Duplicate => {
                    *self.pending.lock().unwrap() = Some((path.to_path_buf(), data.to_vec()));
                    std::fs::write(path, data)
                }
            };
        }
        self.then_flush(std::fs::write(path, data))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.trip() {
            return Err(Self::error("rename"));
        }
        self.then_flush(std::fs::rename(from, to))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if self.trip() {
            return Err(Self::error("create_dir"));
        }
        self.then_flush(std::fs::create_dir_all(path))
    }

    // No data to halve/defer: non-write faults fail like Error.
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if self.trip() {
            return Err(Self::error("remove_file"));
        }
        self.then_flush(std::fs::remove_file(path))
    }
}

/// Version stamp written into every cache file. Bump on any change to the
/// file layout; a file with any other version is quarantined to `.bad` on
/// first load and its level recomputed.
///
/// History: v1 and v3 stored every analysis of a level; v2 additionally
/// stored each analysis's `firsts` reachability labels; v4 stores only the
/// level's verdict, one file per condition.
pub const CACHE_FORMAT_VERSION: u32 = 4;

/// 64-bit FNV-1a content hash of a type's *semantics*: its dimensions and
/// the full `(value, op) → (response, next)` transition table.
///
/// Two types with the same fingerprint have identical sequential
/// specifications (up to hash collision), so their verdicts are
/// interchangeable — names and display strings deliberately do not
/// participate. This keys the on-disk cache: editing a table invalidates
/// its cached verdicts automatically.
pub fn type_fingerprint<T: ObjectType + ?Sized>(ty: &T) -> u64 {
    let mut hash = Fnv1a::new();
    hash.mix(ty.num_values() as u64);
    hash.mix(ty.num_ops() as u64);
    hash.mix(ty.num_responses() as u64);
    for v in 0..ty.num_values() {
        for op in 0..ty.num_ops() {
            let out = ty.apply(ValueId(v as u16), OpId(op as u16));
            hash.mix(out.response.index() as u64);
            hash.mix(out.next.index() as u64);
        }
    }
    hash.finish()
}

/// The tracer event and counter names one [`VerdictStore`] emits; each
/// persistence layer declares its own `static` set under its prefix.
#[derive(Debug)]
pub struct StoreNames {
    /// Event per read (value = bytes): detail `miss`, `ok`, or the reason
    /// the file was rejected.
    pub load: &'static str,
    /// Event per publish (value = bytes): detail `ok` or `failed`.
    pub store: &'static str,
    /// Event per file moved aside to `.bad` (detail = its path).
    pub quarantine: &'static str,
    /// Counter of successful publishes.
    pub stores: &'static str,
    /// Counter of publishes that failed after their retries.
    pub store_failures: &'static str,
    /// Counter of operations that failed once and were retried.
    pub retries: &'static str,
    /// Counter of files moved aside to `.bad`.
    pub quarantined: &'static str,
}

/// Makes concurrent [`VerdictStore::store`] calls in one process use
/// distinct temp paths (the process id alone is not enough once several
/// threads publish into one directory).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of small JSON verdict files: the storage under
/// [`DiskCache`] and `rcn-faults`' `ExplorerMemo`.
///
/// Cheap to clone and to construct; the directory is created lazily on the
/// first write. Every failure is silent towards the caller — a miss, a
/// rejected file, a failed publish — because the store only ever saves
/// work and must never turn a computable answer into a failure.
#[derive(Debug, Clone)]
pub struct VerdictStore {
    dir: PathBuf,
    io: Arc<dyn CacheIo>,
    names: &'static StoreNames,
}

impl VerdictStore {
    /// A store on `dir` performing all filesystem operations through `io`
    /// and reporting under `names`.
    pub fn new(
        dir: impl Into<PathBuf>,
        io: Arc<dyn CacheIo>,
        names: &'static StoreNames,
    ) -> VerdictStore {
        VerdictStore {
            dir: dir.into(),
            io,
            names,
        }
    }

    /// Reads and parses the file `name`, then hands it to `accept`. A
    /// missing or unreadable file is a miss; a file that does not parse,
    /// or that `accept` rejects (with its reason), is quarantined to
    /// `.bad`. Both return `None`.
    pub fn load<F: Deserialize, T>(
        &self,
        name: &str,
        tracer: &Tracer,
        accept: impl FnOnce(F) -> Result<T, &'static str>,
    ) -> Option<T> {
        let path = self.dir.join(name);
        let Ok(text) = self.io.read_to_string(&path) else {
            tracer.event(self.names.load, 0, "miss");
            return None;
        };
        let bytes = i64::try_from(text.len()).unwrap_or(i64::MAX);
        let verdict = serde_json::from_str::<F>(&text)
            .map_err(|_| "corrupt")
            .and_then(accept);
        match verdict {
            Ok(value) => {
                tracer.event(self.names.load, bytes, "ok");
                Some(value)
            }
            Err(reason) => {
                tracer.event(self.names.load, bytes, reason);
                // Best-effort: a failed rename leaves the file to be
                // rejected again next time.
                let _ = self.io.rename(&path, &path.with_extension("bad"));
                tracer.counter(self.names.quarantined).incr();
                if tracer.recording() {
                    tracer.event(self.names.quarantine, 0, &path.to_string_lossy());
                }
                None
            }
        }
    }

    /// Publishes `file` as `name` atomically (write a unique temp file,
    /// rename it into place), retrying each operation once so a transient
    /// fault costs nothing. Returns `true` on success.
    pub fn store<F: Serialize>(&self, name: &str, file: &F, tracer: &Tracer) -> bool {
        let Ok(json) = serde_json::to_string(file) else {
            return false;
        };
        let retries = tracer.counter(self.names.retries);
        let retry = |op: &dyn Fn() -> io::Result<()>| {
            op().is_ok() || {
                retries.incr();
                op().is_ok()
            }
        };
        let path = self.dir.join(name);
        // The process id separates concurrent invocations, the sequence
        // number concurrent threads within one.
        let tmp = path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let ok = retry(&|| self.io.create_dir_all(&self.dir)) && {
            let published = retry(&|| self.io.write(&tmp, json.as_bytes()))
                && retry(&|| self.io.rename(&tmp, &path));
            if !published {
                // No temp litter behind a failed publish. Through the io
                // seam like everything else, so the fail-point sweeps
                // cover it.
                let _ = self.io.remove_file(&tmp);
            }
            published
        };
        let names = self.names;
        tracer
            .counter(if ok {
                names.stores
            } else {
                names.store_failures
            })
            .incr();
        tracer.event(
            names.store,
            i64::try_from(json.len()).unwrap_or(i64::MAX),
            if ok { "ok" } else { "failed" },
        );
        ok
    }
}

/// The names the [`DiskCache`] reports under.
static CACHE_NAMES: StoreNames = StoreNames {
    load: "cache.load",
    store: "cache.store",
    quarantine: "cache.quarantine",
    stores: "cache.stores",
    store_failures: "cache.store_failures",
    retries: "cache.retries",
    quarantined: "cache.quarantined",
};

/// The on-disk shape of one level's verdict.
#[derive(Serialize, Deserialize)]
struct LevelFile {
    /// Must equal [`CACHE_FORMAT_VERSION`].
    version: u32,
    /// Must equal the [`type_fingerprint`] of the type being searched.
    fingerprint: u64,
    /// `discerning` or `recording`.
    condition: String,
    /// The level `n` (number of processes).
    level: u64,
    /// The level's witness; `None` means the level is refuted.
    witness: Option<Witness>,
}

/// A directory of persisted level verdicts.
///
/// Cheap to clone and to construct; the directory is created lazily on the
/// first write. A level whose file is missing, damaged, stale or falsified
/// is simply searched again.
///
/// # Examples
///
/// ```
/// use rcn_decide::{DiskCache, SearchEngine};
/// use rcn_spec::zoo::TestAndSet;
///
/// let dir = std::env::temp_dir().join("rcn-doctest-cache");
/// let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
/// cold.classify(&TestAndSet::new(), 3).unwrap();
///
/// let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
/// warm.classify(&TestAndSet::new(), 3).unwrap();
/// assert!(warm.stats().disk_hits > 0, "warm run is served from disk");
/// assert_eq!(warm.stats().analyses_computed, 0);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct DiskCache {
    store: VerdictStore,
}

impl DiskCache {
    /// Creates a handle on `dir` (not touched until the first write).
    pub fn new(dir: impl Into<PathBuf>) -> DiskCache {
        DiskCache::with_io(dir, Arc::new(SystemIo))
    }

    /// Creates a handle on `dir` performing all filesystem operations
    /// through `io` — the seam the fault-injection tests use.
    pub fn with_io(dir: impl Into<PathBuf>, io: Arc<dyn CacheIo>) -> DiskCache {
        DiskCache {
            store: VerdictStore::new(dir, io, &CACHE_NAMES),
        }
    }

    /// The file that holds the level-`n` verdict of `cond` for a type with
    /// this fingerprint.
    fn file_name(fingerprint: u64, cond: Condition, n: usize) -> String {
        format!("{}-{fingerprint:016x}-n{n}.json", cond.name())
    }

    /// The stored level-`n` verdict of `cond`, if a valid one is on disk:
    /// `Some(Some(witness))` for a level that holds, `Some(None)` for a
    /// refuted one. A stored witness is re-checked against `ty`. The read,
    /// and any quarantine, is reported to `tracer` as `cache.*` events and
    /// counters.
    pub(crate) fn load<T: ObjectType + ?Sized>(
        &self,
        ty: &T,
        fingerprint: u64,
        cond: Condition,
        n: usize,
        tracer: &Tracer,
    ) -> Option<Option<Witness>> {
        let name = Self::file_name(fingerprint, cond, n);
        self.store.load(&name, tracer, |file: LevelFile| {
            if file.version != CACHE_FORMAT_VERSION
                || file.fingerprint != fingerprint
                || file.condition != cond.name()
                || file.level != n as u64
            {
                return Err("header-mismatch");
            }
            match &file.witness {
                Some(w) if w.n() != n || !cond.check(ty, w) => Err("falsified-witness"),
                _ => Ok(file.witness),
            }
        })
    }

    /// Persists the finished level-`n` verdict of `cond`, reporting the
    /// publish (and any retry) to `tracer`. Returns `true` on success.
    pub(crate) fn store(
        &self,
        fingerprint: u64,
        cond: Condition,
        n: usize,
        witness: &Option<Witness>,
        tracer: &Tracer,
    ) -> bool {
        let file = LevelFile {
            version: CACHE_FORMAT_VERSION,
            fingerprint,
            condition: cond.name().to_string(),
            level: n as u64,
            witness: witness.clone(),
        };
        self.store
            .store(&Self::file_name(fingerprint, cond, n), &file, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_discerning_witness;
    use rcn_spec::zoo::{Register, TestAndSet, Tnn};

    fn unit_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rcn-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// The level-2 discerning verdict of test-and-set, a witness.
    fn tas_verdict() -> Option<Witness> {
        let w = find_discerning_witness(&TestAndSet::new(), 2);
        assert!(w.is_some(), "tas is 2-discerning");
        w
    }

    const D: Condition = Condition::Discerning;

    #[test]
    fn fingerprint_is_semantic_not_nominal() {
        // Same table, different parameters ⇒ different fingerprints.
        assert_ne!(
            type_fingerprint(&Tnn::new(4, 1)),
            type_fingerprint(&Tnn::new(4, 2))
        );
        assert_ne!(
            type_fingerprint(&Register::new(2)),
            type_fingerprint(&Register::new(3))
        );
        // Deterministic across calls.
        assert_eq!(
            type_fingerprint(&TestAndSet::new()),
            type_fingerprint(&TestAndSet::new())
        );
    }

    #[test]
    fn load_ignores_missing_and_garbage_files() {
        let dir = unit_dir("garbage");
        let cache = DiskCache::new(&dir);
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        // Missing directory entirely: silent miss.
        assert_eq!(cache.load(&tas, fp, D, 2, &Tracer::disabled()), None);
        // Garbage bytes at the expected path: silent miss.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(DiskCache::file_name(fp, D, 2)), b"{not json").unwrap();
        assert_eq!(cache.load(&tas, fp, D, 2, &Tracer::disabled()), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wholesale_corrupt_files_are_quarantined_to_bad() {
        let dir = unit_dir("quarantine");
        let cache = DiskCache::new(&dir);
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(DiskCache::file_name(fp, D, 2));
        std::fs::write(&path, b"{definitely not a cache file").unwrap();
        assert_eq!(cache.load(&tas, fp, D, 2, &Tracer::disabled()), None);
        assert!(!path.exists(), "corrupt file must be moved aside");
        assert!(
            path.with_extension("bad").exists(),
            "evidence must be preserved as .bad"
        );
        // The slot is free again: a store publishes a fresh, loadable file.
        assert!(cache.store(fp, D, 2, &tas_verdict(), &Tracer::disabled()));
        assert_eq!(
            cache.load(&tas, fp, D, 2, &Tracer::disabled()),
            Some(tas_verdict())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn falsified_and_misplaced_witnesses_are_quarantined() {
        let dir = unit_dir("falsified");
        let cache = DiskCache::new(&dir);
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        let witness = tas_verdict().unwrap();
        // Test-and-set is not 2-recording: the discerning witness,
        // stored as a recording verdict, fails its re-check.
        assert!(cache.store(
            fp,
            Condition::Recording,
            2,
            &Some(witness.clone()),
            &Tracer::disabled()
        ));
        assert_eq!(
            cache.load(&tas, fp, Condition::Recording, 2, &Tracer::disabled()),
            None
        );
        let name = DiskCache::file_name(fp, Condition::Recording, 2);
        assert!(dir.join(name).with_extension("bad").exists());
        // A witness of the wrong arity is rejected even if it checks.
        assert!(cache.store(fp, D, 3, &Some(witness), &Tracer::disabled()));
        assert_eq!(cache.load(&tas, fp, D, 3, &Tracer::disabled()), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_stores_to_one_slot_never_collide() {
        // Regression: the temp path used to be `tmp-{pid}` only, so two
        // engine threads publishing the same file raced on one temp file
        // (one writer's rename could publish the other's half-written
        // bytes). The per-call sequence number makes every in-flight store
        // use a private temp path.
        let dir = unit_dir("concurrent");
        let cache = DiskCache::new(&dir);
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        let verdict = tas_verdict();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (cache, verdict) = (&cache, &verdict);
                scope.spawn(move || {
                    for _ in 0..16 {
                        assert!(cache.store(fp, D, 2, verdict, &Tracer::disabled()));
                    }
                });
            }
        });
        // Whatever store won, the published file is complete and valid.
        assert_eq!(
            cache.load(&tas, fp, D, 2, &Tracer::disabled()),
            Some(verdict)
        );
        // No temp litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.contains("tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_write_faults_are_retried_once() {
        let dir = unit_dir("retry");
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        // Ops of one store: create_dir (0), write (1), rename (2). Fail
        // each of them once; the in-call retry must absorb every one.
        for fail_at in 0..3 {
            let io = Arc::new(FaultyIo::new(fail_at, FaultMode::Error));
            let cache = DiskCache::with_io(&dir, io.clone() as Arc<dyn CacheIo>);
            assert!(
                cache.store(fp, D, 2, &tas_verdict(), &Tracer::disabled()),
                "store must survive a transient fault at op {fail_at}"
            );
            assert_eq!(io.injected(), 1, "fault at op {fail_at} must fire");
            assert_eq!(
                DiskCache::new(&dir).load(&tas, fp, D, 2, &Tracer::disabled()),
                Some(tas_verdict())
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A [`CacheIo`] whose writes and renames always fail, recording every
    /// `remove_file` it receives — proves the failed-publish cleanup goes
    /// through the io seam, so the fail-point sweep can cover it and a
    /// non-filesystem `CacheIo` never has its temp path touched on the real
    /// filesystem.
    #[derive(Debug, Default)]
    struct WritelessIo {
        removed: Mutex<Vec<PathBuf>>,
    }

    impl CacheIo for WritelessIo {
        fn read_to_string(&self, _path: &Path) -> io::Result<String> {
            Err(io::Error::other("writeless"))
        }

        fn write(&self, _path: &Path, _data: &[u8]) -> io::Result<()> {
            Err(io::Error::other("writeless"))
        }

        fn rename(&self, _from: &Path, _to: &Path) -> io::Result<()> {
            Err(io::Error::other("writeless"))
        }

        fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
            Ok(())
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.removed.lock().unwrap().push(path.to_path_buf());
            Ok(())
        }
    }

    #[test]
    fn failed_publish_cleanup_goes_through_the_io_seam() {
        let io = Arc::new(WritelessIo::default());
        let cache =
            DiskCache::with_io("/nonexistent/rcn-seam-test", io.clone() as Arc<dyn CacheIo>);
        let fp = type_fingerprint(&TestAndSet::new());
        assert!(!cache.store(fp, D, 2, &tas_verdict(), &Tracer::disabled()));
        let removed = io.removed.lock().unwrap();
        assert_eq!(
            removed.len(),
            1,
            "cleanup must target exactly the temp file"
        );
        assert!(
            removed[0].to_string_lossy().contains("tmp-"),
            "cleanup must target the temp path, got {:?}",
            removed[0]
        );
    }

    #[test]
    fn store_reports_events_and_counters_under_its_names() {
        let dir = unit_dir("traced");
        let tracer = Tracer::ring(64);
        let cache = DiskCache::new(&dir);
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        assert!(cache.store(fp, D, 2, &tas_verdict(), &tracer));
        assert!(cache.load(&tas, fp, D, 3, &tracer).is_none());
        std::fs::write(dir.join(DiskCache::file_name(fp, D, 2)), b"{torn").unwrap();
        assert!(cache.load(&tas, fp, D, 2, &tracer).is_none());
        let snap = tracer.snapshot().expect("enabled tracer");
        assert_eq!(snap.counter("cache.stores"), Some(1));
        assert_eq!(snap.counter("cache.quarantined"), Some(1));
        // `ring_events` drains the ring: read it once.
        let events = tracer.ring_events();
        let loads: Vec<&str> = events
            .iter()
            .filter(|e| e.name == "cache.load")
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(loads, ["miss", "corrupt"]);
        assert!(events.iter().any(|e| e.name == "cache.quarantine"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_io_counts_and_injects_once() {
        let io = FaultyIo::counting();
        let dir = std::env::temp_dir();
        let missing = dir.join("rcn-cache-no-such-file");
        assert!(CacheIo::read_to_string(&io, &missing).is_err());
        assert!(CacheIo::create_dir_all(&io, &dir).is_ok());
        assert_eq!(io.ops_seen(), 2);
        assert_eq!(io.injected(), 0);

        let faulty = FaultyIo::new(1, FaultMode::Error);
        assert!(CacheIo::create_dir_all(&faulty, &dir).is_ok());
        assert!(CacheIo::create_dir_all(&faulty, &dir).is_err());
        assert!(CacheIo::create_dir_all(&faulty, &dir).is_ok());
        assert_eq!(faulty.injected(), 1);
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = unit_dir("roundtrip");
        let cache = DiskCache::new(&dir);
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        assert!(cache.store(fp, D, 2, &tas_verdict(), &Tracer::disabled()));
        assert!(cache.store(fp, D, 3, &None, &Tracer::disabled()));
        assert_eq!(
            cache.load(&tas, fp, D, 2, &Tracer::disabled()),
            Some(tas_verdict())
        );
        // A stored refutation is a hit too.
        assert_eq!(cache.load(&tas, fp, D, 3, &Tracer::disabled()), Some(None));
        // Another level's or condition's file does not exist.
        assert_eq!(cache.load(&tas, fp, D, 4, &Tracer::disabled()), None);
        assert_eq!(
            cache.load(&tas, fp, Condition::Recording, 2, &Tracer::disabled()),
            None
        );
        // A fingerprint mismatch inside the file is rejected even at the
        // right path.
        let path = dir.join(DiskCache::file_name(fp, D, 2));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace(&format!("\"fingerprint\":{fp}"), "\"fingerprint\":1"),
        )
        .unwrap();
        assert_eq!(cache.load(&tas, fp, D, 2, &Tracer::disabled()), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
