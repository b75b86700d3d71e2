//! Persistent (on-disk) analysis caching for the search engine.
//!
//! A reachability [`Analysis`] is the expensive part of every decider
//! instance, and the same `(initial value, op-multiset)` analyses recur
//! across CLI invocations — repeated `classify` / `compare` / `witness`
//! calls on the same type rebuild identical reachability graphs from
//! scratch. This module makes the engine's per-call memo cache *durable*:
//!
//! * [`DiskCache`] serializes analyses to JSON files in a cache directory,
//!   one file per `(type, level)` pair. Files carry a format-version header
//!   and a content [`type_fingerprint`] of the type's full transition
//!   table, so a renamed, stale, truncated, corrupted, or hand-edited file
//!   can never poison a search — any mismatch degrades silently to a full
//!   recompute. Writes go to a temporary file first and are published with
//!   an atomic rename, so concurrent CLI invocations sharing a cache
//!   directory never observe half-written files.
//! * [`AnalysisStore`] is the per-search session cache the engine works
//!   against: an in-memory memo map (shared by both deciders of a
//!   `classify`), optionally warmed from and flushed back to a
//!   [`DiskCache`].
//!
//! Trust model: a cache entry is only used if the whole file parses, the
//! version and fingerprint match, and every analysis passes
//! [`Analysis::shape_matches`] for its instance key. Shape-valid but
//! *wrong* analysis contents (a deliberately falsified cache) are
//! indistinguishable from genuine ones, as with any persisted index —
//! delete the cache directory to rebuild from scratch.
//!
//! Fault tolerance: every filesystem call goes through the [`CacheIo`]
//! seam, so the workspace fail-point sweep can fail or truncate each
//! individual read/write/rename/create_dir/remove_file and prove the
//! fallback story holds at *every* injection point. Wholesale-corrupt files are
//! quarantined to `.bad` (evidence preserved, recompute-forever loops
//! broken), transient write failures are retried once, and temp files get
//! a per-call unique name so concurrent flushes in one process cannot
//! race.

use crate::engine::SearchEngine;
use crate::reach::Analysis;
use rcn_obs::Tracer;
use rcn_spec::{ObjectType, OpId, ValueId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
/// serialized shape of [`Analysis`] or the file layout; readers silently
/// ignore files with any other version.
///
/// History: v1 = value/pair sets only; v2 = [`Analysis`] additionally
/// persisted its `firsts` reachability labels (the seed of a since-removed
/// incremental level extension); v3 = value/pair sets only again. Files of
/// any other version are quarantined to `.bad` on first load and their
/// analyses recomputed.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// 64-bit FNV-1a content hash of a type's *semantics*: its dimensions and
/// the full `(value, op) → (response, next)` transition table.
///
/// Two types with the same fingerprint have identical sequential
/// specifications (up to hash collision), so their analyses are
/// interchangeable — names and display strings deliberately do not
/// participate. This keys the on-disk cache: editing a table invalidates
/// its cached analyses automatically.
pub fn type_fingerprint<T: ObjectType + ?Sized>(ty: &T) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(ty.num_values() as u64);
    mix(ty.num_ops() as u64);
    mix(ty.num_responses() as u64);
    for v in 0..ty.num_values() {
        for op in 0..ty.num_ops() {
            let out = ty.apply(ValueId(v as u16), OpId(op as u16));
            mix(out.response.index() as u64);
            mix(out.next.index() as u64);
        }
    }
    hash
}

/// One persisted `(instance, analysis)` pair.
#[derive(Serialize, Deserialize)]
struct CacheEntry {
    /// The instance's initial value.
    initial: u16,
    /// The instance's op multiset (one op id per process).
    ops: Vec<u16>,
    /// The instance's reachability analysis.
    analysis: Analysis,
}

/// The on-disk file shape: versioned header plus the entries.
#[derive(Serialize, Deserialize)]
struct CacheFile {
    /// Must equal [`CACHE_FORMAT_VERSION`].
    version: u32,
    /// Must equal the [`type_fingerprint`] of the type being searched.
    fingerprint: u64,
    /// The level `n` (number of processes) all entries belong to.
    level: u64,
    /// The cached analyses.
    entries: Vec<CacheEntry>,
}

/// A directory of persisted analyses.
///
/// Cheap to clone and to construct; the directory is created lazily on the
/// first successful write. All read errors — missing file, unreadable
/// file, malformed JSON, version or fingerprint mismatch, out-of-range
/// instance keys, shape-invalid analyses — are deliberately silent: the
/// cache is a pure accelerator and must never turn a computable answer
/// into a failure.
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
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
    io: Arc<dyn CacheIo>,
    tracer: Tracer,
}

/// Makes concurrent [`DiskCache::store`] calls in one process use distinct
/// temp paths (the process id alone is not enough once the engine flushes
/// from several threads).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl DiskCache {
    /// Creates a handle on `dir` (not touched until the first write).
    pub fn new(dir: impl Into<PathBuf>) -> DiskCache {
        DiskCache::with_io(dir, Arc::new(SystemIo))
    }

    /// Creates a handle on `dir` performing all filesystem operations
    /// through `io` — the seam the fault-injection tests use.
    pub fn with_io(dir: impl Into<PathBuf>, io: Arc<dyn CacheIo>) -> DiskCache {
        DiskCache {
            dir: dir.into(),
            io,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a [`Tracer`]: loads, stores, quarantines, and transient-
    /// fault retries become `cache.*` events (with byte sizes and outcomes)
    /// and counters. [`SearchEngine::with_tracer`] propagates its tracer
    /// here automatically when the cache has none of its own.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> DiskCache {
        self.tracer = tracer;
        self
    }

    /// The attached tracer ([`Tracer::disabled`] by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file that holds level-`n` analyses for a type with this
    /// fingerprint.
    fn file_path(&self, fingerprint: u64, n: usize) -> PathBuf {
        self.dir
            .join(format!("analysis-{fingerprint:016x}-n{n}.json"))
    }

    /// Moves an irreparably corrupt cache file aside to `<stem>.bad`, so
    /// the next flush writes a fresh file instead of every future run
    /// re-parsing the same damage and recomputing forever, and the evidence
    /// survives for inspection. Best-effort: a failed rename changes
    /// nothing (the corrupt file keeps being skipped by `load`).
    fn quarantine(&self, path: &Path) {
        let _ = self.io.rename(path, &path.with_extension("bad"));
        self.tracer.counter("cache.quarantined").incr();
        if self.tracer.recording() {
            self.tracer
                .event("cache.quarantine", 0, &path.to_string_lossy());
        }
    }

    /// Loads every valid level-`n` entry for the fingerprinted type.
    /// Anything invalid — at file or entry granularity — is skipped; a file
    /// that is damaged wholesale (unparseable or wrong header) is
    /// quarantined to `.bad`.
    fn load<T: ObjectType + ?Sized>(
        &self,
        ty: &T,
        fingerprint: u64,
        n: usize,
    ) -> HashMap<(u16, Vec<OpId>), Arc<Analysis>> {
        let mut out = HashMap::new();
        let path = self.file_path(fingerprint, n);
        let Ok(text) = self.io.read_to_string(&path) else {
            self.tracer.event("cache.load", 0, "miss");
            return out;
        };
        let bytes = i64::try_from(text.len()).unwrap_or(i64::MAX);
        let Ok(file) = serde_json::from_str::<CacheFile>(&text) else {
            self.quarantine(&path);
            self.tracer.event("cache.load", bytes, "corrupt");
            return out;
        };
        if file.version != CACHE_FORMAT_VERSION
            || file.fingerprint != fingerprint
            || file.level != n as u64
        {
            self.quarantine(&path);
            self.tracer.event("cache.load", bytes, "header-mismatch");
            return out;
        }
        let (num_values, num_ops) = (ty.num_values(), ty.num_ops());
        for entry in file.entries {
            if usize::from(entry.initial) >= num_values
                || entry.ops.len() != n
                || entry.ops.iter().any(|&op| usize::from(op) >= num_ops)
                || !entry
                    .analysis
                    .shape_matches(n, num_values, ty.num_responses())
            {
                continue;
            }
            let key = (entry.initial, entry.ops.iter().map(|&o| OpId(o)).collect());
            out.insert(key, Arc::new(entry.analysis));
        }
        self.tracer
            .counter("cache.entries_loaded")
            .add(out.len() as u64);
        if self.tracer.recording() {
            self.tracer.event(
                "cache.load",
                bytes,
                &format!("ok level={n} entries={}", out.len()),
            );
        }
        out
    }

    /// Persists level-`n` entries atomically (write temp file, rename).
    /// Returns `true` on success; IO failures are silent (the cache is
    /// best-effort), reported only through the return value. Each
    /// operation is retried once, so a transient fault costs nothing.
    fn store(
        &self,
        fingerprint: u64,
        n: usize,
        entries: Vec<(u16, Vec<OpId>, Arc<Analysis>)>,
    ) -> bool {
        let entry_count = entries.len();
        let file = CacheFile {
            version: CACHE_FORMAT_VERSION,
            fingerprint,
            level: n as u64,
            entries: entries
                .into_iter()
                .map(|(initial, ops, analysis)| CacheEntry {
                    initial,
                    ops: ops.iter().map(|op| op.0).collect(),
                    // Entries are written once per level flush; the clone
                    // out of the shared Arc is the serialization cost.
                    analysis: (*analysis).clone(),
                })
                .collect(),
        };
        let Ok(json) = serde_json::to_string(&file) else {
            return false;
        };
        let retries = self.tracer.counter("cache.retries");
        let retry = |op: &dyn Fn() -> io::Result<()>| match op() {
            Ok(()) => true,
            // Transient fault: count the first failure, try once more.
            Err(_) => {
                retries.incr();
                op().is_ok()
            }
        };
        if !retry(&|| self.io.create_dir_all(&self.dir)) {
            self.store_event(false, 0, entry_count, n);
            return false;
        }
        let path = self.file_path(fingerprint, n);
        // Unique temp path per call: the process id distinguishes
        // concurrent CLI invocations, the sequence number concurrent
        // threads within one invocation (two engine threads flushing the
        // same (fingerprint, level) used to race on one temp file).
        let tmp = path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let json = json.as_bytes();
        let ok = retry(&|| self.io.write(&tmp, json)) && retry(&|| self.io.rename(&tmp, &path));
        if !ok {
            // Don't leave temp litter behind a failed publish. Through the
            // io seam like everything else, so the fail-point sweep covers
            // it and a non-filesystem CacheIo never sees a real-disk call.
            let _ = self.io.remove_file(&tmp);
        }
        self.store_event(ok, json.len(), entry_count, n);
        ok
    }

    /// Records one `cache.store` event plus the outcome counter.
    fn store_event(&self, ok: bool, bytes: usize, entries: usize, n: usize) {
        self.tracer
            .counter(if ok {
                "cache.stores"
            } else {
                "cache.store_failures"
            })
            .incr();
        if self.tracer.recording() {
            self.tracer.event(
                "cache.store",
                i64::try_from(bytes).unwrap_or(i64::MAX),
                &format!(
                    "{} level={n} entries={entries}",
                    if ok { "ok" } else { "failed" }
                ),
            );
        }
    }
}

/// How a memoized analysis slot was first populated (for the stats split
/// between in-memory and on-disk hits).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Loaded from a [`DiskCache`] file.
    Disk,
    /// Computed during this search session.
    Fresh,
}

/// One memo slot: a lazily-initialized analysis. The `OnceLock` lets the
/// analysis be built outside the map lock (distinct instances build in
/// parallel) while any second caller for the same instance waits for the
/// first instead of recomputing.
struct Slot {
    cell: Arc<OnceLock<Arc<Analysis>>>,
    origin: Origin,
}

/// The per-search-session analysis cache: in-memory memo map, optionally
/// backed by a [`DiskCache`]. Scoped to one type; `classify` shares one
/// across both deciders (the second decider's scan hits the memo), and the
/// disk layer extends that sharing across process lifetimes.
pub(crate) struct AnalysisStore<'d> {
    memo: Mutex<HashMap<(u16, Vec<OpId>), Slot>>,
    disk: Option<(&'d DiskCache, u64)>,
    /// Levels already pulled from disk (so `classify`'s second decider
    /// doesn't re-read the same files).
    loaded_levels: Mutex<HashSet<usize>>,
    /// Per-level number of entries already persisted, so a flush only
    /// rewrites a file when the session actually learned something new.
    persisted: Mutex<HashMap<usize, usize>>,
}

impl<'d> AnalysisStore<'d> {
    /// Creates a store for one type; fingerprints the type only if a disk
    /// cache is attached.
    pub(crate) fn new<T: ObjectType + ?Sized>(ty: &T, disk: Option<&'d DiskCache>) -> Self {
        AnalysisStore {
            memo: Mutex::new(HashMap::new()),
            disk: disk.map(|d| (d, type_fingerprint(ty))),
            loaded_levels: Mutex::new(HashSet::new()),
            persisted: Mutex::new(HashMap::new()),
        }
    }

    /// Warms the memo with every valid persisted analysis for level `n`.
    /// Idempotent per level; a no-op without a disk cache.
    pub(crate) fn prepare_level<T: ObjectType + ?Sized>(&self, ty: &T, n: usize) {
        let Some((disk, fingerprint)) = self.disk else {
            return;
        };
        if !self.loaded_levels.lock().expect("loaded levels").insert(n) {
            return;
        }
        let loaded = disk.load(ty, fingerprint, n);
        let mut memo = self.memo.lock().expect("analysis memo");
        let mut count = 0usize;
        for (key, analysis) in loaded {
            memo.entry(key).or_insert_with(|| {
                count += 1;
                let cell = Arc::new(OnceLock::new());
                let _ = cell.set(analysis);
                Slot {
                    cell,
                    origin: Origin::Disk,
                }
            });
        }
        *self
            .persisted
            .lock()
            .expect("persisted counts")
            .entry(n)
            .or_insert(0) += count;
    }

    /// Returns the analysis for one instance, computing it at most once
    /// across all workers. Updates the engine's counters: a computation
    /// increments `analyses_computed`, a memo hit increments `cache_hits`
    /// or `disk_hits` depending on where the slot's contents came from.
    pub(crate) fn get_or_compute<T: ObjectType + ?Sized>(
        &self,
        engine: &SearchEngine,
        ty: &T,
        u: ValueId,
        ops: &[OpId],
    ) -> Arc<Analysis> {
        let key = (u.index() as u16, ops.to_vec());
        let (cell, origin) = {
            let mut memo = self.memo.lock().expect("analysis memo");
            let slot = memo.entry(key).or_insert_with(|| Slot {
                cell: Arc::new(OnceLock::new()),
                origin: Origin::Fresh,
            });
            (Arc::clone(&slot.cell), slot.origin)
        };
        // Initialize outside the map lock so distinct instances build in
        // parallel; OnceLock serializes same-instance workers.
        let mut computed = false;
        let analysis = cell.get_or_init(|| {
            computed = true;
            // One span per analysis actually computed (memo/disk hits stay
            // silent — they are counters, not work).
            let _span = engine.tracer().span_with(
                "engine.analysis",
                i64::try_from(ops.len()).unwrap_or(i64::MAX),
                "",
            );
            Arc::new(Analysis::new(ty, u, ops))
        });
        let counter = if computed {
            &engine.counters().analyses_computed
        } else if origin == Origin::Disk {
            &engine.counters().disk_hits
        } else {
            &engine.counters().cache_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(analysis)
    }

    /// Writes the level-`n` portion of the memo back to disk if the session
    /// produced analyses not yet persisted. Counts newly persisted entries
    /// into the engine's `disk_entries_written` stat. A no-op without a
    /// disk cache.
    pub(crate) fn flush_level(&self, engine: &SearchEngine, n: usize) {
        let Some((disk, fingerprint)) = self.disk else {
            return;
        };
        let entries: Vec<(u16, Vec<OpId>, Arc<Analysis>)> = {
            let memo = self.memo.lock().expect("analysis memo");
            memo.iter()
                .filter(|((_, ops), _)| ops.len() == n)
                .filter_map(|((initial, ops), slot)| {
                    slot.cell
                        .get()
                        .map(|a| (*initial, ops.clone(), Arc::clone(a)))
                })
                .collect()
        };
        let mut persisted = self.persisted.lock().expect("persisted counts");
        let already = persisted.get(&n).copied().unwrap_or(0);
        if entries.len() <= already {
            return;
        }
        let fresh = entries.len() - already;
        if disk.store(fingerprint, n, entries) {
            persisted.insert(n, already + fresh);
            engine
                .counters()
                .disk_entries_written
                .fetch_add(fresh as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_spec::zoo::{Register, TestAndSet, Tnn};

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
        let dir = std::env::temp_dir().join(format!(
            "rcn-cache-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let cache = DiskCache::new(&dir);
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        // Missing directory entirely: silent empty.
        assert!(cache.load(&tas, fp, 2).is_empty());
        // Garbage bytes at the expected path: silent empty.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.file_path(fp, 2), b"{not json").unwrap();
        assert!(cache.load(&tas, fp, 2).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wholesale_corrupt_files_are_quarantined_to_bad() {
        let dir = std::env::temp_dir().join(format!(
            "rcn-cache-quarantine-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cache = DiskCache::new(&dir);
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        std::fs::create_dir_all(&dir).unwrap();
        let path = cache.file_path(fp, 2);
        std::fs::write(&path, b"{definitely not a cache file").unwrap();
        assert!(cache.load(&tas, fp, 2).is_empty());
        assert!(!path.exists(), "corrupt file must be moved aside");
        assert!(
            path.with_extension("bad").exists(),
            "evidence must be preserved as .bad"
        );
        // The slot is free again: a store publishes a fresh, loadable file.
        let ops = vec![OpId(0), OpId(0)];
        let analysis = Arc::new(Analysis::new(&tas, ValueId(0), &ops));
        assert!(cache.store(fp, 2, vec![(0, ops, analysis)]));
        assert_eq!(cache.load(&tas, fp, 2).len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_stores_to_one_slot_never_collide() {
        // Regression: the temp path used to be `tmp-{pid}` only, so two
        // engine threads flushing the same (fingerprint, level) raced on
        // one temp file (one writer's rename could publish the other's
        // half-written bytes). The per-call sequence number makes every
        // in-flight store use a private temp path.
        let dir = std::env::temp_dir().join(format!(
            "rcn-cache-concurrent-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cache = DiskCache::new(&dir);
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        let ops = vec![OpId(0), OpId(0)];
        let analysis = Arc::new(Analysis::new(&tas, ValueId(0), &ops));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                let ops = ops.clone();
                let analysis = Arc::clone(&analysis);
                scope.spawn(move || {
                    for _ in 0..16 {
                        assert!(cache.store(fp, 2, vec![(0, ops.clone(), analysis.clone())]));
                    }
                });
            }
        });
        // Whatever store won, the published file is complete and valid.
        assert_eq!(cache.load(&tas, fp, 2).len(), 1);
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
        let dir = std::env::temp_dir().join(format!(
            "rcn-cache-retry-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        let ops = vec![OpId(0), OpId(0)];
        let analysis = Arc::new(Analysis::new(&tas, ValueId(0), &ops));
        // Ops of one store: create_dir (0), write (1), rename (2). Fail
        // each of them once; the in-call retry must absorb every one.
        for fail_at in 0..3 {
            let io = Arc::new(FaultyIo::new(fail_at, FaultMode::Error));
            let cache = DiskCache::with_io(&dir, io.clone() as Arc<dyn CacheIo>);
            assert!(
                cache.store(fp, 2, vec![(0, ops.clone(), analysis.clone())]),
                "store must survive a transient fault at op {fail_at}"
            );
            assert_eq!(io.injected(), 1, "fault at op {fail_at} must fire");
            assert_eq!(DiskCache::new(&dir).load(&tas, fp, 2).len(), 1);
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
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        let ops = vec![OpId(0), OpId(0)];
        let analysis = Arc::new(Analysis::new(&tas, ValueId(0), &ops));
        assert!(!cache.store(fp, 2, vec![(0, ops, analysis)]));
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
        let dir = std::env::temp_dir().join(format!(
            "rcn-cache-roundtrip-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let cache = DiskCache::new(&dir);
        let tas = TestAndSet::new();
        let fp = type_fingerprint(&tas);
        let ops = vec![OpId(0), OpId(0)];
        let analysis = Arc::new(Analysis::new(&tas, ValueId(0), &ops));
        assert!(cache.store(fp, 2, vec![(0, ops.clone(), analysis)]));
        let loaded = cache.load(&tas, fp, 2);
        assert_eq!(loaded.len(), 1);
        let back = &loaded[&(0u16, ops)];
        assert!(back.shape_matches(2, tas.num_values(), tas.num_responses()));
        // A different level's file does not exist.
        assert!(cache.load(&tas, fp, 3).is_empty());
        // A fingerprint mismatch inside the file is rejected even at the
        // right path.
        let path = cache.file_path(fp, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace(&format!("\"fingerprint\":{fp}"), "\"fingerprint\":1"),
        )
        .unwrap();
        assert!(cache.load(&tas, fp, 2).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
