//! The parallel, instrumented search engine behind the deciders.
//!
//! Both witness searches iterate the same space: `(initial value, op
//! multiset)` *instances* — each requiring one [`Analysis`] (the expensive
//! part) — times a set of team partitions (cheap word ORs over two team
//! bitmasks). The engine makes each instance one task, covering all of its
//! partitions, and hands the tasks to worker threads through a shared claim
//! counter. It cancels all workers as soon as any of them finds a witness,
//! and memoizes analyses in a cache shared across deciders —
//! [`classify`](SearchEngine::classify) runs *both* deciders over the same
//! instance space, so the second decider's scan hits the cache instead of
//! rebuilding every reachability graph.
//!
//! Level verdicts can also be made *durable* by attaching a
//! [`DiskCache`](crate::DiskCache): each level search first reads that
//! level's stored verdict (a hit answers the level without searching) and
//! stores the finished verdict after (see [`crate::cache`] internals for
//! the trust model).
//!
//! Everything the engine does is observable through [`SearchStats`]:
//! analyses computed vs. served from the in-memory cache, levels answered
//! from disk, partitions tested, instances visited, levels persisted, and
//! both time totals (true wall time and summed per-search busy time).
//!
//! Results are level-deterministic: the engine reports exactly the levels
//! the sequential deciders report (the space is either exhausted or a
//! genuine witness is found). The *witness* returned for a positive answer
//! may differ between runs with >1 thread — any verified witness is a valid
//! certificate, and [`crate::check_recording`] / [`crate::check_discerning`]
//! replay them independently.

use crate::cache::{type_fingerprint, AnalysisStore};
use crate::classify::{level_to_bound, TypeClassification};
use crate::discerning::{check_discerning, pairs_disjoint, LevelResult};
use crate::reach::{Analysis, MAX_PROCESSES};
use crate::recording::{check_recording, recording_holds};
use crate::search::{instances, partitions, team_of};
use crate::witness::Witness;
use crate::DiskCache;
use rcn_obs::{MetricsSnapshot, Span, Tracer};
use rcn_spec::{ObjectType, OpId, ValueId};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Errors from engine searches (instead of the deep asserts the plain
/// functions hit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The requested level exceeds what the analysis masks support.
    TooManyProcesses {
        /// The requested level / process count.
        n: usize,
        /// The supported maximum ([`MAX_PROCESSES`]).
        max: usize,
    },
    /// The requested level or cap is below 2 (both conditions need two
    /// nonempty teams).
    LevelTooSmall {
        /// The offending level or cap.
        n: usize,
    },
    /// An analysis task panicked (e.g. a hand-built [`ObjectType`] whose
    /// `apply` breaks its own contract). The worker caught the unwind, the
    /// remaining workers were cancelled cleanly, and the queue was not
    /// wedged.
    TaskPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::TooManyProcesses { n, max } => {
                write!(
                    f,
                    "level {n} exceeds the supported maximum of {max} processes"
                )
            }
            SearchError::LevelTooSmall { n } => {
                write!(f, "level {n} is below 2 (two nonempty teams are required)")
            }
            SearchError::TaskPanicked { message } => {
                write!(f, "a search task panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

fn validate_level(n: usize) -> Result<(), SearchError> {
    if n < 2 {
        Err(SearchError::LevelTooSmall { n })
    } else if n > MAX_PROCESSES {
        Err(SearchError::TooManyProcesses {
            n,
            max: MAX_PROCESSES,
        })
    } else {
        Ok(())
    }
}

/// A snapshot of the engine's observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Reachability analyses actually computed.
    pub analyses_computed: u64,
    /// Analyses served from the in-memory memo cache instead of recomputed.
    pub cache_hits: u64,
    /// Levels answered by a verdict stored in the persistent [`DiskCache`]
    /// without searching (0 when no cache directory is attached).
    pub disk_hits: u64,
    /// Always 0: analyses are always built from scratch. Kept only so the
    /// benchmark crate, which still reads it, keeps compiling; not part of
    /// the display, metrics or JSON forms.
    pub incremental_hits: u64,
    /// Level verdicts newly persisted to the [`DiskCache`] (0 when no
    /// cache directory is attached).
    pub disk_entries_written: u64,
    /// Team partitions evaluated against an analysis.
    pub partitions_tested: u64,
    /// `(initial value, op multiset)` instances visited.
    pub instances_visited: u64,
    /// Real elapsed time with at least one engine search in flight (the
    /// union of search intervals — never exceeds actual elapsed time, even
    /// when searches run concurrently).
    pub wall_time: Duration,
    /// Per-search durations summed across concurrent searches (total work
    /// time; ≥ `wall_time` whenever searches overlap).
    pub busy_time: Duration,
    /// `true` if the *most recent* public search call hit the
    /// [`SearchEngine::with_timeout`] deadline and was cancelled
    /// cooperatively — its results are partial. Unlike the work counters
    /// above, this flag (and `instances_abandoned`) is per-call, not
    /// cumulative: each public search call clears it on entry, so a
    /// timed-out search never taints the report of a later clean one.
    pub timed_out: bool,
    /// Instances whose tasks were abandoned (not finished) when a deadline
    /// fired during the most recent public search call. Always 0 when
    /// `timed_out` is `false`.
    pub instances_abandoned: u64,
}

impl SearchStats {
    /// The stats as a metrics snapshot (the same `engine.*` counter names
    /// an attached [`Tracer`] publishes), so scripts consume one schema
    /// whether they read a `--json` record's `stats` or its `metrics`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("engine.analyses_computed", self.analyses_computed);
        snap.push_counter("engine.busy_ns", duration_to_ns(self.busy_time));
        snap.push_counter("engine.cache_hits", self.cache_hits);
        snap.push_counter("engine.disk_entries_written", self.disk_entries_written);
        snap.push_counter("engine.disk_hits", self.disk_hits);
        snap.push_counter("engine.instances_abandoned", self.instances_abandoned);
        snap.push_counter("engine.instances_visited", self.instances_visited);
        snap.push_counter("engine.partitions_tested", self.partitions_tested);
        snap.push_counter("engine.timed_out", u64::from(self.timed_out));
        snap.push_counter("engine.wall_ns", duration_to_ns(self.wall_time));
        snap
    }
}

fn duration_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} analyses ({} cache hits, {} disk hits), {} partitions over {} instances in {:.3?} wall / {:.3?} busy",
            self.analyses_computed,
            self.cache_hits,
            self.disk_hits,
            self.partitions_tested,
            self.instances_visited,
            self.wall_time,
            self.busy_time,
        )?;
        if self.disk_entries_written > 0 {
            write!(f, " ({} levels persisted)", self.disk_entries_written)?;
        }
        if self.timed_out {
            write!(
                f,
                " [TIMED OUT: {} instances abandoned]",
                self.instances_abandoned
            )?;
        }
        Ok(())
    }
}

/// Which of the two conditions a search tests at each partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Condition {
    Recording,
    Discerning,
}

impl Condition {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Condition::Recording => "recording",
            Condition::Discerning => "discerning",
        }
    }

    /// Whether the condition holds for the teams with bitmasks `t0`, `t1`.
    fn holds(self, analysis: &Analysis, u: ValueId, t0: u32, t1: u32) -> bool {
        match self {
            Condition::Recording => recording_holds(analysis, u, t0, t1),
            Condition::Discerning => pairs_disjoint(analysis, t0, t1),
        }
    }

    /// Whether `witness` is a valid certificate of this condition for `ty`
    /// (one analysis).
    pub(crate) fn check<T: ObjectType + ?Sized>(self, ty: &T, witness: &Witness) -> bool {
        let checked = match self {
            Condition::Recording => check_recording(ty, witness),
            Condition::Discerning => check_discerning(ty, witness),
        };
        checked == Ok(true)
    }
}

/// One public search call's context, shared by every level it searches.
struct SearchCall<'e> {
    /// The in-memory analysis memo (in `classify`, shared by both
    /// deciders).
    memo: AnalysisStore,
    /// The attached disk cache and the searched type's fingerprint.
    disk: Option<(&'e DiskCache, u64)>,
    threads: usize,
    /// One deadline for the whole call.
    deadline: Option<Instant>,
}

/// What one level search produced. `timed_out` is only set when the search
/// was cut short *without* finding a witness — a found witness is
/// conclusive regardless of when the deadline fired.
struct FindOutcome {
    witness: Option<Witness>,
    timed_out: bool,
}

/// Best-effort extraction of a panic payload for [`SearchError::TaskPanicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The engine's raw observability counters (shared with the cache layer).
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) analyses_computed: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) disk_hits: AtomicU64,
    pub(crate) disk_entries_written: AtomicU64,
    pub(crate) partitions_tested: AtomicU64,
    pub(crate) instances_visited: AtomicU64,
    pub(crate) busy_nanos: AtomicU64,
    pub(crate) timed_out: AtomicBool,
    pub(crate) instances_abandoned: AtomicU64,
}

/// True-wall-time accounting: the union of in-flight search intervals.
/// Summing per-call durations (the old behavior) overstates "wall time" as
/// soon as `HierarchyReport::add_all` runs classifications concurrently on
/// one engine; this clock only ticks while at least one search is active.
#[derive(Default)]
struct WallClock {
    inner: Mutex<WallState>,
}

#[derive(Default)]
struct WallState {
    active: usize,
    started: Option<Instant>,
    total: Duration,
}

impl WallClock {
    fn enter(&self) {
        let mut state = self.inner.lock().expect("wall clock");
        if state.active == 0 {
            state.started = Some(Instant::now());
        }
        state.active += 1;
    }

    fn exit(&self) {
        let mut state = self.inner.lock().expect("wall clock");
        state.active -= 1;
        if state.active == 0 {
            if let Some(started) = state.started.take() {
                state.total += started.elapsed();
            }
        }
    }

    fn total(&self) -> Duration {
        self.inner.lock().expect("wall clock").total
    }

    fn reset(&self) {
        let mut state = self.inner.lock().expect("wall clock");
        state.total = Duration::ZERO;
        if state.active > 0 {
            state.started = Some(Instant::now());
        }
    }
}

/// The parallel, instrumented witness-search engine.
///
/// # Examples
///
/// ```
/// use rcn_decide::SearchEngine;
/// use rcn_spec::zoo::TestAndSet;
///
/// let engine = SearchEngine::new(2);
/// let c = engine.classify(&TestAndSet::new(), 4).unwrap();
/// assert_eq!(c.consensus_number.to_string(), "2");
/// // Both deciders scanned the same instances: the second scan hit the cache.
/// assert!(engine.stats().cache_hits > 0);
/// ```
pub struct SearchEngine {
    threads: usize,
    disk: Option<DiskCache>,
    timeout: Option<Duration>,
    tracer: Tracer,
    counters: Counters,
    wall: WallClock,
}

impl SearchEngine {
    /// Creates an engine running searches on `threads` worker threads;
    /// `0` means one worker per available CPU.
    pub fn new(threads: usize) -> SearchEngine {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        SearchEngine {
            threads,
            disk: None,
            timeout: None,
            tracer: Tracer::disabled(),
            counters: Counters::default(),
            wall: WallClock::default(),
        }
    }

    /// An engine that searches on the calling thread only.
    pub fn sequential() -> SearchEngine {
        SearchEngine::new(1)
    }

    /// Attaches a persistent verdict cache: every level search first reads
    /// the level's stored verdict from `cache`'s directory and, on a miss,
    /// stores the finished verdict after. See [`DiskCache`] for the trust
    /// model.
    #[must_use]
    pub fn with_disk_cache(mut self, cache: DiskCache) -> SearchEngine {
        // Order-independence with `with_tracer`: an engine tracer already
        // attached flows into the cache unless the cache brought its own.
        self.disk = Some(if self.tracer.enabled() && !cache.tracer().enabled() {
            cache.with_tracer(self.tracer.clone())
        } else {
            cache
        });
        self
    }

    /// Attaches a [`Tracer`]: the engine opens an `engine.level` span per
    /// level search (bracketing exactly the region `busy_time` measures),
    /// emits queue-depth and timeout events, and publishes its
    /// [`SearchStats`] counters into the tracer's metrics registry after
    /// every public search call. An attached [`DiskCache`] without its own
    /// tracer inherits this one (in either attachment order). Tracing is
    /// observation only — results are bit-identical with any tracer,
    /// including [`Tracer::disabled`] (the default).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> SearchEngine {
        if let Some(disk) = self.disk.take() {
            self.disk = Some(if disk.tracer().enabled() {
                disk
            } else {
                disk.with_tracer(tracer.clone())
            });
        }
        self.tracer = tracer;
        self
    }

    /// Attaches a wall-clock deadline to every *public* search call: once
    /// `timeout` elapses, workers stop claiming tasks and the call returns
    /// what it has. Timed-out searches are **inconclusive, never
    /// refutations** — a level scan that hits the deadline reports its best
    /// confirmed level with `capped: true` (rendered as `≥N`), and
    /// [`SearchStats::timed_out`] / [`SearchStats::instances_abandoned`]
    /// record that (and how much of) the space went unexplored.
    ///
    /// The deadline covers a whole public call: for
    /// [`classify`](Self::classify) both deciders share one deadline, not
    /// one each.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> SearchEngine {
        self.timeout = Some(timeout);
        self
    }

    /// The number of worker threads searches run on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The attached persistent cache, if any.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// The per-call wall-clock deadline, if one is attached.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// The attached tracer ([`Tracer::disabled`] unless
    /// [`with_tracer`](Self::with_tracer) was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Publishes the current [`SearchStats`] into the tracer's metrics
    /// registry (no-op when disabled). Called at the end of every public
    /// search call so `--metrics` always reflects the finished work.
    fn publish_metrics(&self) {
        if !self.tracer.enabled() {
            return;
        }
        for entry in &self.stats().metrics().counters {
            self.tracer.set(&entry.name, entry.value);
        }
    }

    /// Snapshot of the counters accumulated since creation (or the last
    /// [`reset_stats`](Self::reset_stats)). Exception: the timeout fields
    /// ([`SearchStats::timed_out`], [`SearchStats::instances_abandoned`])
    /// describe only the most recent public search call — see their docs.
    pub fn stats(&self) -> SearchStats {
        SearchStats {
            analyses_computed: self.counters.analyses_computed.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            incremental_hits: 0,
            disk_entries_written: self.counters.disk_entries_written.load(Ordering::Relaxed),
            partitions_tested: self.counters.partitions_tested.load(Ordering::Relaxed),
            instances_visited: self.counters.instances_visited.load(Ordering::Relaxed),
            wall_time: self.wall.total(),
            busy_time: Duration::from_nanos(self.counters.busy_nanos.load(Ordering::Relaxed)),
            timed_out: self.counters.timed_out.load(Ordering::Relaxed),
            instances_abandoned: self.counters.instances_abandoned.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters.
    pub fn reset_stats(&self) {
        self.counters.analyses_computed.store(0, Ordering::Relaxed);
        self.counters.cache_hits.store(0, Ordering::Relaxed);
        self.counters.disk_hits.store(0, Ordering::Relaxed);
        self.counters
            .disk_entries_written
            .store(0, Ordering::Relaxed);
        self.counters.partitions_tested.store(0, Ordering::Relaxed);
        self.counters.instances_visited.store(0, Ordering::Relaxed);
        self.counters.busy_nanos.store(0, Ordering::Relaxed);
        self.counters.timed_out.store(false, Ordering::Relaxed);
        self.counters
            .instances_abandoned
            .store(0, Ordering::Relaxed);
        self.wall.reset();
    }

    /// The deadline for one public search call, armed at call entry.
    fn deadline(&self) -> Option<Instant> {
        self.timeout.map(|timeout| Instant::now() + timeout)
    }

    /// Opens a public search call on `ty`: clears the per-call timeout
    /// fields, so `timed_out` / `instances_abandoned` always describe the
    /// call in progress rather than sticking from an earlier timed-out
    /// search on the same engine, arms the deadline, and fingerprints the
    /// type once if a disk cache is attached.
    fn open_call<T: ObjectType + ?Sized>(&self, ty: &T, threads: usize) -> SearchCall<'_> {
        self.counters.timed_out.store(false, Ordering::Relaxed);
        self.counters
            .instances_abandoned
            .store(0, Ordering::Relaxed);
        SearchCall {
            memo: AnalysisStore::default(),
            disk: self.disk.as_ref().map(|d| (d, type_fingerprint(ty))),
            threads: threads.max(1),
            deadline: self.deadline(),
        }
    }

    /// Searches for an `n`-recording witness (parallel equivalent of
    /// [`crate::find_recording_witness`]).
    ///
    /// With a [`with_timeout`](Self::with_timeout) deadline attached, a
    /// timed-out search returns `Ok(None)` with [`SearchStats::timed_out`]
    /// set — an *inconclusive* `None`, not a refutation.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError`] if `n < 2`, `n > MAX_PROCESSES`, or a search
    /// task panicked.
    pub fn find_recording_witness<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        n: usize,
    ) -> Result<Option<Witness>, SearchError> {
        validate_level(n)?;
        let call = self.open_call(ty, self.threads);
        let outcome = self.find_witness(ty, n, Condition::Recording, &call)?;
        self.publish_metrics();
        Ok(outcome.witness)
    }

    /// Searches for an `n`-discerning witness (parallel equivalent of
    /// [`crate::find_discerning_witness`]).
    ///
    /// With a [`with_timeout`](Self::with_timeout) deadline attached, a
    /// timed-out search returns `Ok(None)` with [`SearchStats::timed_out`]
    /// set — an *inconclusive* `None`, not a refutation.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError`] if `n < 2`, `n > MAX_PROCESSES`, or a search
    /// task panicked.
    pub fn find_discerning_witness<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        n: usize,
    ) -> Result<Option<Witness>, SearchError> {
        validate_level(n)?;
        let call = self.open_call(ty, self.threads);
        let outcome = self.find_witness(ty, n, Condition::Discerning, &call)?;
        self.publish_metrics();
        Ok(outcome.witness)
    }

    /// Computes the recording number up to `cap` (parallel equivalent of
    /// [`crate::recording_number`]).
    ///
    /// A [`with_timeout`](Self::with_timeout) deadline that fires mid-scan
    /// stops the scan at the best *confirmed* level with `capped: true`
    /// (rendered `≥N`) — never misreporting an unexplored level as refuted.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError`] if `cap < 2`, `cap > MAX_PROCESSES`, or a
    /// search task panicked.
    pub fn recording_number<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        cap: usize,
    ) -> Result<LevelResult, SearchError> {
        validate_level(cap)?;
        let call = self.open_call(ty, self.threads);
        let result = self.level_scan(ty, cap, Condition::Recording, &call);
        self.publish_metrics();
        result
    }

    /// Computes the discerning number up to `cap` (parallel equivalent of
    /// [`crate::discerning_number`]).
    ///
    /// A [`with_timeout`](Self::with_timeout) deadline that fires mid-scan
    /// stops the scan at the best *confirmed* level with `capped: true`
    /// (rendered `≥N`) — never misreporting an unexplored level as refuted.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError`] if `cap < 2`, `cap > MAX_PROCESSES`, or a
    /// search task panicked.
    pub fn discerning_number<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        cap: usize,
    ) -> Result<LevelResult, SearchError> {
        validate_level(cap)?;
        let call = self.open_call(ty, self.threads);
        let result = self.level_scan(ty, cap, Condition::Discerning, &call);
        self.publish_metrics();
        result
    }

    /// Classifies a type by running both deciders up to `cap` over a
    /// *shared* analysis cache (parallel equivalent of [`crate::classify`]).
    ///
    /// Both deciders visit the same `(u, ops)` instances at each level, so
    /// the second scan is served largely from cache — visible as
    /// `cache_hits` in [`stats`](Self::stats). With a
    /// [`with_disk_cache`](Self::with_disk_cache)-attached cache, a warm
    /// re-run answers every stored level from disk (`disk_hits`) without
    /// computing an analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError`] if `cap < 2`, `cap > MAX_PROCESSES`, or a
    /// search task panicked.
    pub fn classify<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        cap: usize,
    ) -> Result<TypeClassification, SearchError> {
        self.classify_with(ty, cap, self.threads)
    }

    /// Like [`classify`](Self::classify), but overriding the worker count
    /// for this call. Callers that parallelize at a coarser grain (e.g. one
    /// type per thread across a whole zoo) pass `1` to keep the total
    /// thread count at the engine's configured width.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError`] if `cap < 2`, `cap > MAX_PROCESSES`, or a
    /// search task panicked.
    pub fn classify_with<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        cap: usize,
        threads: usize,
    ) -> Result<TypeClassification, SearchError> {
        validate_level(cap)?;
        // One call context for the whole classification: both deciders
        // share its memo and its deadline.
        let call = self.open_call(ty, threads);
        let readable = ty.is_readable();
        let discerning = self.level_scan(ty, cap, Condition::Discerning, &call)?;
        let recording = self.level_scan(ty, cap, Condition::Recording, &call)?;
        self.publish_metrics();
        let consensus_number = level_to_bound(&discerning, readable);
        let recoverable_consensus_number = level_to_bound(&recording, readable);
        Ok(TypeClassification {
            type_name: ty.name(),
            readable,
            discerning,
            recording,
            consensus_number,
            recoverable_consensus_number,
        })
    }

    /// Scans `n = 2..=cap`, stopping at the first refuted level — the same
    /// linear scan the sequential deciders use (both conditions are
    /// monotone in `n`).
    ///
    /// A deadline firing mid-scan is *inconclusive*: the best confirmed
    /// level is reported as a lower bound (`capped: true`), never as the
    /// exact answer.
    fn level_scan<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        cap: usize,
        cond: Condition,
        call: &SearchCall<'_>,
    ) -> Result<LevelResult, SearchError> {
        let mut best = LevelResult {
            level: 1,
            capped: false,
            witness: None,
        };
        for n in 2..=cap {
            let outcome = self.find_witness(ty, n, cond, call)?;
            if outcome.timed_out {
                best.capped = true;
                return Ok(best);
            }
            match outcome.witness {
                Some(w) => {
                    best = LevelResult {
                        level: n,
                        capped: n == cap,
                        witness: Some(w),
                    };
                }
                None => return Ok(best),
            }
        }
        Ok(best)
    }

    /// One level search: the stored verdict if the disk cache holds a
    /// valid one, otherwise [`search_level`](Self::search_level), whose
    /// finished verdict is then stored.
    fn find_witness<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        n: usize,
        cond: Condition,
        call: &SearchCall<'_>,
    ) -> Result<FindOutcome, SearchError> {
        // Busy brackets wall (start before `enter`, measure after `exit`):
        // each wall interval nests inside its own busy interval, so the
        // interval union can never exceed the busy sum.
        let start = Instant::now();
        // The span brackets the same region `busy_time` measures, so a
        // profile's `engine.level` total reconciles with the busy stat.
        let level_span = self.tracer.span_with(
            "engine.level",
            i64::try_from(n).unwrap_or(i64::MAX),
            cond.name(),
        );
        self.wall.enter();
        let stored = call
            .disk
            .and_then(|(disk, fingerprint)| disk.load(ty, fingerprint, cond, n));
        let outcome = match stored {
            Some(witness) => {
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                Ok(FindOutcome {
                    witness,
                    timed_out: false,
                })
            }
            None => {
                let outcome = self.search_level(ty, n, cond, call, &level_span);
                if let (Ok(found), Some((disk, fingerprint))) = (&outcome, call.disk) {
                    if !found.timed_out && disk.store(fingerprint, cond, n, &found.witness) {
                        self.counters
                            .disk_entries_written
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                outcome
            }
        };
        self.wall.exit();
        self.counters.busy_nanos.fetch_add(
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        outcome
    }

    /// The parallel witness search over one level: one task per instance,
    /// claimed in instance order by the workers, everyone cancelled on the
    /// first hit. With one worker the visit order is the sequential
    /// deciders' order, so the returned witness is theirs exactly.
    ///
    /// Every task runs inside `catch_unwind`: a panicking task (a hand-built
    /// [`ObjectType`] breaking its contract mid-analysis) records its payload,
    /// cancels the remaining workers through the shared stop flag, and
    /// surfaces as [`SearchError::TaskPanicked`] — the queue is never wedged
    /// and the engine stays usable. A deadline is checked at every task
    /// claim and every 256 partitions within a task; when it fires, the
    /// instances not yet finished are counted into
    /// [`SearchStats::instances_abandoned`].
    fn search_level<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        n: usize,
        cond: Condition,
        call: &SearchCall<'_>,
        level_span: &Span,
    ) -> Result<FindOutcome, SearchError> {
        let space: Vec<(ValueId, Vec<OpId>)> =
            instances(ty.num_values(), ty.num_ops(), n).collect();
        let parts: Vec<(u32, u32)> = partitions(n).collect();

        if self.tracer.recording() {
            // Queue depth at level start: how many claimable tasks the
            // workers are about to drain.
            level_span.event(
                "engine.queue",
                i64::try_from(space.len()).unwrap_or(i64::MAX),
                &format!("instances={} partitions={}", space.len(), parts.len()),
            );
        }

        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let deadline_hit = AtomicBool::new(false);
        // One done flag per instance: whatever is still unset when a
        // deadline fires is the abandoned remainder of the space.
        let done: Vec<AtomicBool> = space.iter().map(|_| AtomicBool::new(false)).collect();
        // First panic payload wins; later ones are dropped.
        let panicked: Mutex<Option<String>> = Mutex::new(None);
        // Earliest-(instance, partition) witness found so far, so more
        // threads can only improve (not degrade) how canonical the returned
        // witness is.
        let found: Mutex<Option<((usize, usize), Witness)>> = Mutex::new(None);

        let past_deadline = || call.deadline.is_some_and(|d| Instant::now() >= d);

        let worker = |engine: &SearchEngine| {
            let mut local_instances = 0u64;
            let mut local_partitions = 0u64;
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if past_deadline() {
                    deadline_hit.store(true, Ordering::Relaxed);
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((u, ops)) = space.get(i) else {
                    break;
                };
                // Contain panics to the task: a broken `ObjectType` must
                // not wedge the queue or poison the engine.
                let task = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let analysis = call.memo.get_or_compute(engine, ty, *u, ops);
                    local_instances += 1;
                    for (p, &(t0, t1)) in parts.iter().enumerate() {
                        if local_partitions.is_multiple_of(256) && past_deadline() {
                            deadline_hit.store(true, Ordering::Relaxed);
                            stop.store(true, Ordering::Relaxed);
                            return false;
                        }
                        local_partitions += 1;
                        if cond.holds(&analysis, *u, t0, t1) {
                            let witness = Witness::new(*u, team_of(n, t1), ops.clone());
                            let mut slot = found.lock().expect("witness slot");
                            match &*slot {
                                Some((best, _)) if *best <= (i, p) => {}
                                _ => *slot = Some(((i, p), witness)),
                            }
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    true
                }));
                match task {
                    Ok(true) => done[i].store(true, Ordering::Relaxed),
                    // Deadline fired mid-task: the instance stays not-done.
                    Ok(false) => break,
                    Err(payload) => {
                        let mut slot = panicked.lock().expect("panic slot");
                        if slot.is_none() {
                            *slot = Some(panic_message(payload));
                        }
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            engine
                .counters
                .instances_visited
                .fetch_add(local_instances, Ordering::Relaxed);
            engine
                .counters
                .partitions_tested
                .fetch_add(local_partitions, Ordering::Relaxed);
        };

        let workers = call.threads.min(space.len().max(1));
        if workers <= 1 {
            worker(self);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| worker(self));
                }
            });
        }

        if let Some(message) = panicked.into_inner().expect("panic slot") {
            return Err(SearchError::TaskPanicked { message });
        }
        let result = found.into_inner().expect("witness slot");
        let witness = result.map(|(_, w)| w);
        // A found witness is conclusive: the deadline only matters when the
        // search was cut short still empty-handed.
        let timed_out = witness.is_none() && deadline_hit.load(Ordering::Relaxed);
        if timed_out {
            self.counters.timed_out.store(true, Ordering::Relaxed);
            let abandoned = done.iter().filter(|d| !d.load(Ordering::Relaxed)).count();
            self.counters
                .instances_abandoned
                .fetch_add(abandoned as u64, Ordering::Relaxed);
            self.tracer.event(
                "engine.timeout",
                i64::try_from(abandoned).unwrap_or(i64::MAX),
                cond.name(),
            );
        }
        Ok(FindOutcome { witness, timed_out })
    }
}

/// Computes the recording number with cap validation instead of asserts:
/// sequential convenience wrapper over [`SearchEngine::recording_number`].
///
/// # Errors
///
/// Returns [`SearchError`] if `cap < 2` or `cap > MAX_PROCESSES`.
pub fn try_recording_number<T: ObjectType + Sync + ?Sized>(
    ty: &T,
    cap: usize,
) -> Result<LevelResult, SearchError> {
    SearchEngine::sequential().recording_number(ty, cap)
}

/// Computes the discerning number with cap validation instead of asserts:
/// sequential convenience wrapper over [`SearchEngine::discerning_number`].
///
/// # Errors
///
/// Returns [`SearchError`] if `cap < 2` or `cap > MAX_PROCESSES`.
pub fn try_discerning_number<T: ObjectType + Sync + ?Sized>(
    ty: &T,
    cap: usize,
) -> Result<LevelResult, SearchError> {
    SearchEngine::sequential().discerning_number(ty, cap)
}

/// Classifies a type with cap validation instead of asserts: sequential
/// convenience wrapper over [`SearchEngine::classify`].
///
/// # Errors
///
/// Returns [`SearchError`] if `cap < 2` or `cap > MAX_PROCESSES`.
pub fn try_classify<T: ObjectType + Sync + ?Sized>(
    ty: &T,
    cap: usize,
) -> Result<TypeClassification, SearchError> {
    SearchEngine::sequential().classify(ty, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        check_discerning, check_recording, discerning_number, is_n_discerning, is_n_recording,
        recording_number,
    };
    use rcn_spec::zoo::{StickyBit, TestAndSet, Tnn};

    #[test]
    fn engine_agrees_with_sequential_deciders() {
        let engine = SearchEngine::new(4);
        for n in 2..=4 {
            assert_eq!(
                engine
                    .find_recording_witness(&TestAndSet::new(), n)
                    .unwrap()
                    .is_some(),
                is_n_recording(&TestAndSet::new(), n),
                "recording tas n={n}"
            );
            assert_eq!(
                engine
                    .find_discerning_witness(&StickyBit::new(), n)
                    .unwrap()
                    .is_some(),
                is_n_discerning(&StickyBit::new(), n),
                "discerning sticky n={n}"
            );
        }
        let t = Tnn::new(4, 2);
        assert_eq!(
            engine.recording_number(&t, 5).unwrap().level,
            recording_number(&t, 5).level
        );
        assert_eq!(
            engine.discerning_number(&t, 5).unwrap().level,
            discerning_number(&t, 5).level
        );
    }

    #[test]
    fn engine_witnesses_replay() {
        let engine = SearchEngine::new(3);
        let w = engine
            .find_recording_witness(&StickyBit::new(), 3)
            .unwrap()
            .expect("sticky is 3-recording");
        assert_eq!(check_recording(&StickyBit::new(), &w), Ok(true));
        let w = engine
            .find_discerning_witness(&TestAndSet::new(), 2)
            .unwrap()
            .expect("tas is 2-discerning");
        assert_eq!(check_discerning(&TestAndSet::new(), &w), Ok(true));
    }

    #[test]
    fn classify_shares_the_cache_across_deciders() {
        let engine = SearchEngine::sequential();
        let c = engine.classify(&TestAndSet::new(), 4).unwrap();
        assert_eq!(c.consensus_number.to_string(), "2");
        assert_eq!(c.recoverable_consensus_number.to_string(), "1");
        let stats = engine.stats();
        assert!(stats.cache_hits > 0, "second decider should hit: {stats}");
        assert!(stats.analyses_computed > 0);
        assert!(stats.partitions_tested > 0);
        // No cache directory attached: the disk layer stays silent.
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.disk_entries_written, 0);
    }

    #[test]
    fn out_of_range_levels_are_errors_not_panics() {
        let engine = SearchEngine::sequential();
        let tas = TestAndSet::new();
        assert_eq!(
            engine.find_recording_witness(&tas, MAX_PROCESSES + 1),
            Err(SearchError::TooManyProcesses {
                n: MAX_PROCESSES + 1,
                max: MAX_PROCESSES
            })
        );
        assert_eq!(
            engine.find_discerning_witness(&tas, 1),
            Err(SearchError::LevelTooSmall { n: 1 })
        );
        assert!(try_recording_number(&tas, 25).is_err());
        assert!(try_discerning_number(&tas, 0).is_err());
        assert!(try_classify(&tas, MAX_PROCESSES + 5).is_err());
    }

    #[test]
    fn small_caps_are_errors_at_the_classify_layer() {
        // `level_scan`'s `2..=cap` loop would be empty for cap < 2 and
        // silently report level 1 with `capped: false` — a wrong "uncapped"
        // claim. The validation layer must reject instead.
        let engine = SearchEngine::sequential();
        let tas = TestAndSet::new();
        for cap in [0usize, 1] {
            assert_eq!(
                engine.classify(&tas, cap).unwrap_err(),
                SearchError::LevelTooSmall { n: cap }
            );
            assert_eq!(
                engine.recording_number(&tas, cap).unwrap_err(),
                SearchError::LevelTooSmall { n: cap }
            );
            assert_eq!(
                engine.discerning_number(&tas, cap).unwrap_err(),
                SearchError::LevelTooSmall { n: cap }
            );
        }
    }

    #[test]
    fn try_wrappers_match_the_panicking_api() {
        let tas = TestAndSet::new();
        assert_eq!(
            try_recording_number(&tas, 4).unwrap().level,
            recording_number(&tas, 4).level
        );
        assert_eq!(
            try_discerning_number(&tas, 4).unwrap().level,
            discerning_number(&tas, 4).level
        );
    }

    #[test]
    fn stats_reset() {
        let engine = SearchEngine::sequential();
        engine.classify(&TestAndSet::new(), 3).unwrap();
        assert!(engine.stats().analyses_computed > 0);
        engine.reset_stats();
        assert_eq!(engine.stats(), SearchStats::default());
    }

    #[test]
    fn parallel_levels_are_deterministic() {
        let first = SearchEngine::new(4)
            .recording_number(&Tnn::new(4, 1), 5)
            .unwrap();
        for _ in 0..3 {
            let again = SearchEngine::new(4)
                .recording_number(&Tnn::new(4, 1), 5)
                .unwrap();
            assert_eq!(again.level, first.level);
            assert_eq!(again.capped, first.capped);
        }
    }

    /// A hand-built type that breaks the `ObjectType` contract by panicking
    /// inside `apply` — the hostile input the engine must contain.
    #[derive(Debug)]
    struct PanicsOnApply;

    impl rcn_spec::ObjectType for PanicsOnApply {
        fn name(&self) -> String {
            "panics-on-apply".to_string()
        }
        fn num_values(&self) -> usize {
            2
        }
        fn num_ops(&self) -> usize {
            2
        }
        fn num_responses(&self) -> usize {
            2
        }
        fn apply(&self, _value: rcn_spec::ValueId, _op: rcn_spec::OpId) -> rcn_spec::Outcome {
            panic!("contract violation in apply");
        }
    }

    #[test]
    fn task_panics_become_errors_not_wedged_queues() {
        for threads in [1usize, 4] {
            let engine = SearchEngine::new(threads);
            let err = engine
                .find_recording_witness(&PanicsOnApply, 2)
                .expect_err("the panic must surface as an error");
            assert_eq!(
                err,
                SearchError::TaskPanicked {
                    message: "contract violation in apply".to_string()
                }
            );
            // The engine survives its poisoned task: a well-behaved search
            // on the same engine still works.
            let c = engine.classify(&TestAndSet::new(), 3).unwrap();
            assert_eq!(c.consensus_number.to_string(), "2");
        }
    }

    #[test]
    fn deadline_produces_honest_partial_results() {
        let engine = SearchEngine::new(2).with_timeout(Duration::ZERO);
        let result = engine.classify(&Tnn::new(4, 2), 5).unwrap();
        // An already-expired deadline confirms nothing: the scan reports
        // only a trivial lower bound, never a refuted level.
        assert!(result.discerning.capped, "timed-out scan must be capped");
        assert!(result.recording.capped, "timed-out scan must be capped");
        assert_eq!(result.discerning.level, 1);
        let stats = engine.stats();
        assert!(stats.timed_out, "stats must disclose the timeout: {stats}");
        assert!(
            stats.instances_abandoned > 0,
            "the whole space was abandoned: {stats}"
        );
        assert!(stats.to_string().contains("TIMED OUT"));
    }

    #[test]
    fn timeout_flags_are_per_call_not_sticky() {
        // Regression: timed_out / instances_abandoned used to accumulate
        // until reset_stats, so one timed-out search made every later
        // clean call on the same engine still report a timeout.
        let engine = SearchEngine::new(2).with_timeout(Duration::ZERO);
        engine.classify(&Tnn::new(4, 2), 5).unwrap();
        assert!(engine.stats().timed_out);
        // Same counters, deadline lifted: the next call must start clean.
        let engine = engine.with_timeout(Duration::from_secs(600));
        let c = engine.classify(&TestAndSet::new(), 3).unwrap();
        assert_eq!(c.consensus_number.to_string(), "2");
        let stats = engine.stats();
        assert!(
            !stats.timed_out,
            "a clean call must not inherit an earlier call's timeout: {stats}"
        );
        assert_eq!(stats.instances_abandoned, 0);
        // The cumulative work counters, by contrast, do carry over.
        assert!(stats.analyses_computed > 0);
    }

    #[test]
    fn generous_deadlines_change_nothing() {
        let engine = SearchEngine::new(2).with_timeout(Duration::from_secs(600));
        assert_eq!(engine.timeout(), Some(Duration::from_secs(600)));
        let c = engine.classify(&TestAndSet::new(), 4).unwrap();
        assert_eq!(c.consensus_number.to_string(), "2");
        assert_eq!(c.recoverable_consensus_number.to_string(), "1");
        let stats = engine.stats();
        assert!(!stats.timed_out);
        assert_eq!(stats.instances_abandoned, 0);
    }

    #[test]
    fn tracer_records_levels_and_publishes_metrics() {
        let tracer = Tracer::ring(4096);
        let engine = SearchEngine::sequential().with_tracer(tracer.clone());
        engine.classify(&TestAndSet::new(), 3).unwrap();
        // The registry mirrors the stats counters after every public call.
        let stats = engine.stats();
        let snap = tracer.snapshot().unwrap();
        assert_eq!(
            snap.counter("engine.analyses_computed"),
            Some(stats.analyses_computed)
        );
        assert_eq!(
            snap.counter("engine.partitions_tested"),
            Some(stats.partitions_tested)
        );
        assert_eq!(snap.counter("engine.timed_out"), Some(0));
        // Spans: one engine.level per (condition, level) searched, each
        // with a queue event inside, plus one engine.analysis per computed
        // analysis.
        let events = tracer.ring_events();
        let level_opens = events
            .iter()
            .filter(|e| e.kind == rcn_obs::KIND_OPEN && e.name == "engine.level")
            .count();
        assert!(level_opens >= 3, "two conditions over cap 3: {level_opens}");
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == rcn_obs::KIND_OPEN && e.name == "engine.analysis")
                .count() as u64,
            stats.analyses_computed
        );
        assert!(events.iter().any(|e| e.name == "engine.queue"));
        // Every open has its close.
        let opens = events.iter().filter(|e| e.kind == rcn_obs::KIND_OPEN);
        assert!(opens.clone().all(|open| events
            .iter()
            .any(|e| e.kind == rcn_obs::KIND_CLOSE && e.id == open.id)));
    }

    #[test]
    fn stats_metrics_match_the_counters() {
        let engine = SearchEngine::sequential();
        engine.classify(&TestAndSet::new(), 3).unwrap();
        let stats = engine.stats();
        let snap = stats.metrics();
        assert_eq!(snap.counter("engine.cache_hits"), Some(stats.cache_hits));
        assert_eq!(
            snap.counter("engine.busy_ns"),
            Some(u64::try_from(stats.busy_time.as_nanos()).unwrap())
        );
    }

    #[test]
    fn engine_tracer_propagates_into_the_disk_cache_either_order() {
        let tracer = Tracer::metrics_only();
        let dir = std::env::temp_dir().join(format!(
            "rcn-engine-tracer-prop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let cache_first = SearchEngine::sequential()
            .with_disk_cache(DiskCache::new(&dir))
            .with_tracer(tracer.clone());
        assert!(cache_first.disk_cache().unwrap().tracer().enabled());
        let tracer_first = SearchEngine::sequential()
            .with_tracer(tracer)
            .with_disk_cache(DiskCache::new(&dir));
        assert!(tracer_first.disk_cache().unwrap().tracer().enabled());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wall_time_never_exceeds_busy_time() {
        let engine = SearchEngine::new(2);
        engine.classify(&TestAndSet::new(), 4).unwrap();
        engine.classify(&StickyBit::new(), 3).unwrap();
        let stats = engine.stats();
        assert!(
            stats.wall_time <= stats.busy_time,
            "interval union must not exceed summed durations: {stats}"
        );
        assert!(stats.busy_time > Duration::ZERO);
    }
}
