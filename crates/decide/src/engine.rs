//! The parallel, instrumented search engine: the one witness search of
//! this crate. The free deciders ([`crate::find_discerning_witness`],
//! [`crate::discerning_number`], [`crate::classify`], …) are calls into
//! [`SearchEngine::sequential`].
//!
//! Both conditions range over the same space: `(initial value, op
//! multiset)` *instances* — each requiring one [`Analysis`] (the expensive
//! part) — times a set of team partitions (cheap word ORs over two team
//! bitmasks). The engine makes each instance one task, covering all of its
//! partitions, and streams the tasks to worker threads from one shared
//! instance iterator (a level's space is never collected). One level scan
//! decides every condition a call asks for:
//! [`classify`](SearchEngine::classify) builds each instance's analysis
//! once, tests it for both conditions, and drops it when the task ends. A
//! condition closes at its earliest witness, and the workers stop claiming
//! once every condition is closed.
//!
//! Level verdicts can also be made *durable* by attaching a
//! [`DiskCache`](crate::DiskCache): each level search first reads that
//! level's stored verdict per condition (a hit answers the condition at
//! that level without searching) and stores the finished verdicts after
//! (see [`crate::cache`] internals for the trust model).
//!
//! Everything the engine does is observable through [`SearchStats`]:
//! analyses computed, condition visits served by an analysis already built
//! for the other condition, levels answered from disk, partitions tested,
//! instances visited, levels persisted, and the time spent searching
//! levels.
//!
//! Results are level-deterministic: every thread count reports the levels a
//! one-worker engine reports (the space is either exhausted or a genuine
//! witness is found). The *witness* returned for a positive answer may
//! differ between runs with >1 thread — any verified witness is a valid
//! certificate, and [`crate::check_recording`] /
//! [`crate::check_discerning`] replay them independently.

use crate::cache::type_fingerprint;
use crate::classify::{level_to_bound, TypeClassification};
use crate::discerning::{check_discerning, pairs_disjoint, LevelResult};
use crate::reach::{Analysis, MAX_PROCESSES};
use crate::recording::{check_recording, class_of, CriticalClass};
use crate::search::{instance_count, instances, partitions, team_of};
use crate::witness::Witness;
use crate::DiskCache;
use rcn_obs::{MetricsSnapshot, Span, Tracer};
use rcn_spec::{ObjectType, ValueId};
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

/// Unwraps an engine result for the panicking free deciders.
pub(crate) fn or_panic<R>(result: Result<R, SearchError>) -> R {
    result.unwrap_or_else(|err| panic!("{err}"))
}

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
    /// Reachability analyses built: one per instance visited for at least
    /// one condition.
    pub analyses_computed: u64,
    /// Condition visits served by an analysis already built at the same
    /// instance for another condition (in `classify`, both conditions test
    /// each analysis), so `analyses_computed + cache_hits ==
    /// instances_visited`.
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
    /// `(condition, instance)` visits: an `(initial value, op multiset)`
    /// instance tested for both conditions counts twice.
    pub instances_visited: u64,
    /// Time spent deciding levels (disk reads and writes included), summed
    /// over every call on this engine.
    pub busy_time: Duration,
    /// `true` if the *most recent* public search call hit the
    /// [`SearchEngine::with_timeout`] deadline and was cancelled
    /// cooperatively — its results are partial. Unlike the work counters
    /// above, this flag (and `instances_abandoned`) is per-call, not
    /// cumulative: each public search call clears it on entry, so a
    /// timed-out search never taints the report of a later clean one.
    pub timed_out: bool,
    /// Instances whose tasks were abandoned (not finished) when a deadline
    /// fired during the most recent public search call, counted once per
    /// condition the deadline left undecided. Always 0 when `timed_out` is
    /// `false`.
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
            "{} analyses ({} cache hits, {} disk hits), {} partitions over {} instances in {:.3?} busy",
            self.analyses_computed,
            self.cache_hits,
            self.disk_hits,
            self.partitions_tested,
            self.instances_visited,
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
            Condition::Recording => class_of(analysis, u, t0, t1) == CriticalClass::Recording,
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
    /// The attached disk cache and the searched type's fingerprint.
    disk: Option<(&'e DiskCache, u64)>,
    /// One deadline for the whole call.
    deadline: Option<Instant>,
}

/// What one level search produced for one condition. `timed_out` is only
/// set when the search was cut short *without* finding a witness — a found
/// witness is conclusive regardless of when the deadline fired.
struct FindOutcome {
    witness: Option<Witness>,
    timed_out: bool,
}

/// One condition's earliest `(instance, partition)` witness found so far
/// in a level search.
type WitnessSlot = Mutex<Option<((usize, usize), Witness)>>;

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

/// The engine's raw observability counters.
#[derive(Default)]
struct Counters {
    analyses_computed: AtomicU64,
    cache_hits: AtomicU64,
    disk_hits: AtomicU64,
    disk_entries_written: AtomicU64,
    partitions_tested: AtomicU64,
    instances_visited: AtomicU64,
    busy_nanos: AtomicU64,
    timed_out: AtomicBool,
    instances_abandoned: AtomicU64,
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
/// // Both conditions tested the same analyses at level 2.
/// assert!(engine.stats().cache_hits > 0);
/// ```
pub struct SearchEngine {
    threads: usize,
    disk: Option<DiskCache>,
    timeout: Option<Duration>,
    tracer: Tracer,
    counters: Counters,
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
        self.disk = Some(cache);
        self
    }

    /// Attaches a [`Tracer`]: the engine opens an `engine.level` span per
    /// level searched, with the open conditions as its detail (bracketing
    /// exactly the region `busy_time` measures) and an `engine.analysis`
    /// span per analysis built,
    /// emits queue-depth and timeout events, and publishes its
    /// [`SearchStats`] counters into the tracer's metrics registry after
    /// every public search call. An attached [`DiskCache`] reports its
    /// `cache.*` events and counters here too. Tracing is observation
    /// only — results are bit-identical with any tracer, including
    /// [`Tracer::disabled`] (the default).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> SearchEngine {
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
    /// [`classify`](Self::classify) both conditions share one deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> SearchEngine {
        self.timeout = Some(timeout);
        self
    }

    /// The number of worker threads searches run on.
    pub fn threads(&self) -> usize {
        self.threads
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

    /// Snapshot of the counters accumulated since creation. Exception: the
    /// timeout fields ([`SearchStats::timed_out`],
    /// [`SearchStats::instances_abandoned`]) describe only the most recent
    /// public search call — see their docs.
    pub fn stats(&self) -> SearchStats {
        SearchStats {
            analyses_computed: self.counters.analyses_computed.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            incremental_hits: 0,
            disk_entries_written: self.counters.disk_entries_written.load(Ordering::Relaxed),
            partitions_tested: self.counters.partitions_tested.load(Ordering::Relaxed),
            instances_visited: self.counters.instances_visited.load(Ordering::Relaxed),
            busy_time: Duration::from_nanos(self.counters.busy_nanos.load(Ordering::Relaxed)),
            timed_out: self.counters.timed_out.load(Ordering::Relaxed),
            instances_abandoned: self.counters.instances_abandoned.load(Ordering::Relaxed),
        }
    }

    /// The deadline for one public search call, armed at call entry. A
    /// timeout past the end of the clock means no deadline.
    fn deadline(&self) -> Option<Instant> {
        self.timeout
            .and_then(|timeout| Instant::now().checked_add(timeout))
    }

    /// Opens a public search call on `ty`: clears the per-call timeout
    /// fields, so `timed_out` / `instances_abandoned` always describe the
    /// call in progress rather than sticking from an earlier timed-out
    /// search on the same engine, arms the deadline, and fingerprints the
    /// type once if a disk cache is attached.
    fn open_call<T: ObjectType + ?Sized>(&self, ty: &T) -> SearchCall<'_> {
        self.counters.timed_out.store(false, Ordering::Relaxed);
        self.counters
            .instances_abandoned
            .store(0, Ordering::Relaxed);
        SearchCall {
            disk: self.disk.as_ref().map(|d| (d, type_fingerprint(ty))),
            deadline: self.deadline(),
        }
    }

    /// Searches for an `n`-recording witness.
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
        self.find(ty, n, Condition::Recording)
    }

    /// Searches for an `n`-discerning witness.
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
        self.find(ty, n, Condition::Discerning)
    }

    /// Computes the recording number up to `cap`.
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
        let [recording] = self.scan(ty, cap, [Condition::Recording])?;
        Ok(recording)
    }

    /// Computes the discerning number up to `cap`.
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
        let [discerning] = self.scan(ty, cap, [Condition::Discerning])?;
        Ok(discerning)
    }

    /// Classifies a type by deciding both conditions up to `cap` in one
    /// level scan.
    ///
    /// Both conditions range over the same `(u, ops)` instances at each
    /// level, so each analysis is built once and tested for every
    /// condition still open at its instance — the second test of an
    /// analysis shows as a `cache_hits` in [`stats`](Self::stats). With a
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
        let [discerning, recording] =
            self.scan(ty, cap, [Condition::Discerning, Condition::Recording])?;
        let readable = ty.is_readable();
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

    /// One public single-level search of `cond` at `n`.
    fn find<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        n: usize,
        cond: Condition,
    ) -> Result<Option<Witness>, SearchError> {
        validate_level(n)?;
        let call = self.open_call(ty);
        let mut outcomes = self.find_witnesses(ty, n, &[cond], &call)?;
        self.publish_metrics();
        Ok(outcomes.pop().and_then(|outcome| outcome.witness))
    }

    /// One public level scan of `conds` up to `cap`, under one call
    /// context (one deadline for all conditions).
    fn scan<T: ObjectType + Sync + ?Sized, const N: usize>(
        &self,
        ty: &T,
        cap: usize,
        conds: [Condition; N],
    ) -> Result<[LevelResult; N], SearchError> {
        validate_level(cap)?;
        let call = self.open_call(ty);
        let result = self.level_scan(ty, cap, conds, &call);
        self.publish_metrics();
        result
    }

    /// Scans `n = 2..=cap` for every condition of `conds` at once; a
    /// condition leaves the scan at its first refuted level (both
    /// conditions are monotone in `n`), and the scan stops when none is
    /// left.
    ///
    /// A deadline firing mid-scan is *inconclusive*: each condition it
    /// cuts short reports its best confirmed level as a lower bound
    /// (`capped: true`), never as the exact answer.
    fn level_scan<T: ObjectType + Sync + ?Sized, const N: usize>(
        &self,
        ty: &T,
        cap: usize,
        conds: [Condition; N],
        call: &SearchCall<'_>,
    ) -> Result<[LevelResult; N], SearchError> {
        let mut best: [LevelResult; N] = std::array::from_fn(|_| LevelResult {
            level: 1,
            capped: false,
            witness: None,
        });
        // Indices into `conds` of the conditions still being scanned, and
        // those conditions.
        let mut open: Vec<usize> = (0..N).collect();
        let mut searched = conds.to_vec();
        for n in 2..=cap {
            if open.is_empty() {
                break;
            }
            let mut outcomes = self.find_witnesses(ty, n, &searched, call)?.into_iter();
            open.retain(|&k| {
                let outcome = outcomes.next().expect("one outcome per condition");
                if outcome.timed_out {
                    best[k].capped = true;
                    return false;
                }
                let Some(w) = outcome.witness else {
                    return false;
                };
                best[k] = LevelResult {
                    level: n,
                    capped: n == cap,
                    witness: Some(w),
                };
                true
            });
            searched.clear();
            searched.extend(open.iter().map(|&k| conds[k]));
        }
        Ok(best)
    }

    /// One level of `conds`: each condition's stored verdict if the disk
    /// cache holds a valid one; the rest are decided together by
    /// [`search_level`](Self::search_level), and their finished verdicts
    /// are stored. Returns one outcome per condition, in order.
    fn find_witnesses<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        n: usize,
        conds: &[Condition],
        call: &SearchCall<'_>,
    ) -> Result<Vec<FindOutcome>, SearchError> {
        let start = Instant::now();
        // The span brackets the same region `busy_time` measures, so a
        // profile's `engine.level` total reconciles with the busy stat.
        let detail = if self.tracer.recording() {
            let names: Vec<&str> = conds.iter().map(|c| c.name()).collect();
            names.join("+")
        } else {
            String::new()
        };
        let level_span = self.tracer.span_with(
            "engine.level",
            i64::try_from(n).unwrap_or(i64::MAX),
            &detail,
        );
        let outcomes = self.decide_level(ty, n, conds, call, &level_span);
        self.counters.busy_nanos.fetch_add(
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        outcomes
    }

    /// The body of [`find_witnesses`](Self::find_witnesses): disk loads,
    /// one search of the unanswered conditions, disk stores.
    fn decide_level<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        n: usize,
        conds: &[Condition],
        call: &SearchCall<'_>,
        level_span: &Span,
    ) -> Result<Vec<FindOutcome>, SearchError> {
        let mut outcomes: Vec<Option<FindOutcome>> = conds
            .iter()
            .map(|&cond| {
                let (disk, fingerprint) = call.disk?;
                let witness = disk.load(ty, fingerprint, cond, n, &self.tracer)?;
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(FindOutcome {
                    witness,
                    timed_out: false,
                })
            })
            .collect();
        let unanswered: Vec<Condition> = conds
            .iter()
            .zip(&outcomes)
            .filter_map(|(&cond, outcome)| outcome.is_none().then_some(cond))
            .collect();
        if !unanswered.is_empty() {
            let searched = self.search_level(ty, n, &unanswered, call, level_span)?;
            let slots = outcomes.iter_mut().filter(|outcome| outcome.is_none());
            for ((slot, found), cond) in slots.zip(searched).zip(unanswered) {
                if let (false, Some((disk, fingerprint))) = (found.timed_out, call.disk) {
                    if disk.store(fingerprint, cond, n, &found.witness, &self.tracer) {
                        self.counters
                            .disk_entries_written
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                *slot = Some(found);
            }
        }
        Ok(outcomes
            .into_iter()
            .map(|outcome| outcome.expect("answered from disk or searched"))
            .collect())
    }

    /// The parallel witness search of `conds` over one level: one task per
    /// instance. The instance space is streamed, never collected: workers
    /// claim instances one at a time from one shared [`instances`]
    /// iterator, in instance order, and a claim's position is its instance
    /// index. A task builds the instance's [`Analysis`] once and tests it,
    /// partition by partition, for every condition still open at that
    /// instance; the analysis is dropped when the task ends. A condition
    /// closes at its earliest `(instance, partition)` witness: workers skip
    /// it at later instances and stop at the first claim where every
    /// condition is closed. With one worker the visit order is fixed
    /// (instances in order, partitions in order), so the returned witnesses
    /// are deterministic.
    ///
    /// Every task runs inside `catch_unwind`: a panicking task (a hand-built
    /// [`ObjectType`] breaking its contract mid-analysis) records its payload,
    /// cancels the remaining workers through the shared stop flag, and
    /// surfaces as [`SearchError::TaskPanicked`] — the queue is never wedged
    /// and the engine stays usable. A deadline is checked at every task
    /// claim and every 256 partition tests within a task; when it fires,
    /// the instances not finished — the closed-form size of the space,
    /// `|V| · C(|O| + n − 1, n)`, less the finished-task count — are
    /// counted into [`SearchStats::instances_abandoned`] once per condition
    /// left undecided.
    ///
    /// Returns one outcome per condition, in order.
    fn search_level<T: ObjectType + Sync + ?Sized>(
        &self,
        ty: &T,
        n: usize,
        conds: &[Condition],
        call: &SearchCall<'_>,
        level_span: &Span,
    ) -> Result<Vec<FindOutcome>, SearchError> {
        let total = instance_count(ty.num_values(), ty.num_ops(), n);
        let space = Mutex::new(instances(ty.num_values(), ty.num_ops(), n).enumerate());
        let parts: Vec<(u32, u32)> = partitions(n).collect();

        if self.tracer.recording() {
            // Queue depth at level start: how many claimable tasks the
            // workers are about to drain.
            level_span.event(
                "engine.queue",
                i64::try_from(total).unwrap_or(i64::MAX),
                &format!("instances={total} partitions={}", parts.len()),
            );
        }

        // Set by a panic or a deadline: every worker stops claiming.
        let stop = AtomicBool::new(false);
        let deadline_hit = AtomicBool::new(false);
        // Tasks that ran to their end: when a deadline fires, the rest of
        // the space is its abandoned remainder.
        let finished = AtomicU64::new(0);
        // First panic payload wins; later ones are dropped.
        let panicked: Mutex<Option<String>> = Mutex::new(None);
        // Per condition, the earliest-(instance, partition) witness found
        // so far, so more threads can only improve (not degrade) how
        // canonical the returned witness is; and the instance it was found
        // at (`usize::MAX` while none is), which later instances skip.
        // `closed_at` only lets workers skip work, so `Relaxed` suffices:
        // the witnesses are published through the `found` mutexes.
        let found: Vec<WitnessSlot> = conds.iter().map(|_| Mutex::new(None)).collect();
        let closed_at: Vec<AtomicUsize> =
            conds.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();

        let past_deadline = || call.deadline.is_some_and(|d| Instant::now() >= d);

        let worker = |engine: &SearchEngine| {
            let mut local_analyses = 0u64;
            let mut local_visits = 0u64;
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
                let claim = space.lock().expect("instance space").next();
                let Some((i, (u, ops))) = claim else {
                    break;
                };
                // The conditions still open at instance `i`, by bit.
                let mut open = (0..conds.len())
                    .filter(|&k| i < closed_at[k].load(Ordering::Relaxed))
                    .fold(0u32, |open, k| open | 1 << k);
                if open == 0 {
                    // Every condition closed at an earlier instance: this
                    // and every later claim has nothing left to test.
                    break;
                }
                // Contain panics to the task: a broken `ObjectType` must
                // not wedge the queue or poison the engine.
                let task = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let analysis = {
                        let _span = engine.tracer.span_with(
                            "engine.analysis",
                            i64::try_from(ops.len()).unwrap_or(i64::MAX),
                            "",
                        );
                        Analysis::new(ty, u, &ops)
                    };
                    local_analyses += 1;
                    local_visits += u64::from(open.count_ones());
                    for (p, &(t0, t1)) in parts.iter().enumerate() {
                        for (k, cond) in conds.iter().enumerate() {
                            if open & 1 << k == 0 {
                                continue;
                            }
                            if local_partitions.is_multiple_of(256) && past_deadline() {
                                deadline_hit.store(true, Ordering::Relaxed);
                                stop.store(true, Ordering::Relaxed);
                                return false;
                            }
                            local_partitions += 1;
                            if cond.holds(&analysis, u, t0, t1) {
                                let mut slot = found[k].lock().expect("witness slot");
                                match &*slot {
                                    Some((best, _)) if *best <= (i, p) => {}
                                    _ => {
                                        let witness = Witness::new(u, team_of(n, t1), ops.clone());
                                        *slot = Some(((i, p), witness));
                                    }
                                }
                                closed_at[k].fetch_min(i, Ordering::Relaxed);
                                open &= !(1 << k);
                            }
                        }
                        if open == 0 {
                            break;
                        }
                    }
                    true
                }));
                match task {
                    Ok(true) => {
                        finished.fetch_add(1, Ordering::Relaxed);
                    }
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
            let counters = &engine.counters;
            counters
                .analyses_computed
                .fetch_add(local_analyses, Ordering::Relaxed);
            // Every visit after an instance's first is served by the
            // analysis already built for it.
            counters
                .cache_hits
                .fetch_add(local_visits - local_analyses, Ordering::Relaxed);
            counters
                .instances_visited
                .fetch_add(local_visits, Ordering::Relaxed);
            counters
                .partitions_tested
                .fetch_add(local_partitions, Ordering::Relaxed);
        };

        let workers = self
            .threads
            .min(usize::try_from(total).unwrap_or(usize::MAX).max(1));
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
        let deadline_hit = deadline_hit.load(Ordering::Relaxed);
        let abandoned = total.saturating_sub(finished.into_inner());
        Ok(conds
            .iter()
            .zip(found)
            .map(|(cond, slot)| {
                let witness = slot.into_inner().expect("witness slot").map(|(_, w)| w);
                // A found witness is conclusive: the deadline only matters
                // when the search was cut short still empty-handed.
                let timed_out = witness.is_none() && deadline_hit;
                if timed_out {
                    self.counters.timed_out.store(true, Ordering::Relaxed);
                    self.counters
                        .instances_abandoned
                        .fetch_add(abandoned, Ordering::Relaxed);
                    self.tracer.event(
                        "engine.timeout",
                        i64::try_from(abandoned).unwrap_or(i64::MAX),
                        cond.name(),
                    );
                }
                FindOutcome { witness, timed_out }
            })
            .collect())
    }
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
        assert!(
            stats.cache_hits > 0,
            "both conditions share analyses: {stats}"
        );
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
        let tnn = Tnn::new(4, 2);
        let result = engine.classify(&tnn, 5).unwrap();
        // An already-expired deadline confirms nothing: the scan reports
        // only a trivial lower bound, never a refuted level.
        assert!(result.discerning.capped, "timed-out scan must be capped");
        assert!(result.recording.capped, "timed-out scan must be capped");
        assert_eq!(result.discerning.level, 1);
        let stats = engine.stats();
        assert!(stats.timed_out, "stats must disclose the timeout: {stats}");
        // The whole level-2 space, `|V| · C(|O| + 1, 2)` instances, was
        // abandoned once for each of the two conditions it left undecided.
        let level = instance_count(tnn.num_values(), tnn.num_ops(), 2);
        assert!(level > 0);
        assert_eq!(
            stats.instances_abandoned,
            2 * level,
            "the whole space was abandoned: {stats}"
        );
        assert!(stats.to_string().contains("TIMED OUT"));
    }

    #[test]
    fn timeout_flags_are_per_call_not_sticky() {
        // Regression: timed_out / instances_abandoned used to accumulate
        // for the engine's lifetime, so one timed-out search made every
        // later clean call on the same engine still report a timeout.
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
        let c = engine.classify(&TestAndSet::new(), 4).unwrap();
        assert_eq!(c.consensus_number.to_string(), "2");
        assert_eq!(c.recoverable_consensus_number.to_string(), "1");
        let stats = engine.stats();
        assert!(!stats.timed_out);
        assert_eq!(stats.instances_abandoned, 0);
    }

    #[test]
    fn unrepresentable_deadlines_mean_no_deadline() {
        // `Instant::now() + Duration::MAX` overflowed and panicked.
        let engine = SearchEngine::new(2).with_timeout(Duration::MAX);
        let c = engine.classify(&TestAndSet::new(), 3).unwrap();
        assert_eq!(c.consensus_number.to_string(), "2");
        assert_eq!(c.recoverable_consensus_number.to_string(), "1");
        assert!(!engine.stats().timed_out);
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
        // Spans: one engine.level per level searched, detailed with the
        // conditions still open there, each with a queue event inside,
        // plus one engine.analysis per computed analysis. Test-and-set is
        // 2-discerning but not 2-recording, so level 3 searches only the
        // discerning condition.
        let events = tracer.ring_events();
        let levels: Vec<(i64, &str)> = events
            .iter()
            .filter(|e| e.kind == rcn_obs::KIND_OPEN && e.name == "engine.level")
            .map(|e| (e.value, e.detail.as_str()))
            .collect();
        assert_eq!(levels, [(2, "discerning+recording"), (3, "discerning")]);
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
        assert!(stats.busy_time > Duration::ZERO);
    }

    #[test]
    fn the_disk_cache_reports_to_the_engine_tracer() {
        let tracer = Tracer::metrics_only();
        let dir = std::env::temp_dir().join(format!(
            "rcn-engine-cache-tracer-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let engine = SearchEngine::sequential()
            .with_disk_cache(DiskCache::new(&dir))
            .with_tracer(tracer.clone());
        engine.classify(&TestAndSet::new(), 3).unwrap();
        let written = engine.stats().disk_entries_written;
        assert!(written > 0);
        let snap = tracer.snapshot().unwrap();
        assert_eq!(snap.counter("cache.stores"), Some(written));
        std::fs::remove_dir_all(&dir).ok();
    }
}
