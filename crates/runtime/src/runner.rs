//! The threaded runner: executes a protocol's processes on OS threads over
//! an [`NvHeap`](crate::NvHeap), injecting crashes.
//!
//! A crash destroys exactly what the paper's model says it destroys: the
//! process's volatile local state (here, the worker's program-state
//! variable, rebuilt from `Program::initial_state`), while the shared heap
//! persists. Crash points are chosen by a per-process seeded RNG before
//! each step, with a per-process crash cap so runs terminate (recoverable
//! wait-freedom only promises progress to processes that eventually stop
//! crashing).
//!
//! The runner checks agreement and validity on the decisions it collects —
//! a cheap dynamic complement to the exhaustive `rcn-valency` checker,
//! useful at thread counts and interleavings the explicit-state checker
//! cannot reach.

use crate::nvheap::NvHeap;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcn_model::{Action, Event, ProcessId, Schedule, System};
use rcn_obs::Tracer;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a threaded run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// RNG seed (crash points and micro-delays derive from it).
    pub seed: u64,
    /// Probability of crashing before any given step.
    pub crash_prob: f64,
    /// Maximum crashes per process (so the run terminates).
    pub max_crashes: usize,
    /// Safety valve: maximum steps per process (0 disables the check).
    pub max_steps: usize,
    /// Inject random sub-microsecond spin delays to shake interleavings.
    pub jitter: bool,
    /// Record a global linearized event trace (serializes all object
    /// accesses through one lock — for cross-validation, not throughput).
    pub record_trace: bool,
    /// Wall-clock watchdog: abort the run (reporting
    /// [`RunReport::timed_out`]) if it is still going after this long.
    /// Guards against non-wait-free programs spinning forever when
    /// `max_steps` is 0; `None` disables the watchdog entirely.
    pub watchdog: Option<Duration>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 0,
            crash_prob: 0.05,
            max_crashes: 5,
            max_steps: 100_000,
            jitter: true,
            record_trace: false,
            watchdog: Some(Duration::from_secs(30)),
        }
    }
}

/// Per-process statistics of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Steps (operation applications) taken, across all incarnations.
    pub steps: usize,
    /// Crashes suffered.
    pub crashes: usize,
    /// The decision, if the process decided.
    pub decision: Option<u32>,
}

/// The result of a threaded run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-process statistics.
    pub processes: Vec<ProcessStats>,
    /// Whether all processes decided.
    pub all_decided: bool,
    /// Agreement check: at most one distinct decision.
    pub agreement: bool,
    /// Validity check: every decision is some process's input.
    pub validity: bool,
    /// The linearized global trace, when requested via
    /// [`RunOptions::record_trace`]. Replaying it through the abstract
    /// executor reproduces the run exactly (see the cross-validation
    /// tests).
    pub trace: Option<Schedule>,
    /// `true` if the [`RunOptions::watchdog`] deadline fired and at least
    /// one worker aborted before deciding.
    pub timed_out: bool,
}

impl RunReport {
    /// Returns `true` if the run decided unanimously on a valid value.
    pub fn is_clean_consensus(&self) -> bool {
        self.all_decided && self.agreement && self.validity
    }

    /// Total steps across processes.
    pub fn total_steps(&self) -> usize {
        self.processes.iter().map(|p| p.steps).sum()
    }

    /// Total crashes across processes.
    pub fn total_crashes(&self) -> usize {
        self.processes.iter().map(|p| p.crashes).sum()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decided={} agreement={} validity={} steps={} crashes={}",
            self.all_decided,
            self.agreement,
            self.validity,
            self.total_steps(),
            self.total_crashes()
        )?;
        if self.timed_out {
            write!(f, " (timed out)")?;
        }
        Ok(())
    }
}

/// Runs the system's program on one OS thread per process over a fresh
/// [`NvHeap`], injecting crashes per `options`.
///
/// # Examples
///
/// ```
/// use rcn_protocols::TnnRecoverable;
/// use rcn_runtime::{run_threaded, RunOptions};
///
/// let sys = TnnRecoverable::system(5, 2, vec![1, 0]);
/// let report = run_threaded(&sys, RunOptions { seed: 7, ..Default::default() });
/// assert!(report.is_clean_consensus());
/// ```
pub fn run_threaded(system: &System, options: RunOptions) -> RunReport {
    run_threaded_traced(system, options, &Tracer::disabled())
}

/// [`run_threaded`] with observability: brackets the run in a
/// `runtime.run` span, emits a `runtime.watchdog` event from any worker
/// the deadline aborts, and adds the run's totals to the `runtime.steps`
/// and `runtime.crashes` counters. With a disabled tracer this is exactly
/// [`run_threaded`].
pub fn run_threaded_traced(system: &System, options: RunOptions, tracer: &Tracer) -> RunReport {
    let run_span = tracer.span_with(
        "runtime.run",
        i64::try_from(system.n()).unwrap_or(i64::MAX),
        &format!("seed={}", options.seed),
    );
    let heap = Arc::new(NvHeap::new(system.layout_arc()));
    let stats: Vec<Mutex<ProcessStats>> = (0..system.n())
        .map(|_| Mutex::new(ProcessStats::default()))
        .collect();
    let trace: Option<Mutex<Vec<Event>>> = options.record_trace.then(|| Mutex::new(Vec::new()));
    // A watchdog past the end of the clock never fires.
    let deadline = options
        .watchdog
        .and_then(|limit| Instant::now().checked_add(limit));
    let timed_out = AtomicBool::new(false);

    crossbeam::scope(|scope| {
        for i in 0..system.n() {
            let heap = Arc::clone(&heap);
            let stats = &stats;
            let system = &system;
            let trace = trace.as_ref();
            let timed_out = &timed_out;
            scope.spawn(move |_| {
                run_worker(
                    system,
                    &heap,
                    ProcessId(i as u16),
                    options,
                    &stats[i],
                    trace,
                    deadline,
                    timed_out,
                    tracer,
                );
            });
        }
    })
    .expect("worker threads join");

    let processes: Vec<ProcessStats> = stats.into_iter().map(|m| m.into_inner()).collect();
    let total_steps: usize = processes.iter().map(|p| p.steps).sum();
    let total_crashes: usize = processes.iter().map(|p| p.crashes).sum();
    tracer.add("runtime.steps", total_steps as u64);
    tracer.add("runtime.crashes", total_crashes as u64);
    drop(run_span);
    let decisions: Vec<u32> = processes.iter().filter_map(|p| p.decision).collect();
    let mut distinct = decisions.clone();
    distinct.sort_unstable();
    distinct.dedup();
    RunReport {
        all_decided: processes.iter().all(|p| p.decision.is_some()),
        agreement: distinct.len() <= 1,
        validity: decisions.iter().all(|d| system.inputs().contains(d)),
        processes,
        trace: trace.map(|t| Schedule::from_events(t.into_inner())),
        timed_out: timed_out.load(Ordering::Relaxed),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_worker(
    system: &System,
    heap: &NvHeap,
    pid: ProcessId,
    options: RunOptions,
    stats: &Mutex<ProcessStats>,
    trace: Option<&Mutex<Vec<Event>>>,
    deadline: Option<Instant>,
    timed_out: &AtomicBool,
    tracer: &Tracer,
) {
    let program = system.program();
    let input = system.inputs()[pid.index()];
    let mut rng = StdRng::seed_from_u64(options.seed ^ (0x9e37_79b9 * (pid.index() as u64 + 1)));
    let mut state = program.initial_state(pid, input);
    let mut crashes = 0usize;
    let mut steps = 0usize;
    loop {
        if options.max_steps > 0 && steps > options.max_steps {
            // Liveness bug guard: give up rather than hang the test suite.
            break;
        }
        // Wall-clock watchdog: `max_steps: 0` disables the step guard, so a
        // non-wait-free program would otherwise spin here forever.
        if let Some(deadline) = deadline {
            if steps.is_multiple_of(64) && Instant::now() >= deadline {
                timed_out.store(true, Ordering::Relaxed);
                tracer.event(
                    "runtime.watchdog",
                    i64::try_from(steps).unwrap_or(i64::MAX),
                    &pid.to_string(),
                );
                break;
            }
        }
        // Crash injection: lose the volatile state, keep the heap.
        if crashes < options.max_crashes && rng.gen_bool(options.crash_prob) {
            crashes += 1;
            state = program.initial_state(pid, input);
            if let Some(trace) = trace {
                trace.lock().push(Event::Crash(pid));
            }
            continue;
        }
        match program.action(pid, &state) {
            Action::Output(v) => {
                let mut s = stats.lock();
                s.steps = steps;
                s.crashes = crashes;
                s.decision = Some(v);
                return;
            }
            Action::Invoke { object, op } => {
                if options.jitter && rng.gen_bool(0.2) {
                    std::thread::yield_now();
                }
                let out = match trace {
                    // Tracing serializes the access with its log entry so
                    // the recorded order is a true linearization.
                    Some(trace) => {
                        let mut log = trace.lock();
                        let out = heap.apply(object, op);
                        log.push(Event::Step(pid));
                        out
                    }
                    None => heap.apply(object, op),
                };
                state = program.transition(pid, &state, out.response);
                steps += 1;
            }
        }
    }
    let mut s = stats.lock();
    s.steps = steps;
    s.crashes = crashes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_protocols::{TnnRecoverable, TournamentConsensus};
    use rcn_spec::zoo::StickyBit;

    #[test]
    fn tnn_recoverable_runs_clean_across_seeds() {
        let sys = TnnRecoverable::system(5, 2, vec![1, 0]);
        for seed in 0..10 {
            let report = run_threaded(
                &sys,
                RunOptions {
                    seed,
                    crash_prob: 0.2,
                    max_crashes: 4,
                    ..Default::default()
                },
            );
            assert!(report.is_clean_consensus(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn tournament_runs_clean_with_many_threads() {
        let inputs: Vec<u32> = (0..6).map(|i| i % 2).collect();
        let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), inputs).unwrap();
        for seed in 0..5 {
            let report = run_threaded(
                &sys,
                RunOptions {
                    seed,
                    crash_prob: 0.1,
                    max_crashes: 3,
                    ..Default::default()
                },
            );
            assert!(report.is_clean_consensus(), "seed {seed}: {report}");
        }
    }

    /// A deliberately non-wait-free program: read a register forever,
    /// never output. With `max_steps: 0` the step guard is disabled, so
    /// only the watchdog can end the run.
    struct Spinner;

    impl rcn_model::Program for Spinner {
        fn name(&self) -> String {
            "spinner".into()
        }

        fn initial_state(&self, _pid: ProcessId, input: u32) -> rcn_model::LocalState {
            rcn_model::LocalState::word1(input)
        }

        fn action(&self, _pid: ProcessId, _state: &rcn_model::LocalState) -> Action {
            Action::Invoke {
                object: rcn_model::ObjectId(0),
                op: rcn_spec::OpId(0),
            }
        }

        fn transition(
            &self,
            _pid: ProcessId,
            state: &rcn_model::LocalState,
            _response: rcn_spec::Response,
        ) -> rcn_model::LocalState {
            state.clone()
        }
    }

    fn spinner_system() -> System {
        let mut layout = rcn_model::HeapLayout::new();
        layout.add_object(
            "r",
            Arc::new(rcn_spec::zoo::Register::new(2)),
            rcn_spec::ValueId(0),
        );
        System::new_unchecked(Arc::new(Spinner), Arc::new(layout), vec![0, 1])
    }

    #[test]
    fn watchdog_ends_a_non_wait_free_run_instead_of_hanging() {
        // Regression: max_steps: 0 disables the step guard, and before the
        // watchdog existed this configuration spun forever.
        let report = run_threaded(
            &spinner_system(),
            RunOptions {
                max_steps: 0,
                crash_prob: 0.0,
                jitter: false,
                watchdog: Some(Duration::from_millis(100)),
                ..Default::default()
            },
        );
        assert!(report.timed_out, "watchdog must fire: {report}");
        assert!(!report.all_decided);
    }

    #[test]
    fn watchdog_does_not_flag_terminating_runs() {
        let sys = TnnRecoverable::system(5, 2, vec![1, 0]);
        let report = run_threaded(&sys, RunOptions::default());
        assert!(report.is_clean_consensus(), "{report}");
        assert!(!report.timed_out);
    }

    #[test]
    fn unrepresentable_watchdog_never_fires() {
        // `Instant::now() + Duration::MAX` overflowed and panicked.
        let sys = TnnRecoverable::system(5, 2, vec![1, 0]);
        let options = RunOptions {
            watchdog: Some(Duration::MAX),
            ..Default::default()
        };
        let report = run_threaded(&sys, options);
        assert!(report.is_clean_consensus(), "{report}");
        assert!(!report.timed_out);
    }

    #[test]
    fn traced_run_emits_watchdog_event_and_counters() {
        let tracer = Tracer::ring(64);
        let report = run_threaded_traced(
            &spinner_system(),
            RunOptions {
                max_steps: 0,
                crash_prob: 0.0,
                jitter: false,
                watchdog: Some(Duration::from_millis(100)),
                ..Default::default()
            },
            &tracer,
        );
        assert!(report.timed_out, "{report}");
        let rows = tracer.ring_events();
        assert!(
            rows.iter().any(|r| r.name == "runtime.watchdog"),
            "{rows:?}"
        );
        assert!(rows.iter().any(|r| r.name == "runtime.run"));
        let snap = tracer.snapshot().expect("enabled tracer");
        assert_eq!(
            snap.counter("runtime.steps"),
            Some(report.total_steps() as u64)
        );
    }

    #[test]
    fn stats_account_steps_and_crashes() {
        let sys = TnnRecoverable::system(4, 2, vec![0, 1]);
        let report = run_threaded(
            &sys,
            RunOptions {
                seed: 3,
                crash_prob: 0.3,
                max_crashes: 5,
                ..Default::default()
            },
        );
        assert!(report.total_steps() >= 2, "{report}");
        assert!(report.processes.len() == 2);
    }
}
