//! Deterministic, schedule-driven threaded replay.
//!
//! [`run_threaded`](crate::run_threaded) explores interleavings the OS
//! scheduler and a seeded RNG happen to produce; this module is the
//! opposite tool: it takes an explicit [`Schedule`] — e.g. a counterexample
//! found by the crash explorer in `rcn-faults` — and executes it on real OS
//! threads over a real [`NvHeap`](crate::NvHeap), one thread per process,
//! with a turn-based coordinator that hands the global next-event token to
//! exactly the thread the schedule names. Crashes destroy the worker's
//! volatile program state (the paper's crash semantics) while the heap
//! persists.
//!
//! The point is end-to-end confirmation: a violation predicted by the
//! abstract executor ([`System::run_from_start`]) is only believed once the
//! very same schedule produces the very same outputs through the threaded
//! machinery. The replay mirrors the abstract executor's output semantics
//! exactly — an output is recorded when a step *enters* an output state, a
//! step taken in an output state is a no-op, and a crash of a process whose
//! initial state is an output state re-outputs on recovery.

use crate::nvheap::NvHeap;
use rcn_model::{Action, Event, ProcessId, Schedule, System, Violation};
use rcn_obs::Tracer;
use std::sync::{Condvar, Mutex};

/// The result of replaying a fixed schedule on real threads.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// The events actually executed, in order. Always equals the input
    /// schedule — recorded independently by the workers as an end-to-end
    /// fidelity check, not assumed.
    pub trace: Schedule,
    /// Every output in execution order (a crashed process that re-outputs
    /// appears more than once). Initial-state outputs are not listed here,
    /// matching [`rcn_model::Execution::outputs`].
    pub outputs: Vec<(ProcessId, u32)>,
    /// The first value each process output (including initial-state
    /// outputs).
    pub decisions: Vec<Option<u32>>,
    /// The first agreement/validity violation among the replayed events,
    /// if any.
    pub violation: Option<Violation>,
}

/// What the worker threads share, guarded by one mutex: the turn cursor
/// plus everything the report is assembled from.
struct Shared {
    cursor: usize,
    /// During a [`Event::SystemCrash`], the index of the process whose turn
    /// it is to reset (every worker participates, in process-id order, so
    /// re-outputs are recorded in the same order as the abstract
    /// executor's). `0` outside a system crash.
    sys_next: usize,
    trace: Vec<Event>,
    outputs: Vec<(ProcessId, u32)>,
    decided: Vec<Option<u32>>,
    violation: Option<Violation>,
}

impl Shared {
    /// Mirrors the abstract executor's output bookkeeping: check the new
    /// output against everything decided so far *before* recording it.
    fn record_output(&mut self, system: &System, pid: ProcessId, v: u32) {
        self.outputs.push((pid, v));
        if self.violation.is_none() {
            self.violation = system.check_output(&self.decided, pid, v);
        }
        if self.decided[pid.index()].is_none() {
            self.decided[pid.index()] = Some(v);
        }
    }
}

/// Replays `schedule` on one OS thread per process over a fresh
/// [`NvHeap`], in exactly the scheduled order.
///
/// # Panics
///
/// Panics if the schedule names a process id `>= system.n()`.
///
/// # Examples
///
/// ```
/// use rcn_protocols::TasConsensus;
/// use rcn_runtime::run_schedule;
///
/// let sys = TasConsensus::system(vec![0, 1]);
/// // Solo run of p0: announce, win the TAS, decide own input.
/// let report = run_schedule(&sys, &"p0 p0".parse().unwrap());
/// assert_eq!(report.decisions[0], Some(0));
/// assert!(report.violation.is_none());
/// ```
pub fn run_schedule(system: &System, schedule: &Schedule) -> ScheduleReport {
    run_schedule_traced(system, schedule, &Tracer::disabled())
}

/// [`run_schedule`] with observability: brackets the replay in a
/// `runtime.replay` span, emits a `runtime.step` / `runtime.crash` event
/// per scheduled event (from the worker thread that executed it, so the
/// trace records real thread ids), and maintains the `runtime.steps`,
/// `runtime.crashes`, and `runtime.outputs` counters. With a disabled
/// tracer this is exactly [`run_schedule`].
///
/// # Panics
///
/// Panics if the schedule names a process id `>= system.n()`.
pub fn run_schedule_traced(
    system: &System,
    schedule: &Schedule,
    tracer: &Tracer,
) -> ScheduleReport {
    let n = system.n();
    for event in schedule.iter() {
        if let Some(p) = event.process() {
            assert!(
                p.index() < n,
                "schedule names {p} but the system has {n} processes"
            );
        }
    }
    let heap = NvHeap::new(system.layout_arc());
    let events: Vec<Event> = schedule.events().to_vec();

    // Seed the decision table with initial-state outputs, like
    // `System::initial_config` does, so re-output checks see them.
    let initial = system.initial_config();
    let shared = Mutex::new(Shared {
        cursor: 0,
        sys_next: 0,
        trace: Vec::with_capacity(events.len()),
        outputs: Vec::new(),
        decided: initial.decided.clone(),
        violation: None,
    });
    let turn = Condvar::new();

    let replay_span = tracer.span_with(
        "runtime.replay",
        i64::try_from(events.len()).unwrap_or(i64::MAX),
        &format!("n={n}"),
    );
    let steps = tracer.counter("runtime.steps");
    let crashes = tracer.counter("runtime.crashes");

    std::thread::scope(|scope| {
        for i in 0..n {
            let pid = ProcessId(i as u16);
            let heap = &heap;
            let events = &events;
            let shared = &shared;
            let turn = &turn;
            let steps = &steps;
            let crashes = &crashes;
            scope.spawn(move || {
                let program = system.program();
                let input = system.inputs()[pid.index()];
                let mut state = program.initial_state(pid, input);
                let mut guard = shared.lock().expect("replay shared state");
                loop {
                    // A worker's turn: the cursor event belongs to it, or
                    // it is a system-wide crash and the reset token
                    // (process-id order) has reached this worker.
                    let my_turn = |guard: &Shared| match events[guard.cursor].process() {
                        Some(p) => p == pid,
                        None => guard.sys_next == pid.index(),
                    };
                    while guard.cursor < events.len() && !my_turn(&guard) {
                        guard = turn.wait(guard).expect("replay shared state");
                    }
                    if guard.cursor >= events.len() {
                        return;
                    }
                    let event = events[guard.cursor];
                    match event {
                        Event::Crash(_) => {
                            crashes.incr();
                            if tracer.recording() {
                                tracer.event(
                                    "runtime.crash",
                                    guard.cursor as i64,
                                    &pid.to_string(),
                                );
                            }
                            // Volatile state dies; the heap persists. A
                            // recovery into an output state re-outputs.
                            state = program.initial_state(pid, input);
                            if let Action::Output(v) = program.action(pid, &state) {
                                guard.record_output(system, pid, v);
                            }
                        }
                        Event::SystemCrash => {
                            // Every worker resets its own volatile state;
                            // the heap persists. Workers take the token in
                            // process-id order, so re-outputs land in the
                            // same order as the abstract executor's, and
                            // only the last participant advances the
                            // cursor.
                            crashes.incr();
                            if tracer.recording() {
                                tracer.event(
                                    "runtime.crash",
                                    guard.cursor as i64,
                                    &pid.to_string(),
                                );
                            }
                            state = program.initial_state(pid, input);
                            if let Action::Output(v) = program.action(pid, &state) {
                                guard.record_output(system, pid, v);
                            }
                            if pid.index() + 1 < n {
                                guard.sys_next = pid.index() + 1;
                                turn.notify_all();
                                continue;
                            }
                            guard.sys_next = 0;
                        }
                        Event::CrashDuring(_) => {
                            // Mid-operation crash, linearized resolution:
                            // the pending invocation hits the heap, but the
                            // response dies with the worker's volatile
                            // state.
                            crashes.incr();
                            if tracer.recording() {
                                tracer.event(
                                    "runtime.crash",
                                    guard.cursor as i64,
                                    &pid.to_string(),
                                );
                            }
                            if let Action::Invoke { object, op } = program.action(pid, &state) {
                                heap.apply(object, op);
                            }
                            state = program.initial_state(pid, input);
                            if let Action::Output(v) = program.action(pid, &state) {
                                guard.record_output(system, pid, v);
                            }
                        }
                        Event::Step(_) => {
                            steps.incr();
                            if tracer.recording() {
                                tracer.event("runtime.step", guard.cursor as i64, &pid.to_string());
                            }
                            match program.action(pid, &state) {
                                Action::Output(_) => {
                                    // A step in an output state is a no-op.
                                }
                                Action::Invoke { object, op } => {
                                    let out = heap.apply(object, op);
                                    state = program.transition(pid, &state, out.response);
                                    if let Action::Output(v) = program.action(pid, &state) {
                                        guard.record_output(system, pid, v);
                                    }
                                }
                            }
                        }
                    }
                    guard.trace.push(event);
                    guard.cursor += 1;
                    turn.notify_all();
                }
            });
        }
    });

    let shared = shared.into_inner().expect("replay shared state");
    tracer.add(
        "runtime.outputs",
        u64::try_from(shared.outputs.len()).unwrap_or(0),
    );
    drop(replay_span);
    ScheduleReport {
        trace: Schedule::from_events(shared.trace),
        outputs: shared.outputs,
        decisions: shared.decided,
        violation: shared.violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::Execution;
    use rcn_obs::{KIND_CLOSE, KIND_OPEN};
    use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree};

    #[test]
    fn golabs_schedule_reproduces_the_violation_on_threads() {
        let sys = TasConsensus::system(vec![0, 1]);
        let schedule: Schedule = "p0 p0 c0 p1 p1 p0 p0 p0 p1 p1".parse().unwrap();
        let report = run_schedule(&sys, &schedule);
        assert_eq!(report.trace, schedule, "replay must follow the schedule");
        let (_, expected) = sys.run_from_start(&schedule);
        assert_eq!(report.violation, expected);
        assert!(report.violation.is_some(), "Golab's schedule must violate");
    }

    #[test]
    fn threaded_replay_matches_the_abstract_executor() {
        let sys = TnnRecoverable::system(5, 2, vec![1, 0]);
        let schedule: Schedule = "p0 c0 p0 p1 p0 p1 c1 p1 p1".parse().unwrap();
        let report = run_schedule(&sys, &schedule);
        let exec = Execution::record(&sys, &schedule);
        assert_eq!(report.trace, schedule);
        assert_eq!(report.outputs, exec.outputs());
        assert_eq!(report.violation, exec.first_violation());
        assert_eq!(
            report.decisions,
            exec.final_config().decided,
            "decisions must match the abstract final configuration"
        );
    }

    #[test]
    #[should_panic(expected = "processes")]
    fn out_of_range_process_ids_are_rejected() {
        let sys = TasConsensus::system(vec![0, 1]);
        run_schedule(&sys, &"p7".parse().unwrap());
    }

    #[test]
    fn system_crash_replays_like_the_abstract_executor() {
        // Golab's T&S counterexample with the lone crash widened to a
        // system-wide one: every worker resets, and the replay stays
        // bit-identical to the abstract run.
        let sys = TasConsensus::system(vec![0, 1]);
        let schedule: Schedule = "p0 p0 C p1 p1 p0 p0 p0 p1 p1".parse().unwrap();
        let report = run_schedule(&sys, &schedule);
        let exec = Execution::record(&sys, &schedule);
        assert_eq!(report.trace, schedule, "replay must follow the schedule");
        assert_eq!(report.outputs, exec.outputs());
        assert_eq!(report.violation, exec.first_violation());
        assert_eq!(report.decisions, exec.final_config().decided);
    }

    #[test]
    fn mid_operation_crash_replays_like_the_abstract_executor() {
        // The depth-3 ⊥-divergence of wait-free T_{2,1}: p0's pending
        // operation linearizes (the object saturates) but its response is
        // lost to the crash, so p0 retries after recovery.
        let sys = TnnWaitFree::system(2, 1, vec![0, 1]);
        let schedule: Schedule = "p1 d0 p0".parse().unwrap();
        let report = run_schedule(&sys, &schedule);
        let exec = Execution::record(&sys, &schedule);
        assert_eq!(report.trace, schedule);
        assert_eq!(report.outputs, exec.outputs());
        assert_eq!(report.violation, exec.first_violation());
        assert!(report.violation.is_some(), "p1 d0 p0 must diverge");
        assert_eq!(report.decisions, exec.final_config().decided);
    }

    #[test]
    fn mixed_fault_schedules_replay_bit_identically() {
        // All four event families in one schedule, across both a broken
        // and a certified protocol.
        for (sys, text) in [
            (TasConsensus::system(vec![0, 1]), "p0 d1 C p0 p1 c0 p0 p0"),
            (
                TnnRecoverable::system(5, 2, vec![1, 0]),
                "p0 c0 d0 p1 C p0 p1 d1 p1 p1",
            ),
        ] {
            let schedule: Schedule = text.parse().unwrap();
            let report = run_schedule(&sys, &schedule);
            let exec = Execution::record(&sys, &schedule);
            assert_eq!(report.trace, schedule, "{text}");
            assert_eq!(report.outputs, exec.outputs(), "{text}");
            assert_eq!(report.violation, exec.first_violation(), "{text}");
            assert_eq!(report.decisions, exec.final_config().decided, "{text}");
        }
    }

    #[test]
    fn traced_system_crash_counts_every_worker_reset() {
        let sys = TasConsensus::system(vec![0, 1]);
        let schedule: Schedule = "p0 C p1".parse().unwrap();
        let tracer = Tracer::ring(256);
        run_schedule_traced(&sys, &schedule, &tracer);
        let snap = tracer.snapshot().expect("enabled tracer");
        // A system-wide crash resets both workers: two crash increments.
        assert_eq!(snap.counter("runtime.crashes"), Some(2));
        assert_eq!(snap.counter("runtime.steps"), Some(2));
    }

    #[test]
    fn traced_replay_records_events_and_counters() {
        let sys = TasConsensus::system(vec![0, 1]);
        let schedule: Schedule = "p0 p0 c0 p1 p1 p0 p0 p0 p1 p1".parse().unwrap();
        let tracer = Tracer::ring(256);
        let traced = run_schedule_traced(&sys, &schedule, &tracer);
        let plain = run_schedule(&sys, &schedule);
        // Tracing must be transparent: identical report either way.
        assert_eq!(traced.trace, plain.trace);
        assert_eq!(traced.outputs, plain.outputs);
        assert_eq!(traced.decisions, plain.decisions);
        assert_eq!(traced.violation, plain.violation);

        let rows = tracer.ring_events();
        let steps = rows.iter().filter(|r| r.name == "runtime.step").count();
        let crashes = rows.iter().filter(|r| r.name == "runtime.crash").count();
        assert_eq!(steps, 9, "{rows:?}");
        assert_eq!(crashes, 1, "{rows:?}");
        let opens = rows
            .iter()
            .filter(|r| r.kind == KIND_OPEN && r.name == "runtime.replay")
            .count();
        let closes = rows
            .iter()
            .filter(|r| r.kind == KIND_CLOSE && r.name == "runtime.replay")
            .count();
        assert_eq!((opens, closes), (1, 1));

        let snap = tracer.snapshot().expect("enabled tracer");
        assert_eq!(snap.counter("runtime.steps"), Some(9));
        assert_eq!(snap.counter("runtime.crashes"), Some(1));
        assert_eq!(
            snap.counter("runtime.outputs"),
            Some(traced.outputs.len() as u64)
        );
    }
}
