//! Configurations and the executor.
//!
//! Paper, §2: *"A configuration of a consensus algorithm consists of a state
//! for each process and a value for each object."* We additionally record
//! each process's first output, so that agreement and validity can be
//! checked on the fly (a crashed process may run again and output again; a
//! conflicting second output is an agreement violation and is reported by
//! the executor).

use crate::heap::{HeapLayout, ObjectId};
use crate::program::{Action, LocalState, Program};
use crate::schedule::{Event, FaultModel, ProcessId, Schedule};
use rcn_spec::{OpId, ValueId};
use std::fmt;
use std::sync::Arc;

/// A configuration: per-process local states, per-object values, and the
/// first output of each process (for checking).
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Configuration {
    /// Local state of each process.
    pub states: Vec<LocalState>,
    /// Current value of each object.
    pub values: Vec<ValueId>,
    /// First value output by each process, if any.
    pub decided: Vec<Option<u32>>,
}

// Written out so that `clone_from` reuses every buffer, down to each local
// state's words (the derived `clone_from` reallocates them all).
impl Clone for Configuration {
    #[inline]
    fn clone(&self) -> Self {
        Configuration {
            states: self.states.clone(),
            values: self.values.clone(),
            decided: self.decided.clone(),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.states.clone_from(&source.states);
        self.values.clone_from(&source.values);
        self.decided.clone_from(&source.decided);
    }
}

impl Configuration {
    /// Appends the configuration's packed words to `out`: each local state
    /// as its length followed by its words, then each object's value, then
    /// each process's decision as a `(flag, value)` pair (`(0, 0)` when it
    /// has not output).
    ///
    /// The encoding is injective over configurations with the same numbers
    /// of processes and objects — every configuration of one [`System`] —
    /// so in-memory indexes key states by these words instead of by the
    /// nested vectors.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcn_model::{HeapLayout, OutputInput, System};
    /// use std::sync::Arc;
    ///
    /// let sys = System::new(Arc::new(OutputInput), Arc::new(HeapLayout::new()), vec![1, 0]);
    /// let mut words = Vec::new();
    /// sys.initial_config().pack_into(&mut words);
    /// // Two one-word states, no objects, both decided at time zero.
    /// assert_eq!(words, [1, 1, 1, 0, 1, 1, 1, 0]);
    /// ```
    #[inline]
    pub fn pack_into(&self, out: &mut Vec<u32>) {
        for state in &self.states {
            let words = state.words();
            out.push(u32::try_from(words.len()).expect("a local state has under 2^32 words"));
            out.extend_from_slice(words);
        }
        out.extend(self.values.iter().map(|v| u32::from(v.0)));
        for d in &self.decided {
            match *d {
                Some(v) => out.extend([1, v]),
                None => out.extend([0, 0]),
            }
        }
    }

    /// Overwrites `self` with the configuration whose packed words
    /// ([`pack_into`](Self::pack_into)) start `words`, reusing every buffer,
    /// and returns how many words it read.
    ///
    /// The words do not record how many processes and objects they cover:
    /// those come from `self`, which must therefore be a configuration of
    /// the same [`System`]. Its local states' word counts and its decisions
    /// may differ from the packed ones.
    ///
    /// # Panics
    ///
    /// Panics if `words` ends before the encoding it starts does.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcn_model::{HeapLayout, OutputInput, System};
    /// use std::sync::Arc;
    ///
    /// let sys = System::new(Arc::new(OutputInput), Arc::new(HeapLayout::new()), vec![1, 0]);
    /// let config = sys.initial_config();
    /// let mut words = Vec::new();
    /// config.pack_into(&mut words);
    /// words.push(9); // whatever follows is left alone
    /// let mut copy = System::new(Arc::new(OutputInput), Arc::new(HeapLayout::new()), vec![0, 0])
    ///     .initial_config();
    /// assert_eq!(copy.unpack_from(&words), 8);
    /// assert_eq!(copy, config);
    /// ```
    pub fn unpack_from(&mut self, words: &[u32]) -> usize {
        let mut rest = words;
        for state in &mut self.states {
            let (&len, tail) = rest.split_first().expect("a length prefix");
            let (state_words, tail) = tail.split_at(len as usize);
            state.set_words(state_words);
            rest = tail;
        }
        let (values, tail) = rest.split_at(self.values.len());
        for (value, &word) in self.values.iter_mut().zip(values) {
            *value = ValueId(u16::try_from(word).expect("a packed value id"));
        }
        let (decided, tail) = tail.split_at(2 * self.decided.len());
        for (d, pair) in self.decided.iter_mut().zip(decided.chunks_exact(2)) {
            *d = (pair[0] != 0).then_some(pair[1]);
        }
        words.len() - tail.len()
    }

    /// The number of processes.
    pub fn num_processes(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if every process has output a value.
    pub fn all_decided(&self) -> bool {
        self.decided.iter().all(Option::is_some)
    }

    /// Returns the set of distinct values output so far.
    pub fn outputs(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.decided.iter().flatten().copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Returns `true` if `self` and `other` are indistinguishable to every
    /// process in `procs` — i.e. those processes have the same local states
    /// (paper, §2). Object values are *not* compared; combine with
    /// [`objects_equal`](Configuration::objects_equal) for the full
    /// indistinguishability used in the paper's arguments.
    pub fn indistinguishable_to(&self, other: &Configuration, procs: &[ProcessId]) -> bool {
        procs
            .iter()
            .all(|p| self.states[p.index()] == other.states[p.index()])
    }

    /// Returns `true` if all objects have the same values in both
    /// configurations.
    pub fn objects_equal(&self, other: &Configuration) -> bool {
        self.values == other.values
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let states: Vec<String> = self.states.iter().map(ToString::to_string).collect();
        let values: Vec<String> = self.values.iter().map(ToString::to_string).collect();
        write!(
            f,
            "states=[{}] values=[{}]",
            states.join(" "),
            values.join(" ")
        )
    }
}

/// A safety violation detected while executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Violation {
    /// Two outputs (possibly by the same process across a crash) differ.
    Agreement {
        /// The process making the later, conflicting output.
        process: ProcessId,
        /// The value it output.
        output: u32,
        /// A previously output value it conflicts with.
        earlier: u32,
    },
    /// An output value is not the input of any process.
    Validity {
        /// The offending process.
        process: ProcessId,
        /// The value it output.
        output: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Agreement {
                process,
                output,
                earlier,
            } => write!(
                f,
                "agreement violated: {process} output {output}, earlier output {earlier}"
            ),
            Violation::Validity { process, output } => {
                write!(
                    f,
                    "validity violated: {process} output {output}, not an input"
                )
            }
        }
    }
}

/// The effect of applying one event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepEffect {
    /// The event that was applied.
    pub event: Event,
    /// The object access performed, if any (`None` for plain crashes and
    /// no-op steps of decided processes; a mid-operation crash records the
    /// linearized access).
    pub access: Option<(ObjectId, OpId)>,
    /// Outputs made by this event, in process-id order. At most one for
    /// steps and individual crashes; a system-wide crash can re-output
    /// several processes at once (programs whose initial state is an output
    /// state).
    pub outputs: Vec<(ProcessId, u32)>,
    /// The first safety violation triggered by this event, if any.
    pub violation: Option<Violation>,
}

/// A complete instance: a program, a heap layout, and per-process inputs.
///
/// The `System` is the executor: it produces the initial configuration and
/// applies events. It is cheap to clone (the layout and program are shared).
///
/// # Examples
///
/// ```
/// use rcn_model::{HeapLayout, OutputInput, System};
/// use std::sync::Arc;
///
/// // Two processes that output their own inputs — "solves" consensus only
/// // when the inputs agree.
/// let sys = System::new(Arc::new(OutputInput), Arc::new(HeapLayout::new()), vec![1, 1]);
/// let mut config = sys.initial_config();
/// let effects = sys.run(&mut config, &"p0 p1".parse().unwrap());
/// assert!(effects.iter().all(|e| e.violation.is_none()));
/// // Solo runs record the decisions:
/// use rcn_model::ProcessId;
/// assert_eq!(sys.run_solo(&mut config, ProcessId::new(0), 10), Some(1));
/// assert_eq!(sys.run_solo(&mut config, ProcessId::new(1), 10), Some(1));
/// assert!(config.all_decided());
/// ```
#[derive(Clone)]
pub struct System {
    program: Arc<dyn Program>,
    layout: Arc<HeapLayout>,
    inputs: Vec<u32>,
    /// Whether outputs are checked against the consensus conditions
    /// (agreement + validity). Tasks whose outputs are not consensus
    /// decisions (e.g. the universal simulation, where each process gets
    /// its own response) disable this.
    consensus_checked: bool,
}

impl System {
    /// Creates a system for `inputs.len()` processes.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn new(program: Arc<dyn Program>, layout: Arc<HeapLayout>, inputs: Vec<u32>) -> Self {
        assert!(!inputs.is_empty(), "a system needs at least one process");
        System {
            program,
            layout,
            inputs,
            consensus_checked: true,
        }
    }

    /// Like [`new`](Self::new), but outputs are *not* checked against the
    /// consensus conditions — for tasks (such as object simulations) whose
    /// outputs are per-process responses rather than a common decision.
    pub fn new_unchecked(
        program: Arc<dyn Program>,
        layout: Arc<HeapLayout>,
        inputs: Vec<u32>,
    ) -> Self {
        let mut sys = System::new(program, layout, inputs);
        sys.consensus_checked = false;
        sys
    }

    /// Returns `true` if outputs are checked against the consensus
    /// conditions.
    pub fn is_consensus_checked(&self) -> bool {
        self.consensus_checked
    }

    /// The number of processes.
    pub fn n(&self) -> usize {
        self.inputs.len()
    }

    /// The process inputs.
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// The heap layout.
    pub fn layout(&self) -> &HeapLayout {
        &self.layout
    }

    /// A shared handle to the heap layout (used by the threaded runtime).
    pub fn layout_arc(&self) -> Arc<HeapLayout> {
        Arc::clone(&self.layout)
    }

    /// The program.
    pub fn program(&self) -> &dyn Program {
        &*self.program
    }

    /// All process ids.
    pub fn processes(&self) -> Vec<ProcessId> {
        (0..self.n()).map(|i| ProcessId(i as u16)).collect()
    }

    /// The initial configuration: every process in its initial state, every
    /// object at its initial value. A process whose *initial* state is
    /// already an output state has output at time zero (degenerate but
    /// legal programs — e.g. [`OutputInput`](crate::OutputInput) — do
    /// this), so its decision is recorded immediately.
    pub fn initial_config(&self) -> Configuration {
        let states: Vec<LocalState> = self
            .inputs
            .iter()
            .enumerate()
            .map(|(i, &input)| self.program.initial_state(ProcessId(i as u16), input))
            .collect();
        let decided = states
            .iter()
            .enumerate()
            .map(
                |(i, state)| match self.program.action(ProcessId(i as u16), state) {
                    Action::Output(v) => Some(v),
                    Action::Invoke { .. } => None,
                },
            )
            .collect();
        Configuration {
            states,
            values: self.layout.initial_values(),
            decided,
        }
    }

    /// Checks the recorded decisions of a configuration against the
    /// consensus conditions — used for the initial configuration, whose
    /// outputs (if any) happen without an edge to hang a violation on.
    /// Returns `None` for systems built with
    /// [`new_unchecked`](Self::new_unchecked).
    pub fn check_initial_outputs(&self, config: &Configuration) -> Option<Violation> {
        if !self.consensus_checked {
            return None;
        }
        let mut seen: Option<u32> = None;
        for (i, d) in config.decided.iter().enumerate() {
            let Some(v) = *d else { continue };
            let p = ProcessId(i as u16);
            if !self.inputs.contains(&v) {
                return Some(Violation::Validity {
                    process: p,
                    output: v,
                });
            }
            match seen {
                Some(earlier) if earlier != v => {
                    return Some(Violation::Agreement {
                        process: p,
                        output: v,
                        earlier,
                    })
                }
                _ => seen = Some(v),
            }
        }
        None
    }

    /// The pending action of `pid` in `config`.
    pub fn action_of(&self, config: &Configuration, pid: ProcessId) -> Action {
        self.program.action(pid, &config.states[pid.index()])
    }

    /// Returns the value `pid` has output in `config`, if any.
    pub fn decided_value(&self, config: &Configuration, pid: ProcessId) -> Option<u32> {
        config.decided[pid.index()]
    }

    /// Applies one event in place and reports its effect.
    ///
    /// # Panics
    ///
    /// Panics if the event's process id is out of range.
    pub fn apply(&self, config: &mut Configuration, event: Event) -> StepEffect {
        let mut effect = StepEffect {
            event,
            access: None,
            outputs: Vec::new(),
            violation: None,
        };
        match event {
            Event::Crash(p) => {
                self.reset_process(config, &mut effect, p);
            }
            Event::SystemCrash => {
                // Golab's simultaneous crash: every process resets at once
                // (shared objects persist). Re-outputs of programs whose
                // initial state is an output state are recorded and checked
                // in process-id order.
                for i in 0..self.n() {
                    self.reset_process(config, &mut effect, ProcessId(i as u16));
                }
            }
            Event::CrashDuring(p) => {
                // Mid-operation crash, linearized resolution: the pending
                // invocation takes effect on the object, but the response
                // is lost together with the crashed process's volatile
                // state. Without a pending invocation this degenerates to
                // an ordinary crash.
                if let Action::Invoke { object, op } = self.action_of(config, p) {
                    self.layout.apply(&mut config.values, object, op);
                    effect.access = Some((object, op));
                }
                self.reset_process(config, &mut effect, p);
            }
            Event::Step(p) => {
                let state = &config.states[p.index()];
                match self.program.action(p, state) {
                    Action::Output(_) => {
                        // A step in an output state is a no-op (paper, §2).
                    }
                    Action::Invoke { object, op } => {
                        let out = self.layout.apply(&mut config.values, object, op);
                        effect.access = Some((object, op));
                        let new_state = self.program.transition(p, state, out.response);
                        // Did this step enter an output state?
                        if let Action::Output(v) = self.program.action(p, &new_state) {
                            effect.outputs.push((p, v));
                            effect.violation = self.check_output(&config.decided, p, v);
                            if config.decided[p.index()].is_none() {
                                config.decided[p.index()] = Some(v);
                            }
                        }
                        config.states[p.index()] = new_state;
                    }
                }
            }
        }
        effect
    }

    /// Crash-resets one process: local state resets to the initial state
    /// (shared objects persist; the process keeps its input). A program
    /// whose initial state is an output state re-outputs on recovery; that
    /// output is recorded and checked like any other, keeping the *first*
    /// violation when several processes reset within one event.
    fn reset_process(&self, config: &mut Configuration, effect: &mut StepEffect, p: ProcessId) {
        let input = self.inputs[p.index()];
        let state = self.program.initial_state(p, input);
        if let Action::Output(v) = self.program.action(p, &state) {
            effect.outputs.push((p, v));
            if effect.violation.is_none() {
                effect.violation = self.check_output(&config.decided, p, v);
            }
            if config.decided[p.index()].is_none() {
                config.decided[p.index()] = Some(v);
            }
        }
        config.states[p.index()] = state;
    }

    /// The first safety violation `p` outputting `v` triggers when the
    /// processes have decided `decided` so far: an output that is no
    /// process's input breaks validity, one that differs from an earlier
    /// decision breaks agreement. [`apply`](Self::apply) checks every output
    /// this way, before recording it. Returns `None` for systems built with
    /// [`new_unchecked`](Self::new_unchecked).
    pub fn check_output(&self, decided: &[Option<u32>], p: ProcessId, v: u32) -> Option<Violation> {
        if !self.consensus_checked {
            return None;
        }
        if !self.inputs.contains(&v) {
            return Some(Violation::Validity {
                process: p,
                output: v,
            });
        }
        decided
            .iter()
            .flatten()
            .find(|&&earlier| earlier != v)
            .map(|&earlier| Violation::Agreement {
                process: p,
                output: v,
                earlier,
            })
    }

    /// Runs a whole schedule in place, returning the per-event effects.
    pub fn run(&self, config: &mut Configuration, schedule: &Schedule) -> Vec<StepEffect> {
        schedule.iter().map(|e| self.apply(config, e)).collect()
    }

    /// Runs a schedule from the initial configuration, returning the final
    /// configuration and the first violation, if any.
    pub fn run_from_start(&self, schedule: &Schedule) -> (Configuration, Option<Violation>) {
        let mut config = self.initial_config();
        let effects = self.run(&mut config, schedule);
        let violation = effects.iter().find_map(|e| e.violation);
        (config, violation)
    }

    /// Runs `pid` solo from `config` until it outputs, or for at most
    /// `max_steps` steps. Returns the output if it decided.
    ///
    /// This is the paper's *solo-terminating execution*; for a recoverable
    /// wait-free algorithm a crash-free solo run must always decide, so a
    /// `None` return from a generous `max_steps` indicates a wait-freedom
    /// bug.
    pub fn run_solo(
        &self,
        config: &mut Configuration,
        pid: ProcessId,
        max_steps: usize,
    ) -> Option<u32> {
        for _ in 0..=max_steps {
            if let Action::Output(v) = self.action_of(config, pid) {
                if config.decided[pid.index()].is_none() {
                    config.decided[pid.index()] = Some(v);
                }
                return Some(v);
            }
            self.apply(config, Event::Step(pid));
        }
        config.decided[pid.index()]
    }
}

/// Returns `true` if the adversary of `model` may schedule `event` after
/// the processes have crashed `counts[i]` times each, at most `max_crashes`
/// times per process. Steps are always enabled. An individual or
/// mid-operation crash needs budget left for its process; a system-wide
/// crash charges every process (see [`charge_crashes`]), so it needs budget
/// left everywhere.
///
/// This is the crash-budget semantics every crash-placing search shares;
/// whether an enabled event is worth trying (a crash of a process already
/// in its initial state changes nothing) is a search's own pruning.
///
/// # Panics
///
/// Panics if the event's process id is out of range for `counts`.
#[inline]
pub fn event_enabled(
    model: FaultModel,
    counts: &[usize],
    max_crashes: usize,
    event: Event,
) -> bool {
    if !model.allows(event) {
        return false;
    }
    match event {
        Event::Step(_) => true,
        Event::Crash(p) | Event::CrashDuring(p) => counts[p.index()] < max_crashes,
        Event::SystemCrash => counts.iter().all(|&c| c < max_crashes),
    }
}

/// Charges `event` against the per-process crash counts: an individual or
/// mid-operation crash charges its process one crash, a system-wide crash
/// charges every process one crash, and a step charges nothing.
///
/// # Panics
///
/// Panics if the event's process id is out of range for `counts`.
#[inline]
pub fn charge_crashes(counts: &mut [usize], event: Event) {
    match event {
        Event::Step(_) => {}
        Event::Crash(p) | Event::CrashDuring(p) => counts[p.index()] += 1,
        Event::SystemCrash => counts.iter_mut().for_each(|c| *c += 1),
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("program", &self.program.name())
            .field("inputs", &self.inputs)
            .field("objects", &self.layout.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::OutputInput;

    fn trivial(inputs: Vec<u32>) -> System {
        System::new(Arc::new(OutputInput), Arc::new(HeapLayout::new()), inputs)
    }

    #[test]
    fn crash_enabling_and_charging_table() {
        // One row per event family: which of the four fault models admit
        // it (PER_PROCESS, SYSTEM, MID_OP, ALL), whether it stays enabled
        // once p1 (its process) or p0 (another process) has spent the whole
        // budget, and the counts after charging it to [1, 0, 2].
        let p = ProcessId(1);
        let models = [
            FaultModel::PER_PROCESS,
            FaultModel::SYSTEM,
            FaultModel::MID_OP,
            FaultModel::ALL,
        ];
        let table = [
            (Event::Step(p), [true; 4], true, true, [1, 0, 2]),
            (
                Event::Crash(p),
                [true, false, true, true],
                false,
                true,
                [1, 1, 2],
            ),
            (
                Event::SystemCrash,
                [false, true, false, true],
                false,
                false,
                [2, 1, 3],
            ),
            (
                Event::CrashDuring(p),
                [false, false, true, true],
                false,
                true,
                [1, 1, 2],
            ),
        ];
        let max = 2;
        for (event, admitted, own_spent, other_spent, charged) in table {
            for (model, admitted) in models.into_iter().zip(admitted) {
                for below in [[0, 0, 0], [1, 1, 1]] {
                    assert_eq!(
                        event_enabled(model, &below, max, event),
                        admitted,
                        "{event} under {model} at {below:?}"
                    );
                }
                assert_eq!(
                    event_enabled(model, &[0, max, 0], max, event),
                    admitted && own_spent,
                    "{event} under {model} with p1 at the budget"
                );
                assert_eq!(
                    event_enabled(model, &[max, 0, 0], max, event),
                    admitted && other_spent,
                    "{event} under {model} with p0 at the budget"
                );
                // A zero budget leaves steps only.
                assert_eq!(
                    event_enabled(model, &[0, 0, 0], 0, event),
                    admitted && matches!(event, Event::Step(_)),
                    "{event} under {model} with a zero budget"
                );
            }
            let mut counts = [1, 0, 2];
            charge_crashes(&mut counts, event);
            assert_eq!(counts, charged, "charging {event}");
        }
    }

    #[test]
    fn initial_output_states_decide_at_time_zero() {
        // OutputInput starts in an output state: its decision is recorded
        // immediately, and mixed inputs are a time-zero agreement breach
        // (caught by check_initial_outputs).
        let sys = trivial(vec![0, 1]);
        let config = sys.initial_config();
        assert!(config.all_decided());
        assert_eq!(config.outputs(), vec![0, 1]);
        assert_eq!(config.num_processes(), 2);
        assert!(sys.check_initial_outputs(&config).is_some());
        // Uniform inputs are fine.
        let sys = trivial(vec![1, 1]);
        let config = sys.initial_config();
        assert!(sys.check_initial_outputs(&config).is_none());
    }

    #[test]
    fn output_states_step_as_no_ops() {
        let sys = trivial(vec![1]);
        let mut config = sys.initial_config();
        // OutputInput starts in an output state; decided is only recorded on
        // entering the state via a transition, which never happens here —
        // but action_of still reports the output state.
        let before = config.clone();
        sys.apply(&mut config, Event::Step(ProcessId(0)));
        assert_eq!(config.states, before.states);
        assert_eq!(sys.action_of(&config, ProcessId(0)), Action::Output(1));
    }

    #[test]
    fn agreement_violation_is_detected() {
        // Two processes that output their own (different) inputs.
        let sys = trivial(vec![0, 1]);
        let mut config = sys.initial_config();
        // Force decisions through run_solo bookkeeping.
        let a = sys.run_solo(&mut config, ProcessId(0), 10);
        let b = sys.run_solo(&mut config, ProcessId(1), 10);
        assert_eq!(a, Some(0));
        assert_eq!(b, Some(1));
        // OutputInput never *enters* an output state via transition, so the
        // executor-level violation is exercised by programs with real steps;
        // here we check the configuration-level view instead.
        assert_eq!(config.outputs().len(), 2);
    }

    #[test]
    fn crash_resets_state_but_keeps_input() {
        let sys = trivial(vec![7, 9]);
        let mut config = sys.initial_config();
        config.states[1] = LocalState::word1(42); // pretend it progressed
        sys.apply(&mut config, Event::Crash(ProcessId(1)));
        assert_eq!(config.states[1], LocalState::word1(9));
    }

    #[test]
    fn system_crash_resets_every_process() {
        let sys = trivial(vec![7, 9]);
        let mut config = sys.initial_config();
        config.states[0] = LocalState::word1(41);
        config.states[1] = LocalState::word1(42);
        let effect = sys.apply(&mut config, Event::SystemCrash);
        assert_eq!(config.states[0], LocalState::word1(7));
        assert_eq!(config.states[1], LocalState::word1(9));
        // OutputInput's initial state is an output state: both processes
        // re-output on recovery, in process-id order, and the conflicting
        // pair is an agreement violation.
        assert_eq!(effect.outputs, vec![(ProcessId(0), 7), (ProcessId(1), 9)]);
        assert!(effect.violation.is_some());
    }

    /// Writes its input to the register, then outputs the input.
    struct WriteFirst {
        reg: ObjectId,
    }

    impl Program for WriteFirst {
        fn name(&self) -> String {
            "write-first".into()
        }
        fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
            LocalState::word2(input, 0)
        }
        fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
            if state.word(1) == 0 {
                Action::Invoke {
                    object: self.reg,
                    op: OpId::new(state.word(0) as u16),
                }
            } else {
                Action::Output(state.word(0))
            }
        }
        fn transition(
            &self,
            _pid: ProcessId,
            state: &LocalState,
            _response: rcn_spec::Response,
        ) -> LocalState {
            LocalState::word2(state.word(0), 1)
        }
    }

    fn write_sys(inputs: Vec<u32>) -> (System, ObjectId) {
        let mut layout = HeapLayout::new();
        let reg = layout.add_object(
            "R",
            Arc::new(rcn_spec::zoo::Register::new(2)),
            ValueId::new(0),
        );
        (
            System::new(Arc::new(WriteFirst { reg }), Arc::new(layout), inputs),
            reg,
        )
    }

    #[test]
    fn crash_during_linearizes_the_pending_operation() {
        let (sys, reg) = write_sys(vec![1, 1]);
        let before = sys.initial_config();

        // Ordinary crash: the pending write is lost with the process.
        let mut lost = before.clone();
        let effect = sys.apply(&mut lost, Event::Crash(ProcessId(0)));
        assert_eq!(effect.access, None);
        assert_eq!(lost.values, before.values);

        // Mid-operation crash: the write takes effect, the process still
        // resets (its response — and thus its progress — is lost).
        let mut linearized = before.clone();
        let effect = sys.apply(&mut linearized, Event::CrashDuring(ProcessId(0)));
        assert!(effect.access.is_some());
        assert_ne!(linearized.values, before.values);
        assert_eq!(linearized.states[0], before.states[0], "state reset");

        // A later step by p0 re-invokes: the operation's effect persisted
        // but p0 remembers nothing of it.
        let effect = sys.apply(&mut linearized, Event::Step(ProcessId(0)));
        assert_eq!(effect.access.map(|(o, _)| o), Some(reg));
    }

    #[test]
    fn crash_during_without_pending_op_degenerates_to_crash() {
        let (sys, _) = write_sys(vec![1, 1]);
        let mut config = sys.initial_config();
        // Step p0 into its output state: no operation in flight any more.
        sys.apply(&mut config, Event::Step(ProcessId(0)));
        let via_during = {
            let mut c = config.clone();
            sys.apply(&mut c, Event::CrashDuring(ProcessId(0)));
            c
        };
        let via_crash = {
            let mut c = config.clone();
            sys.apply(&mut c, Event::Crash(ProcessId(0)));
            c
        };
        assert_eq!(via_during, via_crash);
    }

    #[test]
    fn indistinguishability_checks_only_listed_processes() {
        let sys = trivial(vec![0, 1]);
        let a = sys.initial_config();
        let mut b = a.clone();
        b.states[1] = LocalState::word1(99);
        assert!(a.indistinguishable_to(&b, &[ProcessId(0)]));
        assert!(!a.indistinguishable_to(&b, &[ProcessId(0), ProcessId(1)]));
        assert!(a.objects_equal(&b));
    }
}
