//! Process programs: deterministic per-process code.
//!
//! Paper, §2: *"An algorithm defines a set of objects, an initial value for
//! each of these objects, and an initial state for each process.
//! Furthermore, for every state of every process, an algorithm defines the
//! next step that process will apply."* A step is an operation on a shared
//! object, or a no-op when the process is in an output state.
//!
//! A [`Program`] is that per-process state machine. Local state is an opaque
//! hashable word vector ([`LocalState`]); when a process crashes the
//! executor resets its local state to [`Program::initial_state`] — the input
//! survives the crash (it is part of the initial state), everything else is
//! lost, exactly as in the paper's model of individual crashes.

use crate::heap::ObjectId;
use crate::schedule::ProcessId;
use rcn_spec::{OpId, Response};
use std::fmt;

/// The volatile local state of a process: an opaque word vector.
///
/// The representation is deliberately dumb — cheap to clone, hash and
/// compare — because the model checker stores millions of them. Programs
/// define their own encoding; `LocalState` just carries the words.
///
/// # Examples
///
/// ```
/// use rcn_model::LocalState;
/// let s = LocalState::from_words([1, 2]);
/// assert_eq!(s.word(0), 1);
/// assert_eq!(s.words(), &[1, 2]);
/// ```
#[derive(Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalState(Vec<u32>);

// Written out so that `clone_from` reuses the word buffer: the explorers
// build every successor in one scratch configuration.
impl Clone for LocalState {
    #[inline]
    fn clone(&self) -> Self {
        LocalState(self.0.clone())
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl LocalState {
    /// Creates a state from words.
    pub fn from_words(words: impl IntoIterator<Item = u32>) -> Self {
        LocalState(words.into_iter().collect())
    }

    /// A single-word state.
    pub fn word1(w: u32) -> Self {
        LocalState(vec![w])
    }

    /// A two-word state.
    pub fn word2(a: u32, b: u32) -> Self {
        LocalState(vec![a, b])
    }

    /// The word at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn word(&self, i: usize) -> u32 {
        self.0[i]
    }

    /// All words.
    pub fn words(&self) -> &[u32] {
        &self.0
    }

    /// Replaces the words in place, reusing the buffer.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcn_model::LocalState;
    /// let mut s = LocalState::word2(1, 2);
    /// s.set_words(&[7]);
    /// assert_eq!(s, LocalState::word1(7));
    /// ```
    #[inline]
    pub fn set_words(&mut self, words: &[u32]) {
        self.0.clear();
        self.0.extend_from_slice(words);
    }
}

impl fmt::Display for LocalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}⟩",
            self.0
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// What a process does when it next takes a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Apply `op` to the shared object `object`.
    Invoke {
        /// The target object.
        object: ObjectId,
        /// The operation to apply.
        op: OpId,
    },
    /// The process is in an output state for `value`; its steps are no-ops.
    Output(u32),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Invoke { object, op } => write!(f, "invoke {op} on {object}"),
            Action::Output(v) => write!(f, "output {v}"),
        }
    }
}

/// A deterministic per-process program for a task with private inputs.
///
/// The executor drives the program as follows, for process `pid` with input
/// `input`:
///
/// 1. the process starts (and restarts after every crash) in
///    [`initial_state`](Program::initial_state)`(pid, input)`;
/// 2. when scheduled, the process performs [`action`](Program::action) of
///    its current state: an [`Action::Invoke`] applies an operation and the
///    state advances via [`transition`](Program::transition) on the
///    response; an [`Action::Output`] is a no-op step (the process has
///    decided);
/// 3. a crash resets the local state to step 1 — shared objects keep their
///    values.
///
/// Implementations must be deterministic: `action` and `transition` must
/// be pure functions of their arguments, reading no other state and keeping
/// none. The explorers rely on it: `rcn-valency`'s graph store computes each
/// process's step once per `(process, local state, decision, value of the
/// object it is poised on)` and reuses the result wherever that step recurs.
pub trait Program: Send + Sync {
    /// A short name for reports.
    fn name(&self) -> String;

    /// The initial (and post-crash) state of `pid` with input `input`.
    fn initial_state(&self, pid: ProcessId, input: u32) -> LocalState;

    /// What `pid` does next in `state`.
    fn action(&self, pid: ProcessId, state: &LocalState) -> Action;

    /// The new state after the invocation of [`Action::Invoke`] returned
    /// `response`.
    ///
    /// Only called when `action(pid, state)` is an `Invoke`.
    fn transition(&self, pid: ProcessId, state: &LocalState, response: Response) -> LocalState;
}

/// A trivial program that immediately outputs its input. Used as a baseline
/// and in tests: it solves consensus if and only if all inputs are equal.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutputInput;

impl Program for OutputInput {
    fn name(&self) -> String {
        "output-input".into()
    }

    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::word1(input)
    }

    fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
        Action::Output(state.word(0))
    }

    fn transition(&self, _pid: ProcessId, state: &LocalState, _response: Response) -> LocalState {
        state.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_state_constructors_agree() {
        assert_eq!(LocalState::word1(3), LocalState::from_words([3]));
        assert_eq!(LocalState::word2(1, 2), LocalState::from_words([1, 2]));
        assert_eq!(LocalState::word2(1, 2).to_string(), "⟨1,2⟩");
    }

    #[test]
    fn output_input_is_immediately_decided() {
        let prog = OutputInput;
        let s = prog.initial_state(ProcessId::new(0), 1);
        assert_eq!(prog.action(ProcessId::new(0), &s), Action::Output(1));
    }

    #[test]
    fn action_display() {
        let a = Action::Invoke {
            object: ObjectId::new(0),
            op: OpId::new(2),
        };
        assert_eq!(a.to_string(), "invoke op2 on obj0");
        assert_eq!(Action::Output(1).to_string(), "output 1");
    }
}
