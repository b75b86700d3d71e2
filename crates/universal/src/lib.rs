//! # rcn-universal — a recoverable universal construction
//!
//! The paper (§1) recalls that recoverable consensus is *universal*: any
//! object can be implemented in a recoverable wait-free manner using
//! objects of recoverable consensus number ≥ n plus registers
//! (Delporte-Gallet–Fatourou–Fauconnier–Ruppert 2022, after Herlihy 1991
//! and Berryhill–Golab–Tripunitara 2016). This crate implements the
//! one-shot form of that construction and verifies it:
//!
//! * each of the `n` processes applies **one** operation of its choice to a
//!   simulated object of any deterministic [`ObjectType`];
//! * the shared state is a log of `n` consensus slots
//!   ([`MultiConsensus`] over process ids) plus an announcement register
//!   per process;
//! * a process announces its operation, scans the log, proposes itself at
//!   the first undecided slot, and — once placed — locally replays the
//!   winners' operations to compute its own response.
//!
//! **Crash-recovery for free:** consensus slots absorb duplicate proposals,
//! so a crashed process simply rescans the log; if its previous incarnation
//! already won a slot, the scan finds it (this is exactly the *at-most-once
//! despite crashes* service that recoverable consensus provides, and why
//! the recoverable consensus number governs what can be built).
//!
//! The construction's guarantees — the decided slots form a prefix, slot
//! winners are distinct, every response matches the unique log
//! linearization — are checked exhaustively over the configuration graph in
//! [`verify_simulation`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scripted;

pub use scripted::{verify_scripted, ScriptedSim};

use rcn_model::{
    Action, Configuration, HeapLayout, LocalState, ObjectId, ProcessId, Program, System,
};
use rcn_spec::zoo::{MultiConsensus, Register};
use rcn_spec::{ObjectType, OpId, Response, ValueId};
use std::fmt;
use std::sync::Arc;

/// Stage codes (word 1 of the local state).
const STAGE_ANNOUNCE: u32 = 0;
const STAGE_READ_SLOT: u32 = 1;
const STAGE_PROPOSE: u32 = 2;
const STAGE_READ_ANNOUNCE: u32 = 3;
const STAGE_DONE: u32 = 4;

/// The one-shot universal simulation of a deterministic object.
///
/// Build with [`UniversalSim::system`]; each process's *input* is the op id
/// (of the simulated type) it wants to apply, and its *output* is the
/// response id it receives.
///
/// # Examples
///
/// Simulate a bounded queue: two processes enqueue concurrently; both
/// operations linearize and both get `ok` back.
///
/// ```
/// use rcn_model::{drive, RoundRobin};
/// use rcn_spec::zoo::BoundedQueue;
/// use rcn_spec::{ObjectType, ValueId};
/// use rcn_universal::UniversalSim;
/// use std::sync::Arc;
///
/// let q = BoundedQueue::new(2, 3);
/// let enq0 = q.enq_op(0).index() as u32;
/// let enq1 = q.enq_op(1).index() as u32;
/// let sys = UniversalSim::system(Arc::new(q), ValueId::new(0), vec![enq0, enq1]);
/// let mut rr = RoundRobin::new();
/// let report = drive(&sys, &mut rr, 1_000);
/// assert!(report.all_decided);
/// ```
pub struct UniversalSim {
    sim: Arc<dyn ObjectType + Send + Sync>,
    initial: ValueId,
    n: usize,
    announce: Vec<ObjectId>,
    slots: Vec<ObjectId>,
    mc: MultiConsensus,
    announce_reg: Register,
}

impl UniversalSim {
    /// Builds the simulation system: `inputs[i]` is the op id process `i`
    /// applies to the simulated object.
    ///
    /// # Panics
    ///
    /// Panics if any input op id is out of range for the simulated type, or
    /// `initial` is out of range.
    pub fn system(
        sim: Arc<dyn ObjectType + Send + Sync>,
        initial: ValueId,
        inputs: Vec<u32>,
    ) -> System {
        let n = inputs.len();
        assert!(n >= 1, "need at least one process");
        assert!(
            initial.index() < sim.num_values(),
            "initial value out of range"
        );
        for &op in &inputs {
            assert!((op as usize) < sim.num_ops(), "input op out of range");
        }
        let mut layout = HeapLayout::new();
        // Announcement registers: domain = num_ops + 1, initial ⊥.
        let announce_reg = Register::new(sim.num_ops() + 1);
        let announce: Vec<ObjectId> = (0..n)
            .map(|i| {
                layout.add_object(
                    format!("A{i}"),
                    Arc::new(announce_reg.clone()),
                    ValueId::new(sim.num_ops() as u16),
                )
            })
            .collect();
        // Consensus slots over process ids.
        let mc = MultiConsensus::new(n);
        let slots: Vec<ObjectId> = (0..n)
            .map(|k| layout.add_object(format!("S{k}"), Arc::new(mc), ValueId::new(0)))
            .collect();
        let program = UniversalSim {
            sim,
            initial,
            n,
            announce,
            slots,
            mc,
            announce_reg,
        };
        // Outputs are per-process responses, not consensus decisions.
        System::new_unchecked(Arc::new(program), Arc::new(layout), inputs)
    }

    /// Local state layout: `[my_op, stage, k, temp, winner_op_0, …,
    /// winner_op_{k-1}]`.
    fn state(my_op: u32, stage: u32, k: u32, temp: u32, ops: &[u32]) -> LocalState {
        let mut words = vec![my_op, stage, k, temp];
        words.extend_from_slice(ops);
        LocalState::from_words(words)
    }

    fn ops_of(state: &LocalState) -> &[u32] {
        &state.words()[4..]
    }

    /// Replays the winners' ops and then `my_op`, returning my response.
    fn replay_response(&self, ops: &[u32], my_op: u32) -> Response {
        let mut value = self.initial;
        for &op in ops {
            value = self.sim.apply(value, OpId(op as u16)).next;
        }
        self.sim.apply(value, OpId(my_op as u16)).response
    }
}

impl Program for UniversalSim {
    fn name(&self) -> String {
        format!("universal<{}>", self.sim.name())
    }

    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        Self::state(input, STAGE_ANNOUNCE, 0, 0, &[])
    }

    fn action(&self, pid: ProcessId, state: &LocalState) -> Action {
        let me = pid.index();
        let k = state.word(2) as usize;
        match state.word(1) {
            STAGE_ANNOUNCE => Action::Invoke {
                object: self.announce[me],
                // Register write(op) has op id = op.
                op: OpId(state.word(0) as u16),
            },
            STAGE_READ_SLOT => Action::Invoke {
                object: self.slots[k],
                op: self.mc.read_op_id(),
            },
            STAGE_PROPOSE => Action::Invoke {
                object: self.slots[k],
                op: self.mc.propose_op(me),
            },
            STAGE_READ_ANNOUNCE => Action::Invoke {
                object: self.announce[state.word(3) as usize],
                op: OpId(self.announce_reg.domain() as u16), // register read
            },
            _ => Action::Output(state.word(3)),
        }
    }

    fn transition(&self, pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
        let me = pid.index() as u32;
        let my_op = state.word(0);
        let k = state.word(2);
        let ops = Self::ops_of(state);
        match state.word(1) {
            STAGE_ANNOUNCE => Self::state(my_op, STAGE_READ_SLOT, 0, 0, &[]),
            STAGE_READ_SLOT => {
                if response == self.mc.undecided_response() {
                    Self::state(my_op, STAGE_PROPOSE, k, 0, ops)
                } else {
                    self.after_decided(me, my_op, k, response.index() as u32, ops)
                }
            }
            STAGE_PROPOSE => self.after_decided(me, my_op, k, response.index() as u32, ops),
            STAGE_READ_ANNOUNCE => {
                // response = the winner's announced op.
                debug_assert!(
                    response.index() < self.sim.num_ops(),
                    "winner must have announced before proposing"
                );
                let mut new_ops = ops.to_vec();
                new_ops.push(response.index() as u32);
                Self::state(my_op, STAGE_READ_SLOT, k + 1, 0, &new_ops)
            }
            other => panic!("no transition in stage {other}"),
        }
    }
}

impl UniversalSim {
    fn after_decided(&self, me: u32, my_op: u32, k: u32, winner: u32, ops: &[u32]) -> LocalState {
        if winner == me {
            // Placed: compute my response locally and output it.
            let resp = self.replay_response(ops, my_op);
            Self::state(my_op, STAGE_DONE, k, resp.index() as u32, ops)
        } else {
            Self::state(my_op, STAGE_READ_ANNOUNCE, k, winner, ops)
        }
    }
}

impl fmt::Debug for UniversalSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UniversalSim")
            .field("sim", &self.sim.name())
            .field("n", &self.n)
            .finish()
    }
}

/// What [`verify_simulation`] found wrong, if anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimViolation {
    /// The decided slots do not form a prefix of the log.
    NonPrefixLog {
        /// Configuration index in the explored graph.
        config: usize,
    },
    /// Two slots were won by the same process.
    DuplicateWinner {
        /// Configuration index.
        config: usize,
        /// The duplicated process.
        process: ProcessId,
    },
    /// A process's output differs from the log replay.
    WrongResponse {
        /// Configuration index.
        config: usize,
        /// The process with the wrong output.
        process: ProcessId,
        /// What the replay expects.
        expected: u32,
        /// What the process output.
        actual: u32,
    },
}

impl fmt::Display for SimViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimViolation::NonPrefixLog { config } => {
                write!(f, "decided slots are not a prefix (config {config})")
            }
            SimViolation::DuplicateWinner { config, process } => {
                write!(f, "{process} won two slots (config {config})")
            }
            SimViolation::WrongResponse {
                config,
                process,
                expected,
                actual,
            } => write!(
                f,
                "{process} output {actual}, log replay expects {expected} (config {config})"
            ),
        }
    }
}

/// Report of an exhaustive simulation check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Number of configurations explored.
    pub configs: usize,
    /// The first violation found, if any.
    pub violation: Option<SimViolation>,
}

impl SimReport {
    /// Returns `true` if no violation was found.
    pub fn is_linearizable(&self) -> bool {
        self.violation.is_none()
    }
}

/// Exhaustively checks the one-shot universal simulation: explores every
/// configuration reachable under steps and crashes and verifies, in each,
/// that (a) decided slots form a prefix, (b) slot winners are distinct, and
/// (c) every output matches the replay of the decided log.
///
/// Note: this checks *linearizability of the one-shot simulation*, not the
/// consensus conditions (processes legitimately output different
/// responses), which is why it does not reuse `rcn-valency`'s consensus
/// checker.
///
/// # Errors
///
/// Returns the exploration error if the state space exceeds `max_configs`.
pub fn verify_simulation(
    system: &System,
    sim: &(dyn ObjectType + Send + Sync),
    initial: ValueId,
    max_configs: usize,
) -> Result<SimReport, rcn_valency::ExploreError> {
    let graph = rcn_valency::ConfigGraph::explore(system, max_configs)?;
    let n = system.n();
    let mut config = graph.config(0);
    for id in 0..graph.len() {
        graph.config_into(id, &mut config);
        if let Some(v) = check_config(system, sim, initial, n, id, &config) {
            return Ok(SimReport {
                configs: graph.len(),
                violation: Some(v),
            });
        }
    }
    Ok(SimReport {
        configs: graph.len(),
        violation: None,
    })
}

fn check_config(
    system: &System,
    sim: &(dyn ObjectType + Send + Sync),
    initial: ValueId,
    n: usize,
    id: usize,
    config: &Configuration,
) -> Option<SimViolation> {
    // Objects: announce 0..n, slots n..2n (layout order in `system`).
    let slot_value = |k: usize| config.values[n + k].index();
    // (a) prefix property.
    let mut seen_undecided = false;
    let mut winners = Vec::new();
    for k in 0..n {
        match slot_value(k) {
            0 => seen_undecided = true,
            w => {
                if seen_undecided {
                    return Some(SimViolation::NonPrefixLog { config: id });
                }
                winners.push(w - 1);
            }
        }
    }
    // (b) distinct winners.
    for (a, &w) in winners.iter().enumerate() {
        if winners[..a].contains(&w) {
            return Some(SimViolation::DuplicateWinner {
                config: id,
                process: ProcessId(w as u16),
            });
        }
    }
    // (c) outputs match replay.
    let mut value = initial;
    let mut responses: Vec<Option<u32>> = vec![None; n];
    for &w in &winners {
        let op = config.values[w].index(); // announce register of w
        if op >= sim.num_ops() {
            // Winner without an announcement would be a protocol bug; the
            // replay cannot proceed, so flag it via WrongResponse below.
            break;
        }
        let out = sim.apply(value, OpId(op as u16));
        value = out.next;
        responses[w] = Some(out.response.index() as u32);
    }
    for (i, response) in responses.iter().enumerate() {
        if let Some(actual) = system.decided_value(config, ProcessId(i as u16)) {
            match *response {
                Some(expected) if expected == actual => {}
                Some(expected) => {
                    return Some(SimViolation::WrongResponse {
                        config: id,
                        process: ProcessId(i as u16),
                        expected,
                        actual,
                    })
                }
                None => {
                    // Decided without winning a slot: impossible.
                    return Some(SimViolation::WrongResponse {
                        config: id,
                        process: ProcessId(i as u16),
                        expected: u32::MAX,
                        actual,
                    });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{drive, CrashBudget, CrashyAdversary, RoundRobin};
    use rcn_spec::zoo::{BoundedQueue, BoundedStack, Register as Reg, TestAndSet};

    #[test]
    fn queue_simulation_is_linearizable_under_crashes() {
        let q = BoundedQueue::new(2, 3);
        let inputs = vec![q.enq_op(0).index() as u32, q.enq_op(1).index() as u32];
        let sys = UniversalSim::system(Arc::new(q.clone()), ValueId::new(0), inputs);
        let report = verify_simulation(&sys, &q, ValueId::new(0), 10_000_000).unwrap();
        assert!(report.is_linearizable(), "{:?}", report.violation);
        assert!(report.configs > 10);
    }

    #[test]
    fn enq_deq_simulation_is_linearizable() {
        let q = BoundedQueue::new(2, 2);
        let inputs = vec![q.enq_op(1).index() as u32, q.deq_op().index() as u32];
        let sys = UniversalSim::system(Arc::new(q.clone()), ValueId::new(0), inputs);
        let report = verify_simulation(&sys, &q, ValueId::new(0), 10_000_000).unwrap();
        assert!(report.is_linearizable(), "{:?}", report.violation);
    }

    #[test]
    fn three_process_stack_simulation_is_linearizable() {
        let s = BoundedStack::new(2, 3);
        let inputs = vec![
            s.push_op(0).index() as u32,
            s.push_op(1).index() as u32,
            s.pop_op().index() as u32,
        ];
        let sys = UniversalSim::system(Arc::new(s.clone()), ValueId::new(0), inputs);
        let report = verify_simulation(&sys, &s, ValueId::new(0), 50_000_000).unwrap();
        assert!(report.is_linearizable(), "{:?}", report.violation);
    }

    #[test]
    fn tas_simulation_has_one_winner_in_every_run() {
        let tas = TestAndSet::new();
        let inputs = vec![0u32, 0];
        let sys = UniversalSim::system(Arc::new(tas), ValueId::new(0), inputs);
        // Drive concrete runs: exactly one process must see response 0.
        for seed in 0..20 {
            let mut adv = CrashyAdversary::new(seed, 0.3, CrashBudget::new(1, 2));
            let report = drive(&sys, &mut adv, 10_000);
            assert!(report.all_decided, "seed {seed}");
            let outputs: Vec<u32> = (0..2)
                .map(|i| report.config.decided[i].expect("decided"))
                .collect();
            let zeros = outputs.iter().filter(|&&r| r == 0).count();
            assert_eq!(zeros, 1, "seed {seed}: outputs {outputs:?}");
        }
    }

    #[test]
    fn register_simulation_round_robin() {
        let reg = Reg::new(3);
        // p0 writes 2, p1 reads.
        let inputs = vec![
            reg.write_op(2).index() as u32,
            reg.read_op().unwrap().index() as u32,
        ];
        let sys = UniversalSim::system(Arc::new(reg.clone()), ValueId::new(0), inputs);
        let report = drive(&sys, &mut RoundRobin::new(), 1_000);
        assert!(report.all_decided);
        // Round-robin: p0 wins slot 0 (write, acked), p1's read sees 2.
        assert_eq!(report.config.decided[0], Some(3)); // "ack" response id
        assert_eq!(report.config.decided[1], Some(2));
    }

    #[test]
    fn crashed_winner_rediscovers_its_slot() {
        let tas = TestAndSet::new();
        let sys = UniversalSim::system(Arc::new(tas), ValueId::new(0), vec![0, 0]);
        let mut config = sys.initial_config();
        // p0: announce, read slot0 (⊥), propose (wins) … then crashes.
        sys.run(&mut config, &"p0 p0 p0 c0".parse().unwrap());
        // p0 re-runs solo: must re-find its win and output response 0.
        let out = sys.run_solo(&mut config, ProcessId::new(0), 100);
        assert_eq!(out, Some(0));
        // p1 then gets response 1 (the bit is set).
        let out = sys.run_solo(&mut config, ProcessId::new(1), 100);
        assert_eq!(out, Some(1));
    }

    #[test]
    #[should_panic(expected = "input op out of range")]
    fn out_of_range_input_is_rejected() {
        let tas = TestAndSet::new();
        UniversalSim::system(Arc::new(tas), ValueId::new(0), vec![7]);
    }
}
