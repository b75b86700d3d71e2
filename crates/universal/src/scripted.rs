//! Multi-shot universal simulation: every process applies a whole *script*
//! of operations to the simulated object.
//!
//! Compared to the one-shot [`UniversalSim`](crate::UniversalSim), the log
//! has `n · m` consensus slots (each process wins once per scripted
//! operation) and no announcement registers: scripts are static, so a
//! slot's operation is derivable from the log alone — winner `w`'s `j`-th
//! win runs `script[w][j]`. That makes crash recovery a pure log rescan:
//! the recovering process replays the log from the start, rebuilding its
//! win count, the simulated object's value, and its own last response.
//!
//! (The fully dynamic construction — operations chosen at run time — needs
//! the announcement indirection of the one-shot version; the scripted form
//! trades that generality for a construction whose entire recovery story is
//! "recompute everything from the persistent log".)

use rcn_model::{Action, HeapLayout, LocalState, ObjectId, ProcessId, Program, System};
use rcn_spec::zoo::MultiConsensus;
use rcn_spec::{ObjectType, OpId, Response, ValueId};
use std::fmt;
use std::sync::Arc;

const STAGE_READ: u32 = 0;
const STAGE_PROPOSE: u32 = 1;
const STAGE_DONE: u32 = 2;

/// The scripted (multi-shot) universal simulation.
///
/// # Examples
///
/// Two processes each enqueue twice into a simulated queue; all four
/// enqueues linearize.
///
/// ```
/// use rcn_model::{drive, RoundRobin};
/// use rcn_spec::zoo::BoundedQueue;
/// use rcn_spec::ValueId;
/// use rcn_universal::ScriptedSim;
/// use std::sync::Arc;
///
/// let q = BoundedQueue::new(2, 4);
/// let scripts = vec![
///     vec![q.enq_op(0), q.enq_op(0)],
///     vec![q.enq_op(1), q.enq_op(1)],
/// ];
/// let sys = ScriptedSim::system(Arc::new(q), ValueId::new(0), scripts);
/// let report = drive(&sys, &mut RoundRobin::new(), 10_000);
/// assert!(report.all_decided);
/// ```
pub struct ScriptedSim {
    sim: Arc<dyn ObjectType + Send + Sync>,
    initial: ValueId,
    scripts: Vec<Vec<OpId>>,
    slots: Vec<ObjectId>,
    mc: MultiConsensus,
}

impl ScriptedSim {
    /// Builds the system: process `i` applies `scripts[i]` in order.
    ///
    /// # Panics
    ///
    /// Panics if any script is empty, any op is out of range, or `initial`
    /// is out of range.
    pub fn system(
        sim: Arc<dyn ObjectType + Send + Sync>,
        initial: ValueId,
        scripts: Vec<Vec<OpId>>,
    ) -> System {
        let n = scripts.len();
        assert!(n >= 1, "need at least one process");
        assert!(
            initial.index() < sim.num_values(),
            "initial value out of range"
        );
        for script in &scripts {
            assert!(!script.is_empty(), "scripts must be nonempty");
            for op in script {
                assert!(op.index() < sim.num_ops(), "script op out of range");
            }
        }
        let total_slots: usize = scripts.iter().map(Vec::len).sum();
        let mut layout = HeapLayout::new();
        let mc = MultiConsensus::new(n);
        let slots: Vec<ObjectId> = (0..total_slots)
            .map(|k| layout.add_object(format!("S{k}"), Arc::new(mc), ValueId::new(0)))
            .collect();
        let program = ScriptedSim {
            sim,
            initial,
            scripts,
            slots,
            mc,
        };
        // Outputs are per-process responses, not consensus decisions.
        System::new_unchecked(Arc::new(program), Arc::new(layout), vec![0; n])
    }

    /// Local state: `[stage, k, sim_value, last_resp, counts[0..n]]`.
    fn state(stage: u32, k: u32, value: u32, last: u32, counts: &[u32]) -> LocalState {
        let mut words = vec![stage, k, value, last];
        words.extend_from_slice(counts);
        LocalState::from_words(words)
    }

    fn counts(state: &LocalState) -> &[u32] {
        &state.words()[4..]
    }

    /// Advances the local replay with the decided winner of slot `k`.
    fn absorb(&self, me: usize, state: &LocalState, winner: usize) -> LocalState {
        let k = state.word(1);
        let value = ValueId(state.word(2) as u16);
        let mut counts = Self::counts(state).to_vec();
        let j = counts[winner] as usize;
        let op = self.scripts[winner][j];
        counts[winner] += 1;
        let out = self.sim.apply(value, op);
        let mut last = state.word(3);
        if winner == me {
            last = out.response.index() as u32;
        }
        let done = winner == me && counts[me] as usize == self.scripts[me].len();
        let stage = if done { STAGE_DONE } else { STAGE_READ };
        Self::state(stage, k + 1, out.next.index() as u32, last, &counts)
    }
}

impl Program for ScriptedSim {
    fn name(&self) -> String {
        format!("scripted-universal<{}>", self.sim.name())
    }

    fn initial_state(&self, _pid: ProcessId, _input: u32) -> LocalState {
        Self::state(
            STAGE_READ,
            0,
            self.initial.index() as u32,
            0,
            &vec![0; self.scripts.len()],
        )
    }

    fn action(&self, pid: ProcessId, state: &LocalState) -> Action {
        let k = state.word(1) as usize;
        match state.word(0) {
            STAGE_READ => Action::Invoke {
                object: self.slots[k],
                op: self.mc.read_op_id(),
            },
            STAGE_PROPOSE => Action::Invoke {
                object: self.slots[k],
                op: self.mc.propose_op(pid.index()),
            },
            _ => Action::Output(state.word(3)),
        }
    }

    fn transition(&self, pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
        let me = pid.index();
        match state.word(0) {
            STAGE_READ => {
                if response == self.mc.undecided_response() {
                    // My script cannot be finished (I output at my last
                    // win), so proposing is always legal here.
                    Self::state(
                        STAGE_PROPOSE,
                        state.word(1),
                        state.word(2),
                        state.word(3),
                        Self::counts(state),
                    )
                } else {
                    self.absorb(me, state, response.index())
                }
            }
            STAGE_PROPOSE => self.absorb(me, state, response.index()),
            other => panic!("no transition in stage {other}"),
        }
    }
}

impl fmt::Debug for ScriptedSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScriptedSim")
            .field("sim", &self.sim.name())
            .field("scripts", &self.scripts)
            .finish()
    }
}

/// Exhaustively checks the scripted simulation: in every reachable
/// configuration, the decided slots form a prefix, no process exceeds its
/// script length, and every output matches the log replay.
///
/// # Errors
///
/// Returns the exploration error if the state space exceeds `max_configs`.
pub fn verify_scripted(
    system: &System,
    sim: &(dyn ObjectType + Send + Sync),
    initial: ValueId,
    scripts: &[Vec<OpId>],
    max_configs: usize,
) -> Result<crate::SimReport, rcn_valency::ExploreError> {
    let graph = rcn_valency::ConfigGraph::explore(system, max_configs)?;
    let n = scripts.len();
    let mut config = graph.config(0);
    for id in 0..graph.len() {
        graph.config_into(id, &mut config);
        // Decode the log (slots are the only objects, in order).
        let mut winners = Vec::new();
        let mut seen_undecided = false;
        for v in &config.values {
            match v.index() {
                0 => seen_undecided = true,
                w => {
                    if seen_undecided {
                        return Ok(crate::SimReport {
                            configs: graph.len(),
                            violation: Some(crate::SimViolation::NonPrefixLog { config: id }),
                        });
                    }
                    winners.push(w - 1);
                }
            }
        }
        // Win counts within script bounds + replay responses.
        let mut counts = vec![0usize; n];
        let mut value = initial;
        let mut last_resp: Vec<Option<u32>> = vec![None; n];
        for &w in &winners {
            if counts[w] >= scripts[w].len() {
                return Ok(crate::SimReport {
                    configs: graph.len(),
                    violation: Some(crate::SimViolation::DuplicateWinner {
                        config: id,
                        process: ProcessId(w as u16),
                    }),
                });
            }
            let out = sim.apply(value, scripts[w][counts[w]]);
            value = out.next;
            counts[w] += 1;
            last_resp[w] = Some(out.response.index() as u32);
        }
        for i in 0..n {
            if let Some(actual) = config.decided[i] {
                if last_resp[i] != Some(actual) || counts[i] != scripts[i].len() {
                    return Ok(crate::SimReport {
                        configs: graph.len(),
                        violation: Some(crate::SimViolation::WrongResponse {
                            config: id,
                            process: ProcessId(i as u16),
                            expected: last_resp[i].unwrap_or(u32::MAX),
                            actual,
                        }),
                    });
                }
            }
        }
    }
    Ok(crate::SimReport {
        configs: graph.len(),
        violation: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{drive, CrashBudget, CrashyAdversary};
    use rcn_spec::zoo::{BoundedQueue, FetchAndAdd};

    #[test]
    fn two_enqueuers_two_ops_each_verify() {
        let q = BoundedQueue::new(2, 4);
        let scripts = vec![
            vec![q.enq_op(0), q.enq_op(0)],
            vec![q.enq_op(1), q.enq_op(1)],
        ];
        let sys = ScriptedSim::system(Arc::new(q.clone()), ValueId::new(0), scripts.clone());
        let report = verify_scripted(&sys, &q, ValueId::new(0), &scripts, 50_000_000).unwrap();
        assert!(report.is_linearizable(), "{:?}", report.violation);
    }

    #[test]
    fn enq_deq_interleavings_verify() {
        let q = BoundedQueue::new(2, 2);
        let scripts = vec![vec![q.enq_op(1), q.deq_op()], vec![q.enq_op(0)]];
        let sys = ScriptedSim::system(Arc::new(q.clone()), ValueId::new(0), scripts.clone());
        let report = verify_scripted(&sys, &q, ValueId::new(0), &scripts, 50_000_000).unwrap();
        assert!(report.is_linearizable(), "{:?}", report.violation);
    }

    #[test]
    fn counter_increments_all_land() {
        // Two processes increment a fetch&add counter twice each: the final
        // value is 4 regardless of interleaving or crashes.
        let faa = FetchAndAdd::new(8);
        let inc = OpId::new(0);
        let scripts = vec![vec![inc, inc], vec![inc, inc]];
        let sys = ScriptedSim::system(Arc::new(faa), ValueId::new(0), scripts.clone());
        for seed in 0..15 {
            let mut adv = CrashyAdversary::new(seed, 0.3, CrashBudget::new(1, 2));
            let report = drive(&sys, &mut adv, 50_000);
            assert!(report.all_decided, "seed {seed}");
            // Replay: the last incrementer saw 3, so outputs include 3.
            let outs: Vec<u32> = (0..2).map(|i| report.config.decided[i].unwrap()).collect();
            assert!(outs.contains(&3), "seed {seed}: {outs:?}");
            // Every slot decided.
            assert!(report.config.values.iter().all(|v| v.index() != 0));
        }
    }

    #[test]
    fn crash_rescan_rebuilds_win_counts() {
        let faa = FetchAndAdd::new(8);
        let inc = OpId::new(0);
        let scripts = vec![vec![inc, inc], vec![inc]];
        let sys = ScriptedSim::system(Arc::new(faa), ValueId::new(0), scripts);
        let mut config = sys.initial_config();
        // p0 wins slot 0 (read ⊥, propose), then crashes.
        sys.run(&mut config, &"p0 p0 c0".parse().unwrap());
        // p0 solo: rescan finds its win at slot 0, continues, wins slot 1
        // and 2… wait, p1 never ran, so p0 takes slots 1 too (script len 2)
        // and outputs its second response: it saw 0 then 1.
        let out = sys.run_solo(&mut config, ProcessId::new(0), 100);
        assert_eq!(out, Some(1));
    }

    #[test]
    #[should_panic(expected = "scripts must be nonempty")]
    fn empty_scripts_are_rejected() {
        ScriptedSim::system(Arc::new(FetchAndAdd::new(4)), ValueId::new(0), vec![vec![]]);
    }
}
