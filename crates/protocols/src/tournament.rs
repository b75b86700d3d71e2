//! Recoverable consensus from recording witnesses, via a tournament tree.
//!
//! This is our machine-verified variant of the DFFR'22 Theorem 8 direction
//! (*n-recording readable type ⟹ recoverable consensus number ≥ n*). The
//! paper cites but does not restate DFFR's construction, so we implement a
//! construction of our own and validate it with the model checker in
//! `rcn-valency` (see EXPERIMENTS.md, E5). It covers **non-hiding**
//! witnesses — those whose initial value `u` satisfies `u ∉ U_0 ∪ U_1` —
//! which is exactly what makes the crash-safety argument go through:
//!
//! * *at-most-once*: a process applies its operation only after reading `u`;
//!   since any nonempty schedule leaves a value in `U_0 ∪ U_1 ∌ u`, reading
//!   `u` proves nobody (including a pre-crash self) has applied yet;
//! * *team detection*: once the value is in `U_x` it stays in `U_x` (the
//!   `U` sets are closed under continuations), so any later read identifies
//!   the first mover's team, across any number of crashes;
//! * *value agreement*: the tree reduces n-process consensus to a chain of
//!   2-team contests; each team is a subtree whose members have already
//!   agreed on a candidate recursively, and a candidate register per team
//!   (written before the team touches the contest object) publishes it.
//!
//! Hiding witnesses (`u ∈ U_x`, `|T_x̄| = 1`) are not supported; the plan
//! builder reports which contests lack a non-hiding witness.

use rcn_decide::{
    op_multisets, recording_class, Analysis, CriticalClass, Team, Witness, MAX_PROCESSES,
};
use rcn_model::{Action, HeapLayout, LocalState, ObjectId, ProcessId, Program, System};
use rcn_spec::zoo::Register;
use rcn_spec::{ObjectType, OpId, Response, ValueId};
use std::fmt;
use std::sync::Arc;

/// Stage codes within a tournament node (stored in `LocalState` word 2).
const STAGE_WRITE_CAND: u32 = 0;
const STAGE_READ_FIRST: u32 = 1;
const STAGE_APPLY: u32 = 2;
const STAGE_READ_SECOND: u32 = 3;
const STAGE_READ_WINNER: u32 = 4;

/// One contest of the tournament: a subset of processes split into two
/// teams with a non-hiding recording witness over one object.
#[derive(Debug, Clone)]
struct PlanNode {
    /// `(process, team, op)` for each participant.
    members: Vec<(usize, u8, OpId)>,
    /// The witness's initial value `u`.
    initial: ValueId,
    /// `team_of_value[v]` = the team whose first move can produce value `v`.
    team_of_value: Vec<Option<u8>>,
    /// The contest object (filled when the layout is built).
    object: ObjectId,
    /// Candidate registers, one per team.
    cand: [ObjectId; 2],
}

/// Errors from building a protocol system ([`TournamentConsensus::try_new`],
/// [`crate::TasConsensus::try_system`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The type has no read operation (the construction needs one).
    NotReadable,
    /// No non-hiding recording witness exists for a contest with the given
    /// team sizes.
    NoWitness {
        /// Size of team 0 (a subtree of processes).
        team0: usize,
        /// Size of team 1.
        team1: usize,
    },
    /// Fewer than 2 processes.
    TooFewProcesses,
    /// More processes than a contest witness supports: the root contest
    /// spans every process.
    TooManyProcesses {
        /// The number of inputs given.
        n: usize,
        /// The supported maximum ([`MAX_PROCESSES`]).
        max: usize,
    },
    /// The protocol is defined for exactly `expected` processes.
    WrongProcessCount {
        /// The number of processes the protocol is for.
        expected: usize,
        /// The number of inputs given.
        found: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NotReadable => write!(f, "the type is not readable"),
            PlanError::NoWitness { team0, team1 } => write!(
                f,
                "no non-hiding recording witness for a ({team0} vs {team1}) contest"
            ),
            PlanError::TooFewProcesses => write!(f, "need at least 2 processes"),
            PlanError::TooManyProcesses { n, max } => write!(
                f,
                "{n} processes exceed the {max} a contest witness supports"
            ),
            PlanError::WrongProcessCount { expected, found } => write!(
                f,
                "the protocol is for exactly {expected} processes, got {found} inputs"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Tournament-tree recoverable consensus from a readable type with
/// non-hiding recording witnesses.
///
/// # Examples
///
/// Sticky bits support contests of every shape, so the construction gives
/// recoverable consensus for any number of processes:
///
/// ```
/// use rcn_protocols::TournamentConsensus;
/// use rcn_model::{drive, CrashBudget, CrashyAdversary};
/// use rcn_spec::zoo::StickyBit;
/// use std::sync::Arc;
///
/// let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1, 0, 1]).unwrap();
/// let mut adv = CrashyAdversary::new(3, 0.3, CrashBudget::new(1, 3));
/// let report = drive(&sys, &mut adv, 50_000);
/// assert!(report.is_clean_consensus());
/// ```
#[derive(Debug)]
pub struct TournamentConsensus {
    nodes: Vec<PlanNode>,
    /// Per process: the node ids it participates in, leaf-most first.
    paths: Vec<Vec<usize>>,
    /// The type's read op and its response → value decoding.
    read_op: OpId,
    resp_to_value: Vec<Option<ValueId>>,
}

impl TournamentConsensus {
    /// Builds the tournament system for the given inputs over objects of
    /// type `ty`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the type is not readable, there are fewer
    /// than 2 or more than [`MAX_PROCESSES`] processes, or some contest
    /// lacks a non-hiding witness.
    ///
    /// # Panics
    ///
    /// Panics if any input is not binary.
    pub fn try_new(
        ty: Arc<dyn ObjectType + Send + Sync>,
        inputs: Vec<u32>,
    ) -> Result<System, PlanError> {
        assert!(inputs.iter().all(|&x| x <= 1), "inputs must be binary");
        let n = inputs.len();
        if n < 2 {
            return Err(PlanError::TooFewProcesses);
        }
        if n > MAX_PROCESSES {
            return Err(PlanError::TooManyProcesses {
                n,
                max: MAX_PROCESSES,
            });
        }
        let read_op = ty.read_op().ok_or(PlanError::NotReadable)?;
        let mut resp_to_value = vec![None; ty.num_responses()];
        for v in 0..ty.num_values() {
            let out = ty.apply(ValueId(v as u16), read_op);
            resp_to_value[out.response.index()] = Some(ValueId(v as u16));
        }

        // Build the (left-leaning) tree of contests over process ranges.
        let mut nodes: Vec<PlanNode> = Vec::new();
        build_tree(&*ty, 0, n, &mut nodes)?;

        // Allocate objects: contest object + 2 candidate registers per node.
        let mut layout = HeapLayout::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            node.object = layout.add_object(format!("O{i}"), ty.clone(), node.initial);
            let c0 = layout.add_object(
                format!("C{i}.0"),
                Arc::new(Register::new(3)),
                ValueId::new(2), // ⊥
            );
            let c1 = layout.add_object(
                format!("C{i}.1"),
                Arc::new(Register::new(3)),
                ValueId::new(2),
            );
            node.cand = [c0, c1];
        }

        // Per-process participation paths (nodes are created bottom-up, so
        // increasing node id order is leaf-most first).
        let mut paths = vec![Vec::new(); n];
        for (id, node) in nodes.iter().enumerate() {
            for &(p, _, _) in &node.members {
                paths[p].push(id);
            }
        }

        let program = TournamentConsensus {
            nodes,
            paths,
            read_op,
            resp_to_value,
        };
        Ok(System::new(Arc::new(program), Arc::new(layout), inputs))
    }

    fn node_role(&self, node: &PlanNode, pid: usize) -> (u8, OpId) {
        node.members
            .iter()
            .find(|&&(p, _, _)| p == pid)
            .map(|&(_, team, op)| (team, op))
            .expect("process participates in its path nodes")
    }
}

/// Recursively builds contests for the process range `[lo, hi)`.
fn build_tree(
    ty: &dyn ObjectType,
    lo: usize,
    hi: usize,
    nodes: &mut Vec<PlanNode>,
) -> Result<(), PlanError> {
    let size = hi - lo;
    if size <= 1 {
        return Ok(());
    }
    let mid = lo + size / 2;
    build_tree(ty, lo, mid, nodes)?;
    build_tree(ty, mid, hi, nodes)?;
    let team0: Vec<usize> = (lo..mid).collect();
    let team1: Vec<usize> = (mid..hi).collect();
    let node = find_contest_witness(ty, &team0, &team1)?;
    nodes.push(node);
    Ok(())
}

/// Searches for a non-hiding recording witness for the given teams: a
/// value `u` and per-member ops that [`recording_class`] finds recording,
/// with `u ∉ U_0 ∪ U_1`.
fn find_contest_witness(
    ty: &dyn ObjectType,
    team0: &[usize],
    team1: &[usize],
) -> Result<PlanNode, PlanError> {
    let (a, b) = (team0.len(), team1.len());
    let num_ops = ty.num_ops();
    // Candidate op assignments for the two teams: first the uniform ones
    // (one op per team — these succeed immediately for the common types and
    // keep the search polynomial), then the full multiset space.
    let uniform = (0..num_ops).flat_map(move |x| {
        (0..num_ops).map(move |y| (vec![OpId(x as u16); a], vec![OpId(y as u16); b]))
    });
    let full = op_multisets(num_ops, a)
        .flat_map(move |ops0| op_multisets(num_ops, b).map(move |ops1| (ops0.clone(), ops1)));
    let mut team_of = vec![Team::T0; a];
    team_of.resize(a + b, Team::T1);
    for u in 0..ty.num_values() {
        let u = ValueId(u as u16);
        for (ops0, ops1) in uniform.clone().chain(full.clone()) {
            let witness = Witness::new(u, team_of.clone(), [ops0, ops1].concat());
            if recording_class(ty, &witness) != Ok(CriticalClass::Recording) {
                continue;
            }
            // A recording witness's `U` sets are disjoint, so each value
            // has at most one team.
            let analysis = Analysis::new(ty, u, &witness.ops);
            let mut team_of_value = vec![None; ty.num_values()];
            for team in [Team::T0, Team::T1] {
                for v in analysis.value_set(&witness.team_members(team)).iter() {
                    team_of_value[v] = Some(team.index() as u8);
                }
            }
            // A hiding witness (`u ∈ U_0 ∪ U_1`) defeats the at-most-once
            // read of `u`.
            if team_of_value[u.index()].is_some() {
                continue;
            }
            let members = team0
                .iter()
                .chain(team1)
                .zip(&witness.team_of)
                .zip(&witness.ops)
                .map(|((&p, team), &op)| (p, team.index() as u8, op))
                .collect();
            return Ok(PlanNode {
                members,
                initial: u,
                team_of_value,
                object: ObjectId::new(0), // filled later
                cand: [ObjectId::new(0), ObjectId::new(0)],
            });
        }
    }
    Err(PlanError::NoWitness { team0: a, team1: b })
}

// Local state layout: [candidate, path_index, stage, winner_team].
impl Program for TournamentConsensus {
    fn name(&self) -> String {
        format!("tournament-consensus<{} nodes>", self.nodes.len())
    }

    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::from_words([input, 0, STAGE_WRITE_CAND, 0])
    }

    fn action(&self, pid: ProcessId, state: &LocalState) -> Action {
        let path = &self.paths[pid.index()];
        let k = state.word(1) as usize;
        if k >= path.len() {
            return Action::Output(state.word(0));
        }
        let node = &self.nodes[path[k]];
        let (team, op) = self.node_role(node, pid.index());
        match state.word(2) {
            STAGE_WRITE_CAND => Action::Invoke {
                object: node.cand[team as usize],
                // Register write(k) has op id k.
                op: OpId::new(state.word(0) as u16),
            },
            STAGE_READ_FIRST | STAGE_READ_SECOND => Action::Invoke {
                object: node.object,
                op: self.read_op,
            },
            STAGE_APPLY => Action::Invoke {
                object: node.object,
                op,
            },
            STAGE_READ_WINNER => Action::Invoke {
                object: node.cand[state.word(3) as usize],
                op: OpId::new(3), // read of a domain-3 register
            },
            other => panic!("invalid stage {other}"),
        }
    }

    fn transition(&self, pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
        let path = &self.paths[pid.index()];
        let candidate = state.word(0);
        let k = state.word(1);
        let node = &self.nodes[path[k as usize]];
        match state.word(2) {
            STAGE_WRITE_CAND => LocalState::from_words([candidate, k, STAGE_READ_FIRST, 0]),
            STAGE_READ_FIRST => {
                let value =
                    self.resp_to_value[response.index()].expect("read responses decode to values");
                if value == node.initial {
                    // Untouched: nobody (including a pre-crash self) has
                    // applied; safe to apply now.
                    LocalState::from_words([candidate, k, STAGE_APPLY, 0])
                } else {
                    let winner = node.team_of_value[value.index()].unwrap_or(0);
                    LocalState::from_words([candidate, k, STAGE_READ_WINNER, winner as u32])
                }
            }
            STAGE_APPLY => LocalState::from_words([candidate, k, STAGE_READ_SECOND, 0]),
            STAGE_READ_SECOND => {
                let value =
                    self.resp_to_value[response.index()].expect("read responses decode to values");
                // After our own application the value cannot be u.
                let winner = node.team_of_value[value.index()].unwrap_or(0);
                LocalState::from_words([candidate, k, STAGE_READ_WINNER, winner as u32])
            }
            STAGE_READ_WINNER => {
                // The winning team wrote its agreed candidate before
                // touching the object, so the register is set.
                let new_candidate = match response.index() {
                    x @ (0 | 1) => x as u32,
                    _ => candidate, // ⊥ would indicate a plan bug
                };
                LocalState::from_words([new_candidate, k + 1, STAGE_WRITE_CAND, 0])
            }
            other => panic!("invalid stage {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{drive, CrashBudget, CrashyAdversary, RoundRobin};
    use rcn_spec::zoo::{CompareAndSwap, Register as Reg, StickyBit, TeamCounter, TestAndSet, Tnn};

    #[test]
    fn sticky_bit_tournament_runs_clean() {
        for n in 2..5usize {
            let inputs: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
            let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), inputs).unwrap();
            let report = drive(&sys, &mut RoundRobin::new(), 10_000);
            assert!(report.is_clean_consensus(), "n={n}");
        }
    }

    #[test]
    fn sticky_bit_tournament_survives_random_crashes() {
        let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1, 0, 1]).unwrap();
        for seed in 0..15 {
            let mut adv = CrashyAdversary::new(seed, 0.35, CrashBudget::new(1, 3));
            let report = drive(&sys, &mut adv, 50_000);
            assert!(
                report.is_clean_consensus(),
                "seed {seed}: {:?} via {}",
                report.violation,
                report.schedule
            );
        }
    }

    #[test]
    fn cas_tournament_works() {
        let sys =
            TournamentConsensus::try_new(Arc::new(CompareAndSwap::new(3)), vec![0, 1, 1]).unwrap();
        for seed in 0..10 {
            let mut adv = CrashyAdversary::new(seed, 0.3, CrashBudget::new(1, 3));
            let report = drive(&sys, &mut adv, 50_000);
            assert!(report.is_clean_consensus(), "seed {seed}");
        }
    }

    #[test]
    fn team_counter_supports_its_recording_number() {
        // TeamCounter(4) is 3-recording: the tournament runs 3 processes.
        let sys =
            TournamentConsensus::try_new(Arc::new(TeamCounter::new(4)), vec![1, 0, 0]).unwrap();
        for seed in 0..10 {
            let mut adv = CrashyAdversary::new(seed, 0.3, CrashBudget::new(1, 3));
            let report = drive(&sys, &mut adv, 50_000);
            assert!(report.is_clean_consensus(), "seed {seed}");
        }
    }

    #[test]
    fn readable_tnn_supports_two_processes() {
        // T_{3,2} is readable and 2-recording.
        let sys = TournamentConsensus::try_new(Arc::new(Tnn::new(3, 2)), vec![0, 1]).unwrap();
        let report = drive(&sys, &mut RoundRobin::new(), 10_000);
        assert!(report.is_clean_consensus());
    }

    #[test]
    fn registers_have_no_witness() {
        match TournamentConsensus::try_new(Arc::new(Reg::new(3)), vec![0, 1]) {
            Err(PlanError::NoWitness { team0: 1, team1: 1 }) => {}
            other => panic!("expected NoWitness, got {other:?}"),
        }
    }

    #[test]
    fn test_and_set_has_no_witness() {
        // Golab's separation strikes again: T&S is not 2-recording, so no
        // contest witness exists.
        assert!(TournamentConsensus::try_new(Arc::new(TestAndSet::new()), vec![0, 1]).is_err());
    }

    #[test]
    fn single_process_is_rejected() {
        assert_eq!(
            TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1]).unwrap_err(),
            PlanError::TooFewProcesses
        );
    }

    #[test]
    fn processes_beyond_an_analysis_are_rejected() {
        // The root contest spans every process, so its witness needs an
        // analysis of all of them: refuse before searching.
        let n = MAX_PROCESSES + 1;
        let err = TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![0; n]).unwrap_err();
        assert_eq!(
            err,
            PlanError::TooManyProcesses {
                n,
                max: MAX_PROCESSES
            }
        );
        assert_eq!(
            err.to_string(),
            "21 processes exceed the 20 a contest witness supports"
        );
    }

    #[test]
    fn decisions_follow_the_contest_winner() {
        let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![0, 1]).unwrap();
        let mut config = sys.initial_config();
        // Let p1 run alone to completion: it wins every contest.
        let d1 = sys.run_solo(&mut config, ProcessId::new(1), 1_000).unwrap();
        assert_eq!(d1, 1);
        let d0 = sys.run_solo(&mut config, ProcessId::new(0), 1_000).unwrap();
        assert_eq!(d0, 1, "p0 must adopt the winner's value");
    }
}
