//! Witness certificates for the *n-discerning* and *n-recording* conditions.
//!
//! Both conditions (§2 of the paper) are existential over the same data: an
//! initial value `u`, a partition of `{p_0,…,p_{n−1}}` into two nonempty
//! teams `T_0`, `T_1`, and an operation `o_i` for each process. A [`Witness`]
//! packages that data; the deciders return one whenever they report success,
//! and [`crate::check_discerning`] / [`crate::check_recording`] re-verify a
//! witness independently of the search (certificates are replayable).

use rcn_spec::{ObjectType, OpId, ValueId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A team label: `T_0` or `T_1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Team {
    /// Team 0.
    T0,
    /// Team 1.
    T1,
}

impl Team {
    /// The other team.
    pub fn other(self) -> Team {
        match self {
            Team::T0 => Team::T1,
            Team::T1 => Team::T0,
        }
    }

    /// 0 or 1.
    pub fn index(self) -> usize {
        match self {
            Team::T0 => 0,
            Team::T1 => 1,
        }
    }

    /// Builds a team from 0 or 1.
    ///
    /// # Panics
    ///
    /// Panics if `i > 1`.
    pub fn from_index(i: usize) -> Team {
        match i {
            0 => Team::T0,
            1 => Team::T1,
            _ => panic!("team index must be 0 or 1, got {i}"),
        }
    }
}

impl fmt::Display for Team {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.index())
    }
}

/// A witness for *n-discerning* / *n-recording*: initial value, team
/// partition, and per-process operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Witness {
    /// The initial value `u`.
    pub initial: ValueId,
    /// `team_of[i]` is the team of process `p_i`.
    pub team_of: Vec<Team>,
    /// `ops[i]` is the operation `o_i` assigned to process `p_i`.
    pub ops: Vec<OpId>,
}

/// Errors found when validating a [`Witness`] against a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// `team_of` and `ops` have different lengths.
    LengthMismatch,
    /// Fewer than 2 processes.
    TooFewProcesses,
    /// One of the teams is empty.
    EmptyTeam,
    /// The initial value is out of range for the type.
    InitialOutOfRange,
    /// An assigned operation is out of range for the type.
    OpOutOfRange {
        /// The offending process index.
        process: usize,
    },
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::LengthMismatch => write!(f, "team and op vectors differ in length"),
            WitnessError::TooFewProcesses => write!(f, "a witness needs at least 2 processes"),
            WitnessError::EmptyTeam => write!(f, "both teams must be nonempty"),
            WitnessError::InitialOutOfRange => write!(f, "initial value out of range"),
            WitnessError::OpOutOfRange { process } => {
                write!(f, "operation of p{process} out of range")
            }
        }
    }
}

impl std::error::Error for WitnessError {}

impl Witness {
    /// Creates a witness.
    pub fn new(initial: ValueId, team_of: Vec<Team>, ops: Vec<OpId>) -> Self {
        Witness {
            initial,
            team_of,
            ops,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.team_of.len()
    }

    /// The processes on `team`.
    pub fn team_members(&self, team: Team) -> Vec<usize> {
        (0..self.n()).filter(|&i| self.team_of[i] == team).collect()
    }

    /// The bitmasks `(T_0, T_1)` of the two teams (bit `i` stands for
    /// `p_i`).
    ///
    /// # Panics
    ///
    /// Panics if the witness has more than 32 processes.
    pub(crate) fn team_masks(&self) -> (u32, u32) {
        assert!(self.n() <= 32, "team masks cover at most 32 processes");
        self.team_of
            .iter()
            .enumerate()
            .fold((0, 0), |(t0, t1), (i, team)| match team {
                Team::T0 => (t0 | 1 << i, t1),
                Team::T1 => (t0, t1 | 1 << i),
            })
    }

    /// Validates the witness against a type.
    ///
    /// # Errors
    ///
    /// Returns the first [`WitnessError`] found.
    pub fn validate<T: ObjectType + ?Sized>(&self, ty: &T) -> Result<(), WitnessError> {
        if self.team_of.len() != self.ops.len() {
            return Err(WitnessError::LengthMismatch);
        }
        if self.n() < 2 {
            return Err(WitnessError::TooFewProcesses);
        }
        if self.team_members(Team::T0).is_empty() || self.team_members(Team::T1).is_empty() {
            return Err(WitnessError::EmptyTeam);
        }
        if self.initial.index() >= ty.num_values() {
            return Err(WitnessError::InitialOutOfRange);
        }
        for (i, op) in self.ops.iter().enumerate() {
            if op.index() >= ty.num_ops() {
                return Err(WitnessError::OpOutOfRange { process: i });
            }
        }
        Ok(())
    }

    /// Renders the witness with the type's own value/op names.
    pub fn describe<T: ObjectType + ?Sized>(&self, ty: &T) -> String {
        let team = |t: Team| {
            self.team_members(t)
                .iter()
                .map(|i| format!("p{i}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let ops = self
            .ops
            .iter()
            .enumerate()
            .map(|(i, &op)| format!("o_{i}={}", ty.op_name(op)))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "u={} T0={{{}}} T1={{{}}} {}",
            ty.value_name(self.initial),
            team(Team::T0),
            team(Team::T1),
            ops
        )
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let teams: Vec<String> = self.team_of.iter().map(ToString::to_string).collect();
        let ops: Vec<String> = self.ops.iter().map(ToString::to_string).collect();
        write!(
            f,
            "u={} teams=[{}] ops=[{}]",
            self.initial,
            teams.join(","),
            ops.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_spec::zoo::TestAndSet;

    fn witness2() -> Witness {
        Witness::new(
            ValueId::new(0),
            vec![Team::T0, Team::T1],
            vec![OpId::new(0), OpId::new(0)],
        )
    }

    #[test]
    fn valid_witness_passes() {
        assert_eq!(witness2().validate(&TestAndSet::new()), Ok(()));
    }

    #[test]
    fn empty_team_is_rejected() {
        let w = Witness::new(
            ValueId::new(0),
            vec![Team::T0, Team::T0],
            vec![OpId::new(0), OpId::new(0)],
        );
        assert_eq!(w.validate(&TestAndSet::new()), Err(WitnessError::EmptyTeam));
    }

    #[test]
    fn out_of_range_parts_are_rejected() {
        let mut w = witness2();
        w.initial = ValueId::new(9);
        assert_eq!(
            w.validate(&TestAndSet::new()),
            Err(WitnessError::InitialOutOfRange)
        );
        let mut w = witness2();
        w.ops[1] = OpId::new(9);
        assert_eq!(
            w.validate(&TestAndSet::new()),
            Err(WitnessError::OpOutOfRange { process: 1 })
        );
    }

    #[test]
    fn too_small_witnesses_are_rejected() {
        let w = Witness::new(ValueId::new(0), vec![Team::T0], vec![OpId::new(0)]);
        assert_eq!(
            w.validate(&TestAndSet::new()),
            Err(WitnessError::TooFewProcesses)
        );
        let w = Witness::new(ValueId::new(0), vec![Team::T0], vec![]);
        assert_eq!(
            w.validate(&TestAndSet::new()),
            Err(WitnessError::LengthMismatch)
        );
    }

    #[test]
    fn team_helpers() {
        assert_eq!(Team::T0.other(), Team::T1);
        assert_eq!(Team::from_index(1), Team::T1);
        let w = witness2();
        assert_eq!(w.team_members(Team::T0), vec![0]);
        assert_eq!(w.team_members(Team::T1), vec![1]);
        assert_eq!(w.n(), 2);
    }

    #[test]
    fn describe_uses_type_names() {
        let text = witness2().describe(&TestAndSet::new());
        assert!(text.contains("u=clear"));
        assert!(text.contains("test&set"));
    }

    #[test]
    fn witness_serializes() {
        let w = witness2();
        let json = serde_json::to_string(&w).unwrap();
        let back: Witness = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
    }
}
