//! Classification: from decider outputs to (recoverable) consensus numbers.
//!
//! What the theory licenses:
//!
//! * **Consensus number.** Ruppert (2000): a deterministic *readable* type
//!   has consensus number ≥ n iff it is n-discerning, and n-discerning is
//!   necessary for every deterministic type. So for readable types
//!   `CN = discerning number`; for non-readable deterministic types
//!   `CN ≤ discerning number`.
//! * **Recoverable consensus number.** Theorem 13 of the paper: n-recording
//!   is necessary for every deterministic type. DFFR'22 Theorem 8:
//!   sufficient for readable types. So for readable types
//!   `RCN = recording number`; for non-readable deterministic types
//!   `RCN ≤ recording number`.
//!
//! The classification is honest about caps: searches run up to a level cap,
//! and a result at the cap is reported as a lower bound of an exact number
//! rather than an exact number.

use crate::discerning::LevelResult;
use crate::engine::{or_panic, SearchEngine};
use rcn_spec::ObjectType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A one- or two-sided bound on a consensus number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bound {
    /// The number is known exactly.
    Exact(usize),
    /// The number is at least this (search hit its cap).
    AtLeast(usize),
    /// The number is between the two bounds (inclusive).
    Between(usize, usize),
    /// Only an upper bound is known (non-readable type: the condition is
    /// necessary but not known to be sufficient).
    AtMost(usize),
}

impl Bound {
    /// The lower end of the bound (1 if unknown).
    pub fn lower(&self) -> usize {
        match *self {
            Bound::Exact(k) | Bound::AtLeast(k) | Bound::Between(k, _) => k,
            Bound::AtMost(_) => 1,
        }
    }

    /// The upper end of the bound, if finite knowledge exists.
    pub fn upper(&self) -> Option<usize> {
        match *self {
            Bound::Exact(k) | Bound::AtMost(k) | Bound::Between(_, k) => Some(k),
            Bound::AtLeast(_) => None,
        }
    }

    /// Returns `true` if the bound pins a single number.
    pub fn is_exact(&self) -> bool {
        matches!(self, Bound::Exact(_))
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bound::Exact(k) => write!(f, "{k}"),
            Bound::AtLeast(k) => write!(f, "≥{k}"),
            Bound::AtMost(k) => write!(f, "≤{k}"),
            Bound::Between(a, b) => write!(f, "[{a},{b}]"),
        }
    }
}

/// The full classification of one type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeClassification {
    /// The type's name.
    pub type_name: String,
    /// Whether the type is readable (supports a read operation).
    pub readable: bool,
    /// The discerning-number search result.
    pub discerning: LevelResult,
    /// The recording-number search result.
    pub recording: LevelResult,
    /// What the theory concludes about the consensus number.
    pub consensus_number: Bound,
    /// What the theory concludes about the recoverable consensus number.
    pub recoverable_consensus_number: Bound,
}

impl TypeClassification {
    /// One table row: `name | readable | CN | RCN`.
    pub fn row(&self) -> String {
        format!(
            "{:<24} {:<8} {:<6} {}",
            self.type_name,
            if self.readable { "yes" } else { "no" },
            self.consensus_number.to_string(),
            self.recoverable_consensus_number,
        )
    }
}

/// Classifies a type by deciding both conditions up to `cap` on
/// [`SearchEngine::sequential`] and applying the theorems above.
///
/// # Panics
///
/// Panics with the [`SearchError`](crate::SearchError) message if
/// `cap < 2`, if `cap > MAX_PROCESSES`, or if the type's `apply` panics.
///
/// # Examples
///
/// ```
/// use rcn_decide::{classify, Bound};
/// use rcn_spec::zoo::TestAndSet;
///
/// let c = classify(&TestAndSet::new(), 4);
/// assert!(c.readable);
/// assert_eq!(c.consensus_number, Bound::Exact(2));
/// assert_eq!(c.recoverable_consensus_number, Bound::Exact(1)); // Golab
/// ```
pub fn classify<T: ObjectType + Sync + ?Sized>(ty: &T, cap: usize) -> TypeClassification {
    or_panic(SearchEngine::sequential().classify(ty, cap))
}

pub(crate) fn level_to_bound(level: &LevelResult, readable: bool) -> Bound {
    match (readable, level.capped) {
        // Readable: the condition characterizes the number exactly.
        (true, false) => Bound::Exact(level.level),
        (true, true) => Bound::AtLeast(level.level),
        // Non-readable deterministic: the condition is only necessary, so
        // the computed level is an upper bound (trivially ≥ 1 below).
        (false, false) => {
            if level.level == 1 {
                Bound::Exact(1)
            } else {
                Bound::AtMost(level.level)
            }
        }
        // Capped and non-readable: the search says nothing conclusive.
        (false, true) => Bound::AtLeast(1),
    }
}

/// The *robust level* of a set of types: by Theorem 14 (robustness of the
/// recoverable consensus hierarchy for deterministic readable types), the
/// number of processes among which recoverable consensus is solvable using
/// any combination of objects of these types is the **maximum** of the
/// individual recoverable consensus numbers — combining types does not help.
///
/// Returns the max over the lower bounds together with the arg-max type
/// name.
///
/// # Examples
///
/// ```
/// use rcn_decide::{classify, robust_level};
/// use rcn_spec::zoo::{Register, TestAndSet};
///
/// let classes = vec![classify(&Register::new(2), 3), classify(&TestAndSet::new(), 3)];
/// let (level, witness_type) = robust_level(&classes);
/// assert_eq!(level, 1); // neither helps recoverable consensus beyond 1
/// # let _ = witness_type;
/// ```
pub fn robust_level(classes: &[TypeClassification]) -> (usize, Option<String>) {
    let mut best = 1;
    let mut who = None;
    for c in classes {
        let l = c.recoverable_consensus_number.lower();
        if l > best {
            best = l;
            who = Some(c.type_name.clone());
        }
    }
    (best, who)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_spec::zoo::{BoundedQueue, Register, StickyBit, TestAndSet, Tnn};

    #[test]
    fn register_is_level_1_everywhere() {
        let c = classify(&Register::new(2), 3);
        assert_eq!(c.consensus_number, Bound::Exact(1));
        assert_eq!(c.recoverable_consensus_number, Bound::Exact(1));
        assert!(c.readable);
    }

    #[test]
    fn test_and_set_separates_the_hierarchies() {
        let c = classify(&TestAndSet::new(), 4);
        assert_eq!(c.consensus_number, Bound::Exact(2));
        assert_eq!(c.recoverable_consensus_number, Bound::Exact(1));
    }

    #[test]
    fn sticky_bit_caps_out() {
        let c = classify(&StickyBit::new(), 4);
        assert_eq!(c.consensus_number, Bound::AtLeast(4));
        assert_eq!(c.recoverable_consensus_number, Bound::AtLeast(4));
    }

    #[test]
    fn queue_classification_is_inconclusive() {
        // Queues are not readable and are n-discerning for every n (the head
        // records the first enqueuer), so the search caps out and the theory
        // licenses no nontrivial bound — Herlihy's CN(queue) = 2 needs the
        // queue-specific argument, not the discerning condition.
        let c = classify(&BoundedQueue::new(2, 2), 3);
        assert!(!c.readable);
        assert!(c.discerning.capped);
        assert_eq!(c.consensus_number, Bound::AtLeast(1));
    }

    #[test]
    fn tnn_classification_matches_lemmas() {
        // T_{4,2}: not readable; discerning number 4 (Lemma 15 says CN = 4),
        // recording number 3 (upper bound; Lemma 16 pins RCN = 2).
        let c = classify(&Tnn::new(4, 2), 5);
        assert!(!c.readable);
        assert_eq!(c.discerning.level, 4);
        assert_eq!(c.recording.level, 3);
        assert_eq!(c.consensus_number, Bound::AtMost(4));
        assert_eq!(c.recoverable_consensus_number, Bound::AtMost(3));
    }

    #[test]
    fn robust_level_takes_the_max() {
        let classes = vec![
            classify(&Register::new(2), 3),
            classify(&TestAndSet::new(), 3),
            classify(&StickyBit::new(), 3),
        ];
        let (level, who) = robust_level(&classes);
        assert_eq!(level, 3);
        assert_eq!(who.as_deref(), Some("sticky-bit"));
    }

    #[test]
    fn bound_accessors() {
        assert_eq!(Bound::Exact(3).lower(), 3);
        assert_eq!(Bound::Exact(3).upper(), Some(3));
        assert!(Bound::Exact(3).is_exact());
        assert_eq!(Bound::AtLeast(2).upper(), None);
        assert_eq!(Bound::AtMost(4).lower(), 1);
        assert_eq!(Bound::Between(2, 4).lower(), 2);
        assert_eq!(Bound::Between(2, 4).upper(), Some(4));
        assert_eq!(Bound::Between(2, 4).to_string(), "[2,4]");
    }

    #[test]
    fn rows_render() {
        let c = classify(&TestAndSet::new(), 3);
        let row = c.row();
        assert!(row.contains("test-and-set"));
        assert!(row.contains("yes"));
    }
}
