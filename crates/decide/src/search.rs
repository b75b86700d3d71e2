//! Shared search scaffolding for the witness searches.
//!
//! Both deciders search the same witness space: an initial value, an op
//! assignment, and a team partition. Two symmetries cut the space:
//!
//! * **process permutation** — process identities don't appear in either
//!   condition (schedules range over all orders), so op assignments are
//!   enumerated as *multisets* (non-decreasing op sequences);
//! * **team relabeling** — both conditions are symmetric in `T_0`/`T_1`, so
//!   partitions are enumerated with `p_0 ∈ T_0`.

use crate::witness::Team;
use rcn_spec::{OpId, ValueId};

/// Iterates all non-decreasing op assignments of length `n` over
/// `0..num_ops` (op multisets), in lexicographic order.
pub fn op_multisets(num_ops: usize, n: usize) -> OpMultisets {
    OpMultisets {
        num_ops,
        current: Some(vec![OpId(0); n]),
    }
}

/// The iterator [`op_multisets`] returns.
#[derive(Debug, Clone)]
pub struct OpMultisets {
    num_ops: usize,
    current: Option<Vec<OpId>>,
}

impl Iterator for OpMultisets {
    type Item = Vec<OpId>;

    fn next(&mut self) -> Option<Vec<OpId>> {
        let current = self.current.take()?;
        let mut next = current.clone();
        // Advance like a non-decreasing odometer.
        let n = next.len();
        let mut i = n;
        loop {
            if i == 0 {
                self.current = None;
                return Some(current);
            }
            i -= 1;
            if next[i].index() + 1 < self.num_ops {
                let bumped = OpId(next[i].0 + 1);
                for slot in next.iter_mut().skip(i) {
                    *slot = bumped;
                }
                self.current = Some(next);
                return Some(current);
            }
        }
    }
}

/// Iterates all partitions of `n` processes into two nonempty teams with
/// `p_0 ∈ T_0`, as team bitmasks `(T_0, T_1)` (bit `i` stands for `p_i`).
pub(crate) fn partitions(n: usize) -> impl Iterator<Item = (u32, u32)> {
    let all = (1u32 << n) - 1;
    // Bits 0..n-1 of the counter give the team of p_1..p_{n-1}.
    (1u32..(1 << (n - 1))).map(move |bits| {
        let t1 = bits << 1;
        (all & !t1, t1)
    })
}

/// The team of each of `n` processes, given the bitmask of `T_1`: the
/// witness form of a partition.
pub(crate) fn team_of(n: usize, t1: u32) -> Vec<Team> {
    (0..n)
        .map(|i| {
            if t1 & (1 << i) != 0 {
                Team::T1
            } else {
                Team::T0
            }
        })
        .collect()
}

/// Iterates the `(initial value, op multiset)` *instances* of the witness
/// space — the unit of work the engine shards across threads (one
/// [`crate::Analysis`] is built per instance; partitions are then cheap
/// word ORs over team masks).
pub(crate) fn instances(
    num_values: usize,
    num_ops: usize,
    n: usize,
) -> impl Iterator<Item = (ValueId, Vec<OpId>)> {
    (0..num_values)
        .flat_map(move |u| op_multisets(num_ops, n).map(move |ops| (ValueId(u as u16), ops)))
}

/// The number of items [`instances`] yields, `|V| · C(|O| + n − 1, n)`,
/// in closed form (saturating at `u64::MAX`), so a level reports the size
/// of its space without enumerating it.
pub(crate) fn instance_count(num_values: usize, num_ops: usize, n: usize) -> u64 {
    // C(o + n − 1, n) = ∏_{i<n} (o + i) / (i + 1); each prefix product is
    // itself a binomial coefficient, so every division is exact.
    let mut multisets: u128 = 1;
    for i in 0..n as u128 {
        match multisets.checked_mul(num_ops as u128 + i) {
            Some(p) => multisets = p / (i + 1),
            None => return u64::MAX,
        }
    }
    multisets
        .checked_mul(num_values as u128)
        .and_then(|count| u64::try_from(count).ok())
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multisets_are_sorted_and_complete() {
        let all: Vec<Vec<OpId>> = op_multisets(3, 2).collect();
        // C(3+2-1, 2) = 6 multisets.
        assert_eq!(all.len(), 6);
        for m in &all {
            assert!(m.windows(2).all(|w| w[0] <= w[1]), "not sorted: {m:?}");
        }
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn multisets_of_length_one() {
        let all: Vec<Vec<OpId>> = op_multisets(4, 1).collect();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn partitions_have_p0_in_t0_and_nonempty_t1() {
        let all: Vec<(u32, u32)> = partitions(4).collect();
        assert_eq!(all.len(), 7); // 2^3 - 1
        for &(t0, t1) in &all {
            assert_eq!(t0 & t1, 0, "teams overlap");
            assert_eq!(t0 | t1, 0b1111, "teams cover all processes");
            assert_ne!(t0 & 1, 0, "p0 on T0");
            assert_ne!(t1, 0, "T1 nonempty");
            let teams = team_of(4, t1);
            assert_eq!(teams[0], Team::T0);
            assert!(teams.contains(&Team::T1));
        }
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn partitions_of_two() {
        let all: Vec<(u32, u32)> = partitions(2).collect();
        assert_eq!(all, vec![(0b01, 0b10)]);
        assert_eq!(team_of(2, 0b10), vec![Team::T0, Team::T1]);
    }

    #[test]
    fn instances_cover_the_outer_product() {
        let all: Vec<_> = instances(2, 3, 2).collect();
        // 2 values × C(3+2-1, 2) = 12 instances.
        assert_eq!(all.len(), 12);
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
        // Value-major, multiset-minor: the order a one-worker engine visits.
        assert_eq!(all[0].0.index(), 0);
        assert_eq!(all[6].0.index(), 1);
    }

    #[test]
    fn instance_count_matches_the_enumeration() {
        for num_values in 1..4 {
            for num_ops in 1..6 {
                for n in 1..7 {
                    assert_eq!(
                        instance_count(num_values, num_ops, n),
                        instances(num_values, num_ops, n).count() as u64,
                        "|V|={num_values} |O|={num_ops} n={n}"
                    );
                }
            }
        }
        // cas:4 at level 5: 4 · C(20, 5).
        assert_eq!(instance_count(4, 16, 5), 62_016);
        // Past u64, the count saturates instead of wrapping.
        assert_eq!(instance_count(65_536, 65_536, 20), u64::MAX);
    }
}
