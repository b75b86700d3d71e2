//! Reachability analysis over `S(P)` schedule applications.
//!
//! The *n-discerning* and *n-recording* conditions quantify over all
//! schedules in `S(P)` (each process applies its assigned operation at most
//! once). Enumerating schedules is factorial; instead we explore the graph
//! whose nodes are `(set of processes that have applied, object value)` —
//! polynomial in `2^n · |values|` — which carries exactly the information
//! the conditions need:
//!
//! * `U_x` (recording): the values of all nodes reachable when the first
//!   applier is on team `x`;
//! * `R_{x,j}` (discerning): the pairs `(response p_j received, any value
//!   reachable after p_j applied)` over the same first-team restriction.
//!
//! The analysis is computed once per `(initial value, op assignment)`; team
//! partitions are then evaluated by cheap bitset unions, which is what makes
//! the exhaustive witness search feasible.
//!
//! Two implementations share the same pipeline and must stay bit-identical
//! (the differential suite pins this):
//!
//! * [`Analysis::new`] — the kernelized path, and the only one the deciders
//!   use: `ObjectType::apply` is hoisted out of the hot loops into
//!   per-(process, value) transition tables, and `(response, value)`-pair
//!   accumulation uses whole-word shifted ORs ([`BitSet::union_shifted_with`])
//!   instead of bit-at-a-time inserts.
//! * [`Analysis::new_scalar`] — the original bit-at-a-time reference,
//!   kept as the differential/benchmark baseline.

use crate::bitset::BitSet;
use rcn_spec::{ObjectType, OpId, ValueId};

/// Maximum number of processes the analysis supports (masks are `u32`).
pub const MAX_PROCESSES: usize = 20;

/// Reachability analysis of one `(u, ops)` instance.
///
/// # Examples
///
/// ```
/// use rcn_decide::Analysis;
/// use rcn_spec::{zoo::TestAndSet, OpId, ValueId};
///
/// let tas = TestAndSet::new();
/// // Two processes, both assigned test&set, from the clear value.
/// let a = Analysis::new(&tas, ValueId::new(0), &[OpId::new(0), OpId::new(0)]);
/// // Whoever goes first, the value ends up "set": the value sets intersect,
/// // which is exactly why test-and-set is not 2-recording.
/// let u0 = a.value_set(&[0]);
/// let u1 = a.value_set(&[1]);
/// assert!(u0.intersects(&u1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Analysis {
    n: usize,
    num_values: usize,
    num_responses: usize,
    /// `value_sets[f]`: values reachable over schedules whose first process
    /// is `p_f` (the per-first building block of the `U_x` sets).
    value_sets: Vec<BitSet>,
    /// `pair_sets[f * n + j]`: `(response, value)` pairs of `p_j` over
    /// schedules whose first process is `p_f` and that contain `p_j` (the
    /// per-first building block of the `R_{x,j}` sets).
    pair_sets: Vec<BitSet>,
}

/// Precomputed per-(process, value) transitions of one instance. The hot
/// propagation loops index these instead of calling `ObjectType::apply`
/// `O(2^n · |values| · n)` times — the apply of a computed (non-tabular)
/// type is far more expensive than an array load.
struct Tables {
    n: usize,
    num_values: usize,
    num_responses: usize,
    /// `step[j * num_values + v]` = (response index, next-value index) of
    /// process `j`'s op applied at value `v`.
    step: Vec<(usize, usize)>,
    /// `root[j]` = (response, next) of process `j`'s op applied at the
    /// initial value.
    root: Vec<(usize, usize)>,
}

impl Tables {
    fn new<T: ObjectType + ?Sized>(ty: &T, u: ValueId, ops: &[OpId]) -> Tables {
        let n = ops.len();
        assert!(
            n <= MAX_PROCESSES,
            "analysis supports at most {MAX_PROCESSES} processes"
        );
        let num_values = ty.num_values();
        let num_responses = ty.num_responses();
        assert!(u.index() < num_values, "initial value out of range");
        for op in ops {
            assert!(op.index() < ty.num_ops(), "op out of range");
        }
        let mut step = Vec::with_capacity(n * num_values);
        for &op in ops {
            for v in 0..num_values {
                let out = ty.apply(ValueId(v as u16), op);
                step.push((out.response.index(), out.next.index()));
            }
        }
        let root = ops
            .iter()
            .map(|&op| {
                let out = ty.apply(u, op);
                (out.response.index(), out.next.index())
            })
            .collect();
        Tables {
            n,
            num_values,
            num_responses,
            step,
            root,
        }
    }

    fn node(&self, mask: u32, v: usize) -> usize {
        mask as usize * self.num_values + v
    }

    fn num_nodes(&self) -> usize {
        (1usize << self.n) * self.num_values
    }
}

/// Reachability labels: `firsts[mask * num_values + v]` is the bitmask of
/// processes `f` such that the node `(mask, v)` is reachable via a schedule
/// starting with `p_f` (0 = unreachable). Propagated in increasing mask
/// order (masks only grow along edges, so numeric order is topological).
fn firsts_of(t: &Tables) -> Vec<u32> {
    let nv = t.num_values;
    let mut firsts = vec![0u32; t.num_nodes()];
    for (f, &(_, next)) in t.root.iter().enumerate() {
        firsts[t.node(1 << f, next)] |= 1 << f;
    }
    for mask in 1u32..(1 << t.n) {
        for v in 0..nv {
            let label = firsts[t.node(mask, v)];
            if label == 0 {
                continue;
            }
            for j in 0..t.n {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let (_, next) = t.step[j * nv + v];
                firsts[t.node(mask | (1 << j), next)] |= label;
            }
        }
    }
    firsts
}

/// Downstream value sets: `downstream[node]` holds the node's own value
/// plus every value reachable from it (`None` = unreachable node), computed
/// in decreasing mask order (reverse topological), so each node's children
/// are done before it.
fn downstream_from(t: &Tables, firsts: &[u32]) -> Vec<Option<BitSet>> {
    let nv = t.num_values;
    let mut downstream: Vec<Option<BitSet>> = vec![None; t.num_nodes()];
    for mask in (1u32..(1 << t.n)).rev() {
        for v in 0..nv {
            let id = t.node(mask, v);
            if firsts[id] == 0 {
                continue;
            }
            let mut set = BitSet::new(nv);
            set.insert(v);
            for j in 0..t.n {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let (_, next) = t.step[j * nv + v];
                if let Some(ds) = &downstream[t.node(mask | (1 << j), next)] {
                    set.union_with(ds);
                }
            }
            downstream[id] = Some(set);
        }
    }
    downstream
}

/// Accumulates the per-first value/pair sets over every nonempty mask. The
/// pair kernel: a node's downstream value set, shifted by
/// `response * num_values`, is exactly the block of `(response, value)`
/// pairs process `j` contributes — one whole-word OR per (node, j, first)
/// instead of one insert per pair.
fn accumulate(
    t: &Tables,
    firsts: &[u32],
    downstream: &[Option<BitSet>],
) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = t.n;
    let nv = t.num_values;
    let mut value_sets = vec![BitSet::new(nv); n];
    let mut pair_sets = vec![BitSet::new(t.num_responses * nv); n * n];
    for mask in 1u32..(1 << n) {
        for v in 0..nv {
            let label = firsts[t.node(mask, v)];
            if label == 0 {
                continue;
            }
            // Values of this node belong to U_f for every first f.
            let mut l = label;
            while l != 0 {
                let f = l.trailing_zeros() as usize;
                l &= l - 1;
                value_sets[f].insert(v);
            }
            // Pairs contributed by each process j applying here.
            for j in 0..n {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let (resp, next) = t.step[j * nv + v];
                let Some(ds) = &downstream[t.node(mask | (1 << j), next)] else {
                    continue;
                };
                let shift = resp * nv;
                let mut l = label;
                while l != 0 {
                    let f = l.trailing_zeros() as usize;
                    l &= l - 1;
                    pair_sets[f * n + j].union_shifted_with(ds, shift);
                }
            }
        }
    }
    (value_sets, pair_sets)
}

/// The first application itself: p_f's own pair from the virtual root.
fn accumulate_root(t: &Tables, downstream: &[Option<BitSet>], pair_sets: &mut [BitSet]) {
    for (f, &(resp, next)) in t.root.iter().enumerate() {
        if let Some(ds) = &downstream[t.node(1 << f, next)] {
            pair_sets[f * t.n + f].union_shifted_with(ds, resp * t.num_values);
        }
    }
}

impl Analysis {
    /// Analyzes applying `ops[i]` (for process `p_i`) in every `S(P)` order
    /// starting from value `u`.
    ///
    /// # Panics
    ///
    /// Panics if `ops.len() > MAX_PROCESSES`, or if `u` / any op is out of
    /// range for the type.
    pub fn new<T: ObjectType + ?Sized>(ty: &T, u: ValueId, ops: &[OpId]) -> Analysis {
        let t = Tables::new(ty, u, ops);
        let firsts = firsts_of(&t);
        let downstream = downstream_from(&t, &firsts);
        let (value_sets, mut pair_sets) = accumulate(&t, &firsts, &downstream);
        accumulate_root(&t, &downstream, &mut pair_sets);
        Analysis {
            n: t.n,
            num_values: t.num_values,
            num_responses: t.num_responses,
            value_sets,
            pair_sets,
        }
    }

    /// The original bit-at-a-time implementation, kept verbatim as the
    /// reference the kernelized path is measured and differentially tested
    /// against. Produces a bit-identical [`Analysis`].
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn new_scalar<T: ObjectType + ?Sized>(ty: &T, u: ValueId, ops: &[OpId]) -> Analysis {
        let n = ops.len();
        assert!(
            n <= MAX_PROCESSES,
            "analysis supports at most {MAX_PROCESSES} processes"
        );
        let num_values = ty.num_values();
        let num_responses = ty.num_responses();
        assert!(u.index() < num_values, "initial value out of range");
        for op in ops {
            assert!(op.index() < ty.num_ops(), "op out of range");
        }

        let num_nodes = (1usize << n) * num_values;
        let node = |mask: u32, v: usize| (mask as usize) * num_values + v;

        // firsts[node]: bitmask of processes f such that the node is
        // reachable via a schedule starting with p_f. 0 = unreachable.
        let mut firsts = vec![0u32; num_nodes];
        for (f, &op) in ops.iter().enumerate() {
            let out = ty.apply(u, op);
            firsts[node(1 << f, out.next.index())] |= 1 << f;
        }
        // Propagate in increasing mask order (masks only grow along edges).
        for mask in 1u32..(1 << n) {
            for v in 0..num_values {
                let label = firsts[node(mask, v)];
                if label == 0 {
                    continue;
                }
                for (j, &op) in ops.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        continue;
                    }
                    let out = ty.apply(ValueId(v as u16), op);
                    firsts[node(mask | (1 << j), out.next.index())] |= label;
                }
            }
        }

        // downstream[node]: values reachable from the node (including its
        // own value), computed in decreasing mask order (reverse topological).
        let mut downstream: Vec<Option<BitSet>> = vec![None; num_nodes];
        for mask in (1u32..(1 << n)).rev() {
            for v in 0..num_values {
                let id = node(mask, v);
                if firsts[id] == 0 {
                    continue;
                }
                let mut set = BitSet::new(num_values);
                set.insert(v);
                for (j, &op) in ops.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        continue;
                    }
                    let out = ty.apply(ValueId(v as u16), op);
                    let child = node(mask | (1 << j), out.next.index());
                    if let Some(ds) = &downstream[child] {
                        set.union_with(ds);
                    }
                }
                downstream[id] = Some(set);
            }
        }

        let mut value_sets = vec![BitSet::new(num_values); n];
        let mut pair_sets = vec![BitSet::new(num_responses * num_values); n * n];

        // The first application itself: p_f's own pair from the virtual root.
        for (f, &op) in ops.iter().enumerate() {
            let out = ty.apply(u, op);
            let start = node(1 << f, out.next.index());
            if let Some(ds) = &downstream[start] {
                for v in ds.iter() {
                    pair_sets[f * n + f].insert(out.response.index() * num_values + v);
                }
            }
        }

        for mask in 1u32..(1 << n) {
            for v in 0..num_values {
                let id = node(mask, v);
                let label = firsts[id];
                if label == 0 {
                    continue;
                }
                // Values of this node belong to U_f for every first f.
                for (f, set) in value_sets.iter_mut().enumerate() {
                    if label & (1 << f) != 0 {
                        set.insert(v);
                    }
                }
                // Pairs contributed by each process j applying here.
                for (j, &op) in ops.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        continue;
                    }
                    let out = ty.apply(ValueId(v as u16), op);
                    let child = node(mask | (1 << j), out.next.index());
                    let Some(ds) = &downstream[child] else {
                        continue;
                    };
                    for f in 0..n {
                        if label & (1 << f) == 0 {
                            continue;
                        }
                        let set = &mut pair_sets[f * n + j];
                        for v2 in ds.iter() {
                            set.insert(out.response.index() * num_values + v2);
                        }
                    }
                }
            }
        }

        Analysis {
            n,
            num_values,
            num_responses,
            value_sets,
            pair_sets,
        }
    }

    /// Number of processes in the analyzed assignment.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `U`-style value set for a team: all values reachable over
    /// nonempty schedules whose first process is a member of `team`.
    pub fn value_set(&self, team: &[usize]) -> BitSet {
        let mut out = BitSet::new(self.num_values);
        for &f in team {
            out.union_with(&self.value_sets[f]);
        }
        out
    }

    /// The `R_{x,j}`-style pair set: `(response, value)` pairs of `p_j` over
    /// schedules containing `p_j` whose first process is in `team`.
    pub fn pair_set(&self, team: &[usize], j: usize) -> BitSet {
        // Capacity is the pair-universe size, not something to infer from an
        // arbitrary stored set (indexing `pair_sets[j]` happened to alias
        // `pair_sets[0 * n + j]`, which has the right capacity only because
        // all rows share it).
        let mut out = BitSet::new(self.num_responses * self.num_values);
        for &f in team {
            out.union_with(&self.pair_sets[f * self.n + j]);
        }
        out
    }

    /// Per-first value set (building block of [`value_set`](Self::value_set)).
    pub fn value_set_of_first(&self, f: usize) -> &BitSet {
        &self.value_sets[f]
    }

    /// Per-first pair set (building block of [`pair_set`](Self::pair_set)).
    pub fn pair_set_of_first(&self, f: usize, j: usize) -> &BitSet {
        &self.pair_sets[f * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{s_p_first_in, ProcessId};
    use rcn_spec::apply_all;
    use rcn_spec::zoo::{Register, TeamCounter, TestAndSet, Tnn};
    use std::collections::HashSet;

    /// Brute-force U_x by enumerating S(P) schedules directly.
    fn brute_value_set<T: ObjectType>(
        ty: &T,
        u: ValueId,
        ops: &[OpId],
        team: &[usize],
    ) -> HashSet<usize> {
        let procs: Vec<ProcessId> = (0..ops.len()).map(|i| ProcessId(i as u16)).collect();
        let first: Vec<ProcessId> = team.iter().map(|&i| ProcessId(i as u16)).collect();
        let mut out = HashSet::new();
        for sched in s_p_first_in(&procs, &first) {
            let seq: Vec<OpId> = sched
                .iter()
                .map(|e| ops[e.process().expect("S(P′) schedules are step-only").index()])
                .collect();
            let (_, v) = apply_all(ty, u, &seq);
            out.insert(v.index());
        }
        out
    }

    /// Brute-force R_{x,j} by enumerating S(P) schedules directly.
    fn brute_pair_set<T: ObjectType>(
        ty: &T,
        u: ValueId,
        ops: &[OpId],
        team: &[usize],
        j: usize,
    ) -> HashSet<(usize, usize)> {
        let procs: Vec<ProcessId> = (0..ops.len()).map(|i| ProcessId(i as u16)).collect();
        let first: Vec<ProcessId> = team.iter().map(|&i| ProcessId(i as u16)).collect();
        let mut out = HashSet::new();
        for sched in s_p_first_in(&procs, &first) {
            if !sched.contains_process(ProcessId(j as u16)) {
                continue;
            }
            let seq: Vec<OpId> = sched
                .iter()
                .map(|e| ops[e.process().expect("S(P′) schedules are step-only").index()])
                .collect();
            let (outs, v) = apply_all(ty, u, &seq);
            let pos = sched
                .iter()
                .position(|e| e.process().map(ProcessId::index) == Some(j))
                .expect("j in schedule");
            out.insert((outs[pos].response.index(), v.index()));
        }
        out
    }

    fn check_against_brute<T: ObjectType>(ty: &T, u: ValueId, ops: &[OpId]) {
        let n = ops.len();
        let a = Analysis::new(ty, u, ops);
        // Check every singleton team (unions are trivially correct).
        for f in 0..n {
            let fast: HashSet<usize> = a.value_set(&[f]).iter().collect();
            let brute = brute_value_set(ty, u, ops, &[f]);
            assert_eq!(fast, brute, "U set mismatch, first={f}");
            for j in 0..n {
                let fast: HashSet<(usize, usize)> = a
                    .pair_set(&[f], j)
                    .iter()
                    .map(|i| (i / ty.num_values(), i % ty.num_values()))
                    .collect();
                let brute = brute_pair_set(ty, u, ops, &[f], j);
                assert_eq!(fast, brute, "R set mismatch, first={f}, j={j}");
            }
        }
    }

    /// The kernelized path must agree bit-for-bit with the scalar
    /// reference.
    fn check_paths_agree<T: ObjectType>(ty: &T, u: ValueId, ops: &[OpId]) {
        assert_eq!(
            Analysis::new(ty, u, ops),
            Analysis::new_scalar(ty, u, ops),
            "kernelized"
        );
    }

    #[test]
    fn matches_brute_force_on_test_and_set() {
        let tas = TestAndSet::new();
        let ops = vec![OpId::new(0); 3];
        check_against_brute(&tas, ValueId::new(0), &ops);
        let mixed = vec![OpId::new(0), OpId::new(1), OpId::new(0)];
        check_against_brute(&tas, ValueId::new(0), &mixed);
    }

    #[test]
    fn matches_brute_force_on_register() {
        let reg = Register::new(2);
        // write(0), write(1), read
        let ops = vec![OpId::new(0), OpId::new(1), OpId::new(2)];
        check_against_brute(&reg, ValueId::new(0), &ops);
        check_against_brute(&reg, ValueId::new(1), &ops);
    }

    #[test]
    fn matches_brute_force_on_tnn() {
        let t = Tnn::new(4, 2);
        let ops = vec![t.op_x(0), t.op_x(1), t.op_r(), t.op_x(1)];
        check_against_brute(&t, t.s(), &ops);
        check_against_brute(&t, t.s_xi(0, 2), &ops);
    }

    #[test]
    fn construction_paths_agree_on_mixed_instances() {
        let tas = TestAndSet::new();
        check_paths_agree(&tas, ValueId::new(0), &[OpId::new(0); 4]);
        check_paths_agree(
            &tas,
            ValueId::new(0),
            &[OpId::new(0), OpId::new(1), OpId::new(0)],
        );

        let reg = Register::new(2);
        check_paths_agree(
            &reg,
            ValueId::new(1),
            &[OpId::new(0), OpId::new(1), OpId::new(2)],
        );

        let t = Tnn::new(4, 2);
        check_paths_agree(&t, t.s(), &[t.op_x(0), t.op_x(1), t.op_r(), t.op_x(1)]);

        let tc = TeamCounter::new(5);
        let inc = OpId::new(0);
        check_paths_agree(&tc, ValueId::new(0), &[inc; 5]);
    }

    #[test]
    fn tnn_value_sets_record_first_team() {
        // With op_0 and op_1 assigned by team, the value after any schedule
        // records the first mover's team (below the s_⊥ collapse).
        let t = Tnn::new(5, 2);
        let ops = vec![t.op_x(0), t.op_x(0), t.op_x(1), t.op_x(1)];
        let a = Analysis::new(&t, t.s(), &ops);
        let u0 = a.value_set(&[0, 1]);
        let u1 = a.value_set(&[2, 3]);
        // Only 4 processes < n = 5: never reaches s_⊥, so the sets are
        // disjoint — T_{5,2} is 4-recording for this witness.
        assert!(!u0.intersects(&u1));
    }

    #[test]
    fn pair_sets_include_first_own_application() {
        let tas = TestAndSet::new();
        let a = Analysis::new(&tas, ValueId::new(0), &[OpId::new(0), OpId::new(0)]);
        // p0 first: p0's own pair has response 0 (it won).
        let r00 = a.pair_set(&[0], 0);
        assert!(!r00.is_empty());
        let pairs: Vec<(usize, usize)> = r00.iter().map(|i| (i / 2, i % 2)).collect();
        assert!(
            pairs.iter().all(|&(r, _)| r == 0),
            "winner sees 0: {pairs:?}"
        );
    }
}
