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
//! partitions are then evaluated by ORing a few words per team, which is
//! what makes the exhaustive witness search feasible. An analysis stores its
//! per-first sets in two flat word arrays with fixed strides, and a
//! partition test takes its teams as bitmasks and ORs their words on the
//! stack: neither building an analysis nor testing a partition allocates
//! per node or per partition.
//!
//! Two implementations share the same pipeline and must stay bit-identical
//! (the differential suite pins this):
//!
//! * [`Analysis::new`] — the kernelized path, and the only one the deciders
//!   use: `ObjectType::apply` is hoisted out of the hot loops into
//!   per-(process, value) transition tables, the downstream value sets are
//!   one flat word array indexed by node and built in the same reverse
//!   sweep that accumulates the sets, and `(response, value)`-pair
//!   accumulation uses whole-word shifted ORs (the slice-level primitive
//!   behind [`BitSet::union_shifted_with`]) instead of bit-at-a-time
//!   inserts.
//! * [`Analysis::new_scalar`] — the original bit-at-a-time reference over
//!   [`BitSet`]s, kept as the differential/benchmark baseline; it copies
//!   its sets into the flat layout only at the end.

use crate::bitset::{or_shifted, BitSet};
use rcn_spec::{ObjectType, OpId, ValueId};

/// Maximum number of processes the analysis supports (masks are `u32`).
pub const MAX_PROCESSES: usize = 20;

/// Reachability analysis of one `(u, ops)` instance.
///
/// The per-first sets live in two flat word arrays with fixed strides:
/// every value set is `vw = ⌈|V|/64⌉` words and every pair set
/// `pw = ⌈|R|·|V|/64⌉` words, so a team union is a handful of word ORs at
/// computed offsets, and an analysis holds two allocations whatever `n` is.
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
    /// Words per value set: `⌈num_values / 64⌉`.
    vw: usize,
    /// Words per pair set: `⌈num_responses · num_values / 64⌉`.
    pw: usize,
    /// `value_words[f * vw..][..vw]`: values reachable over schedules whose
    /// first process is `p_f` (the per-first building block of the `U_x`
    /// sets).
    value_words: Vec<u64>,
    /// `pair_words[(f * n + j) * pw..][..pw]`: `(response, value)` pairs of
    /// `p_j` over schedules whose first process is `p_f` and that contain
    /// `p_j` (the per-first building block of the `R_{x,j}` sets), pair
    /// `(r, v)` at bit `r · num_values + v`.
    pair_words: Vec<u64>,
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

/// One reverse-topological sweep (decreasing masks, so every node's
/// children are done before the node) that builds the downstream value sets
/// and accumulates the per-first value and pair words from them.
///
/// `downstream[node * vw..][..vw]` holds the node's own value plus every
/// value reachable from it. Unreachable nodes keep an all-zero set, and
/// every child of a reachable node is reachable, so no flag is needed
/// beside the words. The pair kernel: a child's downstream set, shifted by
/// `response * num_values`, is exactly the block of `(response, value)`
/// pairs process `j` contributes by applying at the node — one whole-word
/// OR per (node, j, first) instead of one insert per pair. The first
/// application itself (p_f's own pair from the virtual root) comes last.
fn sweep(t: &Tables, firsts: &[u32], a: &mut Analysis) {
    let (n, nv, vw, pw) = (t.n, t.num_values, a.vw, a.pw);
    let mut downstream = vec![0u64; t.num_nodes() * vw];
    for mask in (1u32..(1 << n)).rev() {
        for v in 0..nv {
            let id = t.node(mask, v);
            let label = firsts[id];
            if label == 0 {
                continue;
            }
            let bit = 1u64 << (v % 64);
            // Children sit at larger masks, hence at larger node ids.
            let (head, tail) = downstream.split_at_mut((id + 1) * vw);
            let set = &mut head[id * vw..];
            set[v / 64] |= bit;
            // Values of this node belong to U_f for every first f.
            let mut l = label;
            while l != 0 {
                let f = l.trailing_zeros() as usize;
                l &= l - 1;
                a.value_words[f * vw + v / 64] |= bit;
            }
            // Pairs contributed by each process j applying here.
            for j in 0..n {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let (resp, next) = t.step[j * nv + v];
                let child = &tail[(t.node(mask | (1 << j), next) - id - 1) * vw..][..vw];
                for (w, c) in set.iter_mut().zip(child) {
                    *w |= c;
                }
                let mut l = label;
                while l != 0 {
                    let f = l.trailing_zeros() as usize;
                    l &= l - 1;
                    let row = (f * n + j) * pw;
                    or_shifted(&mut a.pair_words[row..row + pw], child, resp * nv);
                }
            }
        }
    }
    for (f, &(resp, next)) in t.root.iter().enumerate() {
        let row = (f * n + f) * pw;
        let start = &downstream[t.node(1 << f, next) * vw..][..vw];
        or_shifted(&mut a.pair_words[row..row + pw], start, resp * nv);
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
        let mut a = Analysis::empty(t.n, t.num_values, t.num_responses);
        sweep(&t, &firsts_of(&t), &mut a);
        a
    }

    /// An analysis with every set empty, laid out for `n` processes.
    fn empty(n: usize, num_values: usize, num_responses: usize) -> Analysis {
        let vw = num_values.div_ceil(64);
        let pw = (num_responses * num_values).div_ceil(64);
        Analysis {
            n,
            num_values,
            num_responses,
            vw,
            pw,
            value_words: vec![0; n * vw],
            pair_words: vec![0; n * n * pw],
        }
    }

    /// The original bit-at-a-time implementation over [`BitSet`]s, kept as
    /// the reference the kernelized path is measured and differentially
    /// tested against. It shares no code with [`new`](Self::new) beyond
    /// the final copy of its sets into the flat layout, and produces a
    /// bit-identical [`Analysis`].
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
        // own value; empty for an unreachable node), computed in decreasing
        // mask order (reverse topological).
        let mut downstream = vec![BitSet::new(num_values); num_nodes];
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
                    set.union_with(&downstream[child]);
                }
                downstream[id] = set;
            }
        }

        let mut value_sets = vec![BitSet::new(num_values); n];
        let mut pair_sets = vec![BitSet::new(num_responses * num_values); n * n];

        // The first application itself: p_f's own pair from the virtual root.
        for (f, &op) in ops.iter().enumerate() {
            let out = ty.apply(u, op);
            let start = node(1 << f, out.next.index());
            for v in downstream[start].iter() {
                pair_sets[f * n + f].insert(out.response.index() * num_values + v);
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
                    let ds = &downstream[node(mask | (1 << j), out.next.index())];
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

        let mut a = Analysis::empty(n, num_values, num_responses);
        for (f, set) in value_sets.iter().enumerate() {
            a.value_words[f * a.vw..(f + 1) * a.vw].copy_from_slice(set.words());
        }
        for (row, set) in pair_sets.iter().enumerate() {
            a.pair_words[row * a.pw..(row + 1) * a.pw].copy_from_slice(set.words());
        }
        a
    }

    /// Number of processes in the analyzed assignment.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `U`-style value set for a team: all values reachable over
    /// nonempty schedules whose first process is a member of `team`.
    pub fn value_set(&self, team: &[usize]) -> BitSet {
        let team = team_mask(team);
        let words = (0..self.vw).map(|w| self.value_word(team, w)).collect();
        BitSet::from_words(words, self.num_values)
    }

    /// The `R_{x,j}`-style pair set: `(response, value)` pairs of `p_j` over
    /// schedules containing `p_j` whose first process is in `team`.
    pub fn pair_set(&self, team: &[usize], j: usize) -> BitSet {
        assert!(j < self.n, "process {j} out of range");
        let team = team_mask(team);
        let words = (0..self.pw).map(|w| self.pair_word(team, j, w)).collect();
        BitSet::from_words(words, self.num_responses * self.num_values)
    }

    /// Words per value set.
    pub(crate) fn value_width(&self) -> usize {
        self.vw
    }

    /// Words per pair set.
    pub(crate) fn pair_width(&self) -> usize {
        self.pw
    }

    /// Word `w` of the value set of the team with bitmask `team`: the OR of
    /// that word over the team's per-first value sets.
    pub(crate) fn value_word(&self, team: u32, w: usize) -> u64 {
        let mut out = 0;
        let mut m = team;
        while m != 0 {
            let f = m.trailing_zeros() as usize;
            m &= m - 1;
            out |= self.value_words[f * self.vw + w];
        }
        out
    }

    /// Word `w` of the pair set of `p_j` for the team with bitmask `team`.
    pub(crate) fn pair_word(&self, team: u32, j: usize, w: usize) -> u64 {
        let mut out = 0;
        let mut m = team;
        while m != 0 {
            let f = m.trailing_zeros() as usize;
            m &= m - 1;
            out |= self.pair_words[(f * self.n + j) * self.pw + w];
        }
        out
    }
}

/// The bitmask of a team given as process indices.
///
/// # Panics
///
/// Panics if a member is not below [`MAX_PROCESSES`].
fn team_mask(team: &[usize]) -> u32 {
    team.iter().fold(0, |m, &f| {
        assert!(f < MAX_PROCESSES, "process {f} out of range");
        m | 1 << f
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{r_set, u_set};
    use crate::{Team, Witness};
    use rcn_spec::zoo::{FetchAndAdd, Register, TeamCounter, TestAndSet, Tnn};
    use std::collections::HashSet;

    /// Checks every singleton team against the brute-force oracle (unions
    /// are trivially correct): process `f` alone on team `T0`, everyone
    /// else on `T1`.
    fn check_against_brute<T: ObjectType>(ty: &T, u: ValueId, ops: &[OpId]) {
        let n = ops.len();
        let a = Analysis::new(ty, u, ops);
        for f in 0..n {
            let team_of = (0..n)
                .map(|i| if i == f { Team::T0 } else { Team::T1 })
                .collect();
            let witness = Witness::new(u, team_of, ops.to_vec());
            let fast: HashSet<usize> = a.value_set(&[f]).iter().collect();
            assert_eq!(
                fast,
                u_set(ty, &witness, Team::T0),
                "U set mismatch, first={f}"
            );
            for j in 0..n {
                let fast: HashSet<(usize, usize)> = a
                    .pair_set(&[f], j)
                    .iter()
                    .map(|i| (i / ty.num_values(), i % ty.num_values()))
                    .collect();
                let brute = r_set(ty, &witness, Team::T0, j);
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

        // More than 64 values: value sets span two words.
        let faa = FetchAndAdd::new(70);
        let reg = Register::new(70);
        for u in [0, 1, 63, 64, 69] {
            let u = ValueId::new(u);
            for ops in wide_faa_ops() {
                check_paths_agree(&faa, u, &ops);
            }
            for ops in wide_register_ops(&reg) {
                check_paths_agree(&reg, u, &ops);
            }
        }
    }

    /// Fetch-and-add assignments (`op0` = fetch&inc, `op1` = read) for 2
    /// and 3 processes.
    fn wide_faa_ops() -> Vec<Vec<OpId>> {
        let (inc, read) = (OpId::new(0), OpId::new(1));
        vec![
            vec![inc, inc],
            vec![inc, read],
            vec![inc; 3],
            vec![inc, read, inc],
        ]
    }

    /// Register assignments whose writes straddle the word boundary at 64.
    fn wide_register_ops(reg: &Register) -> Vec<Vec<OpId>> {
        let read = reg.read_op().expect("registers are readable");
        vec![
            vec![reg.write_op(3), reg.write_op(66)],
            vec![reg.write_op(64), read],
            vec![reg.write_op(0), reg.write_op(65), read],
            vec![reg.write_op(63), reg.write_op(69), reg.write_op(64)],
        ]
    }

    #[test]
    fn matches_brute_force_beyond_one_word_of_values() {
        let faa = FetchAndAdd::new(70);
        let reg = Register::new(70);
        for u in [0, 1, 63, 64, 69] {
            let u = ValueId::new(u);
            for ops in wide_faa_ops() {
                check_against_brute(&faa, u, &ops);
            }
            for ops in wide_register_ops(&reg) {
                check_against_brute(&reg, u, &ops);
            }
        }
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
