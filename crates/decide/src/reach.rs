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
//! # The op-class graph
//!
//! [`Analysis::new`] does not build the process graph above. It groups the
//! processes by op into classes `c` of `m_c` members, and explores the
//! graph whose nodes are `(count vector, value)`: `count[c] ≤ m_c` members
//! of class `c` have applied. That is `∏(m_c + 1) · |values|` nodes, never
//! more than `2^n · |values|`, and equal only when all ops differ (at
//! n = 6, classes of sizes (2, 2, 2) give 27 count vectors instead of 64
//! masks, and (4, 1, 1) give 20). A node has one edge per class with a
//! member left, and its label is the mask of first *classes*.
//!
//! The class sets expand exactly into the per-process layout, because
//! members of one class can be swapped. A process node `(mask, v)` is
//! reachable with first `p_f` exactly when its class node `(counts(mask),
//! v)` is reachable with first class `k(f)` (a class schedule lifts to a
//! process schedule that starts with `p_f` by choosing, each time, any
//! member of the class not yet applied), and the values downstream of a
//! node depend only on its counts. So:
//!
//! * `p_f`'s value set is class `k(f)`'s;
//! * `p_f`'s pair set of `p_j`, `j ≠ f`, is the set of pairs of class
//!   `k(j)`'s applications after the first, under first class `k(f)`: a
//!   member of `k(j)` can apply at a class node whenever one is left, and
//!   the schedule can be lifted so that the member is `p_j` — when `k(j) =
//!   k(f)`, `p_f` is already in and `p_j` is one of those left;
//! * `p_f`'s pair set of itself is its root pair only: `p_f` applies
//!   exactly once, first.
//!
//! The sweep writes each class set once, into the rows of the class's
//! lowest members, and a final pass copies those rows to the other
//! members. The level scan, team masks and partition tests read the
//! per-process layout and do not know about classes.
//!
//! Two implementations produce bit-identical [`Analysis`] values for any
//! op order (the differential suites pin this):
//!
//! * [`Analysis::new`] — the kernelized path over op classes, and the only
//!   one the deciders use: `ObjectType::apply` is hoisted out of the hot
//!   loops into per-(class, value) transition tables, the downstream value
//!   sets are one flat word array indexed by node and built in the same
//!   reverse sweep that accumulates the sets, and `(response, value)`-pair
//!   accumulation uses whole-word shifted ORs (the slice-level primitive
//!   behind [`BitSet::union_shifted_with`]) instead of bit-at-a-time
//!   inserts. The class bookkeeping lives on the stack.
//! * [`Analysis::new_scalar`] — the original bit-at-a-time reference over
//!   [`BitSet`]s and the process graph, kept as the differential baseline;
//!   it copies its sets into the flat layout only at the end.

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

/// The op classes of one instance: its processes grouped by op, classes
/// numbered in order of first appearance. Everything lives on the stack
/// (`n ≤ MAX_PROCESSES`), so grouping costs no allocation.
struct Classes {
    /// Number of classes.
    k: usize,
    /// `of[f]`: the class of process `p_f`.
    of: [u8; MAX_PROCESSES],
    /// `op[c]`: the op every member of class `c` runs.
    op: [OpId; MAX_PROCESSES],
    /// `size[c]`: the member count `m_c`.
    size: [u8; MAX_PROCESSES],
    /// `stride[c] = ∏_{i<c} (m_i + 1)`: the mixed-radix weight of class
    /// `c`'s count in a count-vector index.
    stride: [usize; MAX_PROCESSES],
    /// `first[c]`, `second[c]`: the lowest two members of class `c`
    /// (`second[c]` only when `m_c ≥ 2`). Their rows of an [`Analysis`]
    /// hold the class's sets until [`expand`] copies them to the rest.
    first: [u8; MAX_PROCESSES],
    second: [u8; MAX_PROCESSES],
    /// `∏ (m_c + 1)`: the number of count vectors.
    num_counts: usize,
}

impl Classes {
    fn new(ops: &[OpId]) -> Classes {
        let mut cl = Classes {
            k: 0,
            of: [0; MAX_PROCESSES],
            op: [OpId(0); MAX_PROCESSES],
            size: [0; MAX_PROCESSES],
            stride: [0; MAX_PROCESSES],
            first: [0; MAX_PROCESSES],
            second: [0; MAX_PROCESSES],
            num_counts: 1,
        };
        for (f, &op) in ops.iter().enumerate() {
            let c = match cl.op[..cl.k].iter().position(|&o| o == op) {
                Some(c) => c,
                None => {
                    cl.op[cl.k] = op;
                    cl.first[cl.k] = f as u8;
                    cl.k += 1;
                    cl.k - 1
                }
            };
            if cl.size[c] == 1 {
                cl.second[c] = f as u8;
            }
            cl.size[c] += 1;
            cl.of[f] = c as u8;
        }
        for c in 0..cl.k {
            cl.stride[c] = cl.num_counts;
            cl.num_counts *= usize::from(cl.size[c]) + 1;
        }
        cl
    }

    /// The row of an [`Analysis`] that holds the class-level pair set of
    /// class `b`'s applications under first class `a`: `(first[a], j)` for
    /// the lowest member `j` of `b` other than `first[a]`.
    fn pair_row(&self, a: usize, b: usize) -> (usize, usize) {
        let j = if a == b {
            self.second[a]
        } else {
            self.first[b]
        };
        (usize::from(self.first[a]), usize::from(j))
    }
}

/// A count vector stepped one index at a time through `0..num_counts`,
/// with the mask of classes that still have a member left to apply
/// (`count[c] < m_c`): the edges of its nodes. Stepping costs O(1)
/// amortized and allocates nothing, which keeps small instances cheap.
struct Counts<'a> {
    size: &'a [u8],
    count: [u8; MAX_PROCESSES],
    open: u32,
}

impl<'a> Counts<'a> {
    /// Index 0 (nobody has applied) when `full` is false, else the last
    /// index (everybody has).
    fn new(cl: &'a Classes, full: bool) -> Counts<'a> {
        let mut count = [0; MAX_PROCESSES];
        if full {
            count[..cl.k].copy_from_slice(&cl.size[..cl.k]);
        }
        Counts {
            size: &cl.size[..cl.k],
            count,
            open: if full { 0 } else { (1u32 << cl.k) - 1 },
        }
    }

    /// Steps to the next index (a mixed-radix increment).
    fn up(&mut self) {
        for (c, &m) in self.size.iter().enumerate() {
            if self.count[c] < m {
                self.count[c] += 1;
                if self.count[c] == m {
                    self.open &= !(1 << c);
                }
                return;
            }
            self.count[c] = 0;
            self.open |= 1 << c;
        }
    }

    /// Steps to the previous index (a mixed-radix decrement).
    fn down(&mut self) {
        for (c, &m) in self.size.iter().enumerate() {
            if self.count[c] > 0 {
                self.count[c] -= 1;
                self.open |= 1 << c;
                return;
            }
            self.count[c] = m;
            self.open &= !(1 << c);
        }
    }
}

/// Precomputed per-(class, value) transitions of one instance. The hot
/// propagation loops index these instead of calling `ObjectType::apply`
/// `O(nodes · classes)` times — the apply of a computed (non-tabular)
/// type is far more expensive than an array load.
struct Tables {
    classes: Classes,
    num_values: usize,
    num_responses: usize,
    /// `step[c * num_values + v]` = (response index, next-value index) of
    /// class `c`'s op applied at value `v`.
    step: Vec<(usize, usize)>,
    /// `root[c]` = (response, next) of class `c`'s op applied at the
    /// initial value.
    root: [(usize, usize); MAX_PROCESSES],
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
        let classes = Classes::new(ops);
        let mut step = Vec::with_capacity(classes.k * num_values);
        let mut root = [(0, 0); MAX_PROCESSES];
        for (c, &op) in classes.op[..classes.k].iter().enumerate() {
            for v in 0..num_values {
                let out = ty.apply(ValueId(v as u16), op);
                step.push((out.response.index(), out.next.index()));
            }
            let out = ty.apply(u, op);
            root[c] = (out.response.index(), out.next.index());
        }
        Tables {
            classes,
            num_values,
            num_responses,
            step,
            root,
        }
    }

    fn num_nodes(&self) -> usize {
        self.classes.num_counts * self.num_values
    }
}

/// Reachability labels: `firsts[idx * num_values + v]` is the bitmask of
/// classes `c` such that the node (count vector `idx`, value `v`) is
/// reachable via a schedule whose first process is in class `c` (0 =
/// unreachable). Propagated in increasing index order (counts only grow
/// along edges, and an edge of class `c` adds `stride[c]` to the index, so
/// numeric order is topological).
fn firsts_of(t: &Tables) -> Vec<u32> {
    let (cl, nv) = (&t.classes, t.num_values);
    let mut firsts = vec![0u32; t.num_nodes()];
    for c in 0..cl.k {
        firsts[cl.stride[c] * nv + t.root[c].1] |= 1 << c;
    }
    let mut counts = Counts::new(cl, false);
    for idx in 1..cl.num_counts {
        counts.up();
        for v in 0..nv {
            let label = firsts[idx * nv + v];
            if label == 0 {
                continue;
            }
            let mut open = counts.open;
            while open != 0 {
                let c = open.trailing_zeros() as usize;
                open &= open - 1;
                let (_, next) = t.step[c * nv + v];
                firsts[(idx + cl.stride[c]) * nv + next] |= label;
            }
        }
    }
    firsts
}

/// One reverse-topological sweep (decreasing indices, so every node's
/// children are done before the node) that builds the downstream value sets
/// and accumulates the per-first-class value and pair words from them, into
/// the class's representative rows ([`Classes::pair_row`]).
///
/// `downstream[node * vw..][..vw]` holds the node's own value plus every
/// value reachable from it. Unreachable nodes keep an all-zero set, and
/// every child of a reachable node is reachable, so no flag is needed
/// beside the words. The pair kernel: a child's downstream set, shifted by
/// `response * num_values`, is exactly the block of `(response, value)`
/// pairs a member of class `b` contributes by applying at the node — one
/// whole-word OR per (node, b, first class) instead of one insert per
/// pair. The first application itself (the first class's own pair from
/// the virtual root) comes last, into row `(first[c], first[c])`.
fn sweep(t: &Tables, firsts: &[u32], a: &mut Analysis) {
    let (cl, nv, vw, pw, n) = (&t.classes, t.num_values, a.vw, a.pw, a.n);
    let mut downstream = vec![0u64; t.num_nodes() * vw];
    let mut counts = Counts::new(cl, true);
    for idx in (1..cl.num_counts).rev() {
        for v in 0..nv {
            let id = idx * nv + v;
            let label = firsts[id];
            if label == 0 {
                continue;
            }
            let bit = 1u64 << (v % 64);
            // Children sit at larger indices, hence at larger node ids.
            let (head, tail) = downstream.split_at_mut((id + 1) * vw);
            let set = &mut head[id * vw..];
            set[v / 64] |= bit;
            // Values of this node belong to U_c for every first class c.
            let mut l = label;
            while l != 0 {
                let c = l.trailing_zeros() as usize;
                l &= l - 1;
                a.value_words[usize::from(cl.first[c]) * vw + v / 64] |= bit;
            }
            // Pairs contributed by a member of each open class b applying
            // here.
            let mut open = counts.open;
            while open != 0 {
                let b = open.trailing_zeros() as usize;
                open &= open - 1;
                let (resp, next) = t.step[b * nv + v];
                let child = &tail[((idx + cl.stride[b]) * nv + next - id - 1) * vw..][..vw];
                for (w, c) in set.iter_mut().zip(child) {
                    *w |= c;
                }
                let mut l = label;
                while l != 0 {
                    let c = l.trailing_zeros() as usize;
                    l &= l - 1;
                    let (f, j) = cl.pair_row(c, b);
                    let row = (f * n + j) * pw;
                    or_shifted(&mut a.pair_words[row..row + pw], child, resp * nv);
                }
            }
        }
        counts.down();
    }
    for c in 0..cl.k {
        let (resp, next) = t.root[c];
        let f = usize::from(cl.first[c]);
        let row = (f * n + f) * pw;
        let start = &downstream[(cl.stride[c] * nv + next) * vw..][..vw];
        or_shifted(&mut a.pair_words[row..row + pw], start, resp * nv);
    }
}

/// Copies the class-level sets out of their representative rows into the
/// per-process layout: `p_f`'s value set is its class's; its pair set of
/// `p_j ≠ p_f` is the pair set of `p_j`'s class under `p_f`'s class; its
/// own pair set `(f, f)` is its class's root pair.
fn expand(cl: &Classes, a: &mut Analysis) {
    let (n, vw, pw) = (a.n, a.vw, a.pw);
    for f in 0..n {
        let cf = usize::from(cl.of[f]);
        let rep = usize::from(cl.first[cf]);
        if rep != f {
            a.value_words.copy_within(rep * vw..(rep + 1) * vw, f * vw);
        }
        for j in 0..n {
            let (sf, sj) = if j == f {
                (rep, rep)
            } else {
                cl.pair_row(cf, usize::from(cl.of[j]))
            };
            if (sf, sj) != (f, j) {
                let src = (sf * n + sj) * pw;
                a.pair_words.copy_within(src..src + pw, (f * n + j) * pw);
            }
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
        let mut a = Analysis::empty(ops.len(), t.num_values, t.num_responses);
        sweep(&t, &firsts_of(&t), &mut a);
        expand(&t.classes, &mut a);
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
