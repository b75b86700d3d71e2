//! Strongly connected components, the one reachability algorithm of this
//! crate: `BudgetedGraph`'s valencies and the checker's starvation cycles
//! both read them.
//!
//! Tarjan's algorithm completes a component only after every component
//! reachable from it: a node's DFS call returns after the calls of all
//! nodes it reaches, and a component leaves the stack when its root's call
//! returns. So the completion order is a reverse topological order of the
//! component graph, and a pass over the components in that order sees
//! every component an edge leads to before the component the edge leaves.

/// The strongly connected components of a graph, in the order Tarjan's
/// algorithm completes them, stored flat.
pub(crate) struct Sccs {
    /// Every node, grouped by component; a component's nodes are in the
    /// order they left Tarjan's stack.
    members: Vec<u32>,
    /// `ends[c]`: one past component `c`'s last node in `members`.
    ends: Vec<u32>,
    /// `component[id]`: the component `id` belongs to.
    pub(crate) component: Vec<u32>,
}

impl Sccs {
    /// The components' node lists, in completion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.members[start as usize..end as usize])
    }

    /// The number of components.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

/// Iterative Tarjan SCC over an implicit graph of `n < 2^32` nodes.
/// Returns all SCCs (singletons included). `successors` yields a node's
/// successors without allocating; the walk keeps one live iterator per
/// node on its DFS path.
pub(crate) fn tarjan<I: Iterator<Item = usize>>(n: usize, successors: impl Fn(usize) -> I) -> Sccs {
    const UNSEEN: u32 = u32::MAX;
    let (mut index, mut lowlink, mut on_stack) = (vec![UNSEEN; n], vec![0u32; n], vec![false; n]);
    let mut counter = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    let mut sccs = Sccs {
        members: Vec::with_capacity(n),
        ends: Vec::new(),
        component: vec![0; n],
    };
    // Explicit DFS stack of (node, its remaining successors).
    let mut dfs: Vec<(usize, I)> = Vec::new();
    for root in 0..n {
        let mut unseen = (index[root] == UNSEEN).then_some(root);
        loop {
            if let Some(node) = unseen.take() {
                (index[node], lowlink[node], on_stack[node]) = (counter, counter, true);
                counter += 1;
                stack.push(node as u32);
                dfs.push((node, successors(node)));
            }
            let Some((node, succs)) = dfs.last_mut() else {
                break;
            };
            let node = *node;
            if let Some(next) = succs.next() {
                if index[next] == UNSEEN {
                    unseen = Some(next);
                } else if on_stack[next] {
                    lowlink[node] = lowlink[node].min(index[next]);
                }
                continue;
            }
            // Node finished.
            dfs.pop();
            if lowlink[node] == index[node] {
                let c = sccs.ends.len() as u32;
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    sccs.component[w as usize] = c;
                    sccs.members.push(w);
                    if w as usize == node {
                        break;
                    }
                }
                sccs.ends.push(sccs.members.len() as u32);
            }
            if let Some(&(parent, _)) = dfs.last() {
                lowlink[parent] = lowlink[parent].min(lowlink[node]);
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tarjan_finds_simple_cycles() {
        // 0 -> 1 -> 2 -> 0, 3 isolated.
        let adj = [vec![1], vec![2], vec![0], vec![]];
        let sccs = tarjan(4, |i| adj[i].iter().copied());
        let big: Vec<_> = sccs.iter().filter(|s| s.len() == 3).collect();
        assert_eq!(big.len(), 1);
        assert_eq!(sccs.iter().map(<[_]>::len).sum::<usize>(), 4);
        assert_eq!(sccs.len(), 2);
        assert_eq!(sccs.component[0], sccs.component[2]);
        assert_ne!(sccs.component[0], sccs.component[3]);
    }

    #[test]
    fn tarjan_handles_self_loops_and_chains() {
        // 0 -> 0 (self loop), 0 -> 1.
        let adj = [vec![0, 1], vec![]];
        let sccs = tarjan(2, |i| adj[i].iter().copied());
        // Completion order: the sink first.
        let order: Vec<&[u32]> = sccs.iter().collect();
        assert_eq!(order, [&[1][..], &[0][..]]);
    }
}
