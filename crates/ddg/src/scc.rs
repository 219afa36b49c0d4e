//! Strongly connected components (iterative Tarjan).

use crate::graph::Ddg;

/// The strongly connected component of every node, indexed by node id.
///
/// Two nodes share a component iff their entries are equal, so an edge
/// between distinct nodes lies on a dependence cycle iff its endpoints'
/// entries are equal. Components are numbered `0..` in reverse
/// topological order (Tarjan's order); a node without a cycle through it
/// is a component of its own.
///
/// ```
/// use swp_ddg::{scc_ids, Ddg, OpClass};
/// let mut g = Ddg::new();
/// let a = g.add_node("a", OpClass::new(0), 1);
/// let b = g.add_node("b", OpClass::new(0), 1);
/// let c = g.add_node("c", OpClass::new(0), 1);
/// g.add_edge(a, b, 0).unwrap();
/// g.add_edge(b, a, 1).unwrap();
/// g.add_edge(b, c, 0).unwrap();
/// let ids = scc_ids(&g);
/// assert_eq!(ids[a.index()], ids[b.index()]);
/// assert_ne!(ids[b.index()], ids[c.index()]);
/// ```
pub fn scc_ids(g: &Ddg) -> Vec<usize> {
    let n = g.num_nodes();
    // Successors of `v` are `targets[start[v]..start[v + 1]]`, in edge order.
    let mut start = vec![0usize; n + 1];
    for e in g.edges() {
        start[e.src.index() + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut targets = vec![0usize; start[n]];
    for e in g.edges() {
        let slot = &mut fill[e.src.index()];
        targets[*slot] = e.dst.index();
        *slot += 1;
    }

    const UNSET: usize = usize::MAX;
    let mut ids = vec![0usize; n];
    let mut next_id = 0usize;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    // Iterative Tarjan: (node, next successor position).
    let mut call: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        call.push((root, start[root]));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&(v, ci)) = call.last() {
            if ci < start[v + 1] {
                call.last_mut().expect("nonempty").1 += 1;
                let w = targets[ci];
                if index[w] == UNSET {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, start[w]));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let pos = stack.iter().rposition(|&w| w == v).expect("root on stack");
                    for &w in &stack[pos..] {
                        on_stack[w] = false;
                        ids[w] = next_id;
                    }
                    next_id += 1;
                    stack.truncate(pos);
                }
            }
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NodeId, OpClass};

    fn graph() -> (Ddg, Vec<NodeId>) {
        // a -> b -> c -> a (one SCC), d -> e (two singletons)
        let mut g = Ddg::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| g.add_node(format!("n{i}"), OpClass::new(0), 1))
            .collect();
        g.add_edge(ids[0], ids[1], 0).unwrap();
        g.add_edge(ids[1], ids[2], 0).unwrap();
        g.add_edge(ids[2], ids[0], 1).unwrap();
        g.add_edge(ids[3], ids[4], 0).unwrap();
        (g, ids)
    }

    #[test]
    fn finds_components() {
        let (g, ids) = graph();
        let numbered = scc_ids(&g);
        assert_eq!(numbered.len(), g.num_nodes());
        let cycle = numbered[ids[0].index()];
        assert!(ids[..3].iter().all(|n| numbered[n.index()] == cycle));
        assert_ne!(numbered[ids[3].index()], numbered[ids[4].index()]);
        assert!(ids[3..].iter().all(|n| numbered[n.index()] != cycle));
    }

    #[test]
    fn components_are_numbered_densely_in_reverse_topological_order() {
        let (mut g, ids) = graph();
        g.add_edge(ids[4], ids[2], 2).expect("valid edge");
        let numbered = scc_ids(&g);
        // Three components, numbered 0..3; every edge between two of
        // them runs from a higher number to a lower one.
        let mut seen = numbered.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![0, 1, 2]);
        for e in g.edges() {
            assert!(numbered[e.src.index()] >= numbered[e.dst.index()]);
        }
    }

    #[test]
    fn self_loop_keeps_a_node_alone() {
        let (mut g, ids) = graph();
        g.add_edge(ids[3], ids[3], 1).expect("valid edge");
        let numbered = scc_ids(&g);
        assert_ne!(numbered[ids[3].index()], numbered[ids[4].index()]);
        assert_ne!(numbered[ids[3].index()], numbered[ids[0].index()]);
    }

    #[test]
    fn empty_graph_no_components() {
        assert!(scc_ids(&Ddg::new()).is_empty());
    }
}
