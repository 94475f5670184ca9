//! A small directed graph with special/regular edge labels, strongly
//! connected components, and dangerous-cycle detection.
//!
//! All acyclicity conditions in this crate reduce to the same question on
//! some graph: *is there a cycle passing through a special edge?* A cycle
//! through edge `(u, v)` exists iff `v` can reach `u`, i.e. iff `u` and `v`
//! lie in the same strongly connected component — so one SCC pass answers
//! the question for all special edges at once.

/// A directed graph over nodes `0..n` with boolean edge labels
/// (`special` or regular).
#[derive(Debug, Clone)]
pub struct DiGraph {
    adj: Vec<Vec<(u32, bool)>>,
    edge_count: usize,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph { adj: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges (with multiplicity).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds an edge `u -> v`; `special` marks null-creating propagation.
    pub fn add_edge(&mut self, u: usize, v: usize, special: bool) {
        // Parallel duplicates add nothing to any analysis; keep the graph
        // small on dense inputs.
        if self.adj[u].contains(&(v as u32, special)) {
            return;
        }
        self.adj[u].push((v as u32, special));
        self.edge_count += 1;
    }

    /// Outgoing edges of `u` as `(target, special)` pairs.
    pub fn edges(&self, u: usize) -> &[(u32, bool)] {
        &self.adj[u]
    }

    /// Computes strongly connected components (iterative Tarjan).
    /// Returns a component id per node; ids are in reverse topological
    /// order of the condensation (standard Tarjan numbering).
    fn scc(&self) -> Vec<u32> {
        let n = self.adj.len();
        const UNSET: u32 = u32::MAX;
        let mut index = vec![UNSET; n];
        let mut low = vec![0u32; n];
        let mut comp = vec![UNSET; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut next_comp = 0u32;

        // Explicit DFS stack: (node, edge cursor).
        let mut call: Vec<(u32, u32)> = Vec::new();

        for start in 0..n {
            if index[start] != UNSET {
                continue;
            }
            call.push((start as u32, 0));
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start as u32);
            on_stack[start] = true;

            while let Some(&mut (u, ref mut cursor)) = call.last_mut() {
                let u_us = u as usize;
                if (*cursor as usize) < self.adj[u_us].len() {
                    let (v, _) = self.adj[u_us][*cursor as usize];
                    *cursor += 1;
                    let v_us = v as usize;
                    if index[v_us] == UNSET {
                        index[v_us] = next_index;
                        low[v_us] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v_us] = true;
                        call.push((v, 0));
                    } else if on_stack[v_us] {
                        low[u_us] = low[u_us].min(index[v_us]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        let p = parent as usize;
                        low[p] = low[p].min(low[u_us]);
                    }
                    if low[u_us] == index[u_us] {
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            comp[w as usize] = next_comp;
                            if w == u {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                }
            }
        }
        comp
    }

    /// Whether some cycle passes through a special edge.
    pub fn has_special_cycle(&self) -> bool {
        self.find_special_cycle_edge().is_some()
    }

    /// Returns a special edge `(u, v)` lying on a cycle, if any.
    pub fn find_special_cycle_edge(&self) -> Option<(usize, usize)> {
        let comp = self.scc();
        for (u, edges) in self.adj.iter().enumerate() {
            for &(v, special) in edges {
                if special && comp[u] == comp[v as usize] {
                    // Self-loops and intra-SCC special edges both qualify:
                    // u == v is a cycle of length one; otherwise v reaches u
                    // inside the component.
                    return Some((u, v as usize));
                }
            }
        }
        None
    }

    /// Whether some cycle exists at all (special or not).
    pub fn has_cycle(&self) -> bool {
        let comp = self.scc();
        // A cycle exists iff some SCC has 2+ nodes or a self-loop.
        let mut size = vec![0usize; self.adj.len()];
        for &c in &comp {
            size[c as usize] += 1;
        }
        for (u, edges) in self.adj.iter().enumerate() {
            if size[comp[u] as usize] > 1 {
                return true;
            }
            if edges.iter().any(|&(v, _)| v as usize == u) {
                return true;
            }
        }
        false
    }

    /// Nodes reachable from `start` (including `start`).
    pub fn reachable_from(&self, start: usize) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(u) = stack.pop() {
            for &(v, _) in &self.adj[u] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v as usize);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_of_a_cycle_is_one_component() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, false);
        g.add_edge(1, 2, false);
        g.add_edge(2, 0, false);
        let comp = g.scc();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert!(g.has_cycle());
    }

    #[test]
    fn scc_of_a_dag_is_all_singletons() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, false);
        g.add_edge(1, 2, false);
        g.add_edge(0, 2, true);
        g.add_edge(2, 3, true);
        let comp = g.scc();
        let mut distinct: Vec<u32> = comp.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4);
        assert!(!g.has_cycle());
        assert!(!g.has_special_cycle());
    }

    #[test]
    fn special_cycle_detection_requires_special_edge_inside_scc() {
        // Cycle 0 -> 1 -> 0 all regular; special edge 1 -> 2 leaves the SCC.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, false);
        g.add_edge(1, 0, false);
        g.add_edge(1, 2, true);
        assert!(g.has_cycle());
        assert!(!g.has_special_cycle());

        // Close the loop through the special edge.
        g.add_edge(2, 0, false);
        assert!(g.has_special_cycle());
        let (u, v) = g.find_special_cycle_edge().unwrap();
        assert_eq!((u, v), (1, 2));
    }

    #[test]
    fn special_self_loop_is_a_special_cycle() {
        let mut g = DiGraph::new(1);
        g.add_edge(0, 0, true);
        assert!(g.has_special_cycle());
    }

    #[test]
    fn regular_self_loop_is_a_cycle_but_not_special() {
        let mut g = DiGraph::new(1);
        g.add_edge(0, 0, false);
        assert!(g.has_cycle());
        assert!(!g.has_special_cycle());
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, true);
        g.add_edge(0, 1, true);
        g.add_edge(0, 1, false);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn reachability() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, false);
        g.add_edge(1, 2, false);
        let r = g.reachable_from(0);
        assert_eq!(r, vec![true, true, true, false]);
    }

    #[test]
    fn two_interlocking_cycles_share_a_component() {
        // 0 <-> 1, 1 <-> 2 — all in one SCC.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, false);
        g.add_edge(1, 0, false);
        g.add_edge(1, 2, false);
        g.add_edge(2, 1, true);
        let comp = g.scc();
        assert_eq!(comp[0], comp[2]);
        assert!(g.has_special_cycle());
    }

    #[test]
    fn large_path_does_not_overflow_recursion() {
        // Iterative Tarjan must handle deep graphs.
        let n = 200_000;
        let mut g = DiGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, false);
        }
        let comp = g.scc();
        assert_eq!(comp.len(), n);
        assert!(!g.has_cycle());
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g = DiGraph::new(0);
        assert!(!g.has_cycle());
        assert!(!g.has_special_cycle());
        assert!(g.scc().is_empty());
    }
}
