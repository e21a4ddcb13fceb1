//! Graph traversal: strongly connected components and subgraphs.

use crate::graph::{Graph, NodeId};
use uic_util::VisitTags;

/// Tarjan's strongly connected components, iterative (no recursion, safe
/// for million-node graphs). Returns `(scc_id_per_node, count)`; ids are
/// assigned in reverse topological order of the condensation.
pub fn strongly_connected_components(g: &Graph) -> (Vec<u32>, u32) {
    let n = g.num_nodes() as usize;
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut scc = vec![UNSET; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0u32;
    let mut next_scc = 0u32;
    // Explicit DFS frames: (node, next out-neighbor position).
    let mut frames: Vec<(NodeId, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (u, ref mut pos)) = frames.last_mut() {
            let nbrs = g.out_neighbors(u);
            if *pos < nbrs.len() {
                let v = nbrs[*pos];
                *pos += 1;
                if index[v as usize] == UNSET {
                    index[v as usize] = next_index;
                    lowlink[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    frames.push((v, 0));
                } else if on_stack[v as usize] {
                    lowlink[u as usize] = lowlink[u as usize].min(index[v as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[u as usize]);
                }
                if lowlink[u as usize] == index[u as usize] {
                    // u is an SCC root; pop its component.
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        scc[w as usize] = next_scc;
                        if w == u {
                            break;
                        }
                    }
                    next_scc += 1;
                }
            }
        }
    }
    (scc, next_scc)
}

/// Extracts the induced subgraph on `nodes` (edge weights preserved).
///
/// Returns the subgraph and the mapping `new_id -> old_id`.
pub fn induced_subgraph(g: &Graph, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
    let n = g.num_nodes() as usize;
    let mut remap = vec![u32::MAX; n];
    for (new, &old) in nodes.iter().enumerate() {
        assert!(
            remap[old as usize] == u32::MAX,
            "duplicate node {old} in induced_subgraph"
        );
        remap[old as usize] = new as u32;
    }
    let mut edges = Vec::new();
    for &old_u in nodes {
        let new_u = remap[old_u as usize];
        for (&old_v, p) in g
            .out_neighbors(old_u)
            .iter()
            .zip(g.out_arc_probs(old_u).iter())
        {
            let new_v = remap[old_v as usize];
            if new_v != u32::MAX {
                edges.push((new_u, new_v, p));
            }
        }
    }
    (
        Graph::from_edges(nodes.len() as u32, &edges),
        nodes.to_vec(),
    )
}

/// Extracts the largest strongly connected component as its own graph
/// (used for the Flixster stand-in, which the paper describes as "a
/// strongly connected component is extracted").
pub fn largest_scc(g: &Graph) -> (Graph, Vec<NodeId>) {
    let (scc, count) = strongly_connected_components(g);
    if count == 0 {
        return (Graph::from_edges(0, &[]), Vec::new());
    }
    let mut sizes = vec![0u32; count as usize];
    for &c in &scc {
        sizes[c as usize] += 1;
    }
    let biggest = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, &s)| s)
        .map(|(i, _)| i as u32)
        .unwrap();
    let nodes: Vec<NodeId> = (0..g.num_nodes())
        .filter(|&v| scc[v as usize] == biggest)
        .collect();
    induced_subgraph(g, &nodes)
}

/// BFS from `start` until roughly `fraction` of all nodes are collected,
/// then returns the induced subgraph — the paper's Fig. 9(d) methodology
/// ("use breadth-first-search to progressively increase the network size").
///
/// If BFS exhausts a component before reaching the target size, it restarts
/// from the lowest-id unvisited node.
pub fn bfs_prefix_subgraph(g: &Graph, start: NodeId, fraction: f64) -> (Graph, Vec<NodeId>) {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let n = g.num_nodes() as usize;
    let target = ((n as f64 * fraction).round() as usize).clamp(0, n);
    let mut tags = VisitTags::new(n);
    let mut order: Vec<NodeId> = Vec::with_capacity(target);
    let mut queue: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();
    let mut next_restart = 0u32;
    if target > 0 && n > 0 {
        tags.mark(start as usize);
        queue.push_back(start);
        while order.len() < target {
            match queue.pop_front() {
                Some(u) => {
                    order.push(u);
                    for &v in g.out_neighbors(u) {
                        if tags.mark(v as usize) {
                            queue.push_back(v);
                        }
                    }
                }
                None => {
                    // Component exhausted: restart from next unvisited node.
                    while (next_restart as usize) < n && tags.is_marked(next_restart as usize) {
                        next_restart += 1;
                    }
                    if next_restart as usize >= n {
                        break;
                    }
                    tags.mark(next_restart as usize);
                    queue.push_back(next_restart);
                }
            }
        }
    }
    induced_subgraph(g, &order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u32) -> Graph {
        let edges: Vec<(u32, u32, f32)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        Graph::from_edges(n, &edges)
    }

    fn two_cycles() -> Graph {
        // cycle {0,1,2} → bridge → cycle {3,4}
        Graph::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 3, 1.0),
            ],
        )
    }

    #[test]
    fn scc_on_two_cycles() {
        let g = two_cycles();
        let (scc, count) = strongly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(scc[0], scc[1]);
        assert_eq!(scc[1], scc[2]);
        assert_eq!(scc[3], scc[4]);
        assert_ne!(scc[0], scc[3]);
    }

    #[test]
    fn scc_singletons_on_dag() {
        let g = line(4);
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, 4);
    }

    #[test]
    fn scc_reverse_topological_order() {
        // Condensation: {0,1,2} → {3,4}. Tarjan assigns sink components
        // lower ids (reverse topological order).
        let g = two_cycles();
        let (scc, _) = strongly_connected_components(&g);
        assert!(scc[3] < scc[0], "sink SCC should be numbered first");
    }

    #[test]
    fn scc_matches_bruteforce_on_random_graphs() {
        use uic_util::UicRng;
        for seed in 0..20u64 {
            let mut rng = UicRng::new(seed);
            let n = 12u32;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.coin(0.15) {
                        edges.push((u, v, 1.0f32));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges);
            // Brute-force reachability: a DFS from every node.
            let reach: Vec<Vec<bool>> = (0..n)
                .map(|u| {
                    let mut seen = vec![false; n as usize];
                    seen[u as usize] = true;
                    let mut stack = vec![u];
                    while let Some(x) = stack.pop() {
                        for &y in g.out_neighbors(x) {
                            if !seen[y as usize] {
                                seen[y as usize] = true;
                                stack.push(y);
                            }
                        }
                    }
                    seen
                })
                .collect();
            let (scc, _) = strongly_connected_components(&g);
            for u in 0..n as usize {
                for v in 0..n as usize {
                    let mutual = reach[u][v] && reach[v][u];
                    assert_eq!(
                        scc[u] == scc[v],
                        mutual,
                        "seed {seed}: nodes {u},{v} scc ids {} {} mutual={mutual}",
                        scc[u],
                        scc[v]
                    );
                }
            }
        }
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = two_cycles();
        let (sub, map) = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 3); // the 3-cycle; bridge 2→3 dropped
        assert_eq!(map, vec![0, 1, 2]);
    }

    #[test]
    fn largest_scc_extracts_three_cycle() {
        let g = two_cycles();
        let (sub, map) = largest_scc(&g);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(map, vec![0, 1, 2]);
        let (_, count) = strongly_connected_components(&sub);
        assert_eq!(count, 1, "result must itself be strongly connected");
    }

    #[test]
    fn bfs_prefix_size_and_restart() {
        let g = line(10);
        let (sub, map) = bfs_prefix_subgraph(&g, 0, 0.5);
        assert_eq!(sub.num_nodes(), 5);
        assert_eq!(map, vec![0, 1, 2, 3, 4]);
        // Start near the end: BFS exhausts {8,9} then restarts at 0.
        let (sub, map) = bfs_prefix_subgraph(&g, 8, 0.4);
        assert_eq!(sub.num_nodes(), 4);
        assert!(map.contains(&8) && map.contains(&9));
    }

    #[test]
    fn bfs_prefix_full_fraction_is_whole_graph() {
        let g = two_cycles();
        let (sub, _) = bfs_prefix_subgraph(&g, 0, 1.0);
        assert_eq!(sub.num_nodes(), g.num_nodes());
        assert_eq!(sub.num_edges(), g.num_edges());
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induced_subgraph_rejects_duplicates() {
        let g = line(3);
        induced_subgraph(&g, &[0, 0]);
    }
}
