//! Structural graph analysis used to characterize datasets: connected
//! components, global triangle count and clustering coefficient.
//!
//! SCAN-family behaviour is driven by triangle structure (a structural
//! similarity is large exactly when two adjacent vertices close many
//! triangles), so these quantities predict how much pruning (ε, µ) will
//! achieve on a dataset and appear in the dataset characterization of
//! EXPERIMENTS.md.

use crate::csr::{CsrGraph, VertexId};

/// Connected components by BFS. Returns `(labels, count)` where
/// `labels[v]` is the minimum vertex id in `v`'s component.
pub fn connected_components(g: &CsrGraph) -> (Vec<VertexId>, usize) {
    let n = g.num_vertices();
    let mut label = vec![VertexId::MAX; n];
    let mut count = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as VertexId {
        if label[start as usize] != VertexId::MAX {
            continue;
        }
        count += 1;
        label[start as usize] = start;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if label[v as usize] == VertexId::MAX {
                    label[v as usize] = start;
                    queue.push_back(v);
                }
            }
        }
    }
    (label, count)
}

/// Size of the largest connected component (0 for an empty graph).
pub fn largest_component_size(g: &CsrGraph) -> usize {
    let (labels, _) = connected_components(g);
    let mut counts = std::collections::HashMap::new();
    for &l in &labels {
        *counts.entry(l).or_insert(0usize) += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

/// Exact global triangle count, via one neighborhood intersection per
/// edge (each triangle is counted once per edge and divided by 3). Each
/// edge is counted by the endpoint that outranks the other
/// ([`CsrGraph::outranks`]), which marks its own neighbors in a bitmap
/// once and scans the other endpoint's shorter list against it.
pub fn triangle_count(g: &CsrGraph) -> u64 {
    let mut marks = ppscan_intersect::count::Bitmap::new(g.num_vertices());
    let mut total = 0u64;
    for u in g.vertices() {
        let nu = g.neighbors(u);
        marks.mark(nu);
        for &v in nu {
            if g.outranks(u, v) {
                total += marks.count(g.neighbors(v));
            }
        }
        marks.unmark(nu);
    }
    total / 3
}

/// Global clustering coefficient: `3·triangles / open wedges`.
/// Returns 0.0 when the graph has no wedge.
pub fn global_clustering_coefficient(g: &CsrGraph) -> f64 {
    let wedges: u64 = g
        .vertices()
        .map(|u| {
            let d = g.degree(u) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        return 0.0;
    }
    3.0 * triangle_count(g) as f64 / wedges as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn components_of_disconnected_graph() {
        // Two triangles far apart plus an isolated vertex.
        let g = crate::builder::GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(0, 2)
            .add_edge(5, 6)
            .add_edge(6, 7)
            .add_edge(5, 7)
            .ensure_vertices(9)
            .build();
        let (labels, count) = connected_components(&g);
        // Two triangles plus isolated vertices 3, 4 and 8.
        assert_eq!(count, 5);
        assert_eq!(labels[1], 0);
        assert_eq!(labels[7], 5);
        assert_eq!(labels[8], 8);
    }

    #[test]
    fn components_counts_exactly() {
        let g = crate::builder::GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(2, 3)
            .ensure_vertices(5)
            .build();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3); // {0,1}, {2,3}, {4}
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_eq!(labels[4], 4);
    }

    #[test]
    fn largest_component() {
        let g = gen::clique_chain(4, 3); // connected by bridges
        assert_eq!(largest_component_size(&g), 12);
        assert_eq!(largest_component_size(&CsrGraph::empty(0)), 0);
    }

    #[test]
    fn triangles_of_known_graphs() {
        assert_eq!(triangle_count(&gen::complete(4)), 4);
        assert_eq!(triangle_count(&gen::complete(5)), 10);
        assert_eq!(triangle_count(&gen::cycle(5)), 0);
        assert_eq!(triangle_count(&gen::star(10)), 0);
        // clique_chain(3, 2): two triangles + bridge.
        assert_eq!(triangle_count(&gen::clique_chain(3, 2)), 2);
    }

    #[test]
    fn clustering_coefficient_extremes() {
        assert!((global_clustering_coefficient(&gen::complete(6)) - 1.0).abs() < 1e-12);
        assert_eq!(global_clustering_coefficient(&gen::star(8)), 0.0);
        assert_eq!(global_clustering_coefficient(&CsrGraph::empty(3)), 0.0);
    }
}
