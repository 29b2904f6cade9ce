//! Edge-list builder producing valid [`CsrGraph`]s.
//!
//! The builder accepts arbitrary (possibly duplicated, possibly self-loop,
//! possibly one-directional) edge pairs and normalizes them into the
//! canonical undirected CSR form the SCAN kernels require: both directions
//! present, neighbor lists sorted and deduplicated, self loops dropped.

use crate::csr::{CsrGraph, VertexId};

/// Accumulates undirected edges and builds a [`CsrGraph`].
///
/// ```
/// use ppscan_graph::GraphBuilder;
/// let g = GraphBuilder::new()
///     .add_edge(0, 1)
///     .add_edge(1, 0)   // duplicate direction: ignored
///     .add_edge(2, 2)   // self loop: dropped
///     .add_edge(1, 2)
///     .build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Default, Debug, Clone)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates space for `n` edges.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            edges: Vec::with_capacity(n),
            min_vertices: 0,
        }
    }

    /// Ensures the built graph has at least `n` vertices even if the top
    /// ids never appear in an edge (isolated vertices).
    pub fn ensure_vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds one undirected edge. Self loops are silently dropped;
    /// duplicates are deduplicated at build time.
    pub fn add_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.push_edge(u, v);
        self
    }

    /// In-place variant of [`GraphBuilder::add_edge`] for loops.
    pub fn push_edge(&mut self, u: VertexId, v: VertexId) {
        if u != v {
            self.edges.push((u.min(v), u.max(v)));
        }
    }

    /// Adds every edge from an iterator of pairs.
    pub fn extend_edges(mut self, it: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        for (u, v) in it {
            self.push_edge(u, v);
        }
        self
    }

    /// Number of (not yet deduplicated) edges accumulated so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Builds the CSR graph: counting sort by source, then per-vertex sort
    /// and dedup. O(|E| log d_max) time, no hashing.
    pub fn build(self) -> CsrGraph {
        let edges = self.edges;
        let n = edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_vertices);

        // Degree count for both directions; the prefix sum then makes
        // offsets[u] the first slot of u's list.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }

        // Scatter both directions with offsets[u] as u's cursor, which
        // leaves it at the end of u's list.
        let mut neighbors = vec![0 as VertexId; edges.len() * 2];
        for &(u, v) in &edges {
            neighbors[offsets[u as usize]] = v;
            offsets[u as usize] += 1;
            neighbors[offsets[v as usize]] = u;
            offsets[v as usize] += 1;
        }
        drop(edges);

        // Sort and dedup each list, compacting it to the front. Each offset
        // is read as its list's old end, then set to its new start. Pairs
        // are stored as (min, max), so both directions of an edge are
        // deduplicated alike and symmetry holds.
        let (mut beg, mut write) = (0usize, 0usize);
        for off in &mut offsets[..n] {
            let end = *off;
            *off = write;
            neighbors[beg..end].sort_unstable();
            let mut prev: Option<VertexId> = None;
            for i in beg..end {
                let v = neighbors[i];
                if prev != Some(v) {
                    neighbors[write] = v;
                    write += 1;
                    prev = Some(v);
                }
            }
            beg = end;
        }
        offsets[n] = write;
        neighbors.truncate(write);
        CsrGraph::from_sorted_parts_unchecked(offsets, neighbors)
    }
}

/// Convenience: builds a graph from a slice of edge pairs.
pub fn from_edges(edges: &[(VertexId, VertexId)]) -> CsrGraph {
    GraphBuilder::with_capacity(edges.len())
        .extend_edges(edges.iter().copied())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_symmetrizes() {
        let g = from_edges(&[(0, 1), (1, 0), (0, 1), (2, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        g.validate().unwrap();
    }

    #[test]
    fn drops_self_loops() {
        let g = from_edges(&[(0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_vertices_via_ensure() {
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .ensure_vertices(5)
            .build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(4), 0);
        g.validate().unwrap();
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn build_is_order_insensitive() {
        let a = from_edges(&[(3, 1), (0, 2), (1, 0)]);
        let b = from_edges(&[(1, 0), (1, 3), (2, 0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn large_random_graph_is_valid() {
        // Deterministic pseudo-random edges; exercises the counting-sort
        // + dedup path with collisions.
        let mut edges = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 16) % 300) as VertexId;
            let v = ((x >> 40) % 300) as VertexId;
            edges.push((u, v));
        }
        let g = from_edges(&edges);
        g.validate().unwrap();
    }
}
