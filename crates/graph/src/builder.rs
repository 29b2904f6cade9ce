//! Edge-list builder producing valid [`CsrGraph`]s.
//!
//! The builder accepts arbitrary (possibly duplicated, possibly self-loop,
//! possibly one-directional) edge pairs and normalizes them into the
//! canonical undirected CSR form the SCAN kernels require: both directions
//! present, neighbor lists sorted and deduplicated, self loops dropped.

use crate::csr::{CsrGraph, VertexId};
use crate::par;

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
    /// Vertices the built graph holds: the largest id of a kept edge plus
    /// one, or more through [`GraphBuilder::ensure_vertices`].
    n: usize,
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
            n: 0,
        }
    }

    /// Ensures the built graph has at least `n` vertices even if the top
    /// ids never appear in an edge (isolated vertices).
    pub fn ensure_vertices(mut self, n: usize) -> Self {
        self.n = self.n.max(n);
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
            self.n = self.n.max(u.max(v) as usize + 1);
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
    /// and dedup. O(|E| log d_max) time, no hashing; split over scoped
    /// threads from 2¹⁶ pairs on ([`crate::par`]).
    pub fn build(self) -> CsrGraph {
        let parts = par::parts(self.edges.len(), par::ITEM_UNIT);
        build_csr(self.edges, self.n, parts)
    }
}

/// Builds the CSR of `n` vertices from normalized `(min, max)` pairs,
/// self loops already dropped, in `parts` parts. The graph is the same
/// for every part count.
///
/// Degrees are counted into `offsets` on the calling thread (two parts
/// counting into arrays of their own were no faster) and prefix-summed,
/// so `offsets[u]` is the first slot of `u`'s list. The vertices are
/// then cut into ranges of equal degree sum, and each part reads every
/// pair and scatters those that land in its range into its own slice of
/// `neighbors`, with each offset as its list's cursor, and sorts and
/// deduplicates its lists towards the slice's front. Only when a
/// duplicate was removed are the ranges moved together. Every large
/// array is allocated on the calling thread, and the pairs are dropped
/// before the reverse-edge index is allocated, which can then take their
/// memory in one piece.
pub(crate) fn build_csr(pairs: Vec<(VertexId, VertexId)>, n: usize, parts: usize) -> CsrGraph {
    let m = pairs.len();
    let mut offsets = vec![0usize; n + 1];
    for &(u, v) in &pairs {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }

    let cuts = par::balanced_cuts(&offsets, parts);
    let slot_cuts: Vec<usize> = cuts.iter().map(|&b| offsets[b]).collect();
    let mut neighbors = vec![0 as VertexId; 2 * m];
    let items: Vec<_> = cuts
        .windows(2)
        .map(|w| w[0])
        .zip(par::split_mut(&mut offsets[..n], &cuts))
        .zip(par::split_mut(&mut neighbors, &slot_cuts))
        .map(|((first, cursor), list)| (first, cursor, list))
        .collect();
    let kept = par::run(items, |(first, cursor, list)| {
        fill_range(&pairs, first, cursor, list)
    });
    drop(pairs);

    // Move each range to the end of the one before it. Offsets are
    // absolute, so a moved range's offsets shift with it.
    let mut write = 0;
    for (t, &len) in kept.iter().enumerate() {
        let start = slot_cuts[t];
        if start != write {
            neighbors.copy_within(start..start + len, write);
            for off in &mut offsets[cuts[t]..cuts[t + 1]] {
                *off -= start - write;
            }
        }
        write += len;
    }
    offsets[n] = write;
    neighbors.truncate(write);
    CsrGraph::from_parts_in(offsets, neighbors, parts)
}

/// Fills the lists of the vertices `first..first + cursor.len()`, whose
/// slots `list` holds: scatters both directions of every pair that lands
/// in the range, with `cursor[u - first]` (an absolute offset) as `u`'s
/// cursor, then sorts and deduplicates each list towards the front of
/// `list`. Each offset is read as its list's old end, then set to its new
/// start. Returns the slots kept. Pairs are stored as (min, max), so both
/// directions of an edge are deduplicated alike and symmetry holds.
fn fill_range(
    pairs: &[(VertexId, VertexId)],
    first: usize,
    cursor: &mut [usize],
    list: &mut [VertexId],
) -> usize {
    let base = cursor.first().copied().unwrap_or(0);
    let mut put = |x: VertexId, y: VertexId| {
        if let Some(c) = cursor.get_mut((x as usize).wrapping_sub(first)) {
            list[*c - base] = y;
            *c += 1;
        }
    };
    for &(u, v) in pairs {
        put(u, v);
        put(v, u);
    }
    let (mut beg, mut write) = (0usize, 0usize);
    for off in cursor.iter_mut() {
        let end = *off - base;
        *off = base + write;
        list[beg..end].sort_unstable();
        let mut prev: Option<VertexId> = None;
        for i in beg..end {
            let v = list[i];
            if prev != Some(v) {
                list[write] = v;
                write += 1;
                prev = Some(v);
            }
        }
        beg = end;
    }
    write
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

    /// Every part count builds the graph a set-based reference gives:
    /// duplicates, self loops, reversed pairs, a hub taking a third of the
    /// edges and trailing isolated vertices included. Equality covers the
    /// reverse-edge index.
    #[test]
    fn every_part_count_builds_the_same_graph() {
        use crate::rng::SplitMix64;
        use std::collections::BTreeSet;
        let mut rng = SplitMix64::seed_from_u64(0xb17d);
        for case in 0..40 {
            let n = 1 + rng.gen_index(300);
            let hub = rng.gen_index(n) as VertexId;
            let mut b = GraphBuilder::new();
            let mut adj = vec![BTreeSet::new(); n];
            for _ in 0..rng.gen_index(2000) {
                let u = rng.gen_index(n) as VertexId;
                let v = if rng.gen_bool(0.3) {
                    hub
                } else {
                    rng.gen_index(n) as VertexId
                };
                for (x, y) in [(u, v), (v, u)] {
                    if rng.gen_bool(0.4) {
                        b.push_edge(x, y);
                    }
                }
                b.push_edge(u, v);
                if u != v {
                    adj[u as usize].insert(v);
                    adj[v as usize].insert(u);
                }
            }
            let top = adj.iter().rposition(|a| !a.is_empty()).map_or(0, |v| v + 1);
            let b = b.ensure_vertices(top + rng.gen_index(20));
            let one = build_csr(b.edges.clone(), b.n, 1);
            one.validate().unwrap();
            assert_eq!(one.num_vertices(), b.n);
            for v in one.vertices() {
                let want: Vec<VertexId> =
                    adj.get(v as usize).into_iter().flatten().copied().collect();
                assert_eq!(one.neighbors(v), &want[..], "case {case}, vertex {v}");
            }
            for parts in 2..=7 {
                let got = build_csr(b.edges.clone(), b.n, parts);
                assert_eq!(got, one, "case {case}, {parts} parts");
            }
        }
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
