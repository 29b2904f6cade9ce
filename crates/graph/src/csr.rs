//! Compressed sparse row graph representation (paper Definition 2.11).
//!
//! The graph is stored as two flat arrays: `offsets` (length `n + 1`) and
//! `neighbors` (length `2|E|`), where the neighbors of vertex `u` occupy
//! `neighbors[offsets[u] .. offsets[u + 1]]` in strictly increasing order.
//! Every undirected edge `(u, v)` therefore appears twice — once in each
//! endpoint's list — exactly as pSCAN and ppSCAN require for the
//! similarity-value-reuse technique (the per-directed-slot `sim` array in
//! `ppscan-core` is indexed by positions in `neighbors`).

use crate::par;

/// Vertex identifier. The paper's datasets top out at ~125M vertices, so a
/// 32-bit id suffices and halves the memory traffic of the SIMD kernels
/// (16 lanes per AVX-512 register).
pub type VertexId = u32;

/// An immutable undirected graph in CSR form with sorted neighbor lists.
///
/// Construct one with [`crate::GraphBuilder`], [`CsrGraph::from_sorted_parts`]
/// or the generators in [`crate::gen`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[u] .. offsets[u + 1]` delimits `u`'s neighbor slice.
    offsets: Vec<usize>,
    /// Concatenated, per-vertex-sorted adjacency (the paper's `dst` array).
    neighbors: Vec<VertexId>,
    /// Precomputed reverse-edge index: `rev[e(u, v)] = e(v, u)`. Built in
    /// one O(m) counting pass at construction time; empty when the index
    /// could not be built (corrupt parts awaiting `validate`, or more than
    /// `u32::MAX` directed slots), in which case [`Self::rev_offset`] falls
    /// back to binary search.
    rev: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph directly from CSR parts.
    ///
    /// # Panics
    ///
    /// Panics if the parts violate a CSR invariant: `offsets` must be
    /// non-empty and non-decreasing, start at 0 and end at
    /// `neighbors.len()`; each neighbor list must be strictly increasing,
    /// free of self loops, and every edge must have its reverse edge.
    pub fn from_sorted_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        let parts = par::parts(neighbors.len(), par::ITEM_UNIT);
        let g = Self::from_parts_in(offsets, neighbors, parts);
        g.validate().expect("invalid CSR parts");
        g
    }

    /// Builds a graph from CSR parts without checking the invariants.
    ///
    /// Intended for generators that construct valid CSR by construction;
    /// in debug builds the invariants are still asserted.
    pub fn from_sorted_parts_unchecked(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        let parts = par::parts(neighbors.len(), par::ITEM_UNIT);
        Self::from_parts_in(offsets, neighbors, parts)
    }

    /// [`Self::from_sorted_parts_unchecked`] with the reverse-edge index
    /// built in at most `parts` parts, and at most [`par::vertex_cap`] of
    /// its slots, since each part holds a cursor per vertex.
    pub(crate) fn from_parts_in(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        parts: usize,
    ) -> Self {
        let n = offsets.len().saturating_sub(1);
        let parts = parts.min(par::vertex_cap(neighbors.len(), n));
        let rev = build_rev(&offsets, &neighbors, parts).unwrap_or_default();
        let g = Self {
            offsets,
            neighbors,
            rev,
        };
        debug_assert!(g.validate().is_ok(), "invalid CSR parts");
        g
    }

    /// Builds a graph from pre-spliced CSR parts plus a reverse-edge
    /// index derived from [`Self::splice_rev`], skipping the O(m)
    /// [`build_rev`] pass. Debug builds re-derive the index and assert
    /// equality, so any splice bug fails the differential tests.
    pub(crate) fn from_spliced_parts_unchecked(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        rev: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(
            Some(&rev),
            build_rev(&offsets, &neighbors, 1).as_ref(),
            "spliced rev index must match a from-scratch build"
        );
        let g = Self {
            offsets,
            neighbors,
            rev,
        };
        debug_assert!(g.validate().is_ok(), "invalid CSR parts");
        g
    }

    /// Derives the reverse-edge index of a spliced CSR (`offsets`,
    /// `neighbors`) from this graph's own, given the set of vertices
    /// whose adjacency lists changed (`in_t`). For a slot `(u, v)` with
    /// both endpoints untouched, `v`'s list is byte-identical to the old
    /// one and only shifted: `rev'[e] = rev[e_old] + (off'[v] - off[v])`.
    /// Slots with a touched endpoint — `O(vol(T))` of them — fall back to
    /// binary search in `v`'s new list. Returns `None` (caller rebuilds
    /// from scratch) when this graph has no index to splice from, the new
    /// slot count exceeds `u32::MAX`, or the touched volume is so large
    /// that the per-slot searches would lose to one counting pass.
    pub(crate) fn splice_rev(
        &self,
        offsets: &[usize],
        neighbors: &[VertexId],
        in_t: &[bool],
    ) -> Option<Vec<u32>> {
        let m = neighbors.len();
        if m > u32::MAX as usize || (self.rev.is_empty() && !self.neighbors.is_empty()) {
            return None;
        }
        let n = offsets.len() - 1;
        // Touched volume in the *new* graph bounds the number of
        // binary-search slots ((u ∈ T) ∪ (v ∈ T) slots ≤ 2·vol(T)).
        let vol_t: usize = (0..n)
            .filter(|&v| in_t[v])
            .map(|v| offsets[v + 1] - offsets[v])
            .sum();
        if vol_t.saturating_mul(8) >= m {
            return None;
        }
        // Slot of (v, u) in the new CSR; every probed pair exists by the
        // undirected invariant the splice preserves.
        let pos_in = |v: usize, u: VertexId| -> u32 {
            let s = &neighbors[offsets[v]..offsets[v + 1]];
            let i = s.binary_search(&u).expect("symmetric spliced CSR");
            (offsets[v] + i) as u32
        };
        let mut rev = vec![0u32; m];
        for u in 0..n {
            let (ns, ne) = (offsets[u], offsets[u + 1]);
            if in_t[u] {
                // u's list changed: no old slots to map from.
                for e in ns..ne {
                    rev[e] = pos_in(neighbors[e] as usize, u as VertexId);
                }
                continue;
            }
            // u's list is unchanged, so new slot ns + i held old slot
            // old_ns + i with the same destination.
            let old_ns = self.offsets[u];
            for (i, e) in (ns..ne).enumerate() {
                let v = neighbors[e] as usize;
                rev[e] = if in_t[v] {
                    pos_in(v, u as VertexId)
                } else {
                    let shift = offsets[v] as i64 - self.offsets[v] as i64;
                    (self.rev[old_ns + i] as i64 + shift) as u32
                };
            }
        }
        Some(rev)
    }

    /// Checks every representation invariant; returns a description of the
    /// first violation found. O(m) when the reverse-edge index is present:
    /// each slot's reverse edge is found through it, and searched for only
    /// when the index is absent or does not hold it.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if self.offsets[0] != 0 {
            return Err("offsets[0] must be 0".into());
        }
        if *self.offsets.last().unwrap() != self.neighbors.len() {
            return Err(format!(
                "offsets must end at neighbors.len() = {}, got {}",
                self.neighbors.len(),
                self.offsets.last().unwrap()
            ));
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing".into());
        }
        let n = self.num_vertices();
        for u in 0..n {
            let adj = self.neighbors(u as VertexId);
            if adj.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("neighbors of {u} not strictly increasing"));
            }
            for e in self.neighbor_range(u as VertexId) {
                let v = self.neighbors[e];
                if v as usize >= n {
                    return Err(format!("edge ({u}, {v}) out of range (n = {n})"));
                }
                if v as usize == u {
                    return Err(format!("self loop at {u}"));
                }
                // The slot the index names proves the reverse edge in O(1);
                // without one that holds it, search v's list.
                let indexed = self.rev.get(e).is_some_and(|&r| {
                    self.neighbor_range(v).contains(&(r as usize))
                        && self.neighbors[r as usize] as usize == u
                });
                if !indexed && self.edge_offset(v, u as VertexId).is_none() {
                    return Err(format!("missing reverse edge for ({u}, {v})"));
                }
            }
        }
        Ok(())
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            rev: Vec::new(),
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed CSR slots, i.e. `2|E|` for an undirected graph.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree `d[u]` — the number of neighbors of `u` (not counting `u`
    /// itself; the paper's closed neighborhood Γ(u) has size `d[u] + 1`).
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Whether `u` outranks `v`: higher degree, or equal degree and higher
    /// id. A strict total order on vertices; the passes that count or
    /// check an edge from one endpoint against a bitmap of its neighbors
    /// pick the endpoint that outranks the other, so each edge scans the
    /// shorter list.
    #[inline]
    pub fn outranks(&self, u: VertexId, v: VertexId) -> bool {
        (self.degree(u), u) > (self.degree(v), v)
    }

    /// The half-open CSR offset range of `u`'s neighbor slice
    /// (`off[u] .. off[u + 1]` in the paper's notation).
    #[inline]
    pub fn neighbor_range(&self, u: VertexId) -> std::ops::Range<usize> {
        self.offsets[u as usize]..self.offsets[u as usize + 1]
    }

    /// The sorted neighbor slice `N(u)`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.neighbors[self.neighbor_range(u)]
    }

    /// The raw concatenated neighbor array (the paper's `dst`).
    #[inline]
    pub fn raw_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// The raw offset array (the paper's `off`), length `n + 1`.
    #[inline]
    pub fn raw_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Destination vertex of the directed edge stored at CSR slot `eo`.
    #[inline]
    pub fn edge_dst(&self, eo: usize) -> VertexId {
        self.neighbors[eo]
    }

    /// The CSR slot of directed edge `(u, v)` — the paper's `e(u, v)` —
    /// found by binary search in `u`'s sorted neighbor list, or `None` if
    /// `(u, v)` is not an edge. This is exactly the "reverse edge offset
    /// computation" of pSCAN's similarity-value-reuse technique (§3.2.1).
    #[inline]
    pub fn edge_offset(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let range = self.neighbor_range(u);
        let adj = &self.neighbors[range.clone()];
        adj.binary_search(&v).ok().map(|i| range.start + i)
    }

    /// Whether `(u, v)` is an edge.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_offset(u, v).is_some()
    }

    /// The CSR slot of the reverse directed edge: for the slot `eo`
    /// holding edge `(u, v)`, returns the slot of `(v, u)`. O(1) via the
    /// precomputed index built at construction time — this replaces the
    /// per-edge binary search in pSCAN's similarity-value-reuse technique
    /// (§3.2.1). Falls back to [`Self::rev_offset_search`] when the index
    /// is absent (more than `u32::MAX` directed slots).
    #[inline]
    pub fn rev_offset(&self, eo: usize) -> usize {
        match self.rev.get(eo) {
            Some(&r) => r as usize,
            None => self.rev_offset_search(eo),
        }
    }

    /// Binary-search reference implementation of [`Self::rev_offset`]:
    /// recovers the source vertex of slot `eo` from `offsets`, then
    /// searches the destination's neighbor list. Kept public as the
    /// fallback path and for the index-agreement property tests.
    ///
    /// # Panics
    ///
    /// Panics if `eo` is out of range or the reverse edge is missing
    /// (impossible on a validated graph).
    pub fn rev_offset_search(&self, eo: usize) -> usize {
        let v = self.neighbors[eo];
        let u = self.slot_src(eo);
        self.edge_offset(v, u)
            .expect("undirected graph must contain the reverse edge")
    }

    /// Source vertex of the directed edge stored at CSR slot `eo` — the
    /// inverse of [`Self::neighbor_range`], found by binary search over
    /// `offsets`.
    #[inline]
    pub fn slot_src(&self, eo: usize) -> VertexId {
        debug_assert!(eo < self.neighbors.len());
        (self.offsets.partition_point(|&o| o <= eo) - 1) as VertexId
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterates over every directed edge as `(u, v, slot)`.
    pub fn directed_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, usize)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbor_range(u)
                .map(move |eo| (u, self.neighbors[eo], eo))
        })
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.directed_edges()
            .filter(|&(u, v, _)| u < v)
            .map(|(u, v, _)| (u, v))
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|u| self.degree(u as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2|E| / |V|` (0.0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_directed_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
            + self.rev.len() * std::mem::size_of::<u32>()
    }
}

/// Builds the reverse-edge index in one O(m) counting pass split into
/// `parts` vertex ranges of equal degree sum, or `None` if the parts do
/// not describe a symmetric sorted CSR (or exceed `u32` slot range).
///
/// The pass walks sources `u` in ascending order keeping one write
/// cursor per destination list. Because every neighbor list is strictly
/// increasing and symmetric, the slots of `v`'s list are consumed exactly
/// in ascending source order, so the next unconsumed slot of `v`'s list
/// is always `(v, u)`: no search needed. A range starting at vertex `a`
/// seeds `v`'s cursor with one binary search, `offsets[v]` plus the
/// neighbors of `v` below `a`, and writes only its own slots. Every
/// access is checked so the builder is safe to run on unvalidated input
/// (e.g. a binary graph file before `validate`); any inconsistency yields
/// `None` and the caller falls back to binary search until validation
/// rejects the graph.
fn build_rev(offsets: &[usize], neighbors: &[VertexId], parts: usize) -> Option<Vec<u32>> {
    let m = neighbors.len();
    if m == 0 {
        return Some(Vec::new());
    }
    if m > u32::MAX as usize
        || offsets.len() < 2
        || offsets[0] != 0
        || *offsets.last()? != m
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return None;
    }
    let n = offsets.len() - 1;
    let cuts = par::balanced_cuts(offsets, parts);
    let slot_cuts: Vec<usize> = cuts.iter().map(|&b| offsets[b]).collect();
    let mut rev = vec![0u32; m];
    let mut cursors: Vec<Vec<u32>> = (0..parts).map(|_| vec![0u32; n]).collect();
    let items: Vec<_> = cuts
        .windows(2)
        .map(|w| w[0]..w[1])
        .zip(par::split_mut(&mut rev, &slot_cuts))
        .zip(cursors.iter_mut())
        .map(|((range, rev), cursor)| (range, rev, cursor))
        .collect();
    let ok = par::run(items, |(range, rev, cursor)| {
        let a = range.start as VertexId;
        for (v, c) in cursor.iter_mut().enumerate() {
            let list = &neighbors[offsets[v]..offsets[v + 1]];
            *c = (offsets[v] + list.partition_point(|&w| w < a)) as u32;
        }
        let base = offsets[range.start];
        for u in range {
            for eo in offsets[u]..offsets[u + 1] {
                let v = neighbors[eo] as usize;
                if v >= n {
                    return false;
                }
                let c = cursor[v] as usize;
                // The reverse slot must sit inside v's list and point back
                // at u; anything else means the parts are not symmetric
                // sorted CSR.
                if c >= offsets[v + 1] || neighbors[c] as usize != u {
                    return false;
                }
                rev[eo - base] = c as u32;
                cursor[v] += 1;
            }
        }
        true
    });
    ok.into_iter().all(|ok| ok).then_some(rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(0, 2)
            .build()
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.max_degree(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn edge_offset_matches_definition() {
        let g = triangle();
        // e(u, v) ∈ [off[u], off[u+1]) and dst[e(u, v)] = v (Def 2.11).
        for (u, v, _) in g.directed_edges() {
            let eo = g.edge_offset(u, v).unwrap();
            assert!(g.neighbor_range(u).contains(&eo));
            assert_eq!(g.edge_dst(eo), v);
        }
        assert_eq!(g.edge_offset(0, 0), None);
    }

    #[test]
    fn undirected_edges_listed_once() {
        let g = triangle();
        let edges: Vec<_> = g.undirected_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn validate_rejects_unsorted() {
        let g = CsrGraph {
            offsets: vec![0, 2, 3, 4],
            neighbors: vec![2, 1, 0, 0],
            rev: Vec::new(),
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_reverse_edge() {
        let g = CsrGraph {
            offsets: vec![0, 1, 1],
            neighbors: vec![1],
            rev: Vec::new(),
        };
        assert!(g.validate().unwrap_err().contains("reverse"));
    }

    #[test]
    fn validate_rejects_self_loop() {
        let g = CsrGraph {
            offsets: vec![0, 1],
            neighbors: vec![0],
            rev: Vec::new(),
        };
        assert!(g.validate().unwrap_err().contains("self loop"));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let g = CsrGraph {
            offsets: vec![0, 1],
            neighbors: vec![7],
            rev: Vec::new(),
        };
        assert!(g.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    #[should_panic(expected = "invalid CSR parts")]
    fn from_sorted_parts_panics_on_bad_input() {
        CsrGraph::from_sorted_parts(vec![0, 1], vec![0]);
    }

    #[test]
    fn heap_bytes_positive() {
        assert!(triangle().heap_bytes() > 0);
    }

    #[test]
    fn rev_offset_matches_search_and_is_an_involution() {
        for g in [
            triangle(),
            CsrGraph::empty(0),
            CsrGraph::empty(5),
            crate::gen::star(12),
            crate::gen::clique_chain(5, 3),
        ] {
            for (u, v, eo) in g.directed_edges() {
                let r = g.rev_offset(eo);
                assert_eq!(r, g.rev_offset_search(eo), "({u}, {v}) slot {eo}");
                assert_eq!(g.edge_dst(r), u);
                assert_eq!(g.slot_src(eo), u);
                assert_eq!(g.rev_offset(r), eo, "rev must be an involution");
            }
        }
    }

    #[test]
    fn rev_offset_falls_back_without_index() {
        let mut g = triangle();
        g.rev = Vec::new();
        for (_, _, eo) in triangle().directed_edges() {
            assert_eq!(g.rev_offset(eo), triangle().rev_offset(eo));
        }
    }

    #[test]
    fn build_rev_rejects_asymmetric_parts() {
        for parts in 1..=3 {
            // (0, 1) present without (1, 0): cursor check must fail.
            assert_eq!(build_rev(&[0, 1, 1], &[1], parts), None);
            // Unsorted list: slots consumed out of ascending-source order.
            assert_eq!(build_rev(&[0, 2, 3, 4], &[2, 1, 0, 0], parts), None);
            // Out-of-range destination.
            assert_eq!(build_rev(&[0, 1], &[7], parts), None);
            // Offsets that run backwards or past the neighbors.
            assert_eq!(build_rev(&[0, 2, 1, 2], &[1, 2], parts), None);
            assert_eq!(build_rev(&[0, 3, 2], &[1, 0], parts), None);
        }
    }

    #[test]
    fn build_rev_is_the_same_in_every_part_count() {
        let graphs = [
            crate::gen::star(40),
            crate::gen::clique_chain(6, 5),
            crate::gen::rmat_social(8, 6, 3),
            GraphBuilder::new()
                .add_edge(0, 5)
                .add_edge(5, 9)
                .ensure_vertices(30)
                .build(),
        ];
        for g in graphs {
            let one = build_rev(&g.offsets, &g.neighbors, 1).unwrap();
            assert_eq!(one, g.rev);
            for parts in 2..=7 {
                assert_eq!(
                    build_rev(&g.offsets, &g.neighbors, parts).as_ref(),
                    Some(&one)
                );
            }
        }
    }
}
