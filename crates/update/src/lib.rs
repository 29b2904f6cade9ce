//! # ppscan-update
//!
//! Incremental re-clustering on streaming edge updates — ROADMAP item 2
//! and the prerequisite for serving live graphs.
//!
//! The GS*-Index already answers arbitrary `(ε, µ)` queries without
//! recomputation; this crate closes the remaining gap: when the *graph*
//! changes, don't rebuild, **repair**. A batch of edge edits
//! ([`GraphDelta`]) is spliced into a fresh CSR and the index is
//! maintained by localized recomputation
//! ([`GsIndex::apply_delta`]); on top of that,
//! [`IncrementalClustering`] maintains a live clustering for one fixed
//! `(ε, µ)`:
//!
//! * **Role re-derivation** only for the affected set `A = T ∪ N(T)`
//!   (edit endpoints and their neighbors) — every other vertex's
//!   σ-prefix is bit-identical, so its role cannot have changed.
//! * **Cluster repair by union-find surgery.** If no core was demoted
//!   and no previously ε-similar core-core edge disappeared, the edit
//!   can only grow/merge clusters: re-union the ε-prefixes of affected
//!   cores into the live forest (unions are idempotent). Otherwise a
//!   cluster may have *split*, which union-find cannot express — the
//!   repair falls back to a **scoped re-union**: exactly the clusters
//!   containing an affected vertex are dissolved and re-unioned from
//!   their members' (new) ε-prefixes; every other cluster is untouched.
//!   The fallback is still local: an edge between two untouched
//!   clusters would have had to change σ or an endpoint role, and both
//!   are confined to `A`.
//!
//! The [`stress`] module is the safety net: a differential sweep
//! checking `incremental(G, ΔE) ≡ from_scratch(G + ΔE)` over the
//! generator zoo × execution strategies × batch sizes, with ddmin
//! shrinking of failing deltas into a replayable corpus.

pub mod stress;

use ppscan_core::params::ScanParams;
use ppscan_core::result::{Clustering, Role, NO_CLUSTER};
use ppscan_graph::delta::{DeltaError, GraphDelta};
use ppscan_graph::{CsrGraph, VertexId};
use ppscan_gsindex::{GsIndex, UpdateStats};
use ppscan_obs::Span;
use ppscan_sched::WorkerPool;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// What one [`IncrementalClustering::apply`] did, for tests and the
/// serving layer's counters.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// Index-maintenance stats (applied/touched/recomputed counts).
    pub stats: UpdateStats,
    /// Whether split risk forced the scoped re-union fallback (false =
    /// pure growth path: idempotent unions only).
    pub scoped_reunion: bool,
    /// Vertices promoted to core by this batch.
    pub promoted: usize,
    /// Vertices demoted from core by this batch.
    pub demoted: usize,
    /// Cores whose union-find entry was dissolved and re-derived
    /// (scoped re-union only).
    pub reset_members: usize,
}

/// A live clustering for one fixed `(ε, µ)`, maintained under edge
/// updates without from-scratch recomputation.
pub struct IncrementalClustering {
    params: ScanParams,
    pool: WorkerPool,
    index: GsIndex,
    /// Current role per vertex (true = core at `params`).
    is_core: Vec<bool>,
    /// Union-find forest over cores; noncores stay singleton roots.
    uf: Uf,
}

impl IncrementalClustering {
    /// Builds the index over `graph` and derives the initial clustering
    /// state for `params`.
    pub fn new(graph: Arc<CsrGraph>, params: ScanParams, threads: usize) -> Self {
        Self::with_pool(graph, params, WorkerPool::new(threads))
    }

    /// [`new`](Self::new) with a caller-built pool, so the differential
    /// harness can drive every execution strategy through the repair
    /// path.
    pub fn with_pool(graph: Arc<CsrGraph>, params: ScanParams, pool: WorkerPool) -> Self {
        let index = GsIndex::build(graph, pool.threads());
        let n = index.graph().num_vertices();
        let mut s = Self {
            params,
            pool,
            index,
            is_core: vec![false; n],
            uf: Uf::new(n),
        };
        for u in 0..n as VertexId {
            s.is_core[u as usize] = s.index.is_core(u, params);
        }
        for u in 0..n as VertexId {
            if s.is_core[u as usize] {
                s.union_prefix(u);
            }
        }
        s
    }

    /// Unions `u` with every core in its current ε-prefix.
    fn union_prefix(&mut self, u: VertexId) {
        // `eps_prefix` borrows the index; collect before mutating `uf`.
        let cores: Vec<VertexId> = self
            .index
            .eps_prefix(u, self.params)
            .filter(|&w| self.is_core[w as usize])
            .collect();
        for w in cores {
            self.uf.union(u, w);
        }
    }

    /// Applies one update batch: maintains the index incrementally,
    /// re-derives roles over the affected set, and repairs the cluster
    /// forest by union-find surgery (`update-clusters` span).
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<RepairOutcome, DeltaError> {
        let (new_index, stats) = self.index.apply_delta_with(delta, &self.pool)?;
        let _span = Span::enter("update-clusters");
        let p = self.params;

        // Role changes are confined to the affected set.
        let new_roles: HashMap<VertexId, bool> = stats
            .affected
            .iter()
            .map(|&a| (a, new_index.is_core(a, p)))
            .collect();
        let promoted: Vec<VertexId> = stats
            .affected
            .iter()
            .copied()
            .filter(|&a| new_roles[&a] && !self.is_core[a as usize])
            .collect();
        let demoted: Vec<VertexId> = stats
            .affected
            .iter()
            .copied()
            .filter(|&a| !new_roles[&a] && self.is_core[a as usize])
            .collect();

        // Split detection: did any previously-unioned ε-core-core edge
        // disappear? Only edges incident to an edit endpoint can lose σ,
        // and only affected vertices can lose core status — demotions
        // are checked directly, σ drops by walking the old ε-prefixes
        // of the edit endpoints against the new ones.
        let split_risk = !demoted.is_empty() || self.lost_core_edge(delta, &new_index, &new_roles);

        let mut reset_members = 0usize;
        if !split_risk {
            // Growth path: edits can only add/merge. Union every
            // ε-core-core edge incident to the affected set into the
            // live forest; unions are idempotent, so no "new edge"
            // detection is needed.
            for (&a, &core) in &new_roles {
                self.is_core[a as usize] = core;
            }
            for &a in &stats.affected {
                if new_roles[&a] {
                    self.swap_index_union(&new_index, a);
                }
            }
        } else {
            // Scoped re-union: dissolve exactly the clusters that
            // contain an affected vertex, then re-derive their unions
            // from the new ε-prefixes. Clusters with no affected member
            // kept every edge and every role — they stand as-is.
            let mut roots: HashSet<VertexId> = HashSet::new();
            for &a in &stats.affected {
                if self.is_core[a as usize] {
                    roots.insert(self.uf.find(a));
                }
            }
            let n = self.is_core.len();
            let mut members: Vec<VertexId> = Vec::new();
            for x in 0..n as VertexId {
                if self.is_core[x as usize] && roots.contains(&self.uf.find(x)) {
                    members.push(x);
                }
            }
            for &x in &members {
                self.uf.reset(x);
            }
            reset_members = members.len();

            for (&a, &core) in &new_roles {
                self.is_core[a as usize] = core;
            }
            let mut seeds = members;
            seeds.extend(promoted.iter().copied());
            for x in seeds {
                if self.is_core[x as usize] {
                    self.swap_index_union(&new_index, x);
                }
            }
        }

        self.index = new_index;
        Ok(RepairOutcome {
            scoped_reunion: split_risk,
            promoted: promoted.len(),
            demoted: demoted.len(),
            reset_members,
            stats,
        })
    }

    /// Unions `u` with every core in its ε-prefix **of the new index**
    /// (self.index still holds the old one while repairing).
    fn swap_index_union(&mut self, new_index: &GsIndex, u: VertexId) {
        let cores: Vec<VertexId> = new_index
            .eps_prefix(u, self.params)
            .filter(|&w| self.is_core[w as usize])
            .collect();
        for w in cores {
            self.uf.union(u, w);
        }
    }

    /// True if some edge that was ε-similar core-core before the batch
    /// is no longer ε-similar (with both endpoints still cores) after
    /// it. Deleted edges count; demotions are the caller's check.
    fn lost_core_edge(
        &self,
        delta: &GraphDelta,
        new_index: &GsIndex,
        new_roles: &HashMap<VertexId, bool>,
    ) -> bool {
        let old_index = &self.index;
        let old_g = self.index.graph();
        let p = self.params;
        let new_core = |x: VertexId| {
            new_roles
                .get(&x)
                .copied()
                .unwrap_or(self.is_core[x as usize])
        };
        // Edit endpoints (effective against the old graph).
        let mut touched: Vec<VertexId> = delta
            .inserts()
            .iter()
            .filter(|&&(u, v)| !old_g.has_edge(u, v))
            .chain(
                delta
                    .deletes()
                    .iter()
                    .filter(|&&(u, v)| old_g.has_edge(u, v)),
            )
            .flat_map(|&(u, v)| [u, v])
            .collect();
        touched.sort_unstable();
        touched.dedup();

        for &t in &touched {
            if !self.is_core[t as usize] {
                continue; // old edge (t, ·) was never core-core
            }
            let new_prefix: Option<HashSet<VertexId>> =
                new_core(t).then(|| new_index.eps_prefix(t, p).collect());
            for &entry in old_index.neighbor_entries(t) {
                if !old_index.entry_sim(t, entry).at_least(&p.epsilon) {
                    break; // σ-descending: prefix exhausted
                }
                let w = entry.0;
                if !self.is_core[w as usize] {
                    continue;
                }
                // Old ε-core-core edge (t, w). Survives iff both still
                // cores and w is still in t's ε-prefix (deleted edges
                // drop out of the prefix automatically).
                let survives = match &new_prefix {
                    Some(prefix) => new_core(w) && prefix.contains(&w),
                    None => false,
                };
                if !survives {
                    return true;
                }
            }
        }
        false
    }

    /// Materializes the maintained clustering (one pass over the
    /// vertices, like an index query: roles and labels are read off the
    /// live state, noncore attachments off the ε-prefixes).
    pub fn clustering(&self) -> Clustering {
        let n = self.is_core.len();
        let idx = &self.index;
        let mut roles = vec![Role::NonCore; n];
        let mut core_label = vec![NO_CLUSTER; n];
        for u in 0..n as VertexId {
            if self.is_core[u as usize] {
                roles[u as usize] = Role::Core;
                core_label[u as usize] = self.uf.find(u);
            }
        }
        let mut pairs: Vec<(VertexId, u32)> = Vec::new();
        for u in 0..n as VertexId {
            if !self.is_core[u as usize] {
                continue;
            }
            for w in idx.eps_prefix(u, self.params) {
                if !self.is_core[w as usize] {
                    pairs.push((w, core_label[u as usize]));
                }
            }
        }
        Clustering::from_raw(roles, core_label, pairs)
    }

    /// The maintained parameters.
    pub fn params(&self) -> ScanParams {
        self.params
    }

    /// The current graph.
    pub fn graph(&self) -> &Arc<CsrGraph> {
        self.index.graph()
    }

    /// The maintained index.
    pub fn index(&self) -> &GsIndex {
        &self.index
    }
}

/// Minimal union-find with per-vertex reset — the surgery primitive.
/// Roots are canonicalized to the smallest member id touched so far;
/// exact root identity doesn't matter ([`Clustering::from_raw`]
/// relabels), only partition equality.
#[derive(Clone, Debug)]
struct Uf {
    parent: Vec<VertexId>,
}

impl Uf {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as VertexId).collect(),
        }
    }

    /// Read-only root lookup (no compression, so `&self` suffices).
    fn find(&self, mut x: VertexId) -> VertexId {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Root lookup with path halving.
    fn find_mut(&mut self, mut x: VertexId) -> VertexId {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: VertexId, b: VertexId) {
        let (ra, rb) = (self.find_mut(a), self.find_mut(b));
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi as usize] = lo;
        }
    }

    /// Detaches `x` into a singleton. Only safe when every member of
    /// `x`'s tree is reset in the same pass (scoped re-union does), as
    /// stale children pointing at `x` would otherwise keep its old
    /// cluster alive.
    fn reset(&mut self, x: VertexId) {
        self.parent[x as usize] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppscan_graph::gen;

    fn from_scratch(g: &CsrGraph, p: ScanParams) -> Clustering {
        GsIndex::build(Arc::new(g.clone()), 2).query(p)
    }

    #[test]
    fn initial_state_matches_query() {
        for g in [
            gen::scan_paper_example(),
            gen::planted_partition(3, 14, 0.6, 0.05, 4),
            gen::roll(120, 8, 9),
        ] {
            for (eps, mu) in [(0.5, 2), (0.7, 3)] {
                let p = ScanParams::new(eps, mu);
                let ic = IncrementalClustering::new(Arc::new(g.clone()), p, 2);
                assert_eq!(ic.clustering(), from_scratch(&g, p));
            }
        }
    }

    #[test]
    fn insertions_grow_clusters_without_scoped_fallback_when_safe() {
        // Two disjoint triangles; bridging them with a dense edge set
        // merges the clusters. With ε low the new edges stay similar and
        // nothing demotes, so the growth path must suffice.
        let g =
            ppscan_graph::builder::from_edges(&[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let p = ScanParams::new(0.3, 2);
        let mut ic = IncrementalClustering::new(Arc::new(g), p, 1);
        assert_eq!(ic.clustering().num_clusters(), 2);

        let mut delta = GraphDelta::new();
        delta.insert(2, 3).unwrap();
        delta.insert(1, 3).unwrap();
        delta.insert(2, 4).unwrap();
        let outcome = ic.apply(&delta).unwrap();
        assert_eq!(ic.clustering(), from_scratch(ic.graph(), p));
        assert!(
            !outcome.scoped_reunion,
            "pure merge must take the growth path: {outcome:?}"
        );
    }

    #[test]
    fn deletion_that_splits_a_cluster_triggers_scoped_reunion() {
        // A barbell: two K4s joined by a 4-edge bridge thick enough to
        // be ε-similar (σ(0,4) = 4/6 with the bridge in place). Deleting
        // the whole bridge splits one cluster into two.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b));
                edges.push((a + 4, b + 4));
            }
        }
        let bridge = [(0, 4), (0, 5), (1, 4), (1, 5)];
        edges.extend_from_slice(&bridge);
        let g = ppscan_graph::builder::from_edges(&edges);
        let p = ScanParams::new(0.5, 2);
        let mut ic = IncrementalClustering::new(Arc::new(g), p, 1);
        let before = ic.clustering();
        assert_eq!(before.num_clusters(), 1, "bridge joins the K4s: {before:?}");

        let mut delta = GraphDelta::new();
        for (u, v) in bridge {
            delta.delete(u, v).unwrap();
        }
        let outcome = ic.apply(&delta).unwrap();
        assert!(outcome.scoped_reunion, "split must hit the fallback");
        let after = ic.clustering();
        assert_eq!(after, from_scratch(ic.graph(), p));
        assert_eq!(after.num_clusters(), 2);
    }

    #[test]
    fn chained_mixed_batches_match_from_scratch() {
        use ppscan_graph::rng::SplitMix64;
        let g = gen::planted_partition(3, 12, 0.6, 0.08, 21);
        let p = ScanParams::new(0.5, 2);
        let mut ic = IncrementalClustering::new(Arc::new(g), p, 2);
        let mut rng = SplitMix64::seed_from_u64(0xc1a5);
        for step in 0..10 {
            let delta = crate::stress::random_delta(ic.graph(), 6, rng.next_u64());
            if delta.is_empty() {
                continue;
            }
            ic.apply(&delta).unwrap();
            assert_eq!(
                ic.clustering(),
                from_scratch(ic.graph(), p),
                "diverged after step {step}"
            );
        }
    }

    #[test]
    fn noop_and_invalid_batches_behave() {
        let g = gen::clique_chain(4, 2);
        let p = ScanParams::new(0.5, 2);
        let mut ic = IncrementalClustering::new(Arc::new(g), p, 1);
        let before = ic.clustering();

        // Delete-of-absent and insert-of-present are no-ops. (0,1) is a
        // clique edge; (0,5) spans the cliques and only 3–4 bridges.
        let mut noop = GraphDelta::new();
        noop.insert(0, 1).unwrap();
        noop.delete(0, 5).unwrap();
        let outcome = ic.apply(&noop).unwrap();
        assert_eq!(outcome.stats.applied_edges, 0);
        assert_eq!(ic.clustering(), before);

        // Out-of-range ids are an Err, and the state is untouched.
        let mut bad = GraphDelta::new();
        bad.insert(0, 10_000).unwrap();
        assert!(matches!(ic.apply(&bad), Err(DeltaError::OutOfRange { .. })));
        assert_eq!(ic.clustering(), before);
    }

    #[test]
    fn insertion_induced_demotion_is_handled() {
        // Inserting an edge raises degrees, which can *lower* σ of
        // neighboring edges and demote a marginal core — the subtle
        // direction of the growth/split decision. Star + one similar
        // pair, then fan out the hub.
        let p = ScanParams::new(0.6, 2);
        let g = gen::complete(4);
        let ic = IncrementalClustering::new(Arc::new(g), p, 1);
        assert_eq!(ic.clustering().num_clusters(), 1);
        // Attach many spokes to vertex 0: its degree balloons, σ(0, ·)
        // drops, and the K4 loses 0 as a core (or the whole cluster).
        let base_n = 4;
        let extra = 8;
        // Grow the vertex set by rebuilding: the delta model fixes the
        // vertex set, so start from a graph that already has the spare
        // vertices isolated.
        let mut edges: Vec<(VertexId, VertexId)> = gen::complete(4).undirected_edges().collect();
        edges.push((base_n as VertexId, base_n as VertexId + 1)); // keep them non-isolated
        let g = ppscan_graph::GraphBuilder::new()
            .extend_edges(edges)
            .ensure_vertices(base_n + extra)
            .build();
        let mut ic = IncrementalClustering::new(Arc::new(g), p, 1);
        let mut delta = GraphDelta::new();
        for s in 0..extra as VertexId {
            delta.insert(0, base_n as VertexId + s).unwrap();
        }
        ic.apply(&delta).unwrap();
        assert_eq!(ic.clustering(), from_scratch(ic.graph(), p));
    }
}
