//! Incremental GS*-Index maintenance under a [`GraphDelta`].
//!
//! A from-scratch build costs one exhaustive similarity pass —
//! `O(Σ over edges of min(d[u], d[v]))` bitmap counts plus a full sort
//! of every neighborhood. An edge edit invalidates almost none of that
//! work:
//!
//! * σ(a, b) depends only on `cn(a, b)` and the endpoint degrees, and
//!   editing edge `(u, v)` changes `Γ(x)` (and `d[x]`) only for
//!   `x ∈ {u, v}`. So σ changes **only for edges incident to the
//!   touched set `T`** (the endpoints of the effective edits).
//! * A vertex's neighbor-order slice changes only if one of its incident
//!   σ values did — i.e. only for the **affected set `A = T ∪ N(T)`**.
//!
//! The incremental pass therefore recomputes intersections only for
//! edges incident to `T` (`update-sim` span), and rebuilds and re-sorts
//! neighbor-order slices only for `A` while block-copying every other
//! vertex's slice verbatim (`update-roles` span). No global sort, no
//! global intersection pass. Roles need no structure of their own: a
//! vertex's role at any `(ε, µ)` is read off its µ-th neighbor-order
//! entry, so repairing the slices repairs the roles.

use crate::build::bitmap_task_cut;
use crate::order::{insert_position, Sorter};
use crate::GsIndex;
use ppscan_graph::delta::{AppliedDelta, DeltaError, GraphDelta};
use ppscan_graph::{CsrGraph, VertexId};
use ppscan_intersect::count::Bitmap;
use ppscan_obs::Span;
use ppscan_sched::{weighted_tasks, WorkerPool};
use std::collections::HashMap;
use std::sync::Arc;

/// What an incremental apply actually did: the counters the serving
/// layer exports as `update.applied_edges` / `update.touched_vertices`,
/// and that `update_bench` pins into its run identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateStats {
    /// Undirected edges actually inserted or deleted (no-ops excluded).
    pub applied_edges: usize,
    /// Vertices whose neighbor order was rebuilt (`|A| = |T ∪ N(T)|`).
    pub touched_vertices: usize,
    /// Undirected edges whose intersection was recomputed (all edges
    /// incident to `T` in the new graph).
    pub recomputed_edges: usize,
}

impl GsIndex {
    /// Applies an update batch, producing a fresh index over the edited
    /// graph by localized recomputation. The original index is
    /// untouched (readers keep serving from it; the serving layer
    /// publishes the result as a new snapshot).
    pub fn apply_delta(
        &self,
        delta: &GraphDelta,
        threads: usize,
    ) -> Result<(GsIndex, UpdateStats), DeltaError> {
        self.apply_delta_with(delta, &WorkerPool::new(threads))
    }

    /// [`apply_delta`](Self::apply_delta) on a caller-provided pool, so
    /// the differential harness can drive every execution strategy
    /// through the same code path.
    pub fn apply_delta_with(
        &self,
        delta: &GraphDelta,
        pool: &WorkerPool,
    ) -> Result<(GsIndex, UpdateStats), DeltaError> {
        Ok(incremental(self, delta.apply_to(&self.graph)?, pool))
    }
}

/// Rebuilds the index over the spliced graph in `applied`, reusing
/// everything `old` computed that the edits cannot have invalidated.
/// `applied` must come from [`GraphDelta::apply_to`] on `old.graph`
/// (same vertex set, effective edits only).
pub(crate) fn incremental(
    old: &GsIndex,
    applied: AppliedDelta,
    pool: &WorkerPool,
) -> (GsIndex, UpdateStats) {
    // T: endpoints of effective edits. A = T ∪ N_new(T). (N_old(T) adds
    // nothing: an old neighbor of t ∉ N_new(t) lost its edge to t, so it
    // is itself an edit endpoint and already in T.)
    let touched = applied.touched();
    let applied_edges = applied.applied_edges();
    let graph = Arc::new(applied.graph);
    let g_new: &CsrGraph = &graph;
    let g_old: &CsrGraph = &old.graph;
    let n = g_new.num_vertices();
    debug_assert_eq!(
        n,
        g_old.num_vertices(),
        "vertex set is fixed across updates"
    );

    let mut in_t = vec![false; n];
    for &t in &touched {
        in_t[t as usize] = true;
    }
    let mut affected: Vec<VertexId> = touched.clone();
    for &t in &touched {
        affected.extend_from_slice(g_new.neighbors(t));
    }
    affected.sort_unstable();
    affected.dedup();

    // ---- update-sim: recompute cn only for edges incident to T. ----
    // Each touched vertex marks its new neighbor list once and counts
    // every neighbor's list against it; a pair of touched vertices is
    // counted once, by the endpoint that outranks the other.
    let cn_map: HashMap<(VertexId, VertexId), u32> = {
        let _span = Span::enter("update-sim");
        let tasks = weighted_tasks(touched.len(), bitmap_task_cut(n), pool.threads(), |i| {
            g_new.degree(touched[i as usize]) as u64
        });
        let mut jobs: Vec<_> = tasks
            .into_iter()
            .map(|r| (r, Vec::<((VertexId, VertexId), u32)>::new()))
            .collect();
        pool.run_mut(&mut jobs, |(range, out)| {
            let mut marks = Bitmap::new(n);
            for &t in &touched[range.start as usize..range.end as usize] {
                let nt = g_new.neighbors(t);
                marks.mark(nt);
                for &w in nt {
                    if in_t[w as usize] && g_new.outranks(w, t) {
                        continue;
                    }
                    let c = marks.count(g_new.neighbors(w)) as u32 + 2;
                    out.push(((t.min(w), t.max(w)), c));
                }
                marks.unmark(nt);
            }
        });
        jobs.into_iter().flat_map(|(_, out)| out).collect()
    };
    let recomputed_edges = cn_map.len();

    // ---- update-roles: splice the neighbor order. ----
    let _span = Span::enter("update-roles");

    let m2 = g_new.num_directed_edges();
    let mut neighbor_order: Vec<(VertexId, u32)> = vec![(0, 0); m2];
    {
        // Untouched vertices keep a bit-identical slice (same neighbors,
        // same cn values, no endpoint degree changed), and consecutive
        // untouched vertices occupy contiguous ranges in both arrays —
        // so the gaps *between* affected vertices move as one bulk
        // memcpy per gap instead of one task per vertex. Only the |A|
        // affected slices do per-vertex work.
        let old_start = |u: usize| {
            if u == n {
                g_old.num_directed_edges()
            } else {
                g_old.neighbor_range(u as VertexId).start
            }
        };
        let new_start = |u: usize| {
            if u == n {
                m2
            } else {
                g_new.neighbor_range(u as VertexId).start
            }
        };
        let mut prev = 0usize;
        for gap_end in affected
            .iter()
            .map(|&a| a as usize)
            .chain(std::iter::once(n))
        {
            if prev < gap_end {
                let (os, oe) = (old_start(prev), old_start(gap_end));
                let ns = new_start(prev);
                debug_assert_eq!(oe - os, new_start(gap_end) - ns, "untouched run length");
                neighbor_order[ns..ns + (oe - os)].copy_from_slice(&old.neighbor_order[os..oe]);
            }
            prev = gap_end + 1;
        }

        let mut slices: Vec<(VertexId, &mut [(VertexId, u32)])> =
            Vec::with_capacity(affected.len());
        let mut rest: &mut [(VertexId, u32)] = &mut neighbor_order;
        let mut base = 0usize;
        for &a in &affected {
            let r = g_new.neighbor_range(a);
            let (_gap, tail) = rest.split_at_mut(r.start - base);
            let (head, tail) = tail.split_at_mut(r.len());
            slices.push((a, head));
            rest = tail;
            base = r.end;
        }
        pool.run_mut(&mut slices, |(u, out)| {
            let u = *u;
            let d_u = out.len();
            let mut sorter = Sorter::new(g_new);
            if in_t[u as usize] {
                // Edited adjacency: every incident edge was recomputed.
                for (slot, &w) in g_new.neighbors(u).iter().enumerate() {
                    out[slot] = (w, cn_map[&(u.min(w), u.max(w))]);
                }
                sorter.sort(out);
                return;
            }
            // Same neighbor list, but entries pointing into T carry a
            // recomputed cn (and T degrees shift σ under them); the
            // others keep their key *and relative order*.
            let old_slice = &old.neighbor_order[g_old.neighbor_range(u)];
            let k = old_slice.iter().filter(|e| in_t[e.0 as usize]).count();
            if k * 16 >= d_u.max(1) {
                // Dense repair: most entries re-key anyway, one sort.
                out.copy_from_slice(old_slice);
                for entry in out.iter_mut() {
                    if in_t[entry.0 as usize] {
                        entry.1 = cn_map[&(u.min(entry.0), u.max(entry.0))];
                    }
                }
                sorter.sort(out);
                return;
            }
            // Sparse repair: compact the keyed-as-before entries (one
            // pass, order preserved — no sort), then reinsert each
            // re-keyed entry at its binary-searched position.
            let mut w = 0usize;
            let mut patched: Vec<(VertexId, u32)> = Vec::with_capacity(k);
            for &(v, c) in old_slice {
                if in_t[v as usize] {
                    patched.push((v, cn_map[&(u.min(v), u.max(v))]));
                } else {
                    out[w] = (v, c);
                    w += 1;
                }
            }
            for &e in &patched {
                let pos = insert_position(g_new, &out[..w], e);
                out.copy_within(pos..w, pos + 1);
                out[pos] = e;
                w += 1;
            }
            debug_assert_eq!(w, d_u, "every entry of {u} placed");
        });
    }

    (
        GsIndex {
            graph,
            neighbor_order,
        },
        UpdateStats {
            applied_edges,
            touched_vertices: affected.len(),
            recomputed_edges,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppscan_core::params::ScanParams;
    use ppscan_core::pscan::pscan;
    use ppscan_core::result::{Clustering, Role};
    use ppscan_graph::rng::SplitMix64;
    use ppscan_graph::{builder, gen, GraphBuilder};
    use std::collections::HashSet;

    /// Builds a random mixed batch over `g`: `dels` existing edges plus
    /// `ins` currently-absent pairs.
    fn random_delta(g: &CsrGraph, ins: usize, dels: usize, seed: u64) -> GraphDelta {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = g.num_vertices();
        let mut delta = GraphDelta::new();
        let mut used: HashSet<(VertexId, VertexId)> = HashSet::new();
        let edges: Vec<(VertexId, VertexId)> = g.undirected_edges().collect();
        let mut staged_dels = 0;
        while staged_dels < dels && !edges.is_empty() {
            let (u, v) = edges[rng.gen_index(edges.len())];
            if used.insert((u, v)) {
                delta.delete(u, v).unwrap();
                staged_dels += 1;
            } else if used.len() >= edges.len() {
                break;
            }
        }
        let mut staged_ins = 0;
        let mut tries = 0;
        while staged_ins < ins && tries < ins * 50 + 100 {
            tries += 1;
            if n < 2 {
                break;
            }
            let u = rng.gen_index(n) as VertexId;
            let v = rng.gen_index(n) as VertexId;
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if g.has_edge(u, v) || !used.insert(key) {
                continue;
            }
            delta.insert(u, v).unwrap();
            staged_ins += 1;
        }
        delta
    }

    /// Bitwise equality with a from-scratch build. Build and repair both
    /// order a slice by descending σ, then ascending id — a total order —
    /// so the slices must agree entry for entry; compared per vertex
    /// first so a failure names it.
    fn assert_index_equivalent(inc: &GsIndex, fresh: &GsIndex) {
        let g = &fresh.graph;
        for u in g.vertices() {
            let r = g.neighbor_range(u);
            assert_eq!(
                inc.neighbor_order[r.clone()],
                fresh.neighbor_order[r],
                "neighbor order diverged at vertex {u}"
            );
        }
        assert!(inc == fresh, "index diverged from a from-scratch build");
    }

    /// Applies `delta` to an index over `g` and checks both sides: the
    /// repaired index equals a fresh build, and the queries before and
    /// after equal pSCAN. Returns the clusterings before and after.
    fn update_and_query(
        g: CsrGraph,
        p: ScanParams,
        delta: &GraphDelta,
    ) -> (Clustering, Clustering) {
        let index = GsIndex::build(Arc::new(g), 1);
        let before = index.query(p);
        assert_eq!(before, pscan(index.graph(), p).clustering);
        let (updated, _) = index.apply_delta(delta, 2).unwrap();
        assert_index_equivalent(&updated, &GsIndex::build(Arc::clone(updated.graph()), 1));
        let after = updated.query(p);
        assert_eq!(after, pscan(updated.graph(), p).clustering);
        (before, after)
    }

    #[test]
    fn merges_splits_and_demotions_match_from_scratch() {
        // Two triangles bridged by three edges merge into one cluster.
        let triangles = builder::from_edges(&[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let mut bridge = GraphDelta::new();
        for (u, v) in [(2, 3), (1, 3), (2, 4)] {
            bridge.insert(u, v).unwrap();
        }
        let (before, after) = update_and_query(triangles, ScanParams::new(0.3, 2), &bridge);
        assert_eq!((before.num_clusters(), after.num_clusters()), (2, 1));

        // A barbell: two K4s joined by a 4-edge bridge thick enough to be
        // ε-similar (σ(0, 4) = 4/6). Deleting the bridge splits the
        // cluster in two.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b));
                edges.push((a + 4, b + 4));
            }
        }
        let bridge = [(0, 4), (0, 5), (1, 4), (1, 5)];
        edges.extend_from_slice(&bridge);
        let mut cut = GraphDelta::new();
        for (u, v) in bridge {
            cut.delete(u, v).unwrap();
        }
        let (before, after) =
            update_and_query(builder::from_edges(&edges), ScanParams::new(0.5, 2), &cut);
        assert_eq!((before.num_clusters(), after.num_clusters()), (1, 2));

        // Eight spokes inserted at vertex 0 of a K4 raise its degree, so
        // σ(0, ·) falls below ε: an insertion that demotes a core.
        let mut edges: Vec<(VertexId, VertexId)> = gen::complete(4).undirected_edges().collect();
        edges.push((4, 5));
        let k4 = GraphBuilder::new()
            .extend_edges(edges)
            .ensure_vertices(12)
            .build();
        let mut spokes = GraphDelta::new();
        for v in 4..12 {
            spokes.insert(0, v).unwrap();
        }
        let (before, after) = update_and_query(k4, ScanParams::new(0.6, 2), &spokes);
        assert_eq!(
            (before.roles[0], after.roles[0]),
            (Role::Core, Role::NonCore)
        );
        assert_eq!((before.num_cores(), after.num_cores()), (4, 3));
        assert_eq!((before.num_clusters(), after.num_clusters()), (1, 1));
    }

    #[test]
    fn incremental_matches_from_scratch_structurally() {
        let graphs = [
            gen::roll(150, 8, 3),
            gen::erdos_renyi(100, 420, 5),
            gen::planted_partition(3, 16, 0.6, 0.05, 7),
            gen::clique_chain(5, 3),
        ];
        for (gi, g) in graphs.into_iter().enumerate() {
            let index = GsIndex::build(Arc::new(g), 2);
            for (ins, dels, seed) in [(1, 0, 1), (0, 1, 2), (4, 4, 3), (16, 8, 4)] {
                let delta = random_delta(index.graph(), ins, dels, seed ^ (gi as u64) << 8);
                let (updated, stats) = index.apply_delta(&delta, 2).unwrap();
                let fresh = GsIndex::build(Arc::clone(updated.graph()), 2);
                assert_index_equivalent(&updated, &fresh);
                assert_eq!(stats.applied_edges, delta.len(), "all staged ops effective");
                assert!(stats.touched_vertices >= stats.applied_edges.min(1));
            }
        }
    }

    #[test]
    fn incremental_queries_match_from_scratch() {
        let g = gen::planted_partition(4, 14, 0.55, 0.06, 11);
        let index = GsIndex::build(Arc::new(g), 2);
        let delta = random_delta(index.graph(), 10, 10, 99);
        let (updated, _) = index.apply_delta(&delta, 2).unwrap();
        let fresh = GsIndex::build(Arc::clone(updated.graph()), 2);
        for eps10 in [2u32, 4, 6, 8] {
            for mu in [1usize, 2, 3, 5] {
                let p = ScanParams::new(eps10 as f64 / 10.0, mu);
                assert_eq!(
                    updated.query(p),
                    fresh.query(p),
                    "query diverged at eps={eps10}/10 mu={mu}"
                );
            }
        }
    }

    #[test]
    fn chained_updates_stay_consistent() {
        // Apply 8 batches in sequence; the index after each must match a
        // from-scratch build (drift would compound otherwise).
        let g = gen::roll(120, 6, 17);
        let mut index = GsIndex::build(Arc::new(g), 2);
        for step in 0..8u64 {
            let delta = random_delta(index.graph(), 3, 2, 1000 + step);
            let (next, _) = index.apply_delta(&delta, 2).unwrap();
            let fresh = GsIndex::build(Arc::clone(next.graph()), 2);
            assert_index_equivalent(&next, &fresh);
            index = next;
        }
    }

    #[test]
    fn degree_growth_and_shrink_track_max_mu() {
        // Push max degree up and back down: max_mu must follow it.
        let g = gen::path(8); // max degree 2
        let index = GsIndex::build(Arc::new(g), 1);
        assert_eq!(index.max_mu(), 2);
        let mut grow = GraphDelta::new();
        for v in [2u32, 3, 4, 5, 6, 7] {
            grow.insert(0, v).unwrap();
        }
        let (grown, _) = index.apply_delta(&grow, 1).unwrap();
        assert_eq!(grown.max_mu(), grown.graph().max_degree());
        assert_eq!(grown.max_mu(), 7, "vertex 0: neighbor 1 plus 2..=7");
        assert_index_equivalent(&grown, &GsIndex::build(Arc::clone(grown.graph()), 1));

        let mut shrink = GraphDelta::new();
        for v in [2u32, 3, 4, 5, 6, 7] {
            shrink.delete(0, v).unwrap();
        }
        let (back, _) = grown.apply_delta(&shrink, 1).unwrap();
        assert_eq!(back.max_mu(), 2);
        assert_index_equivalent(&back, &GsIndex::build(Arc::clone(back.graph()), 1));
    }

    #[test]
    fn noop_delta_leaves_index_equivalent_and_counts_zero() {
        let g = gen::cycle(12);
        let index = GsIndex::build(Arc::new(g), 1);
        let mut delta = GraphDelta::new();
        delta.insert(0, 1).unwrap(); // present → no-op
        delta.delete(0, 6).unwrap(); // absent → no-op
        let (updated, stats) = index.apply_delta(&delta, 1).unwrap();
        assert_eq!(stats.applied_edges, 0);
        assert_eq!(stats.touched_vertices, 0);
        assert_eq!(stats.recomputed_edges, 0);
        assert_index_equivalent(&updated, &index);
    }

    #[test]
    fn invalid_delta_is_an_error_not_a_panic() {
        let g = gen::star(5);
        let index = GsIndex::build(Arc::new(g), 1);
        let mut delta = GraphDelta::new();
        delta.insert(0, 999).unwrap();
        assert!(matches!(
            index.apply_delta(&delta, 1),
            Err(DeltaError::OutOfRange { u: 999, .. })
        ));
    }

    #[test]
    fn stats_stay_local_for_a_single_edge() {
        // One edit on a big sparse graph must touch ~(d_u + d_v)
        // vertices, not the whole graph.
        let g = gen::roll(2000, 8, 23);
        let n = g.num_vertices();
        let index = GsIndex::build(Arc::new(g), 2);
        let delta = random_delta(index.graph(), 1, 0, 7);
        let (_, stats) = index.apply_delta(&delta, 2).unwrap();
        assert_eq!(stats.applied_edges, 1);
        assert!(
            stats.touched_vertices < n / 10,
            "single-edge update touched {} of {} vertices",
            stats.touched_vertices,
            n
        );
    }
}
