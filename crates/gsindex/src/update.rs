//! Incremental GS*-Index maintenance under a [`GraphDelta`].
//!
//! A from-scratch build costs one exhaustive similarity pass —
//! `O(Σ over edges of d[u] + d[v])` SIMD intersections plus two full
//! sorts. An edge edit invalidates almost none of that work:
//!
//! * σ(a, b) depends only on `cn(a, b)` and the endpoint degrees, and
//!   editing edge `(u, v)` changes `Γ(x)` (and `d[x]`) only for
//!   `x ∈ {u, v}`. So σ changes **only for edges incident to the
//!   touched set `T`** (the endpoints of the effective edits).
//! * A vertex's neighbor order / core-order entries change only if one
//!   of its incident σ values did — i.e. only for the **affected set
//!   `A = T ∪ N(T)`**.
//!
//! The incremental pass therefore recomputes intersections only for
//! edges incident to `T` (`update-sim` span), rebuilds and re-sorts
//! neighbor-order slices only for `A` while block-copying every other
//! vertex's slice verbatim, and repairs each µ-slice of the core order
//! by a single merge pass — old entries minus `A` merged with `A`'s
//! freshly derived entries (`update-roles` span). No global sort, no
//! global intersection pass.

use crate::{GsIndex, SimValue};
use ppscan_graph::delta::{AppliedDelta, DeltaError, GraphDelta};
use ppscan_graph::{CsrGraph, VertexId};
use ppscan_intersect::count::count;
use ppscan_obs::Span;
use ppscan_sched::WorkerPool;
use std::collections::HashMap;
use std::sync::Arc;

/// What an incremental apply actually did — the counters the serving
/// layer exports as `update.applied_edges` / `update.touched_vertices`,
/// plus the affected set itself for layers (cluster repair) that need
/// to know *which* vertices may have changed role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateStats {
    /// Undirected edges actually inserted or deleted (no-ops excluded).
    pub applied_edges: usize,
    /// Vertices whose neighbor order was rebuilt (`|A| = |T ∪ N(T)|`).
    pub touched_vertices: usize,
    /// Undirected edges whose intersection was recomputed (all edges
    /// incident to `T` in the new graph).
    pub recomputed_edges: usize,
    /// The affected set `A = T ∪ N(T)` itself, sorted. Only vertices in
    /// here can have a different role or σ-prefix than before the
    /// apply; everything else is bit-identical.
    pub affected: Vec<VertexId>,
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
        let AppliedDelta {
            graph,
            inserted,
            deleted,
        } = delta.apply_to(&self.graph)?;
        Ok(incremental(
            self,
            Arc::new(graph),
            &inserted,
            &deleted,
            pool,
        ))
    }
}

/// Rebuilds the index over `graph` reusing everything `old` computed
/// that the edits cannot have invalidated. `inserted`/`deleted` are the
/// *effective* edits (normalized `u < v`, no no-ops) from
/// [`GraphDelta::apply_to`]; `graph` must be the graph they produced
/// from `old.graph` (same vertex set).
pub(crate) fn incremental(
    old: &GsIndex,
    graph: Arc<CsrGraph>,
    inserted: &[(VertexId, VertexId)],
    deleted: &[(VertexId, VertexId)],
    pool: &WorkerPool,
) -> (GsIndex, UpdateStats) {
    let g_new: &CsrGraph = &graph;
    let g_old: &CsrGraph = &old.graph;
    let n = g_new.num_vertices();
    debug_assert_eq!(
        n,
        g_old.num_vertices(),
        "vertex set is fixed across updates"
    );

    // T: endpoints of effective edits. A = T ∪ N_new(T). (N_old(T) adds
    // nothing: an old neighbor of t ∉ N_new(t) lost its edge to t, so it
    // is itself an edit endpoint and already in T.)
    let mut touched: Vec<VertexId> = inserted
        .iter()
        .chain(deleted.iter())
        .flat_map(|&(u, v)| [u, v])
        .collect();
    touched.sort_unstable();
    touched.dedup();
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
    let mut in_a = vec![false; n];
    for &a in &affected {
        in_a[a as usize] = true;
    }

    // ---- update-sim: recompute cn only for edges incident to T. ----
    let cn_map: HashMap<(VertexId, VertexId), u32> = {
        let _span = Span::enter("update-sim");
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        for &t in &touched {
            for &w in g_new.neighbors(t) {
                pairs.push((t.min(w), t.max(w)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut jobs: Vec<((VertexId, VertexId), u32)> =
            pairs.into_iter().map(|p| (p, 0)).collect();
        pool.run_mut(&mut jobs, |job| {
            let (u, v) = job.0;
            job.1 = count(g_new.neighbors(u), g_new.neighbors(v)) as u32 + 2;
        });
        jobs.into_iter().collect()
    };
    let recomputed_edges = cn_map.len();

    // ---- update-roles: splice neighbor order, repair core order. ----
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
            // Slice order of u's neighbor entries: descending σ(u, ·),
            // ascending-id tie break (total: ids are unique per slice).
            let by_sigma = |a: &(VertexId, u32), b: &(VertexId, u32)| {
                let sa = SimValue::new(a.1, d_u, g_new.degree(a.0));
                let sb = SimValue::new(b.1, d_u, g_new.degree(b.0));
                sb.cmp(&sa).then(a.0.cmp(&b.0))
            };
            if in_t[u as usize] {
                // Edited adjacency: every incident edge was recomputed.
                for (slot, &w) in g_new.neighbors(u).iter().enumerate() {
                    out[slot] = (w, cn_map[&(u.min(w), u.max(w))]);
                }
                out.sort_unstable_by(by_sigma);
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
                out.sort_unstable_by(by_sigma);
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
                // Never `Equal`: e's id is absent from the compacted run.
                let pos = out[..w]
                    .binary_search_by(|probe| by_sigma(probe, &e))
                    .unwrap_or_else(|i| i);
                out.copy_within(pos..w, pos + 1);
                out[pos] = e;
                w += 1;
            }
            debug_assert_eq!(w, d_u, "every entry of {u} placed");
        });
    }

    // Core-order events, bucketed by µ: each affected vertex removes the
    // entries whose stored key changed and adds their replacements — and
    // *only* those. For `w ∈ A \ T` the degree is unchanged, so the old
    // and new σ-sorted slices are diffed positionally: a position whose
    // `(neighbor, cn)` pair is unchanged and whose neighbor kept its
    // degree (∉ T) stores a bit-identical key and needs no event. This
    // is what keeps hub-heavy affected sets cheap — a hub adjacent to
    // one edit re-derives the handful of positions its reordered entry
    // swept over, not all `d(hub)` of them. Vertices in `T` re-derive
    // everything (their own degree changed under every key).
    let max_d_new = g_new.max_degree();
    let old_max_d = g_old.max_degree();
    let buckets = max_d_new.max(old_max_d);
    type Key = (VertexId, u32, u64);
    type Event = (u32, Key);
    /// One parallel diff chunk: its vertices, the (µ, key) events they
    /// emitted (µ-grouped after the pass), and per-µ group offsets.
    struct Chunk<'c> {
        verts: &'c [VertexId],
        rem: Vec<Event>,
        add: Vec<Event>,
        rem_off: Vec<u32>,
        add_off: Vec<u32>,
    }
    // Cut the affected set into chunks of roughly equal *volume* (sum of
    // degrees): the diff walks every position of every vertex, and on a
    // hub-heavy graph equal-count chunks would leave one worker holding
    // all the hubs.
    let chunks: Vec<&[VertexId]> = {
        let target = affected
            .iter()
            .map(|&a| g_new.degree(a))
            .sum::<usize>()
            .div_ceil((pool.threads() * 8).max(1))
            .max(64);
        let mut out = Vec::new();
        let (mut start, mut vol) = (0usize, 0usize);
        for (i, &a) in affected.iter().enumerate() {
            vol += g_new.degree(a);
            if vol >= target {
                out.push(&affected[start..=i]);
                start = i + 1;
                vol = 0;
            }
        }
        if start < affected.len() {
            out.push(&affected[start..]);
        }
        out
    };
    let mut chunks: Vec<Chunk> = chunks
        .into_iter()
        .map(|verts| Chunk {
            verts,
            rem: Vec::new(),
            add: Vec::new(),
            rem_off: vec![0; buckets + 2],
            add_off: vec![0; buckets + 2],
        })
        .collect();
    {
        let no = &neighbor_order;
        pool.run_mut(&mut chunks, |c| {
            for &a in c.verts.iter() {
                let d_old_a = g_old.degree(a);
                let d_new_a = g_new.degree(a);
                let ob = g_old.neighbor_range(a).start;
                let nb = g_new.neighbor_range(a).start;
                if in_t[a as usize] {
                    for mu in 1..=d_old_a {
                        let (v, cn) = old.neighbor_order[ob + mu - 1];
                        let sv = SimValue::new(cn, d_old_a, g_old.degree(v));
                        c.rem.push((mu as u32, (a, sv.cn, sv.denom)));
                    }
                    for mu in 1..=d_new_a {
                        let (v, cn) = no[nb + mu - 1];
                        let sv = SimValue::new(cn, d_new_a, g_new.degree(v));
                        c.add.push((mu as u32, (a, sv.cn, sv.denom)));
                    }
                } else {
                    for mu in 1..=d_new_a {
                        let (vo, co) = old.neighbor_order[ob + mu - 1];
                        let (vn, cn) = no[nb + mu - 1];
                        if (vo, co) != (vn, cn) || in_t[vo as usize] {
                            let svo = SimValue::new(co, d_old_a, g_old.degree(vo));
                            c.rem.push((mu as u32, (a, svo.cn, svo.denom)));
                            let svn = SimValue::new(cn, d_new_a, g_new.degree(vn));
                            c.add.push((mu as u32, (a, svn.cn, svn.denom)));
                        }
                    }
                }
            }
            // Group by µ and record group offsets, so the per-bucket
            // gather below can slice this chunk's contribution directly.
            c.rem.sort_unstable_by_key(|e| e.0);
            c.add.sort_unstable_by_key(|e| e.0);
            for &(mu, _) in &c.rem {
                c.rem_off[mu as usize + 1] += 1;
            }
            for &(mu, _) in &c.add {
                c.add_off[mu as usize + 1] += 1;
            }
            for i in 1..c.rem_off.len() {
                c.rem_off[i] += c.rem_off[i - 1];
                c.add_off[i] += c.add_off[i - 1];
            }
        });
    }
    // Gather each µ-bucket from the chunks and sort it into slice order
    // (descending σ_µ, ascending-id tie break — the exact build-time
    // order). One task per µ keeps both the gather and the sort parallel.
    let mut bucket_tasks: Vec<(usize, Vec<Key>, Vec<Key>)> = (0..=buckets)
        .map(|mu| (mu, Vec::new(), Vec::new()))
        .collect();
    {
        let chunks = &chunks;
        pool.run_mut(&mut bucket_tasks, |(mu, rem, add)| {
            let mu = *mu;
            for c in chunks.iter() {
                let (rs, re) = (c.rem_off[mu] as usize, c.rem_off[mu + 1] as usize);
                rem.extend(c.rem[rs..re].iter().map(|&(_, k)| k));
                let (as_, ae) = (c.add_off[mu] as usize, c.add_off[mu + 1] as usize);
                add.extend(c.add[as_..ae].iter().map(|&(_, k)| k));
            }
            let slice_order = |&(ua, ca, da): &Key, &(ub, cb, db): &Key| {
                let sa = SimValue { cn: ca, denom: da };
                let sb = SimValue { cn: cb, denom: db };
                sb.cmp(&sa).then(ua.cmp(&ub))
            };
            rem.sort_unstable_by(slice_order);
            add.sort_unstable_by(slice_order);
        });
    }
    drop(chunks);
    let (removed, added): (Vec<Vec<Key>>, Vec<Vec<Key>>) = bucket_tasks
        .into_iter()
        .map(|(_, rem, add)| (rem, add))
        .unzip();

    let old_len_of = |mu: usize| {
        if mu >= 1 && mu + 1 < old.co_offsets.len() {
            old.co_offsets[mu + 1] - old.co_offsets[mu]
        } else {
            0
        }
    };
    let mut co_offsets = vec![0usize; max_d_new + 2];
    for mu in 1..=max_d_new {
        co_offsets[mu + 1] = old_len_of(mu) - removed[mu].len() + added[mu].len();
    }
    // µ-slices past the new max degree must drain completely (every
    // member lost degree, so every entry has a removal event).
    for (mu, rem) in removed.iter().enumerate().skip(max_d_new + 1) {
        debug_assert_eq!(old_len_of(mu), rem.len(), "vanishing slice drains");
    }
    for mu in 1..co_offsets.len() {
        co_offsets[mu] += co_offsets[mu - 1];
    }

    let mut core_order: Vec<Key> = vec![(0, 0, 1); *co_offsets.last().unwrap_or(&0)];
    {
        let mut slices: Vec<(usize, &mut [Key])> = Vec::with_capacity(max_d_new + 1);
        let mut rest: &mut [Key] = &mut core_order;
        for mu in 0..=max_d_new {
            let len = co_offsets[mu + 1] - co_offsets[mu];
            let (head, tail) = rest.split_at_mut(len);
            slices.push((mu, head));
            rest = tail;
        }
        pool.run_mut(&mut slices, |(mu, out)| {
            let mu = *mu;
            let old_slice: &[(VertexId, u32, u64)] = if mu >= 1 && mu + 1 < old.co_offsets.len() {
                &old.core_order[old.co_offsets[mu]..old.co_offsets[mu + 1]]
            } else {
                &[]
            };
            let add: &[(VertexId, u32, u64)] = if mu < added.len() { &added[mu] } else { &[] };
            let rem: &[(VertexId, u32, u64)] = if mu < removed.len() {
                &removed[mu]
            } else {
                &[]
            };
            // Slice order: descending σ_µ, ascending-id tie break — the
            // exact build-time order, total (ids are unique).
            let pos = |e: &(VertexId, u32, u64)| {
                old_slice
                    .binary_search_by(|probe| {
                        let sp = SimValue {
                            cn: probe.1,
                            denom: probe.2,
                        };
                        let se = SimValue {
                            cn: e.1,
                            denom: e.2,
                        };
                        se.cmp(&sp).then(probe.0.cmp(&e.0))
                    })
                    .unwrap_or_else(|i| i)
            };
            if (rem.len() + add.len()) * 16 >= old_slice.len().max(1) {
                // Dense repair: the events cover a significant fraction
                // of the slice, so per-event binary searches would cost
                // more than one linear merge — drop removals by tuple
                // equality (both streams are in slice order) and merge
                // the additions in.
                let (mut oi, mut ri, mut aj) = (0usize, 0usize, 0usize);
                for slot in out.iter_mut() {
                    while oi < old_slice.len() && ri < rem.len() && old_slice[oi] == rem[ri] {
                        oi += 1;
                        ri += 1;
                    }
                    let take_add = aj < add.len()
                        && (oi >= old_slice.len() || {
                            let sa = SimValue {
                                cn: add[aj].1,
                                denom: add[aj].2,
                            };
                            let so = SimValue {
                                cn: old_slice[oi].1,
                                denom: old_slice[oi].2,
                            };
                            // σ-descending, ascending-id tie break —
                            // the add entry goes first iff it sorts
                            // strictly before the old one.
                            sa.cmp(&so).then(old_slice[oi].0.cmp(&add[aj].0)).is_gt()
                        });
                    *slot = if take_add {
                        aj += 1;
                        add[aj - 1]
                    } else {
                        oi += 1;
                        old_slice[oi - 1]
                    };
                }
                while oi < old_slice.len() && ri < rem.len() && old_slice[oi] == rem[ri] {
                    oi += 1;
                    ri += 1;
                }
                debug_assert_eq!(oi, old_slice.len(), "old slice consumed (mu={mu})");
                debug_assert_eq!(ri, rem.len(), "every removal matched (mu={mu})");
                debug_assert_eq!(aj, add.len(), "every fresh entry placed (mu={mu})");
                return;
            }
            // Sparse splice: copy the old slice in runs, dropping each
            // removed entry at its binary-searched position and
            // inserting each fresh entry at its lower bound.
            // Equal-position events are safe in either order: an
            // insertion key can only collide with a *removed* old entry
            // (same id ⇒ affected), and multiple insertions at one
            // position arrive pre-sorted. Cost is
            // O((|rem| + |add|) log |old|) searches plus pure memcpy,
            // not a pass over the whole slice.
            let (mut oi, mut ri, mut ai, mut out_i) = (0usize, 0usize, 0usize, 0usize);
            loop {
                let rpos = rem.get(ri).map(&pos).unwrap_or(usize::MAX);
                let apos = add.get(ai).map(&pos).unwrap_or(usize::MAX);
                if rpos == usize::MAX && apos == usize::MAX {
                    break;
                }
                let next = rpos.min(apos);
                let run = next - oi;
                out[out_i..out_i + run].copy_from_slice(&old_slice[oi..next]);
                out_i += run;
                oi = next;
                if apos <= rpos {
                    out[out_i] = add[ai];
                    out_i += 1;
                    ai += 1;
                } else {
                    debug_assert!(
                        in_a[old_slice[oi].0 as usize],
                        "only affected entries are dropped (mu={mu})"
                    );
                    oi += 1;
                    ri += 1;
                }
            }
            let tail = old_slice.len() - oi;
            out[out_i..out_i + tail].copy_from_slice(&old_slice[oi..]);
            debug_assert_eq!(out_i + tail, out.len(), "slice length adds up (mu={mu})");
            debug_assert_eq!(ai, add.len(), "every fresh entry placed (mu={mu})");
        });
    }

    (
        GsIndex {
            graph,
            neighbor_order,
            core_order,
            co_offsets,
        },
        UpdateStats {
            applied_edges: inserted.len() + deleted.len(),
            touched_vertices: affected.len(),
            recomputed_edges,
            affected,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppscan_core::params::ScanParams;
    use ppscan_graph::gen;
    use ppscan_graph::rng::SplitMix64;
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

    /// Structural equality with a from-scratch build: same offsets, same
    /// per-vertex neighbor-order multisets (σ ties may order freely, so
    /// compare sorted copies), same per-µ core-order multisets.
    fn assert_index_equivalent(inc: &GsIndex, fresh: &GsIndex) {
        assert_eq!(inc.co_offsets, fresh.co_offsets, "co_offsets diverged");
        let g = &fresh.graph;
        for u in g.vertices() {
            let r = g.neighbor_range(u);
            let mut a = inc.neighbor_order[r.clone()].to_vec();
            let mut b = fresh.neighbor_order[r].to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "neighbor order diverged at vertex {u}");
        }
        for mu in 1..fresh.co_offsets.len().saturating_sub(1) {
            let r = fresh.co_offsets[mu]..fresh.co_offsets[mu + 1];
            let mut a = inc.core_order[r.clone()].to_vec();
            let mut b = fresh.core_order[r].to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "core order diverged at mu={mu}");
        }
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
    fn degree_growth_and_shrink_resize_core_order() {
        // Push max degree up past the old bucket count and back down:
        // co_offsets must grow and shrink with it.
        let g = gen::path(8); // max degree 2
        let index = GsIndex::build(Arc::new(g), 1);
        assert_eq!(index.max_mu(), 2);
        let mut grow = GraphDelta::new();
        for v in [2u32, 3, 4, 5, 6, 7] {
            grow.insert(0, v).unwrap();
        }
        let (grown, _) = index.apply_delta(&grow, 1).unwrap();
        assert_eq!(grown.max_mu(), grown.graph().max_degree());
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
