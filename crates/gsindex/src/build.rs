//! Parallel GS*-Index construction: exhaustive exact similarities (one
//! SIMD count per undirected edge), neighbor order, core order.

use crate::{GsIndex, SimValue};
use ppscan_graph::{CsrGraph, VertexId};
use ppscan_intersect::count::count;
use ppscan_sched::{WorkerPool, DEFAULT_DEGREE_THRESHOLD};
use std::sync::atomic::{AtomicU32, Ordering};

impl<'g> GsIndex<'g> {
    /// Builds the index with `threads` workers. O(Σ over edges of
    /// `d[u] + d[v]`) — the exhaustive cost the ppSCAN paper criticizes,
    /// amortized over every later query.
    pub fn build(graph: &'g CsrGraph, threads: usize) -> GsIndex<'g> {
        let pool = WorkerPool::new(threads);
        let n = graph.num_vertices();
        let m2 = graph.num_directed_edges();

        // Pass 1: exact cn per directed slot, computed once per
        // undirected edge (u < v) and mirrored to the reverse slot.
        // Atomic u32 slots let both directions be written lock-free.
        let cn: Vec<AtomicU32> = (0..m2).map(|_| AtomicU32::new(0)).collect();
        pool.run_weighted(
            n,
            DEFAULT_DEGREE_THRESHOLD,
            |u| graph.degree(u) as u64,
            |range| {
                for u in range {
                    let nu = graph.neighbors(u);
                    for eo in graph.neighbor_range(u) {
                        let v = graph.edge_dst(eo);
                        if v <= u {
                            continue;
                        }
                        let c = count(nu, graph.neighbors(v)) as u32 + 2;
                        cn[eo].store(c, Ordering::Relaxed);
                        let rev = graph.rev_offset(eo);
                        cn[rev].store(c, Ordering::Relaxed);
                    }
                }
            },
        );

        // Pass 2: neighbor order — per vertex, neighbors sorted by
        // descending σ. Sorting runs per-vertex in parallel over disjoint
        // output slices.
        let mut neighbor_order: Vec<(VertexId, u32)> = graph
            .raw_neighbors()
            .iter()
            .zip(cn.iter())
            .map(|(&v, c)| (v, c.load(Ordering::Relaxed)))
            .collect();
        {
            // Split the flat array into per-vertex slices for parallel
            // sorting without overlap.
            let mut slices: Vec<&mut [(VertexId, u32)]> = Vec::with_capacity(n);
            let mut rest: &mut [(VertexId, u32)] = &mut neighbor_order;
            for u in 0..n {
                let d = graph.degree(u as VertexId);
                let (head, tail) = rest.split_at_mut(d);
                slices.push(head);
                rest = tail;
            }
            pool.run_mut(&mut slices, |adj| {
                let d_u = adj.len();
                adj.sort_unstable_by(|&(va, ca), &(vb, cb)| {
                    let sa = SimValue::new(ca, d_u, graph.degree(va));
                    let sb = SimValue::new(cb, d_u, graph.degree(vb));
                    sb.cmp(&sa).then(va.cmp(&vb))
                });
            });
        }

        // Pass 3: core order — for each µ, vertices with d ≥ µ keyed by
        // σ_µ (the µ-th largest neighbor similarity), sorted descending.
        let max_d = graph.max_degree();
        let mut co_offsets = vec![0usize; max_d + 2];
        for u in 0..n {
            let d = graph.degree(u as VertexId);
            for mu in 1..=d {
                co_offsets[mu + 1] += 1;
            }
        }
        for mu in 1..co_offsets.len() {
            co_offsets[mu] += co_offsets[mu - 1];
        }
        let mut core_order: Vec<(VertexId, u32, u64)> =
            vec![(0, 0, 1); *co_offsets.last().unwrap_or(&0)];
        {
            let mut cursor = co_offsets.clone();
            for u in 0..n as VertexId {
                let base = graph.neighbor_range(u).start;
                let d_u = graph.degree(u);
                for mu in 1..=d_u {
                    let (v, c) = neighbor_order[base + mu - 1];
                    let sv = SimValue::new(c, d_u, graph.degree(v));
                    core_order[cursor[mu]] = (u, sv.cn, sv.denom);
                    cursor[mu] += 1;
                }
            }
        }
        // Sort each µ-slice by descending σ_µ, in parallel over µ.
        {
            let mut slices: Vec<&mut [(VertexId, u32, u64)]> = Vec::new();
            let mut rest: &mut [(VertexId, u32, u64)] = &mut core_order;
            for mu in 0..=max_d {
                let len = co_offsets[mu + 1] - co_offsets[mu];
                let (head, tail) = rest.split_at_mut(len);
                slices.push(head);
                rest = tail;
            }
            pool.run_mut(&mut slices, |slice| {
                slice.sort_unstable_by(|&(ua, ca, da), &(ub, cb, db)| {
                    let sa = SimValue { cn: ca, denom: da };
                    let sb = SimValue { cn: cb, denom: db };
                    sb.cmp(&sa).then(ua.cmp(&ub))
                });
            });
        }

        GsIndex {
            graph,
            neighbor_order,
            core_order,
            co_offsets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppscan_graph::gen;
    use ppscan_intersect::merge;

    #[test]
    fn neighbor_order_is_descending_and_complete() {
        let g = gen::planted_partition(3, 15, 0.6, 0.05, 1);
        let idx = GsIndex::build(&g, 2);
        for u in g.vertices() {
            let base = g.neighbor_range(u).start;
            let d_u = g.degree(u);
            let entries = &idx.neighbor_order[base..base + d_u];
            // Same multiset of neighbors as CSR.
            let mut ids: Vec<u32> = entries.iter().map(|&(v, _)| v).collect();
            ids.sort_unstable();
            assert_eq!(ids, g.neighbors(u));
            // Descending σ.
            for w in entries.windows(2) {
                let a = SimValue::new(w[0].1, d_u, g.degree(w[0].0));
                let b = SimValue::new(w[1].1, d_u, g.degree(w[1].0));
                assert!(a >= b, "neighbor order not descending");
            }
            // cn values are exact.
            for &(v, c) in entries {
                let expect = merge::count_full(g.neighbors(u), g.neighbors(v)) + 2;
                assert_eq!(c as u64, expect, "cn wrong for ({u}, {v})");
            }
        }
    }

    #[test]
    fn core_order_slices_are_descending() {
        let g = gen::roll(120, 8, 3);
        let idx = GsIndex::build(&g, 2);
        for mu in 1..=idx.max_mu() {
            let slice = &idx.core_order[idx.co_offsets[mu]..idx.co_offsets[mu + 1]];
            for w in slice.windows(2) {
                let a = SimValue {
                    cn: w[0].1,
                    denom: w[0].2,
                };
                let b = SimValue {
                    cn: w[1].1,
                    denom: w[1].2,
                };
                assert!(a >= b, "core order not descending at mu={mu}");
            }
            // Every vertex with degree ≥ µ appears exactly once.
            let expected = g.vertices().filter(|&u| g.degree(u) >= mu).count();
            assert_eq!(slice.len(), expected);
        }
    }

    #[test]
    fn empty_graph_builds() {
        let g = ppscan_graph::CsrGraph::empty(4);
        let idx = GsIndex::build(&g, 1);
        assert_eq!(idx.max_mu(), 0);
        assert!(idx.heap_bytes() < 1024);
    }
}
