//! Parallel GS*-Index construction: the exact cn of every undirected edge,
//! counted once from its higher-ranked endpoint against a bitmap of that
//! endpoint's neighbors, then the neighbor order.

use crate::order::Sorter;
use crate::GsIndex;
use ppscan_graph::{CsrGraph, VertexId};
use ppscan_intersect::count::Bitmap;
use ppscan_sched::{weighted_tasks, WorkerPool, DEFAULT_DEGREE_THRESHOLD};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Task size, in degree units, of a pass whose tasks each zero an n-bit
/// [`Bitmap`]: with at least n/8 degree units per task, the bitmaps of
/// all tasks together cost O(m + n) bytes.
pub(crate) fn bitmap_task_cut(n: usize) -> u64 {
    DEFAULT_DEGREE_THRESHOLD.max(n as u64 / 8)
}

impl GsIndex {
    /// Builds the index over `graph` with `threads` workers, taking
    /// shared ownership of the graph. Counting costs O(Σ over edges of
    /// min(d[u], d[v])), the sort O(Σ d[u] log d[u]): the exhaustive
    /// cost the ppSCAN paper criticizes, amortized over every later
    /// query.
    pub fn build(graph: Arc<CsrGraph>, threads: usize) -> GsIndex {
        let pool = WorkerPool::new(threads);
        let n = graph.num_vertices();
        let m2 = graph.num_directed_edges();
        let degree = |u: u32| graph.degree(u) as u64;

        // Pass 1: exact cn per directed slot. Each undirected edge is
        // counted by its higher-ranked endpoint `u`, which marks N(u)
        // once and scans each lower-ranked neighbor's list against it,
        // and the count goes to both slots of the edge. Atomic u32 slots
        // let a task write the reverse slot, in another vertex's range,
        // lock-free.
        let cn: Vec<AtomicU32> = (0..m2).map(|_| AtomicU32::new(0)).collect();
        pool.run_weighted(n, bitmap_task_cut(n), degree, |range| {
            let mut marks = Bitmap::new(n);
            for u in range {
                let nu = graph.neighbors(u);
                marks.mark(nu);
                for eo in graph.neighbor_range(u) {
                    let v = graph.edge_dst(eo);
                    if graph.outranks(u, v) {
                        let c = marks.count(graph.neighbors(v)) as u32 + 2;
                        cn[eo].store(c, Ordering::Relaxed);
                        cn[graph.rev_offset(eo)].store(c, Ordering::Relaxed);
                    }
                }
                marks.unmark(nu);
            }
        });

        // Pass 2: the neighbor order. Vertex-range tasks, cut by degree,
        // each own the contiguous run of their vertices' slices and sort
        // them one by one through one key buffer.
        let mut neighbor_order: Vec<(VertexId, u32)> = vec![(0, 0); m2];
        let tasks = weighted_tasks(n, DEFAULT_DEGREE_THRESHOLD, pool.threads(), degree);
        let mut runs = Vec::with_capacity(tasks.len());
        let mut rest: &mut [(VertexId, u32)] = &mut neighbor_order;
        for range in tasks {
            let len =
                graph.neighbor_range(range.end - 1).end - graph.neighbor_range(range.start).start;
            let (head, tail) = rest.split_at_mut(len);
            runs.push((range, head));
            rest = tail;
        }
        debug_assert!(rest.is_empty(), "the tasks cover every slot");
        pool.run_mut(&mut runs, |(range, run)| {
            let mut sorter = Sorter::new(&graph);
            let base = graph.neighbor_range(range.start).start;
            for u in range.clone() {
                let r = graph.neighbor_range(u);
                let slice = &mut run[r.start - base..r.end - base];
                for ((slot, &v), c) in slice.iter_mut().zip(graph.neighbors(u)).zip(&cn[r]) {
                    *slot = (v, c.load(Ordering::Relaxed));
                }
                sorter.sort(slice);
            }
        });

        GsIndex {
            graph,
            neighbor_order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimValue;
    use ppscan_core::params::ScanParams;
    use ppscan_core::pscan::pscan;
    use ppscan_graph::gen;
    use ppscan_intersect::merge;

    #[test]
    fn neighbor_order_is_descending_and_complete() {
        // Tie-heavy (complete, grid, clique chain, star) and skewed
        // (R-MAT) graphs next to a planted partition, at 1 and 2 threads;
        // the R-MAT graph's degree sum splits both passes into several
        // tasks.
        let graphs = [
            gen::planted_partition(3, 15, 0.6, 0.05, 1),
            gen::complete(9),
            gen::grid(7, 9),
            gen::clique_chain(6, 4),
            gen::star(40),
            gen::rmat_social(12, 8, 3),
        ];
        for g in graphs {
            let g = Arc::new(g);
            for threads in [1, 2] {
                let idx = GsIndex::build(Arc::clone(&g), threads);
                for u in g.vertices() {
                    let d_u = g.degree(u);
                    let entries = &idx.neighbor_order[g.neighbor_range(u)];
                    // Same neighbors as CSR.
                    let mut ids: Vec<u32> = entries.iter().map(|&(v, _)| v).collect();
                    ids.sort_unstable();
                    assert_eq!(ids, g.neighbors(u));
                    // Total order: σ descending, then ascending id on ties.
                    for w in entries.windows(2) {
                        let a = SimValue::new(w[0].1, d_u, g.degree(w[0].0));
                        let b = SimValue::new(w[1].1, d_u, g.degree(w[1].0));
                        assert!(
                            a > b || (a == b && w[0].0 < w[1].0),
                            "{threads} threads: ({u}, {}) before ({u}, {}) out of order",
                            w[0].0,
                            w[1].0
                        );
                    }
                    // cn values are exact.
                    for &(v, c) in entries {
                        let expect = merge::count_full(g.neighbors(u), g.neighbors(v)) + 2;
                        assert_eq!(c as u64, expect, "cn wrong for ({u}, {v})");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_graph_builds() {
        let idx = GsIndex::build(Arc::new(CsrGraph::empty(4)), 1);
        assert_eq!(idx.max_mu(), 0);
        assert!(idx.heap_bytes() < 1024);
    }

    #[test]
    fn index_heap_is_one_entry_per_directed_edge() {
        // The neighbor order is the index's only per-edge structure; a
        // per-µ structure beside it would show up here.
        for g in [
            gen::roll(120, 8, 3),
            gen::planted_partition(3, 15, 0.6, 0.05, 1),
        ] {
            let g = Arc::new(g);
            let idx = GsIndex::build(Arc::clone(&g), 2);
            assert_eq!(
                idx.heap_bytes(),
                g.num_directed_edges() * std::mem::size_of::<(VertexId, u32)>() + g.heap_bytes()
            );
        }
    }

    #[test]
    fn owned_index_outlives_external_graph_handles() {
        let index = {
            let g = Arc::new(gen::clique_chain(4, 2));
            GsIndex::build(g, 1)
        }; // the only external Arc handle is gone
        let p = ScanParams::new(0.5, 2);
        let c = index.query(p);
        assert_eq!(c, pscan(index.graph(), p).clustering);
        assert!(c.num_cores() > 0);
    }
}
