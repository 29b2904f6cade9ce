//! Queries against a built GS*-Index, in three passes over a
//! [`WorkerPool`]:
//!
//! 1. **Core filter.** Each vertex's role is read off its µ-th
//!    neighbor-order entry ([`GsIndex::is_core`]).
//! 2. **One prefix walk.** Tasks cut by the cores' degrees (§4.4,
//!    Algorithm 5) walk each core's ε-prefix once: a core–core edge is a
//!    union in ppSCAN's wait-free [`ConcurrentUnionFind`] (§4.1), and a
//!    core–non-core edge is recorded as an attachment in the task's own
//!    buffer.
//! 3. **Labels.** Links always point a higher id at a lower one, so
//!    every root is the minimum core id of its cluster — the canonical
//!    label (Def. 3.7) by construction, with no relabeling map.
//!
//! Every pass writes disjoint chunks of its output, and the pool's
//! dispatch barrier orders one pass's plain writes before the next
//! pass's reads; the union-find's own atomics are the only shared
//! mutable state. A graph whose degree sum is below the task threshold
//! runs every pass as one task on the calling thread.

use crate::{GsIndex, SimValue};
use ppscan_core::params::ScanParams;
use ppscan_core::result::{Clustering, Role, NO_CLUSTER};
use ppscan_graph::VertexId;
use ppscan_sched::{weighted_tasks, WorkerPool, DEFAULT_DEGREE_THRESHOLD};
use ppscan_unionfind::ConcurrentUnionFind;
use std::ops::Range;

/// Pairs each task range with its own chunk of `items`; the ranges are
/// contiguous and exactly cover `0..items.len()`.
fn chunks<T>(mut items: &mut [T], tasks: Vec<Range<u32>>) -> Vec<(Range<u32>, &mut [T])> {
    tasks
        .into_iter()
        .map(|r| {
            let (head, tail) = std::mem::take(&mut items).split_at_mut(r.len());
            items = tail;
            (r, head)
        })
        .collect()
}

impl GsIndex {
    /// Answers a `(ε, µ)` clustering query from the index alone — no set
    /// intersections — on a one-thread pool. See
    /// [`query_with`](Self::query_with).
    pub fn query(&self, params: ScanParams) -> Clustering {
        self.query_with(params, &WorkerPool::new(1))
    }

    /// Answers a `(ε, µ)` clustering query across `pool`. Work is one
    /// pass over the vertices plus one walk of the cores' ε-similar
    /// edges; the answer is the same [`Clustering`] under every pool
    /// size and [`ExecutionStrategy`](ppscan_sched::ExecutionStrategy).
    pub fn query_with(&self, params: ScanParams, pool: &WorkerPool) -> Clustering {
        let g = &*self.graph;
        let n = g.num_vertices();
        let eps = &params.epsilon;
        let threads = pool.threads();
        let degree = |u: VertexId| g.degree(u) as u64;

        // Pass 1: roles.
        let mut roles = vec![Role::NonCore; n];
        let tasks = weighted_tasks(n, DEFAULT_DEGREE_THRESHOLD, threads, degree);
        pool.run_mut(&mut chunks(&mut roles, tasks), |(range, out)| {
            for (role, u) in out.iter_mut().zip(range.clone()) {
                if self.is_core(u, params) {
                    *role = Role::Core;
                }
            }
        });
        let is_core = |u: VertexId| roles[u as usize] == Role::Core;

        // Pass 2: one walk of each core's ε-prefix (the similar
        // neighbors are exactly the neighbor-order prefix), unioning
        // core–core edges and collecting `(non-core, core)` attachments.
        // A task keeps its range's chunk of the labels for pass 3.
        let uf: ConcurrentUnionFind = ConcurrentUnionFind::new(n);
        let mut core_cluster = vec![NO_CLUSTER; n];
        let tasks = weighted_tasks(n, DEFAULT_DEGREE_THRESHOLD, threads, |u| {
            if is_core(u) {
                degree(u)
            } else {
                0
            }
        });
        let mut tasks: Vec<_> = chunks(&mut core_cluster, tasks)
            .into_iter()
            .map(|(range, labels)| (range, labels, Vec::new()))
            .collect();
        pool.run_mut(&mut tasks, |(range, _, attach)| {
            for u in range.clone().filter(|&u| is_core(u)) {
                let d_u = g.degree(u);
                for &(v, cn) in self.neighbor_entries(u) {
                    if !SimValue::new(cn, d_u, g.degree(v)).at_least(eps) {
                        break; // prefix exhausted
                    }
                    if !is_core(v) {
                        attach.push((v, u));
                    } else if u < v {
                        uf.union(u, v);
                    }
                }
            }
        });

        // Pass 3: every root is its cluster's minimum core id. Each
        // task labels its own cores and relabels the attachments it
        // collected, whose cores all lie in its range.
        pool.run_mut(&mut tasks, |(range, labels, attach)| {
            for (label, u) in labels.iter_mut().zip(range.clone()) {
                if is_core(u) {
                    *label = uf.find_root(u);
                }
            }
            for pair in attach.iter_mut() {
                pair.1 = labels[(pair.1 - range.start) as usize];
            }
        });

        let mut noncore_pairs = Vec::with_capacity(tasks.iter().map(|t| t.2.len()).sum());
        for (_, _, mut attach) in tasks {
            noncore_pairs.append(&mut attach);
        }
        noncore_pairs.sort_unstable();
        noncore_pairs.dedup();
        Clustering {
            roles,
            core_cluster,
            noncore_pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppscan_core::pscan::pscan;
    use ppscan_core::verify;
    use ppscan_graph::{gen, CsrGraph, GraphBuilder};
    use ppscan_obs::registry::MetricsRegistry;
    use ppscan_sched::{ExecutionStrategy, PoolMetrics};
    use std::sync::Arc;

    /// Every pool a query must answer identically on: 1, 2 and 4
    /// threads, and every other strategy.
    fn pools() -> Vec<WorkerPool> {
        let mut pools: Vec<WorkerPool> = [1, 2, 4].map(WorkerPool::new).into();
        for strategy in [
            ExecutionStrategy::SequentialDeterministic,
            ExecutionStrategy::AdversarialSeeded { seed: 1 },
            ExecutionStrategy::AdversarialSeeded { seed: 0xdead_beef },
            ExecutionStrategy::Modeled,
        ] {
            pools.push(WorkerPool::with_strategy(2, strategy));
        }
        pools
    }

    /// `query`, and `query_with` on every pool, give exactly pscan's
    /// answer at every grid point.
    fn assert_all_agree(g: &Arc<CsrGraph>, grid: &[ScanParams], pools: &[WorkerPool]) {
        let idx = GsIndex::build(Arc::clone(g), 2);
        for &p in grid {
            let expected = pscan(g, p).clustering;
            assert_eq!(idx.query(p), expected, "query diverged at {p:?}");
            for pool in pools {
                assert_eq!(
                    idx.query_with(p, pool),
                    expected,
                    "query_with on {pool:?} diverged at {p:?}"
                );
            }
        }
    }

    #[test]
    fn query_matches_pscan_across_grid() {
        // The byte-identity oracle: the generator zoo, plus the shapes a
        // task split can get wrong.
        let graphs = [
            gen::scan_paper_example(),
            gen::clique_chain(5, 3),
            gen::planted_partition(3, 18, 0.6, 0.04, 2),
            gen::erdos_renyi(100, 480, 7),
            gen::roll(150, 8, 5),
            // Empty.
            GraphBuilder::new().build(),
            // Trailing isolated vertices.
            GraphBuilder::new()
                .extend_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
                .ensure_vertices(9)
                .build(),
            // Fewer vertices than the 4-thread pool has workers: one
            // task per vertex.
            gen::complete(3),
            gen::path(2),
        ];
        let grid: Vec<ScanParams> = [1u32, 3, 5, 7, 9, 10]
            .iter()
            .flat_map(|&e| [1usize, 2, 3, 5, 8].map(|mu| ScanParams::new(e as f64 / 10.0, mu)))
            .collect();
        let pools = pools();
        for g in graphs {
            assert_all_agree(&Arc::new(g), &grid, &pools);
        }
    }

    #[test]
    fn query_with_splits_an_overweight_hub_into_its_own_task() {
        // Hub degree 33,000 > the 32,768 task threshold. σ(hub, leaf) =
        // 2/√(2·33,001) ≈ 0.0078, so at ε = 0.005 the hub is a core and
        // its walk alone outweighs a task; at µ = 2 every leaf is a
        // non-core attached through it.
        let g = Arc::new(gen::star(33_001));
        let grid = [
            ScanParams::new(0.005, 1),
            ScanParams::new(0.005, 2),
            ScanParams::new(0.5, 1),
        ];
        let pools = [
            WorkerPool::new(2),
            WorkerPool::with_strategy(2, ExecutionStrategy::AdversarialSeeded { seed: 3 }),
        ];
        assert_all_agree(&g, &grid, &pools);
        let c = GsIndex::build(g, 2).query_with(grid[1], &pools[0]);
        assert_eq!(c.num_cores(), 1);
        assert_eq!(c.noncore_pairs.len(), 33_000);
    }

    #[test]
    fn small_graphs_run_inline_without_waking_workers() {
        // Degree sum below the task threshold: every pass is one task
        // on the calling thread, so the persistent workers never move.
        let g = Arc::new(gen::planted_partition(3, 18, 0.6, 0.04, 2));
        assert!(g.num_edges() * 2 < DEFAULT_DEGREE_THRESHOLD as usize);
        let idx = GsIndex::build(Arc::clone(&g), 1);
        let registry = MetricsRegistry::new();
        let metrics = PoolMetrics::register(&registry, "pool", 2);
        let pool = WorkerPool::new(2);
        pool.attach_metrics(Arc::clone(&metrics));
        let p = ScanParams::new(0.5, 2);
        let wakes = metrics.wakes.value();
        assert_eq!(idx.query_with(p, &pool), pscan(&g, p).clustering);
        assert_eq!(metrics.wakes.value(), wakes);
        for busy in &metrics.worker_busy {
            assert_eq!(busy.value(), 0);
        }
        assert_eq!(metrics.tasks.value(), 3, "one task per pass");
    }

    #[test]
    fn query_verifies_from_first_principles() {
        let g = Arc::new(gen::planted_partition(4, 15, 0.6, 0.03, 11));
        let idx = GsIndex::build(Arc::clone(&g), 2);
        let p = ScanParams::new(0.5, 3);
        verify::check_clustering(&g, p, &idx.query(p)).unwrap();
    }

    #[test]
    fn mu_beyond_max_degree_yields_empty() {
        let idx = GsIndex::build(Arc::new(gen::star(10)), 1);
        let p = ScanParams::new(0.2, 50);
        for c in [idx.query(p), idx.query_with(p, &WorkerPool::new(2))] {
            assert_eq!(c.num_cores(), 0);
            assert_eq!(c.num_clusters(), 0);
        }
    }

    #[test]
    fn mu_at_max_degree_matches_pscan() {
        // µ = max_mu() is the largest µ any vertex can satisfy; the
        // degree guard in `is_core` must keep it reachable.
        let g = Arc::new(gen::complete(6));
        let idx = GsIndex::build(Arc::clone(&g), 1);
        let mu = idx.max_mu();
        assert_eq!(mu, 5);
        let p = ScanParams::new(0.9, mu);
        for c in [idx.query(p), idx.query_with(p, &WorkerPool::new(2))] {
            assert_eq!(c, pscan(&g, p).clustering);
            assert_eq!(c.num_cores(), 6, "every K6 vertex has 5 σ=1 neighbors");
        }
    }

    #[test]
    fn mu_past_max_degree_yields_empty() {
        // One past the maximum degree: no vertex has that many
        // neighbors, so the answer is the empty clustering, same as pscan.
        let g = Arc::new(gen::clique_chain(4, 3));
        let idx = GsIndex::build(Arc::clone(&g), 1);
        let mu = idx.max_mu() + 1;
        let p = ScanParams::new(0.1, mu);
        for c in [idx.query(p), idx.query_with(p, &WorkerPool::new(2))] {
            assert_eq!(c, pscan(&g, p).clustering);
            assert_eq!(c.num_cores(), 0);
        }
    }

    #[test]
    fn mu_usize_max_does_not_overflow() {
        // A server accepting untrusted µ must get an empty answer, not
        // an overflow or an out-of-range index: `is_core` compares µ
        // with the degree before it indexes.
        let idx = GsIndex::build(Arc::new(gen::complete(4)), 1);
        let pool = WorkerPool::new(2);
        for mu in [usize::MAX, usize::MAX - 1, idx.max_mu() + 2] {
            let p = ScanParams::new(0.5, mu);
            for c in [idx.query(p), idx.query_with(p, &pool)] {
                assert_eq!(c.num_cores(), 0, "mu = {mu}");
                assert_eq!(c.num_clusters(), 0, "mu = {mu}");
            }
        }
    }

    #[test]
    fn epsilon_one_on_complete_graph() {
        // K_5: all closed neighborhoods identical → σ ≡ 1 ≥ ε = 1.
        let idx = GsIndex::build(Arc::new(gen::complete(5)), 1);
        let c = idx.query(ScanParams::new(1.0, 2));
        assert_eq!(c.num_cores(), 5);
        assert_eq!(c.num_clusters(), 1);
    }
}
