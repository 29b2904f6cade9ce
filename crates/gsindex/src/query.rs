//! Queries against a built GS*-Index: one pass over the vertices finds
//! the cores, then each core's ε-prefix is walked twice (union, attach).

use crate::{GsIndex, SimValue};
use ppscan_core::params::ScanParams;
use ppscan_core::result::{Clustering, Role, NO_CLUSTER};
use ppscan_graph::{CsrGraph, VertexId};
use ppscan_unionfind::UnionFind;

impl GsIndex {
    /// Answers a `(ε, µ)` clustering query from the index alone — no set
    /// intersections. Work is one pass over the vertices plus the cores'
    /// ε-similar edges.
    pub fn query(&self, params: ScanParams) -> Clustering {
        let g: &CsrGraph = &self.graph;
        let n = g.num_vertices();
        let eps = &params.epsilon;

        let mut roles = vec![Role::NonCore; n];
        let mut cores: Vec<VertexId> = Vec::new();
        for u in g.vertices() {
            if self.is_core(u, params) {
                roles[u as usize] = Role::Core;
                cores.push(u);
            }
        }

        // Cluster cores along ε-similar core-core edges: the similar
        // neighbors are exactly the neighbor-order prefix.
        let mut uf = UnionFind::new(n);
        let mut pairs: Vec<(VertexId, u32)> = Vec::new();
        for &u in &cores {
            let base = g.neighbor_range(u).start;
            let d_u = g.degree(u);
            for &(v, cn) in &self.neighbor_order[base..base + d_u] {
                if !SimValue::new(cn, d_u, g.degree(v)).at_least(eps) {
                    break; // prefix exhausted
                }
                if roles[v as usize] == Role::Core && u < v {
                    uf.union(u, v);
                }
            }
        }
        // Attach non-core prefix members (after the core partition is
        // final, so the recorded label is the set root).
        let mut core_label = vec![NO_CLUSTER; n];
        for &u in &cores {
            core_label[u as usize] = uf.find_root(u);
        }
        for &u in &cores {
            let base = g.neighbor_range(u).start;
            let d_u = g.degree(u);
            for &(v, cn) in &self.neighbor_order[base..base + d_u] {
                if !SimValue::new(cn, d_u, g.degree(v)).at_least(eps) {
                    break;
                }
                if roles[v as usize] == Role::NonCore {
                    pairs.push((v, core_label[u as usize]));
                }
            }
        }
        Clustering::from_raw(roles, core_label, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppscan_core::pscan::pscan;
    use ppscan_core::verify;
    use ppscan_graph::gen;
    use std::sync::Arc;

    #[test]
    fn query_matches_pscan_across_grid() {
        let graphs = [
            gen::scan_paper_example(),
            gen::clique_chain(5, 3),
            gen::planted_partition(3, 18, 0.6, 0.04, 2),
            gen::erdos_renyi(100, 480, 7),
            gen::roll(150, 8, 5),
        ]
        .map(Arc::new);
        for g in &graphs {
            let idx = GsIndex::build(Arc::clone(g), 2);
            for eps10 in [1u32, 3, 5, 7, 9, 10] {
                for mu in [1usize, 2, 3, 5, 8] {
                    let p = ScanParams::new(eps10 as f64 / 10.0, mu);
                    assert_eq!(
                        idx.query(p),
                        pscan(g, p).clustering,
                        "index query diverged at eps={}/10 mu={mu}",
                        eps10
                    );
                }
            }
        }
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
        let c = idx.query(ScanParams::new(0.2, 50));
        assert_eq!(c.num_cores(), 0);
        assert_eq!(c.num_clusters(), 0);
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
        let c = idx.query(p);
        assert_eq!(c, pscan(&g, p).clustering);
        assert_eq!(c.num_cores(), 6, "every K6 vertex has 5 σ=1 neighbors");
    }

    #[test]
    fn mu_past_max_degree_yields_empty() {
        // One past the maximum degree: no vertex has that many
        // neighbors, so the answer is the empty clustering, same as pscan.
        let g = Arc::new(gen::clique_chain(4, 3));
        let idx = GsIndex::build(Arc::clone(&g), 1);
        let mu = idx.max_mu() + 1;
        let p = ScanParams::new(0.1, mu);
        let c = idx.query(p);
        assert_eq!(c, pscan(&g, p).clustering);
        assert_eq!(c.num_cores(), 0);
    }

    #[test]
    fn mu_usize_max_does_not_overflow() {
        // A server accepting untrusted µ must get an empty answer, not
        // an overflow or an out-of-range index: `is_core` compares µ
        // with the degree before it indexes.
        let idx = GsIndex::build(Arc::new(gen::complete(4)), 1);
        for mu in [usize::MAX, usize::MAX - 1, idx.max_mu() + 2] {
            let c = idx.query(ScanParams::new(0.5, mu));
            assert_eq!(c.num_cores(), 0, "mu = {mu}");
            assert_eq!(c.num_clusters(), 0, "mu = {mu}");
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
