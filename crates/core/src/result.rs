//! Canonical clustering result shared by every algorithm.
//!
//! SCAN semantics (Definitions 2.9–2.10): clusters of *cores* are
//! disjoint (pSCAN Lemma 3.5), while a *non-core* may belong to several
//! clusters (it is attached to every cluster containing a core it is
//! similar to). Vertices in no cluster are hubs (neighbors in ≥ 2
//! distinct clusters) or outliers.
//!
//! The canonical form labels every cluster by its **minimum core id**
//! (Definition 3.7), so results from different algorithms — BFS-grown
//! SCAN, union-find pSCAN, lock-free parallel ppSCAN — compare with `==`.

use ppscan_graph::{par, CsrGraph, VertexId};

/// The role of a vertex (Definition 2.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Role {
    /// `|N_ε(u)| ≥ µ + 1`.
    Core = 1,
    /// Not a core.
    NonCore = 2,
}

/// Classification of vertices outside every cluster (Definition 2.10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnclusteredClass {
    /// In at least one cluster (not hub/outlier).
    Clustered,
    /// Unclustered with neighbors in ≥ 2 distinct clusters.
    Hub,
    /// Unclustered, everything else.
    Outlier,
}

/// Sentinel for "not in any cluster" in the per-core label array.
pub const NO_CLUSTER: u32 = u32::MAX;

/// Canonical clustering result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    /// Role per vertex.
    pub roles: Vec<Role>,
    /// For every core: its cluster id (the minimum core id in the
    /// cluster); [`NO_CLUSTER`] for non-cores.
    pub core_cluster: Vec<u32>,
    /// `(non-core vertex, cluster id)` memberships, sorted and deduped.
    pub noncore_pairs: Vec<(VertexId, u32)>,
}

impl Clustering {
    /// Builds the canonical form from raw parts: per-vertex roles, an
    /// arbitrary (but per-cluster-constant) core labeling, and raw
    /// non-core membership pairs keyed by the same arbitrary labels.
    ///
    /// Relabels every cluster by its minimum core id, sorts and dedups.
    pub fn from_raw(
        roles: Vec<Role>,
        raw_core_label: Vec<u32>,
        raw_pairs: Vec<(VertexId, u32)>,
    ) -> Self {
        assert_eq!(roles.len(), raw_core_label.len());
        // Min core id per raw label.
        let mut min_core: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for (v, (&role, &lbl)) in roles.iter().zip(raw_core_label.iter()).enumerate() {
            if role == Role::Core {
                debug_assert_ne!(lbl, NO_CLUSTER, "core {v} has no cluster label");
                let e = min_core.entry(lbl).or_insert(u32::MAX);
                *e = (*e).min(v as u32);
            }
        }
        let core_cluster: Vec<u32> = roles
            .iter()
            .zip(raw_core_label.iter())
            .map(|(&role, &lbl)| {
                if role == Role::Core {
                    min_core[&lbl]
                } else {
                    NO_CLUSTER
                }
            })
            .collect();
        let mut noncore_pairs: Vec<(VertexId, u32)> = raw_pairs
            .into_iter()
            .map(|(v, lbl)| (v, min_core[&lbl]))
            .collect();
        noncore_pairs.sort_unstable();
        noncore_pairs.dedup();
        Self {
            roles,
            core_cluster,
            noncore_pairs,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.roles.len()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.roles.iter().filter(|&&r| r == Role::Core).count()
    }

    /// Number of distinct clusters.
    pub fn num_clusters(&self) -> usize {
        let mut ids: Vec<u32> = self
            .core_cluster
            .iter()
            .copied()
            .filter(|&c| c != NO_CLUSTER)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// All cluster ids a vertex belongs to (empty if unclustered).
    pub fn memberships(&self, v: VertexId) -> Vec<u32> {
        if self.roles[v as usize] == Role::Core {
            vec![self.core_cluster[v as usize]]
        } else {
            let lo = self.noncore_pairs.partition_point(|&(w, _)| w < v);
            let hi = self.noncore_pairs.partition_point(|&(w, _)| w <= v);
            self.noncore_pairs[lo..hi].iter().map(|&(_, c)| c).collect()
        }
    }

    /// Whether `v` belongs to at least one cluster.
    pub fn is_clustered(&self, v: VertexId) -> bool {
        !self.memberships(v).is_empty()
    }

    /// Materializes every cluster as a sorted vertex list, keyed by
    /// cluster id, sorted by id.
    pub fn clusters(&self) -> Vec<(u32, Vec<VertexId>)> {
        let mut map: std::collections::BTreeMap<u32, Vec<VertexId>> =
            std::collections::BTreeMap::new();
        for (v, &c) in self.core_cluster.iter().enumerate() {
            if c != NO_CLUSTER {
                map.entry(c).or_default().push(v as VertexId);
            }
        }
        for &(v, c) in &self.noncore_pairs {
            map.entry(c).or_default().push(v);
        }
        map.into_iter()
            .map(|(c, mut vs)| {
                vs.sort_unstable();
                vs.dedup();
                (c, vs)
            })
            .collect()
    }

    /// Classifies every vertex as clustered / hub / outlier
    /// (Definition 2.10). O(|E| + |V| + P), where P is the number of
    /// non-core membership pairs, and no allocation per vertex: one pass
    /// over the pairs gives every vertex one label, its only cluster,
    /// none, or "several", so a neighbor costs one lookup. Contiguous
    /// vertex ranges of equal degree sum are classified on scoped threads
    /// from 2¹⁶ vertices plus slots on ([`ppscan_graph::par`]).
    pub fn classify_unclustered(&self, g: &CsrGraph) -> Vec<UnclusteredClass> {
        let work = self.num_vertices() + g.num_directed_edges();
        self.classify_in(g, par::parts(work, par::ITEM_UNIT))
    }

    /// [`Self::classify_unclustered`] in `parts` vertex ranges.
    pub(crate) fn classify_in(&self, g: &CsrGraph, parts: usize) -> Vec<UnclusteredClass> {
        // Cluster ids are core ids, so below n, and n fits a vertex id.
        const SEVERAL: u32 = NO_CLUSTER - 1;
        let n = self.num_vertices();
        assert!(
            n <= SEVERAL as usize,
            "{n} vertices leave no label for several clusters"
        );
        // A core's cluster, a non-core's one cluster, or SEVERAL: the pairs
        // are deduplicated, so a second pair names a second cluster.
        let mut label = self.core_cluster.clone();
        for &(v, c) in &self.noncore_pairs {
            let l = &mut label[v as usize];
            *l = if *l == NO_CLUSTER { c } else { SEVERAL };
        }
        let classify = |v: usize| {
            if label[v] != NO_CLUSTER {
                return UnclusteredClass::Clustered;
            }
            // Hub iff neighbors touch ≥ 2 distinct clusters.
            let mut seen = NO_CLUSTER;
            for &w in g.neighbors(v as VertexId) {
                match label[w as usize] {
                    NO_CLUSTER => {}
                    SEVERAL => return UnclusteredClass::Hub,
                    c if seen == NO_CLUSTER => seen = c,
                    c if c != seen => return UnclusteredClass::Hub,
                    _ => {}
                }
            }
            UnclusteredClass::Outlier
        };
        let mut out = vec![UnclusteredClass::Outlier; n];
        let cuts = par::balanced_cuts(&g.raw_offsets()[..=n], parts);
        let chunks = par::split_mut(&mut out, &cuts);
        par::run(cuts.windows(2).zip(chunks).collect(), |(w, chunk)| {
            for (v, class) in (w[0]..w[1]).zip(chunk.iter_mut()) {
                *class = classify(v);
            }
        });
        out
    }

    /// Human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{} vertices: {} cores, {} clusters, {} non-core memberships",
            self.num_vertices(),
            self.num_cores(),
            self.num_clusters(),
            self.noncore_pairs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ScanParams;
    use crate::pscan::pscan;
    use ppscan_graph::builder::from_edges;
    use ppscan_graph::gen;

    /// roles: 0,1 cores in one cluster; 3,4 cores in another; 2 non-core
    /// in both; 5 non-core in none.
    fn sample() -> Clustering {
        Clustering::from_raw(
            vec![
                Role::Core,
                Role::Core,
                Role::NonCore,
                Role::Core,
                Role::Core,
                Role::NonCore,
            ],
            vec![7, 7, NO_CLUSTER, 9, 9, NO_CLUSTER],
            vec![(2, 9), (2, 7), (2, 7)],
        )
    }

    #[test]
    fn canonical_relabels_to_min_core_id() {
        let c = sample();
        assert_eq!(c.core_cluster, vec![0, 0, NO_CLUSTER, 3, 3, NO_CLUSTER]);
        assert_eq!(c.noncore_pairs, vec![(2, 0), (2, 3)]);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.num_cores(), 4);
    }

    #[test]
    fn memberships_and_clusters() {
        let c = sample();
        assert_eq!(c.memberships(0), vec![0]);
        assert_eq!(c.memberships(2), vec![0, 3]);
        assert!(c.memberships(5).is_empty());
        assert!(!c.is_clustered(5));
        assert_eq!(c.clusters(), vec![(0, vec![0, 1, 2]), (3, vec![2, 3, 4])]);
    }

    #[test]
    fn hub_outlier_classification() {
        let c = sample();
        // 5 adjacent to 2 (in clusters 0 and 3) → hub; make 6th vertex
        // isolated → outlier. Graph: 5-2 edge plus cluster edges.
        let g = from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4), (5, 2)]);
        let classes = c.classify_unclustered(&g);
        assert_eq!(classes[0], UnclusteredClass::Clustered);
        assert_eq!(classes[2], UnclusteredClass::Clustered);
        assert_eq!(classes[5], UnclusteredClass::Hub);
    }

    /// The classification as `memberships` gives it, one vector per
    /// vertex and per neighbor looked at: the reference for the
    /// run-array version.
    fn classify_by_memberships(c: &Clustering, g: &CsrGraph) -> Vec<UnclusteredClass> {
        (0..c.num_vertices() as VertexId)
            .map(|v| {
                if c.is_clustered(v) {
                    return UnclusteredClass::Clustered;
                }
                let mut seen: Option<u32> = None;
                for &w in g.neighbors(v) {
                    for cl in c.memberships(w) {
                        match seen {
                            None => seen = Some(cl),
                            Some(prev) if prev != cl => return UnclusteredClass::Hub,
                            _ => {}
                        }
                    }
                }
                UnclusteredClass::Outlier
            })
            .collect()
    }

    #[test]
    fn classify_matches_membership_reference() {
        let zoo = [
            gen::rmat_social(8, 6, 5),
            gen::planted_partition(4, 20, 0.5, 0.05, 11),
            gen::roll(300, 8, 3),
            gen::erdos_renyi(200, 900, 7),
            gen::clique_chain(5, 4),
            gen::scan_paper_example(),
            CsrGraph::empty(0),
        ];
        let mut hubs = 0;
        for (i, g) in zoo.iter().enumerate() {
            for eps in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8] {
                for mu in 1..=5 {
                    let c = pscan(g, ScanParams::new(eps, mu)).clustering;
                    let want = classify_by_memberships(&c, g);
                    assert_eq!(
                        c.classify_unclustered(g),
                        want,
                        "graph {i}, ε {eps}, µ {mu}"
                    );
                    hubs += want.iter().filter(|&&k| k == UnclusteredClass::Hub).count();
                }
            }
        }
        assert!(hubs >= 100, "only {hubs} hubs: the zoo barely tests them");
    }

    /// Classification in any number of vertex ranges equals the one-part
    /// run on hub-heavy clusterings.
    #[test]
    fn classify_is_the_same_in_every_part_count() {
        let graphs = [
            gen::rmat_social(9, 8, 2),
            gen::planted_partition(6, 30, 0.5, 0.08, 4),
            gen::star(50),
            CsrGraph::empty(3),
        ];
        let mut hubs = 0;
        for (i, g) in graphs.iter().enumerate() {
            for (eps, mu) in [(0.2, 2), (0.3, 3), (0.5, 2)] {
                let c = pscan(g, ScanParams::new(eps, mu)).clustering;
                let one = c.classify_in(g, 1);
                hubs += one.iter().filter(|&&k| k == UnclusteredClass::Hub).count();
                for parts in [2, 3, 7] {
                    assert_eq!(
                        c.classify_in(g, parts),
                        one,
                        "graph {i}, ε {eps}, {parts} parts"
                    );
                }
            }
        }
        assert!(hubs >= 50, "only {hubs} hubs");
    }

    #[test]
    fn outlier_when_neighbors_share_cluster() {
        let roles = vec![Role::Core, Role::Core, Role::NonCore];
        let c = Clustering::from_raw(roles, vec![1, 1, NO_CLUSTER], vec![]);
        let g = from_edges(&[(0, 1), (2, 0), (2, 1)]);
        // 2's neighbors are both in cluster 0 only → outlier.
        assert_eq!(c.classify_unclustered(&g)[2], UnclusteredClass::Outlier);
    }

    #[test]
    fn equality_is_representation_independent() {
        let a = sample();
        // Same clustering, different raw labels and pair order.
        let b = Clustering::from_raw(
            vec![
                Role::Core,
                Role::Core,
                Role::NonCore,
                Role::Core,
                Role::Core,
                Role::NonCore,
            ],
            vec![100, 100, NO_CLUSTER, 42, 42, NO_CLUSTER],
            vec![(2, 42), (2, 100)],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn summary_contains_counts() {
        assert!(sample().summary().contains("2 clusters"));
    }
}
