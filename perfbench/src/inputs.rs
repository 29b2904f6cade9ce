//! Everything a run feeds the program, derived from the workload seed.
//!
//! The program only ever sees the generated graphs, deltas and `(ε, µ)`
//! sequences; the seed itself stays in the benchmark.

use ppscan_graph::rng::SplitMix64;
use ppscan_graph::{gen, CsrGraph, GraphDelta};

/// ppSCAN threads and server pool size: the reference host has 2 cores.
pub const THREADS: usize = 2;

/// ε values `offline-skewed` cycles through, each once per round in a
/// seeded order, always with µ = [`OFFLINE_MU`].
pub const OFFLINE_EPS: [f64; 3] = [0.2, 0.4, 0.6];
/// µ of every `offline-skewed` op.
pub const OFFLINE_MU: usize = 5;

/// ε axis of the served `(ε, µ)` grid. Query cost is set by ε, so each ε
/// is one cost group of four points; with an odd number of groups the
/// median query lies inside the middle one (ε = 0.3) and the p90 inside
/// the costliest one, never in a gap between groups (see README.md).
pub const GRID_EPS: [f64; 7] = [0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45];
/// µ axis of the served `(ε, µ)` grid.
pub const GRID_MU: [usize; 4] = [2, 3, 5, 8];

/// Offered query rate of `explore-communities`. Its 100 ms spacing is more
/// than twice the costliest query (~40 ms on the reference host), so a host
/// slowdown lengthens queries without tipping the run into a backlog.
pub const EXPLORE_RATE: f64 = 10.0;
/// Offered rate of the serve probe's open-loop query stream.
pub const PROBE_QUERY_RATE: f64 = 20.0;
/// Effective edits per delta of the index-maintenance probe.
pub const DELTA_EDITS: usize = 64;

/// Independent sub-seeds of one workload seed.
pub struct Seeds {
    rng: SplitMix64,
}

impl Seeds {
    /// Sub-seed stream for workload seed `seed`.
    pub fn new(seed: u64) -> Seeds {
        Seeds {
            rng: SplitMix64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The next sub-seed.
    pub fn next(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// The skewed R-MAT input (twitter-s shape at half scale): 32k vertex ids,
/// ~411k edges, hub degree ~6.6k.
pub fn skewed_graph(seed: u64) -> CsrGraph {
    gen::rmat(15, 33, 0.60, 0.18, 0.18, seed)
}

/// The community input: 400 planted communities of 100 vertices, ~790k
/// edges.
pub fn community_graph(seed: u64) -> CsrGraph {
    gen::planted_partition(400, 100, 0.3, 0.00025, seed)
}

/// Every `(ε, µ)` point of the served grid.
pub fn grid() -> Vec<(f64, usize)> {
    GRID_EPS
        .iter()
        .flat_map(|&eps| GRID_MU.iter().map(move |&mu| (eps, mu)))
        .collect()
}

/// `len` indices into `0..k`, as back-to-back seeded permutations of
/// `0..k`: every value appears equally often in each full round, so the
/// work mix of a run does not drift with the seed.
pub fn shuffled_rounds(k: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len + k);
    while out.len() < len {
        let mut round: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            round.swap(i, rng.gen_index(i + 1));
        }
        out.extend(round);
    }
    out.truncate(len);
    out
}

/// `count` hot deltas drawn in lockstep against a shadow of `base`: delta
/// `i` is drawn against the graph the first `i` deltas produce.
pub fn delta_chain(base: &CsrGraph, count: usize, seed: u64) -> Vec<GraphDelta> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut deltas = Vec::with_capacity(count);
    let mut shadow: Option<CsrGraph> = None;
    for _ in 0..count {
        let current = shadow.as_ref().unwrap_or(base);
        let delta = ppscan_update::stress::hot_delta(current, DELTA_EDITS, rng.next_u64());
        let next = delta
            .apply_to(current)
            .expect("a hot delta is valid against the graph it was drawn on")
            .graph;
        deltas.push(delta);
        shadow = Some(next);
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_balanced_permutations() {
        let v = shuffled_rounds(32, 100, 5);
        assert_eq!(v.len(), 100);
        for round in v.chunks(32).filter(|r| r.len() == 32) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, (0..32).collect::<Vec<_>>());
        }
        assert_eq!(v, shuffled_rounds(32, 100, 5));
        assert_ne!(v, shuffled_rounds(32, 100, 6));
    }

    #[test]
    fn grid_covers_every_pair() {
        let g = grid();
        assert_eq!(g.len(), GRID_EPS.len() * GRID_MU.len());
        assert_eq!(g[0], (0.15, 2));
        assert_eq!(g[g.len() - 1], (0.45, 8));
    }

    #[test]
    fn delta_chain_is_seeded_and_effective() {
        let g = gen::rmat(8, 8, 0.6, 0.18, 0.18, 1);
        let d1 = delta_chain(&g, 4, 9);
        let d2 = delta_chain(&g, 4, 9);
        assert_eq!(d1.len(), 4);
        let mut shadow = g.clone();
        for (a, b) in d1.iter().zip(&d2) {
            assert_eq!(a.inserts(), b.inserts());
            assert_eq!(a.deletes(), b.deletes());
            let applied = a.apply_to(&shadow).unwrap();
            assert_eq!(applied.applied_edges(), a.len());
            shadow = applied.graph;
        }
    }
}
