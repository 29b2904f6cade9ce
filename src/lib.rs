//! # ppscan
//!
//! A Rust reproduction of **"Parallelizing Pruning-based Graph Structural
//! Clustering"** (Che, Sun, Luo — ICPP 2018): the parallel **ppSCAN**
//! algorithm with pivot-based vectorized set intersection, plus every
//! baseline from the paper's evaluation (SCAN, pSCAN, SCAN-XP-style,
//! anySCAN-style) and the substrates they run on.
//!
//! ## Quick start
//!
//! ```
//! use ppscan::prelude::*;
//!
//! // Build (or load) an undirected graph.
//! let graph = ppscan::graph::gen::planted_partition(4, 50, 0.5, 0.01, 42);
//!
//! // Cluster it: ε = 0.5, µ = 4, all cores, SIMD kernel auto-detected.
//! let params = ScanParams::new(0.5, 4);
//! let output = ppscan::cluster(&graph, params);
//!
//! println!("{}", output.clustering.summary());
//! assert_eq!(output.clustering.num_clusters(), 4); // recovers the blocks
//! ```
//!
//! ## Crate map
//!
//! * [`graph`] — CSR substrate, I/O, generators, statistics
//!   (`ppscan-graph`).
//! * [`intersect`] — the `CompSim` kernels: merge / galloping / pivot
//!   scalar / pivot AVX2 / pivot AVX-512, all with the paper's
//!   early-termination bounds (`ppscan-intersect`).
//! * [`unionfind`] — sequential and wait-free concurrent disjoint sets
//!   (`ppscan-unionfind`).
//! * [`gsindex`] — a GS*-Index-style similarity index answering arbitrary
//!   `(ε, µ)` queries without recomputation (`ppscan-gsindex`).
//! * [`sched`] — the degree-based dynamic task scheduler
//!   (`ppscan-sched`).
//! * [`core`] — the algorithms themselves (`ppscan-core`).
//! * [`serve`] — a long-lived clustering service over the index:
//!   batched concurrent queries, non-blocking index swaps
//!   (`ppscan-serve`).
//! * [`update`] — the streaming-update stress driver: repaired index ≡
//!   fresh build and repaired query ≡ fresh query, with the delta
//!   generators (`ppscan-update`). The update itself is
//!   [`gsindex::GsIndex::apply_delta`].
//!
//! See `DESIGN.md` for the paper-to-module inventory and
//! `EXPERIMENTS.md` for the reproduced evaluation.

pub use ppscan_core as core;
pub use ppscan_graph as graph;
pub use ppscan_gsindex as gsindex;
pub use ppscan_intersect as intersect;
pub use ppscan_obs as obs;
pub use ppscan_sched as sched;
pub use ppscan_serve as serve;
pub use ppscan_unionfind as unionfind;
pub use ppscan_update as update;

/// One-stop imports for typical use.
pub mod prelude {
    pub use ppscan_core::params::ScanParams;
    pub use ppscan_core::ppscan::{ppscan, PpScanConfig, PpScanOutput};
    pub use ppscan_core::result::{Clustering, Role, UnclusteredClass};
    pub use ppscan_graph::{CsrGraph, GraphBuilder};
    pub use ppscan_intersect::Kernel;
}

use prelude::*;

/// Clusters `graph` with ppSCAN under the default configuration (all
/// available threads, widest SIMD kernel). For full control over threads,
/// kernel and scheduler threshold use [`ppscan_core::ppscan::ppscan`]
/// directly.
pub fn cluster(graph: &CsrGraph, params: ScanParams) -> PpScanOutput {
    ppscan(graph, params, &PpScanConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_cluster_runs() {
        let g = graph::gen::clique_chain(5, 3);
        let out = cluster(&g, ScanParams::new(0.8, 3));
        assert_eq!(out.clustering.num_clusters(), 3);
    }
}
