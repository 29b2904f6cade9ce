//! # ppscan-gsindex
//!
//! A GS*-Index-style similarity index (Wen, Qin, Zhang, Chang, Lin —
//! VLDB'17; discussed in the ppSCAN paper's related work, §3.3): after a
//! one-time construction pass that computes the *exact* structural
//! similarity of every edge, clusterings for **arbitrary `(ε, µ)`
//! parameters** are answered with no further set intersections, in three
//! parallel passes ([`GsIndex::query_with`]): a core filter over the
//! vertices, one walk of each core's ε-prefix that unions core–core
//! edges in ppSCAN's wait-free union-find and collects the non-core
//! attachments, and cluster labels read off the union-find roots, which
//! are canonical (minimum core id) by construction.
//!
//! The ppSCAN paper's criticism — "the indexing phase involves exhaustive
//! similarity computations, which are prohibitively expensive for massive
//! graphs" — is measurable here: construction counts every edge's common
//! neighbors exactly, once per undirected edge, from the endpoint of
//! higher degree against a bitmap of its neighbors (O(Σ min(d[u], d[v]))
//! work, parallelized with the same degree-based scheduler), and each
//! subsequent query is orders of magnitude cheaper than re-running
//! ppSCAN. The `parameter_exploration` harness quantifies the break-even
//! point.
//!
//! ## Structure (following the GS*-Index design)
//!
//! * **Similarity values** — per directed CSR slot, the exact
//!   `cn = |Γ(u) ∩ Γ(v)|`; σ(u,v) = cn/√((d[u]+1)(d[v]+1)) is compared
//!   exactly in integer arithmetic ([`SimValue`]).
//! * **Neighbor order** — each vertex's neighbors re-sorted by
//!   descending σ, so the ε-neighborhood is always a prefix and `u` is a
//!   core exactly when its µ-th entry is ε-similar. Total size
//!   Σ_u d[u] = 2|E| entries.
//!
//! GS*-Index also keeps a per-µ *core order* so that a query costs time
//! proportional to its output. Here the output is a [`Clustering`] with
//! one role per vertex, so a query is Θ(n) either way; this index skips
//! that second per-edge structure and its incremental repair.
//!
//! [`Clustering`]: ppscan_core::result::Clustering
//!
//! An index owns its graph through an `Arc<CsrGraph>`, so it is one
//! self-contained value: the serving layer publishes and replaces whole
//! indexes, and [`GsIndex::apply_delta`] returns a new index over the
//! edited graph while the old one keeps answering.
//!
//! ```
//! use ppscan_gsindex::GsIndex;
//! use ppscan_core::params::ScanParams;
//! use ppscan_graph::gen;
//! use std::sync::Arc;
//!
//! let g = Arc::new(gen::scan_paper_example());
//! let index = GsIndex::build(g, 2);
//! let clustering = index.query(ScanParams::new(0.7, 2));
//! assert_eq!(clustering.num_clusters(), 2);
//! // Any other parameters, no recomputation:
//! let looser = index.query(ScanParams::new(0.4, 2));
//! assert!(looser.num_cores() >= clustering.num_cores());
//! ```

mod build;
mod order;
mod query;
mod simvalue;
mod update;

pub use simvalue::SimValue;
pub use update::UpdateStats;

use ppscan_graph::{CsrGraph, VertexId};
use std::sync::Arc;

/// Another name for [`GsIndex`], kept because the benchmark under
/// `perfbench/` uses it.
pub type OwnedGsIndex = GsIndex;

/// The similarity index, owning (a shared handle to) the graph it
/// indexes, so an index is one droppable unit the serving layer can
/// publish and replace. Build once with [`GsIndex::build`], query any
/// number of times with [`GsIndex::query`] (one thread) or
/// [`GsIndex::query_with`] (across a pool).
///
/// Equality is bitwise: same graph and same neighbor order. Every slice
/// is totally ordered (descending σ, then ascending id), so an index
/// repaired by [`GsIndex::apply_delta`] equals a fresh build of the
/// edited graph.
#[derive(PartialEq, Eq)]
pub struct GsIndex {
    graph: Arc<CsrGraph>,
    /// Per directed CSR slot (in *neighbor-order*, not CSR order): the
    /// reordered neighbor and the exact closed-neighborhood intersection
    /// `cn` of that edge. `no[offsets[u]..offsets[u+1]]` is `u`'s
    /// neighborhood sorted by descending σ.
    neighbor_order: Vec<(VertexId, u32)>,
}

impl GsIndex {
    /// The indexed graph.
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// The σ-descending `(neighbor, cn)` entries of `u` — the slice the
    /// ε-prefix walks.
    fn neighbor_entries(&self, u: VertexId) -> &[(VertexId, u32)] {
        &self.neighbor_order[self.graph.neighbor_range(u)]
    }

    /// Exact σ of one of `u`'s entries (as returned by
    /// [`neighbor_entries`](Self::neighbor_entries)).
    fn entry_sim(&self, u: VertexId, entry: (VertexId, u32)) -> SimValue {
        SimValue::new(entry.1, self.graph.degree(u), self.graph.degree(entry.0))
    }

    /// Whether `u` is a core at `params`: σ_µ(u) ≥ ε, read straight off
    /// the µ-th neighbor-order entry.
    pub fn is_core(&self, u: VertexId, params: ppscan_core::params::ScanParams) -> bool {
        let d = self.graph.degree(u);
        if params.mu < 1 || params.mu > d {
            return false;
        }
        let entry = self.neighbor_entries(u)[params.mu - 1];
        self.entry_sim(u, entry).at_least(&params.epsilon)
    }

    /// Approximate heap footprint of index plus graph, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.neighbor_order.len() * std::mem::size_of::<(VertexId, u32)>() + self.graph.heap_bytes()
    }

    /// Largest µ the index can answer (the maximum degree).
    pub fn max_mu(&self) -> usize {
        self.graph.max_degree()
    }
}
