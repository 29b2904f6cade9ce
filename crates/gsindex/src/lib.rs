//! # ppscan-gsindex
//!
//! A GS*-Index-style similarity index (Wen, Qin, Zhang, Chang, Lin —
//! VLDB'17; discussed in the ppSCAN paper's related work, §3.3): after a
//! one-time construction pass that computes the *exact* structural
//! similarity of every edge, clusterings for **arbitrary `(ε, µ)`
//! parameters** are answered in output-proportional time, with no further
//! set intersections.
//!
//! The ppSCAN paper's criticism — "the indexing phase involves exhaustive
//! similarity computations, which are prohibitively expensive for massive
//! graphs" — is measurable here: construction costs roughly one SCAN-XP
//! run (we parallelize it with the same degree-based scheduler and use
//! the exact-count SIMD kernel), and each subsequent query is orders of
//! magnitude cheaper than re-running ppSCAN. The `parameter_exploration`
//! harness quantifies the break-even point.
//!
//! ## Structure (following the GS*-Index design)
//!
//! * **Similarity values** — per directed CSR slot, the exact
//!   `cn = |Γ(u) ∩ Γ(v)|`; σ(u,v) = cn/√((d[u]+1)(d[v]+1)) is compared
//!   exactly in integer arithmetic ([`SimValue`]).
//! * **Neighbor order** — each vertex's neighbors re-sorted by
//!   descending σ, so the ε-neighborhood is always a prefix.
//! * **Core order** — for every µ, the vertices with degree ≥ µ sorted by
//!   descending µ-th-largest neighbor similarity σ_µ, so the core set for
//!   any ε is a prefix. Total size Σ_u d[u] = 2|E| entries.
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
/// number of times with [`GsIndex::query`].
pub struct GsIndex {
    graph: Arc<CsrGraph>,
    /// Per directed CSR slot (in *neighbor-order*, not CSR order): the
    /// reordered neighbor and the exact closed-neighborhood intersection
    /// `cn` of that edge. `no[offsets[u]..offsets[u+1]]` is `u`'s
    /// neighborhood sorted by descending σ.
    neighbor_order: Vec<(VertexId, u32)>,
    /// Flattened core order: `core_order[co_offsets[mu]..co_offsets[mu+1]]`
    /// lists `(vertex, cn_mu, denom_mu)` sorted by descending σ_µ.
    core_order: Vec<(VertexId, u32, u64)>,
    /// Offsets into `core_order`, indexed by µ (entry 0 unused).
    co_offsets: Vec<usize>,
}

impl GsIndex {
    /// The indexed graph.
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// The σ-descending `(neighbor, cn)` entries of `u` — the slice the
    /// ε-prefix walks. Exposed for the incremental re-clustering layer
    /// (`ppscan-update`), which re-derives roles and repairs clusters
    /// from prefixes without re-running any intersection.
    pub fn neighbor_entries(&self, u: VertexId) -> &[(VertexId, u32)] {
        &self.neighbor_order[self.graph.neighbor_range(u)]
    }

    /// Exact σ of one of `u`'s entries (as returned by
    /// [`neighbor_entries`](Self::neighbor_entries)).
    pub fn entry_sim(&self, u: VertexId, entry: (VertexId, u32)) -> SimValue {
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

    /// The ε-similar neighbors of `u` — its ε-prefix, in descending σ.
    pub fn eps_prefix(
        &self,
        u: VertexId,
        params: ppscan_core::params::ScanParams,
    ) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbor_entries(u)
            .iter()
            .copied()
            .take_while(move |&e| self.entry_sim(u, e).at_least(&params.epsilon))
            .map(|(v, _)| v)
    }

    /// Approximate heap footprint of index plus graph, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.neighbor_order.len() * std::mem::size_of::<(VertexId, u32)>()
            + self.core_order.len() * std::mem::size_of::<(VertexId, u32, u64)>()
            + self.co_offsets.len() * std::mem::size_of::<usize>()
            + self.graph.heap_bytes()
    }

    /// Largest µ the index can answer (the maximum degree).
    pub fn max_mu(&self) -> usize {
        self.co_offsets.len().saturating_sub(2)
    }
}
