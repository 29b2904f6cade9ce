//! A self-contained index that owns its graph, for long-lived serving.
//!
//! [`GsIndex`] borrows its [`CsrGraph`], which is the right shape for
//! the bench harnesses (graph outlives index on the stack) but not for
//! a server that rebuilds indexes and swaps them atomically: a snapshot
//! must be one droppable unit. [`OwnedGsIndex`] bundles an
//! `Arc<CsrGraph>` with the index built over it.

use crate::GsIndex;
use ppscan_core::params::ScanParams;
use ppscan_core::result::Clustering;
use ppscan_graph::CsrGraph;
use std::sync::Arc;

/// A [`GsIndex`] together with the graph it indexes, as one owned unit.
///
/// Internally the index borrows the graph through an `Arc` held in the
/// same struct. The `'static` lifetime this requires never escapes:
/// every accessor re-borrows at `&self`'s lifetime (sound because
/// `GsIndex<'g>` is covariant in `'g`), and the fields are private.
pub struct OwnedGsIndex {
    /// Declared before `graph` so it can never observe a dropped graph
    /// (fields drop in declaration order). `GsIndex` has no `Drop` impl
    /// of its own, so this ordering is belt and braces.
    index: GsIndex<'static>,
    graph: Arc<CsrGraph>,
}

impl OwnedGsIndex {
    /// Builds the index over `graph` with `threads` workers, taking
    /// shared ownership of the graph.
    pub fn build(graph: Arc<CsrGraph>, threads: usize) -> OwnedGsIndex {
        // SAFETY: the reference is only valid while the Arc keeps the
        // graph alive. The Arc lives in the same struct, is never
        // replaced, and the pointee is behind a stable heap allocation
        // that `Arc` never moves; all public APIs narrow the lifetime
        // back to `&self`, so the `'static` is an unobservable
        // implementation detail.
        let g: &'static CsrGraph = unsafe { &*Arc::as_ptr(&graph) };
        OwnedGsIndex {
            index: GsIndex::build(g, threads),
            graph,
        }
    }

    /// Assembles an owned index from an already-built `GsIndex` whose
    /// graph borrow is backed by `graph` (the incremental update path).
    pub(crate) fn from_parts(index: GsIndex<'static>, graph: Arc<CsrGraph>) -> OwnedGsIndex {
        OwnedGsIndex { index, graph }
    }

    /// The wrapped index, borrowed at `self`'s lifetime.
    pub fn index(&self) -> &GsIndex<'_> {
        &self.index
    }

    /// The indexed graph.
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// Answers a `(ε, µ)` query (see [`GsIndex::query`]).
    pub fn query(&self, params: ScanParams) -> Clustering {
        self.index.query(params)
    }

    /// Largest µ the index can answer (see [`GsIndex::max_mu`]).
    pub fn max_mu(&self) -> usize {
        self.index.max_mu()
    }

    /// Approximate heap footprint of index plus graph, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.index.heap_bytes() + self.graph.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppscan_core::pscan::pscan;
    use ppscan_graph::gen;

    #[test]
    fn owned_index_answers_like_borrowed() {
        let g = Arc::new(gen::planted_partition(3, 14, 0.6, 0.04, 9));
        let owned = OwnedGsIndex::build(Arc::clone(&g), 2);
        let borrowed = GsIndex::build(&g, 2);
        for mu in [1usize, 2, 4] {
            let p = ScanParams::new(0.5, mu);
            assert_eq!(owned.query(p), borrowed.query(p));
            assert_eq!(owned.query(p), pscan(&g, p).clustering);
        }
        assert_eq!(owned.max_mu(), borrowed.max_mu());
        assert!(owned.heap_bytes() > borrowed.heap_bytes());
    }

    #[test]
    fn owned_index_outlives_external_graph_handles() {
        let owned = {
            let g = Arc::new(gen::clique_chain(4, 2));
            OwnedGsIndex::build(g, 1)
        }; // the only external Arc handle is gone
        let p = ScanParams::new(0.5, 2);
        let c = owned.query(p);
        assert_eq!(c, pscan(owned.graph(), p).clustering);
        assert!(c.num_cores() > 0);
    }
}
