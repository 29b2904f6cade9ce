//! # ppscan-graph
//!
//! Graph substrate for the ppSCAN reproduction: a compressed-sparse-row
//! (CSR) representation with sorted neighbor lists (Definition 2.11 of the
//! paper), an edge-list builder, text/binary I/O, synthetic graph
//! generators (including a ROLL-style scale-free generator used by the
//! paper's Table 2 / Figure 8 experiments), and degree statistics.
//!
//! All SCAN-family algorithms in this workspace consume [`CsrGraph`],
//! which guarantees the invariants the kernels rely on:
//!
//! * the graph is undirected: edge `(u, v)` is stored in both `u`'s and
//!   `v`'s neighbor list,
//! * neighbor lists are strictly increasing (sorted, no duplicates),
//! * there are no self loops.
//!
//! # Quick start
//!
//! ```
//! use ppscan_graph::{CsrGraph, GraphBuilder};
//!
//! let g = GraphBuilder::new()
//!     .add_edge(0, 1)
//!     .add_edge(1, 2)
//!     .add_edge(0, 2)
//!     .build();
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.num_directed_edges(), 6);
//! assert_eq!(g.neighbors(0), &[1, 2]);
//! ```

pub mod analysis;
pub mod builder;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod gen;
pub mod io;
pub mod rng;
pub mod stats;

#[cfg(test)]
mod proptests;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, VertexId};
pub use delta::{AppliedDelta, DeltaError, GraphDelta};
pub use stats::GraphStats;
