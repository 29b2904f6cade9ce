//! # ppscan-core
//!
//! Structural graph clustering algorithms: the paper's parallel **ppSCAN**
//! contribution and every baseline its evaluation compares against.
//!
//! | Algorithm | Paper | Entry point |
//! |---|---|---|
//! | SCAN (BFS expansion, exhaustive similarities) | Xu et al., KDD'07; Algorithm 1 | [`scan::scan`] |
//! | pSCAN (min-max pruning, similarity reuse, union-find) | Chang et al., ICDE'16; Algorithm 2 | [`pscan::pscan`] |
//! | **ppSCAN** (multi-phase lock-free parallel) | this paper; Algorithms 3–5 | [`ppscan::ppscan`] |
//! | SCAN-XP style (exhaustive parallel, no pruning) | Takahashi et al., NDA'17 | [`scanxp::scanxp`] |
//! | anySCAN style (block-parallel, allocation-heavy) | Mai et al., ICDE'17 | [`anyscan::anyscan`] |
//! | SCAN++ style (pivot + DTAR batches) | Shiokawa et al., VLDB'15 | [`scanpp::scanpp`] |
//!
//! All algorithms consume a [`ppscan_graph::CsrGraph`] and
//! [`params::ScanParams`], and produce the same canonical
//! [`result::Clustering`], so they are directly differential-testable —
//! `verify::check_clustering` additionally validates any result against
//! the SCAN definitions (2.1–2.10) from first principles.
//!
//! ```
//! use ppscan_core::prelude::*;
//! use ppscan_graph::gen;
//!
//! let g = gen::scan_paper_example();
//! let params = ScanParams::new(0.7, 2);
//!
//! // Sequential baseline and the parallel contribution agree:
//! let seq = pscan::pscan(&g, params).clustering;
//! let par = ppscan::ppscan(&g, params, &PpScanConfig::with_threads(2)).clustering;
//! assert_eq!(seq, par);
//! assert_eq!(seq.num_clusters(), 2);
//! ```

pub mod anyscan;
pub mod params;
pub mod ppscan;
pub mod pscan;
pub mod race_fixtures;
pub mod report;
pub mod result;
pub mod scan;
pub mod scanpp;
pub mod scanxp;
pub mod simstore;
pub mod stress;
pub mod timing;
pub mod verify;

/// Convenient glob import for the public API.
pub mod prelude {
    pub use crate::params::ScanParams;
    pub use crate::ppscan::{self, PpScanConfig};
    pub use crate::pscan;
    pub use crate::report;
    pub use crate::result::{Clustering, Role, UnclusteredClass};
    pub use crate::scan;
    pub use crate::scanxp;
    pub use crate::verify;
    pub use ppscan_intersect::Kernel;
    pub use ppscan_obs::{FigureReport, RunReport};
}

#[cfg(test)]
mod differential_tests;
