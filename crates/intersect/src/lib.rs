//! # ppscan-intersect
//!
//! Set-intersection kernels for structural-similarity computation
//! (`CompSim(u, v)` in the paper), including the paper's contribution:
//! the **pivot-based vectorized set intersection with early termination**
//! (Algorithm 6), in AVX-512, AVX2 and scalar flavours, next to the
//! merge-based kernel pSCAN uses and a galloping kernel for comparison.
//!
//! All similarity kernels share one contract (see [`kernel::Kernel`]):
//! given the two *sorted neighbor arrays* `N(u)` and `N(v)` of an
//! **adjacent** pair and the integer threshold
//! `min_cn = ⌈ε·√((d[u]+1)(d[v]+1))⌉` (Definition 2.2, computed exactly by
//! [`similarity::EpsilonThreshold`]), decide whether
//! `|Γ(u) ∩ Γ(v)| = |N(u) ∩ N(v)| + 2 ≥ min_cn`, terminating early via
//! the intersection-count bounds `du`, `dv`, `cn` of Definition 3.9.
//!
//! The `+ 2` accounts for `u` and `v` themselves: since `(u, v) ∈ E`,
//! `u ∈ Γ(u) ∩ Γ(v)` and `v ∈ Γ(u) ∩ Γ(v)`, while neither appears in the
//! array intersection (no self loops). The bounds start at `cn = 2`,
//! `du = d[u] + 2`, `dv = d[v] + 2` exactly as in the paper.
//!
//! ```
//! use ppscan_intersect::kernel::Kernel;
//! use ppscan_intersect::similarity::{EpsilonThreshold, Similarity};
//!
//! // Two adjacent vertices, each with 3 neighbors, sharing 2 of them.
//! let nu = [1, 5, 9];
//! let nv = [3, 5, 9];
//! let eps = EpsilonThreshold::new(0.5);
//! let min_cn = eps.min_cn(3, 3); // ⌈0.5 · √(4·4)⌉ = 2
//! assert_eq!(min_cn, 2);
//! let sim = Kernel::MergeEarly.check(&nu, &nv, min_cn);
//! assert_eq!(sim, Similarity::Sim); // cn = 2 + 2 = 4 ≥ 2
//! ```

pub mod count;
pub mod counters;
pub mod galloping;
pub mod kernel;
pub mod merge;
pub mod pivot;
pub mod simd;
pub mod simd_block;
pub mod similarity;

pub use kernel::Kernel;
pub use similarity::{DegreeBounds, EpsilonThreshold, Similarity};

#[cfg(test)]
mod proptests;
