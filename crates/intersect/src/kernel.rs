//! Kernel selection and dispatch.
//!
//! Every SCAN-family algorithm in `ppscan-core` is parameterised by a
//! [`Kernel`], so the harness can reproduce the paper's ppSCAN vs
//! ppSCAN-NO comparison (Figure 5: vectorized vs non-vectorized core
//! checking) and the AVX2-vs-AVX-512 platform contrast (Figures 2/3/5)
//! by switching this one enum.

use crate::similarity::Similarity;
use crate::{galloping, merge, pivot, simd, simd_block};

/// A `CompSim` set-intersection strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Merge-based with early termination — what sequential pSCAN uses,
    /// and the paper's "ppSCAN-NO" (no vectorization) configuration.
    MergeEarly,
    /// Scalar pivot-based with early termination (Algorithm 6 without the
    /// vector instructions).
    PivotScalar,
    /// Pivot-based AVX2 (8 lanes) — the paper's CPU-server platform.
    PivotAvx2,
    /// Pivot-based AVX-512 (16 lanes) — the paper's KNL platform.
    PivotAvx512,
    /// Galloping with early termination (related-work comparison only).
    Galloping,
    /// Block-based all-pairs AVX2 (extension; see [`crate::simd_block`]) —
    /// the out-of-order-CPU-friendly vectorization.
    BlockAvx2,
    /// Block-based all-pairs AVX-512 (extension).
    BlockAvx512,
    /// ppSCAN's default (extension): every pairwise `CompSim` runs
    /// [`Kernel::auto`]'s kernel. ppSCAN also reads this kernel as the
    /// choice of its rank schedule, whose core checking probes
    /// [`crate::count::Bitmap::check`] instead.
    Adaptive,
}

impl Kernel {
    /// All kernels, for exhaustive differential testing.
    pub const ALL: [Kernel; 8] = [
        Kernel::MergeEarly,
        Kernel::PivotScalar,
        Kernel::PivotAvx2,
        Kernel::PivotAvx512,
        Kernel::Galloping,
        Kernel::BlockAvx2,
        Kernel::BlockAvx512,
        Kernel::Adaptive,
    ];

    /// The fastest vectorized kernel this CPU supports, falling back to
    /// the scalar pivot kernel. Prefers the block kernels: on out-of-order
    /// x86 they dominate the paper's pivot kernels on dense inputs while
    /// matching them on skewed ones (see `benches/intersect.rs`).
    pub fn auto() -> Kernel {
        if simd::avx512_available() {
            Kernel::BlockAvx512
        } else if simd::avx2_available() {
            Kernel::BlockAvx2
        } else {
            Kernel::PivotScalar
        }
    }

    /// Whether this kernel can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Kernel::PivotAvx2 | Kernel::BlockAvx2 => simd::avx2_available(),
            Kernel::PivotAvx512 | Kernel::BlockAvx512 => simd::avx512_available(),
            _ => true,
        }
    }

    /// Harness display name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::MergeEarly => "merge",
            Kernel::PivotScalar => "pivot-scalar",
            Kernel::PivotAvx2 => "pivot-avx2",
            Kernel::PivotAvx512 => "pivot-avx512",
            Kernel::Galloping => "galloping",
            Kernel::BlockAvx2 => "block-avx2",
            Kernel::BlockAvx512 => "block-avx512",
            Kernel::Adaptive => "adaptive",
        }
    }

    /// Parses a kernel name as printed by [`Kernel::name`].
    pub fn parse(s: &str) -> Option<Kernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "merge" => Some(Kernel::MergeEarly),
            "pivot-scalar" | "scalar" => Some(Kernel::PivotScalar),
            "pivot-avx2" | "avx2" => Some(Kernel::PivotAvx2),
            "pivot-avx512" | "avx512" => Some(Kernel::PivotAvx512),
            "galloping" => Some(Kernel::Galloping),
            "block-avx2" => Some(Kernel::BlockAvx2),
            "block-avx512" => Some(Kernel::BlockAvx512),
            "adaptive" => Some(Kernel::Adaptive),
            _ => None,
        }
    }

    /// Evaluates `CompSim(u, v)` over the sorted neighbor arrays
    /// `a = N(u)`, `b = N(v)` against the threshold `min_cn`
    /// (see the crate docs for the exact contract).
    #[inline]
    pub fn check(self, a: &[u32], b: &[u32], min_cn: u64) -> Similarity {
        debug_assert!(
            a.last().is_none_or(|&x| x <= i32::MAX as u32)
                && b.last().is_none_or(|&x| x <= i32::MAX as u32),
            "vertex ids must fit in i32 for the SIMD comparisons"
        );
        match self {
            Kernel::MergeEarly => merge::check_early(a, b, min_cn),
            Kernel::PivotScalar => pivot::check_early(a, b, min_cn),
            Kernel::PivotAvx2 => simd::avx2::check_early(a, b, min_cn),
            Kernel::PivotAvx512 => simd::avx512::check_early(a, b, min_cn),
            Kernel::Galloping => galloping::check_early(a, b, min_cn),
            Kernel::BlockAvx2 => simd_block::avx2::check_early(a, b, min_cn),
            Kernel::BlockAvx512 => simd_block::avx512::check_early(a, b, min_cn),
            Kernel::Adaptive => Kernel::auto().check(a, b, min_cn),
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_is_available() {
        assert!(Kernel::auto().available());
        assert!(Kernel::MergeEarly.available());
    }

    #[test]
    fn names_roundtrip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(Kernel::parse("avx512"), Some(Kernel::PivotAvx512));
        assert_eq!(Kernel::parse("bogus"), None);
        for retired in ["fesia", "hash", "shuffling", "shuffle", "autotuned"] {
            assert_eq!(Kernel::parse(retired), None, "{retired}");
        }
    }

    #[test]
    fn names_are_pinned() {
        // CLI `--kernel` values and report `config` identity depend on
        // these exact strings; adding a variant must extend this list.
        let names: Vec<&str> = Kernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "merge",
                "pivot-scalar",
                "pivot-avx2",
                "pivot-avx512",
                "galloping",
                "block-avx2",
                "block-avx512",
                "adaptive",
            ]
        );
    }

    #[test]
    fn all_available_kernels_agree() {
        let a: Vec<u32> = (0..50).map(|x| x * 3).collect();
        let b: Vec<u32> = (0..80).map(|x| x * 2).collect();
        let expected = merge::check_reference(&a, &b, 7);
        for k in Kernel::ALL.into_iter().filter(|k| k.available()) {
            assert_eq!(k.check(&a, &b, 7), expected, "kernel {k}");
        }
    }
}
