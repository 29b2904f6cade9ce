//! Exact intersection counting (no early termination).
//!
//! `CompSim` only needs the similarity *predicate*, but two consumers
//! need the exact count `|N(u) ∩ N(v)|`:
//!
//! * index construction (GS*-Index stores every edge's exact similarity
//!   so any (ε, µ) can be answered later), and
//! * SCAN-XP-style exhaustive baselines.
//!
//! [`count`] dispatches to a block-based all-pairs SIMD counter (the same
//! rotate-and-compare scheme as [`crate::simd_block`], minus the bound
//! bookkeeping) when the CPU supports it, falling back to the scalar
//! merge count.

use crate::counters;
use crate::merge;

/// Exact `|a ∩ b|` for sorted, strictly increasing slices, using the
/// widest SIMD available.
pub fn count(a: &[u32], b: &[u32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::avx512_available() {
            // SAFETY: feature checked; loads are bounds-guarded.
            return unsafe { count_avx512(a, b) };
        }
        if crate::simd::avx2_available() {
            // SAFETY: feature checked; loads are bounds-guarded.
            return unsafe { count_avx2(a, b) };
        }
    }
    merge::count_full(a, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: contract — call only after `is_x86_feature_detected!("avx2")`
// (checked by the dispatching wrapper above).
unsafe fn count_avx2(a: &[u32], b: &[u32]) -> u64 {
    use std::arch::x86_64::*;
    const LANES: usize = 8;
    let rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    let (mut i, mut j, mut cn) = (0usize, 0usize, 0u64);
    while i + LANES <= a.len() && j + LANES <= b.len() {
        // SAFETY: guarded by the loop condition.
        let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const _);
        let vb = _mm256_loadu_si256(b.as_ptr().add(j) as *const _);
        let mut hits = _mm256_cmpeq_epi32(va, vb);
        let mut vb_rot = vb;
        for _ in 1..LANES {
            vb_rot = _mm256_permutevar8x32_epi32(vb_rot, rot1);
            hits = _mm256_or_si256(hits, _mm256_cmpeq_epi32(va, vb_rot));
        }
        cn += (_mm256_movemask_ps(_mm256_castsi256_ps(hits)) as u32).count_ones() as u64;
        // SAFETY: tail indices below the guarded bounds.
        let amax = *a.get_unchecked(i + LANES - 1);
        let bmax = *b.get_unchecked(j + LANES - 1);
        if amax <= bmax {
            i += LANES;
        }
        if bmax <= amax {
            j += LANES;
        }
    }
    counters::record_scanned((i + j) as u64);
    // The final live blocks were never compared all-pairs (each loop
    // iteration retires at least one block), so the scalar tail cannot
    // double-count.
    cn + merge::count_full(&a[i..], &b[j..])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: contract — call only after
// `is_x86_feature_detected!("avx512f")` (checked by the wrapper above).
unsafe fn count_avx512(a: &[u32], b: &[u32]) -> u64 {
    use std::arch::x86_64::*;
    const LANES: usize = 16;
    let rot1 = _mm512_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0);
    let (mut i, mut j, mut cn) = (0usize, 0usize, 0u64);
    while i + LANES <= a.len() && j + LANES <= b.len() {
        // SAFETY: guarded by the loop condition.
        let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
        let vb = _mm512_loadu_si512(b.as_ptr().add(j) as *const _);
        let mut hits: u16 = _mm512_cmpeq_epi32_mask(va, vb);
        let mut vb_rot = vb;
        for _ in 1..LANES {
            vb_rot = _mm512_permutexvar_epi32(rot1, vb_rot);
            hits |= _mm512_cmpeq_epi32_mask(va, vb_rot);
        }
        cn += hits.count_ones() as u64;
        // SAFETY: tail indices below the guarded bounds.
        let amax = *a.get_unchecked(i + LANES - 1);
        let bmax = *b.get_unchecked(j + LANES - 1);
        if amax <= bmax {
            i += LANES;
        }
        if bmax <= amax {
            j += LANES;
        }
    }
    counters::record_scanned((i + j) as u64);
    cn + merge::count_full(&a[i..], &b[j..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_merge_on_grid() {
        for la in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 129] {
            for lb in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 129] {
                let a: Vec<u32> = (0..la as u32).map(|x| x * 3).collect();
                let b: Vec<u32> = (0..lb as u32).map(|x| x * 2).collect();
                assert_eq!(count(&a, &b), merge::count_full(&a, &b), "la={la} lb={lb}");
            }
        }
    }

    #[test]
    fn identical_and_disjoint() {
        let a: Vec<u32> = (0..1000).collect();
        assert_eq!(count(&a, &a), 1000);
        let b: Vec<u32> = (2000..3000).collect();
        assert_eq!(count(&a, &b), 0);
        assert_eq!(count(&[], &a), 0);
    }

    #[test]
    fn random_arrays_match_reference() {
        let mut x = 0xabcdef12345u64;
        let mut next = move |m: u32| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % m as u64) as u32
        };
        for round in 0..50 {
            let la = (next(200) + 1) as usize;
            let lb = (next(200) + 1) as usize;
            let mut a: Vec<u32> = (0..la).map(|_| next(300)).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| next(300)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            assert_eq!(count(&a, &b), merge::count_full(&a, &b), "round {round}");
        }
    }
}
