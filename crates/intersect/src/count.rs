//! Intersection against a bitmap of one endpoint's neighbors.
//!
//! Three consumers intersect many lists against the same one: the exact
//! count `|N(u) ∩ N(v)|` of GS*-Index construction and repair (the index
//! stores every edge's exact similarity so any (ε, µ) can be answered
//! later) and of the triangle count of `ppscan_graph::analysis`, and the
//! early-terminating `CompSim` predicate of ppSCAN's core checking. In
//! each, every edge of `u` that `u` is responsible for intersects `N(u)`
//! with another list. So the primitive is a [`Bitmap`] over vertex ids:
//! [`mark`](Bitmap::mark) `N(u)` once, [`count`](Bitmap::count) or
//! [`check`](Bitmap::check) each other list against it in `O(|N(v)|)`,
//! and [`unmark`](Bitmap::unmark) `N(u)` before the next vertex.
//! Working from the endpoint with the longer list costs
//! `min(d[u], d[v])` per edge, where a pairwise merge costs
//! `d[u] + d[v]`. [`crate::merge::count_full`] and
//! [`crate::merge::check_early`] are the scalar pairwise references.

use crate::counters;
use crate::similarity::Similarity;

/// Ids [`Bitmap::check`] probes between two tests of its exits. A
/// constant, not a setting: large enough to keep the bound tests off the
/// per-id path, small enough that an exit overshoots by few probes.
const CHECK_CHUNK: usize = 16;

/// A set of ids in `0..n`, one bit each, holding at most one marked list
/// at a time.
///
/// Ids must be below `n`; the bitmap holds whole 64-bit words, and an id
/// past its last word panics. [`unmark`](Self::unmark) clears only the
/// bits of the list it is given, so marking, counting and unmarking a
/// list leaves the bitmap as it found it.
#[derive(Debug)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// An empty bitmap over `0..n`: `n` bits, zeroed.
    pub fn new(n: usize) -> Bitmap {
        Bitmap {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Marks every id of `ids`.
    #[inline]
    pub fn mark(&mut self, ids: &[u32]) {
        for &x in ids {
            self.words[x as usize >> 6] |= 1 << (x & 63);
        }
    }

    /// How many ids of `ids` are marked: `|marked ∩ ids|` when `ids` is
    /// duplicate free.
    #[inline]
    pub fn count(&self, ids: &[u32]) -> u64 {
        counters::record_scanned(ids.len() as u64);
        ids.iter()
            .map(|&x| (self.words[x as usize >> 6] >> (x & 63)) & 1)
            .sum()
    }

    /// `CompSim` of the adjacent pair whose first list is marked and
    /// whose second is `ids`: whether `|marked ∩ ids| + 2 ≥ min_cn`,
    /// deciding as early as the bounds allow. Same contract as
    /// [`crate::merge::check_early`] with `a` the marked list, except
    /// that only `|ids|` bounds the count: `cn` starts at 2 and its upper
    /// bound at `|ids| + 2`. The bounds are tested after every
    /// [`CHECK_CHUNK`] probes, so every exit is exact. Records one
    /// invocation and the probed count in one thread-local access.
    #[inline]
    pub fn check(&self, ids: &[u32], min_cn: u64) -> Similarity {
        let mut cn = 2u64;
        let mut upper = ids.len() as u64 + 2;
        let mut probed = 0usize;
        if cn < min_cn && upper >= min_cn {
            for chunk in ids.chunks(CHECK_CHUNK) {
                let hits: u64 = chunk
                    .iter()
                    .map(|&x| (self.words[x as usize >> 6] >> (x & 63)) & 1)
                    .sum();
                probed += chunk.len();
                cn += hits;
                upper -= chunk.len() as u64 - hits;
                if cn >= min_cn || upper < min_cn {
                    break;
                }
            }
        }
        counters::record_invocation_scanned(probed as u64);
        // Once every id is probed `cn == upper`, so the loop always
        // leaves one of the two bounds decided.
        if cn >= min_cn {
            Similarity::Sim
        } else {
            Similarity::NSim
        }
    }

    /// Clears every id of `ids`.
    #[inline]
    pub fn unmark(&mut self, ids: &[u32]) {
        for &x in ids {
            self.words[x as usize >> 6] &= !(1 << (x & 63));
        }
    }

    /// Whether no id is marked: what a borrower hands back. O(n / 64).
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// `|a ∩ b|` through `bits`: mark `a`, count `b`, unmark `a`.
#[cfg(test)]
pub(crate) fn count_through(bits: &mut Bitmap, a: &[u32], b: &[u32]) -> u64 {
    bits.mark(a);
    let c = bits.count(b);
    bits.unmark(a);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge;

    /// [`count_through`], checking that the bitmap is clear afterwards.
    fn bitmap_count(bits: &mut Bitmap, a: &[u32], b: &[u32]) -> u64 {
        let c = count_through(bits, a, b);
        assert!(bits.is_clear(), "unmark left bits behind");
        c
    }

    #[test]
    fn matches_merge_on_grid() {
        let mut bits = Bitmap::new(3 * 129);
        for la in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 129] {
            for lb in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 129] {
                let a: Vec<u32> = (0..la as u32).map(|x| x * 3).collect();
                let b: Vec<u32> = (0..lb as u32).map(|x| x * 2).collect();
                let expect = merge::count_full(&a, &b);
                assert_eq!(bitmap_count(&mut bits, &a, &b), expect, "la={la} lb={lb}");
                assert_eq!(bitmap_count(&mut bits, &b, &a), expect, "la={la} lb={lb}");
            }
        }
    }

    #[test]
    fn identical_and_disjoint() {
        let mut bits = Bitmap::new(3000);
        let a: Vec<u32> = (0..1000).collect();
        assert_eq!(bitmap_count(&mut bits, &a, &a), 1000);
        let b: Vec<u32> = (2000..3000).collect();
        assert_eq!(bitmap_count(&mut bits, &a, &b), 0);
        assert_eq!(bitmap_count(&mut bits, &[], &a), 0);
        assert_eq!(bitmap_count(&mut bits, &a, &[]), 0);
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
        let mut bits = Bitmap::new(300);
        for round in 0..50 {
            let la = (next(200) + 1) as usize;
            let lb = (next(200) + 1) as usize;
            let mut a: Vec<u32> = (0..la).map(|_| next(300)).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| next(300)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            assert_eq!(
                bitmap_count(&mut bits, &a, &b),
                merge::count_full(&a, &b),
                "round {round}"
            );
        }
    }

    #[test]
    fn word_edges_are_exact() {
        // Ids at the first and last bit of each word, and the last id of
        // a bitmap whose length is not a multiple of 64.
        for n in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            let mut bits = Bitmap::new(n);
            let edges: Vec<u32> = [0u32, 63, 64, 127, 128, n as u32 - 1]
                .into_iter()
                .filter(|&x| (x as usize) < n)
                .collect::<std::collections::BTreeSet<u32>>()
                .into_iter()
                .collect();
            let all: Vec<u32> = (0..n as u32).collect();
            assert_eq!(bitmap_count(&mut bits, &edges, &all), edges.len() as u64);
            assert_eq!(bitmap_count(&mut bits, &all, &edges), edges.len() as u64);
            for &x in &edges {
                let neighbors: Vec<u32> = [x.wrapping_sub(1), x + 1]
                    .into_iter()
                    .filter(|&y| (y as usize) < n)
                    .collect();
                bits.mark(&[x]);
                assert_eq!(bits.count(&[x]), 1, "n={n} id={x}");
                assert_eq!(bits.count(&neighbors), 0, "n={n} id={x} leaks");
                bits.unmark(&[x]);
                assert!(bits.is_clear(), "n={n} id={x}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn ids_past_the_last_word_panic() {
        Bitmap::new(64).mark(&[64]);
    }
}
