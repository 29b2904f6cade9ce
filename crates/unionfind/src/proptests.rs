//! Randomized property tests: both union-find variants must produce
//! identical partitions for identical union sequences, sequentially and
//! under thread interleavings. Driven by seeded
//! `ppscan_graph::rng::SplitMix64` streams (a dev-dependency only).

use crate::{ConcurrentUnionFind, UnionFind};
use ppscan_graph::rng::SplitMix64;

fn pairs(rng: &mut SplitMix64, n: u32, max_ops: usize) -> Vec<(u32, u32)> {
    let len = rng.gen_index(max_ops + 1);
    (0..len)
        .map(|_| {
            (
                rng.gen_index(n as usize) as u32,
                rng.gen_index(n as usize) as u32,
            )
        })
        .collect()
}

#[test]
fn concurrent_matches_sequential_single_thread() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0x0f1d_0000 ^ seed);
        let ops = pairs(&mut rng, 64, 200);
        let mut seq = UnionFind::new(64);
        let conc: ConcurrentUnionFind = ConcurrentUnionFind::new(64);
        for &(u, v) in &ops {
            let a = seq.union(u, v);
            let b = conc.union(u, v);
            assert_eq!(a, b, "union({u}, {v}) disagreed at seed {seed}");
            assert!(seq.is_same_set(u, v));
            assert!(conc.is_same_set(u, v));
        }
        assert_eq!(
            seq.canonical_labels(),
            conc.canonical_labels(),
            "seed {seed}"
        );
        assert_eq!(seq.num_sets(), conc.num_sets(), "seed {seed}");
    }
}

#[test]
fn concurrent_matches_sequential_two_threads() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0x2f2d_0000 ^ seed);
        let ops = pairs(&mut rng, 48, 300);
        let conc: ConcurrentUnionFind = ConcurrentUnionFind::new(48);
        let mid = ops.len() / 2;
        std::thread::scope(|s| {
            let (left, right) = ops.split_at(mid);
            let conc_ref = &conc;
            s.spawn(move || {
                for &(u, v) in left {
                    conc_ref.union(u, v);
                }
            });
            for &(u, v) in right {
                conc.union(u, v);
            }
        });
        let mut seq = UnionFind::new(48);
        for &(u, v) in &ops {
            seq.union(u, v);
        }
        assert_eq!(
            conc.canonical_labels(),
            seq.canonical_labels(),
            "seed {seed}"
        );
    }
}

#[test]
fn canonical_labels_invariant_under_argument_order_and_thread_count() {
    // The partition a union sequence produces is a function of the *set*
    // of merged pairs only: `canonical_labels()` must be invariant under
    // swapping each union's arguments and under how the sequence is
    // split across threads. (ppscan-check proves the 2-thread version
    // exhaustively on a bounded scenario — `union-race-2t` — while this
    // sweeps larger random instances.)
    for seed in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(0x4a5b_0000 ^ seed);
        let ops = pairs(&mut rng, 40, 250);

        // Reference: sequential, original argument order.
        let mut seq = UnionFind::new(40);
        for &(u, v) in &ops {
            seq.union(u, v);
        }
        let expect = seq.canonical_labels();

        // Swapping every pair's arguments must not change the partition.
        let mut swapped = UnionFind::new(40);
        for &(u, v) in &ops {
            swapped.union(v, u);
        }
        assert_eq!(
            swapped.canonical_labels(),
            expect,
            "seed {seed}: argument order"
        );

        // Nor must the thread count executing the same multiset of
        // unions, with alternating per-pair argument swaps thrown in.
        for threads in [1usize, 2, 4] {
            let conc: ConcurrentUnionFind = ConcurrentUnionFind::new(40);
            std::thread::scope(|s| {
                for chunk in ops.chunks(ops.len() / threads + 1) {
                    let conc = &conc;
                    s.spawn(move || {
                        for (i, &(u, v)) in chunk.iter().enumerate() {
                            if i % 2 == 0 {
                                conc.union(u, v);
                            } else {
                                conc.union(v, u);
                            }
                        }
                    });
                }
            });
            assert_eq!(
                conc.canonical_labels(),
                expect,
                "seed {seed} threads {threads}"
            );
        }
    }
}

#[test]
fn same_set_is_an_equivalence() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0x3e3e_0000 ^ seed);
        let ops = pairs(&mut rng, 32, 100);
        let conc: ConcurrentUnionFind = ConcurrentUnionFind::new(32);
        for &(u, v) in &ops {
            conc.union(u, v);
        }
        let (a, b, c) = (
            rng.gen_index(32) as u32,
            rng.gen_index(32) as u32,
            rng.gen_index(32) as u32,
        );
        // Reflexive, symmetric, transitive.
        assert!(conc.is_same_set(a, a));
        assert_eq!(conc.is_same_set(a, b), conc.is_same_set(b, a));
        if conc.is_same_set(a, b) && conc.is_same_set(b, c) {
            assert!(conc.is_same_set(a, c), "seed {seed}");
        }
    }
}
