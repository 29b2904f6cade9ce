//! Randomized differential tests: every kernel must agree with the
//! exhaustive reference (`merge::check_reference`) on arbitrary sorted
//! inputs and thresholds, including the early-termination paths the
//! random inputs exercise from both directions, and the bitmap's exact
//! count and early-terminating check must agree with
//! `merge::count_full` and `merge::check_early`.
//!
//! Formerly `proptest`-based; now driven by a seeded SplitMix64 loop so
//! the crate builds with no external dependencies (the crate is a leaf —
//! it cannot borrow `ppscan_graph::rng` — so the mixer is duplicated
//! here, constants and all; see `ppscan-graph/src/rng.rs` for provenance).

use crate::count::{count_through, Bitmap};
use crate::kernel::Kernel;
use crate::merge;
use crate::similarity::EpsilonThreshold;

struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Sorted, deduplicated vector of ids below 2³¹ with skew toward small
/// values (forcing dense overlaps) and occasional huge gaps (forcing long
/// pivot runs — the SIMD fast path).
fn sorted_ids(rng: &mut Rng, max_len: usize) -> Vec<u32> {
    let len = rng.index(max_len + 1);
    let mut v: Vec<u32> = (0..len)
        .map(|_| match rng.index(3) {
            0 => rng.index(64) as u32,                // dense region: many matches
            1 => rng.index(4096) as u32,              // medium
            _ => rng.index(i32::MAX as usize) as u32, // sparse region: long runs
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn kernels_agree_with_reference() {
    for seed in 0..256u64 {
        let mut rng = Rng(0x15ec_0000 ^ seed);
        let a = sorted_ids(&mut rng, 120);
        let b = sorted_ids(&mut rng, 120);
        let min_cn = rng.index(80) as u64;
        let expected = if min_cn <= 2 {
            crate::Similarity::Sim
        } else {
            merge::check_reference(&a, &b, min_cn)
        };
        for k in Kernel::ALL.into_iter().filter(|k| k.available()) {
            assert_eq!(
                k.check(&a, &b, min_cn),
                expected,
                "kernel {k} seed {seed} a={a:?} b={b:?} min_cn={min_cn}"
            );
        }
    }
}

#[test]
fn kernels_symmetric() {
    for seed in 0..256u64 {
        let mut rng = Rng(0x51ab_0000 ^ seed);
        let a = sorted_ids(&mut rng, 100);
        let b = sorted_ids(&mut rng, 100);
        let min_cn = 3 + rng.index(37) as u64;
        for k in Kernel::ALL.into_iter().filter(|k| k.available()) {
            assert_eq!(
                k.check(&a, &b, min_cn),
                k.check(&b, &a, min_cn),
                "kernel {k} not symmetric at seed {seed}"
            );
        }
    }
}

/// Adversarial input family for the every-threshold differential test:
/// empty, disjoint, fully-overlapping, near-`i32::MAX` ids (pinning the
/// SIMD dead-lane sentinel contract), and a seeded skew grid.
fn adversarial_pairs() -> Vec<(Vec<u32>, Vec<u32>)> {
    let top = i32::MAX as u32;
    let mut pairs: Vec<(Vec<u32>, Vec<u32>)> = vec![
        (vec![], vec![]),
        (vec![], (0..40).collect()),
        (
            (0..33).map(|x| x * 2).collect(),
            (0..33).map(|x| x * 2 + 1).collect(),
        ),
        ((0..50).collect(), (0..50).collect()),
        (
            (0..17).map(|k| top - 16 + k).collect(),
            (0..17).map(|k| top - 16 + k).collect(),
        ),
        (
            (0..40).map(|k| top - 2 * (39 - k)).collect(),
            (0..40).map(|k| top - 3 * (39 - k)).collect(),
        ),
        (vec![0], vec![0]),
        (vec![0, top], vec![0, top]),
    ];
    // Seeded skew grid: short lists against 1×/8×/64× longer ones.
    for seed in 0..24u64 {
        let mut rng = Rng(0xfe51a ^ (seed << 8));
        let short = sorted_ids(&mut rng, 24);
        for skew in [1usize, 8, 64] {
            let long = sorted_ids(&mut rng, 24 * skew);
            pairs.push((short.clone(), long));
        }
    }
    pairs
}

#[test]
fn new_kernels_agree_with_merge_oracle_at_every_min_cn() {
    for (a, b) in adversarial_pairs() {
        // Early-termination equivalence at *every* reachable min_cn.
        for min_cn in 0..=(a.len() + b.len() + 3) as u64 {
            let expected = if min_cn <= 2 {
                crate::Similarity::Sim
            } else {
                merge::check_reference(&a, &b, min_cn)
            };
            for k in Kernel::ALL.into_iter().filter(|k| k.available()) {
                assert_eq!(
                    k.check(&a, &b, min_cn),
                    expected,
                    "kernel {k} |a|={} |b|={} min_cn={min_cn}",
                    a.len(),
                    b.len()
                );
            }
        }
    }
}

#[test]
fn bitmap_count_agrees_with_merge_on_adversarial_pairs() {
    // One bitmap over every id the pairs use (up to i32::MAX: 256 MiB of
    // address space, of which only the marked words are ever written).
    let mut pairs = adversarial_pairs();
    // Ids at word edges, next to the last id of the bitmap.
    let top = i32::MAX as u32;
    let edges = vec![0, 63, 64, 127, 128, top];
    pairs.push((edges.clone(), edges.clone()));
    pairs.push((edges.clone(), (0..200).chain([top - 1, top]).collect()));
    pairs.push((vec![62, 65, 126, 129, top - 1], edges));
    let n = pairs
        .iter()
        .flat_map(|(a, b)| a.iter().chain(b))
        .max()
        .map_or(0, |&x| x as usize + 1);
    let mut bits = Bitmap::new(n);
    for (a, b) in &pairs {
        let expect = merge::count_full(a, b);
        assert_eq!(count_through(&mut bits, a, b), expect, "a={a:?} b={b:?}");
        assert_eq!(count_through(&mut bits, b, a), expect, "a={a:?} b={b:?}");
    }
    assert!(bits.is_clear(), "unmark left bits behind");
}

#[test]
fn bitmap_check_agrees_with_merge_check_early() {
    use crate::counters::CounterScope;
    // The adversarial family plus list lengths on both sides of the
    // probe's chunk width.
    let lengths = [0usize, 1, 15, 16, 17, 31, 33, 64, 129];
    let mut pairs = adversarial_pairs();
    for la in lengths {
        for lb in lengths {
            pairs.push((
                (0..la as u32).map(|x| x * 3).collect(),
                (0..lb as u32).map(|x| x * 2).collect(),
            ));
        }
    }
    let n = pairs
        .iter()
        .flat_map(|(a, b)| a.iter().chain(b))
        .max()
        .map_or(0, |&x| x as usize + 1);
    let mut bits = Bitmap::new(n);
    let scope = CounterScope::new();
    for (a, b) in &pairs {
        for (marked, ids) in [(a, b), (b, a)] {
            bits.mark(marked);
            let mut thresholds = vec![0u64, 1, 2, 3, 1000];
            for len in [ids.len(), marked.len()] {
                thresholds.extend([len as u64 + 1, len as u64 + 2, len as u64 + 3]);
            }
            for min_cn in thresholds {
                let expect = merge::check_early(marked, ids, min_cn);
                let (d, got) = scope.measure(|| bits.check(ids, min_cn));
                let at = format!(
                    "|marked|={} |ids|={} min_cn={min_cn}",
                    marked.len(),
                    ids.len()
                );
                assert_eq!(got, expect, "{at}");
                assert_eq!(d.compsim_invocations, 1, "{at}");
                assert!(d.elements_scanned <= ids.len() as u64, "{at}");
            }
            bits.unmark(marked);
            assert!(bits.is_clear(), "unmark left bits behind");
        }
    }
}

#[test]
fn bitmap_reuse_over_many_vertices_leaves_no_marks() {
    // The index build's access pattern: one bitmap per task, each vertex
    // marks its list, counts several others against it and unmarks.
    let n = 5_000;
    let mut rng = Rng(0xb17_0000);
    let lists: Vec<Vec<u32>> = (0..300)
        .map(|_| {
            let mut v: Vec<u32> = (0..rng.index(120))
                .map(|_| match rng.index(2) {
                    0 => rng.index(256) as u32,
                    _ => rng.index(n) as u32,
                })
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let mut bits = Bitmap::new(n);
    for (i, a) in lists.iter().enumerate() {
        bits.mark(a);
        for _ in 0..8 {
            let b = &lists[rng.index(lists.len())];
            assert_eq!(bits.count(b), merge::count_full(a, b), "list {i}");
        }
        bits.unmark(a);
    }
    assert!(bits.is_clear(), "unmark left bits behind");
}

#[test]
fn min_cn_is_exact_threshold() {
    for seed in 0..256u64 {
        let mut rng = Rng(0x3d0c_0000 ^ seed);
        let eps_permille = 1 + rng.index(1000) as u64;
        let d_u = rng.index(200);
        let d_v = rng.index(200);
        let t = EpsilonThreshold::from_ratio(eps_permille, 1000);
        let k = t.min_cn(d_u, d_v);
        let prod = (eps_permille as u128).pow(2) * (d_u as u128 + 1) * (d_v as u128 + 1);
        // k is the threshold: k²·10⁶ ≥ ε²-numerator·prod …
        assert!((k as u128 * k as u128) * 1_000_000 >= prod, "seed {seed}");
        // … and k-1 is below it.
        if k > 0 {
            let km1 = (k - 1) as u128;
            assert!(km1 * km1 * 1_000_000 < prod, "seed {seed}");
        }
    }
}

/// The degree thresholds give `prune_by_degree`'s label for every pair
/// of degrees up to 4096, at ε from `new`, from exact ratios and at 1.
#[test]
fn degree_bounds_match_prune_by_degree() {
    let thresholds = [
        EpsilonThreshold::new(0.2),
        EpsilonThreshold::new(0.4),
        EpsilonThreshold::new(0.6),
        EpsilonThreshold::new(1.0),
        EpsilonThreshold::from_ratio(1, 3),
        EpsilonThreshold::from_ratio(7, 10),
        EpsilonThreshold::from_ratio(999, 1000),
        EpsilonThreshold::from_ratio(1, 10_000),
    ];
    for t in thresholds {
        for d_u in 0..=4096 {
            let bounds = t.degree_bounds(d_u);
            for d_v in 0..=4096 {
                assert_eq!(
                    bounds.label(d_v),
                    t.prune_by_degree(d_u, d_v),
                    "{t:?}, d_u {d_u}, d_v {d_v}: {bounds:?}"
                );
            }
        }
    }
}

#[test]
fn prune_by_degree_never_contradicts_full_computation() {
    for seed in 0..256u64 {
        let mut rng = Rng(0xd269_0000 ^ seed);
        let a = sorted_ids(&mut rng, 60);
        let b = sorted_ids(&mut rng, 60);
        let eps_permille = 1 + rng.index(1000) as u64;
        let t = EpsilonThreshold::from_ratio(eps_permille, 1000);
        let (d_u, d_v) = (a.len(), b.len());
        let min_cn = t.min_cn(d_u, d_v);
        let full = merge::count_full(&a, &b) + 2;
        match t.prune_by_degree(d_u, d_v) {
            crate::Similarity::Sim => assert!(full >= min_cn, "seed {seed}"),
            // Degree pruning may only claim NSim when even full overlap
            // cannot reach the threshold.
            crate::Similarity::NSim => assert!(full < min_cn, "seed {seed}"),
            crate::Similarity::Unknown => {}
        }
    }
}
