//! The checked scenarios: small bounded workloads over the *real*
//! protocol code (`ConcurrentUnionFind` / `SimStore` instantiated on the
//! model substrates), each with a quiescent correctness check evaluated
//! on every explored schedule.
//!
//! The catalog covers the interleavings the paper argues about
//! informally:
//!
//! * union races on a shared root and 3-thread union chains (§6's
//!   wait-free union-find; at most one `true` per merge, deterministic
//!   final partition, min-id roots),
//! * `find_root` path halving racing a concurrent union (the forest
//!   invariant `parent[x] <= x` under every interleaving),
//! * similarity-label publish/consume and the two-phase
//!   counting/consolidation loop of `check_core_vertex` (§4.2.2's
//!   consolidation window; Theorem 4.1's pending-slot invariant),
//! * canonical-labels agreement with the sequential union-find,
//! * a bounded 2-thread run of the *real* pipeline under
//!   [`ExecutionStrategy`](ppscan_sched::ExecutionStrategy)`::Modeled`
//!   (oracle-permuted dispatch order; sequential-equivalent output).
//!
//! Two additional entries carry *intentionally seeded* bugs — a
//! check-then-store union (what the `Relaxed` root re-check would
//! license if the CAS's atomic re-read were removed) and a settle loop
//! missing its recompute arm (the pre-hardening consolidation-window
//! bug) — and are expected to produce violations; tests assert the
//! checker catches both.

use crate::atomic::{ModelAtomicU32, ModelAtomicU8};
use crate::runtime::{explore, fingerprint, Config, Outcome, RunSpec};
use ppscan_core::simstore::SimStore;
use ppscan_intersect::Similarity;
use ppscan_unionfind::substrate::{AtomicCellU32, AtomicCellU8};
use ppscan_unionfind::ConcurrentUnionFind;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A named scenario in the catalog.
pub struct Scenario {
    /// Stable name (used in reports and the `check` binary).
    pub name: &'static str,
    /// One-line description of what is being checked.
    pub what: &'static str,
    /// Whether this scenario carries a seeded bug and must produce a
    /// violation (detection demo) rather than pass.
    pub expect_violation: bool,
    /// Explores the scenario under `cfg`.
    pub run: fn(&Config) -> Outcome,
}

/// The full scenario catalog, in documentation order.
pub fn catalog() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "union-race-2t",
            what: "2 threads race 4 unions over a shared root; exactly-once merges",
            expect_violation: false,
            run: union_race_2t,
        },
        Scenario {
            name: "union-chain-3t",
            what: "3 threads union a chain; final partition is schedule-independent",
            expect_violation: false,
            run: union_chain_3t,
        },
        Scenario {
            name: "find-during-union",
            what: "path-halving find races a union; forest invariant holds throughout",
            expect_violation: false,
            run: find_during_union,
        },
        Scenario {
            name: "simstore-publish",
            what: "label publish/consume; consumers always observe Unknown or truth",
            expect_violation: false,
            run: simstore_publish,
        },
        Scenario {
            name: "pending-slot-invariant",
            what: "Theorem 4.1: two-phase counting counts each slot exactly once",
            expect_violation: false,
            run: pending_slot_invariant,
        },
        Scenario {
            name: "canonical-labels",
            what: "concurrent unions agree with the sequential union-find",
            expect_violation: false,
            run: canonical_labels_agreement,
        },
        Scenario {
            name: "pipeline-modeled-2t",
            what: "real ppscan() under Modeled, 2 threads; oracle-seed sweep",
            expect_violation: false,
            run: pipeline_modeled_2t,
        },
        Scenario {
            name: "seeded-weak-cas-bug",
            what: "SEEDED BUG: union by check-then-store loses a merge",
            expect_violation: true,
            run: seeded_weak_cas_bug,
        },
        Scenario {
            name: "seeded-settle-skip-bug",
            what: "SEEDED BUG: settle loop without recompute arm undercounts",
            expect_violation: true,
            run: seeded_settle_skip_bug,
        },
    ]
}

type ModelUf = ConcurrentUnionFind<ModelAtomicU32>;
type ModelSim = SimStore<ModelAtomicU8>;

/// Shared check for union-find scenarios: the final partition must match
/// the sequential union-find over the same pair multiset, the forest
/// invariant must hold, and the number of `true` union returns must
/// equal the number of genuine merges (exactly-once winners).
fn check_uf(uf: &ModelUf, pairs: &[(u32, u32)], wins: &[u64]) -> Result<u64, String> {
    uf.validate_forest()
        .map_err(|u| format!("forest invariant violated at vertex {u}"))?;
    let n = uf.len();
    let mut seq = ppscan_unionfind::UnionFind::new(n);
    for &(u, v) in pairs {
        seq.union(u, v);
    }
    let labels = uf.canonical_labels();
    if labels != seq.canonical_labels() {
        return Err(format!(
            "labels {labels:?} != sequential {:?}",
            seq.canonical_labels()
        ));
    }
    let merges = n - uf.num_sets();
    let true_returns: u64 = wins.iter().sum();
    if true_returns != merges as u64 {
        return Err(format!(
            "{true_returns} union() calls returned true but {merges} merges happened"
        ));
    }
    let mut parts: Vec<u64> = labels.iter().map(|&l| l as u64).collect();
    parts.extend_from_slice(wins);
    Ok(fingerprint(&parts))
}

/// 2 threads, 4 unions over `{0,1,2,3}` contending on shared roots. The
/// schedule-count acceptance test runs this with `por: false` and
/// asserts ≥ 1,000 distinct schedules are enumerated exhaustively.
pub fn union_race_2t(cfg: &Config) -> Outcome {
    const PAIRS: [(u32, u32); 4] = [(2, 0), (3, 1), (2, 1), (3, 0)];
    explore(cfg, || {
        let uf: Arc<ModelUf> = Arc::new(ConcurrentUnionFind::new(4));
        let (a, b, c) = (Arc::clone(&uf), Arc::clone(&uf), uf);
        RunSpec {
            threads: vec![
                Box::new(move || a.union(2, 0) as u64 + a.union(3, 1) as u64),
                Box::new(move || b.union(2, 1) as u64 + b.union(3, 0) as u64),
            ],
            check: Box::new(move |wins| check_uf(&c, &PAIRS, wins)),
        }
    })
}

/// 3 threads each performing one union of a chain `3-2-1-0`: every union
/// merges two genuinely distinct sets, so all three must return `true`
/// and the final partition is the single set rooted at 0.
pub fn union_chain_3t(cfg: &Config) -> Outcome {
    const PAIRS: [(u32, u32); 3] = [(1, 0), (2, 1), (3, 2)];
    explore(cfg, || {
        let uf: Arc<ModelUf> = Arc::new(ConcurrentUnionFind::new(4));
        let (a, b, c, d) = (Arc::clone(&uf), Arc::clone(&uf), Arc::clone(&uf), uf);
        RunSpec {
            threads: vec![
                Box::new(move || a.union(1, 0) as u64),
                Box::new(move || b.union(2, 1) as u64),
                Box::new(move || c.union(3, 2) as u64),
            ],
            check: Box::new(move |wins| check_uf(&d, &PAIRS, wins)),
        }
    })
}

/// Setup pre-links the chain `3 -> 2 -> 1`; one thread unions `1` into
/// `0` while another runs `find_root(3)`, whose path-halving CASes race
/// the link installation. The find must return a vertex that was a root
/// of 3's set at some point during the run (1 before the union lands, 0
/// after), and the forest invariant must hold in the final state.
pub fn find_during_union(cfg: &Config) -> Outcome {
    const PAIRS: [(u32, u32); 3] = [(3, 2), (2, 1), (1, 0)];
    explore(cfg, || {
        let uf: Arc<ModelUf> = Arc::new(ConcurrentUnionFind::new(4));
        uf.union(3, 2);
        uf.union(2, 1);
        let (a, b, c) = (Arc::clone(&uf), Arc::clone(&uf), uf);
        RunSpec {
            threads: vec![
                Box::new(move || a.union(1, 0) as u64),
                Box::new(move || b.find_root(3) as u64),
            ],
            check: Box::new(move |results| {
                let found = results[1];
                if found > 1 {
                    return Err(format!(
                        "find_root(3) returned {found}, never a root of 3's set"
                    ));
                }
                // The union thread's win plus the two setup unions.
                let wins = [results[0], 2];
                check_uf(&c, &PAIRS, &wins)
            }),
        }
    })
}

/// One thread publishes similarity labels; a consumer reads each slot
/// and recomputes (then publishes) on `Unknown`. Every value a consumer
/// acts on must equal the ground truth — labels are single-transition
/// (Theorem 4.1), so a stale read can only be `Unknown`, never a wrong
/// verdict.
pub fn simstore_publish(cfg: &Config) -> Outcome {
    const TRUTH: [Similarity; 2] = [Similarity::Sim, Similarity::NSim];
    explore(cfg, || {
        let sim: Arc<ModelSim> = Arc::new(SimStore::new(2));
        let (a, b, c) = (Arc::clone(&sim), Arc::clone(&sim), sim);
        RunSpec {
            threads: vec![
                Box::new(move || {
                    a.set(0, TRUTH[0]);
                    a.set(1, TRUTH[1]);
                    0
                }),
                Box::new(move || consume(&b, &TRUTH)),
            ],
            check: Box::new(move |results| {
                let expect = pack_verdicts(&TRUTH);
                if results[1] != expect {
                    return Err(format!(
                        "consumer acted on verdicts {:#x}, truth {:#x}",
                        results[1], expect
                    ));
                }
                for (eo, &t) in TRUTH.iter().enumerate() {
                    if c.get(eo) != t {
                        return Err(format!("slot {eo} ended {:?}, truth {t:?}", c.get(eo)));
                    }
                }
                Ok(fingerprint(&[results[0], results[1]]))
            }),
        }
    })
}

/// Reads every slot; on `Unknown`, recomputes the ground truth and
/// publishes it (the fallback path of §4.2.2). Returns the verdicts
/// acted on, packed one byte per slot.
fn consume<A: AtomicCellU8>(sim: &SimStore<A>, truth: &[Similarity]) -> u64 {
    let mut packed = 0u64;
    for (eo, &t) in truth.iter().enumerate() {
        let v = match sim.get(eo) {
            Similarity::Unknown => {
                sim.set(eo, t);
                t
            }
            published => published,
        };
        packed |= (v as u64) << (8 * eo);
    }
    packed
}

fn pack_verdicts(truth: &[Similarity]) -> u64 {
    truth
        .iter()
        .enumerate()
        .fold(0u64, |acc, (eo, &t)| acc | ((t as u64) << (8 * eo)))
}

/// The two-phase counting loop of `check_core_vertex` (counting pass →
/// pending list → settle pass), reduced to one slot. `recompute` selects
/// the settle arm for still-`Unknown` slots: the real protocol
/// recomputes and publishes; the seeded bug skips (assumes not-similar).
fn two_phase_count<A: AtomicCellU8>(
    sim: &SimStore<A>,
    slot: usize,
    truth: Similarity,
    recompute: bool,
) -> u64 {
    let mut sd = 0u64;
    let mut pending = Vec::new();
    // Counting pass: consume published labels, defer Unknown slots.
    match sim.get(slot) {
        Similarity::Sim => sd += 1,
        Similarity::NSim => {}
        Similarity::Unknown => pending.push(slot),
    }
    // Settle pass: re-read each pending slot (the consolidation window —
    // a label published since the counting pass must be counted).
    for eo in pending {
        match sim.get(eo) {
            Similarity::Sim => sd += 1,
            Similarity::NSim => {}
            Similarity::Unknown => {
                if recompute {
                    sim.set(eo, truth);
                    if truth == Similarity::Sim {
                        sd += 1;
                    }
                }
            }
        }
    }
    sd
}

/// Theorem 4.1's pending-slot invariant, exhaustively: whatever instant
/// the racing publisher's store lands — before the counting read, inside
/// the consolidation window, or never before the settle read — the
/// two-phase loop counts the slot exactly once. This re-expresses the
/// PR-1 regression test `label_published_in_consolidation_window_is_
/// counted` as a checked scenario over all interleavings.
pub fn pending_slot_invariant(cfg: &Config) -> Outcome {
    explore(cfg, || {
        let sim: Arc<ModelSim> = Arc::new(SimStore::new(1));
        let (a, b, c) = (Arc::clone(&sim), Arc::clone(&sim), sim);
        RunSpec {
            threads: vec![
                Box::new(move || {
                    a.set(0, Similarity::Sim);
                    0
                }),
                Box::new(move || two_phase_count(&b, 0, Similarity::Sim, true)),
            ],
            check: Box::new(move |results| {
                if results[1] != 1 {
                    return Err(format!(
                        "similar degree counted {} times, expected exactly 1",
                        results[1]
                    ));
                }
                if c.get(0) != Similarity::Sim {
                    return Err(format!("slot ended {:?}", c.get(0)));
                }
                Ok(fingerprint(&[results[1]]))
            }),
        }
    })
}

/// Two threads issue overlapping unions with swapped argument order; the
/// final canonical labeling must match the sequential reference and
/// exactly one thread may win each contested merge.
pub fn canonical_labels_agreement(cfg: &Config) -> Outcome {
    const PAIRS: [(u32, u32); 4] = [(1, 3), (4, 2), (3, 1), (2, 4)];
    explore(cfg, || {
        let uf: Arc<ModelUf> = Arc::new(ConcurrentUnionFind::new(5));
        let (a, b, c) = (Arc::clone(&uf), Arc::clone(&uf), uf);
        RunSpec {
            threads: vec![
                Box::new(move || a.union(1, 3) as u64 + a.union(4, 2) as u64),
                Box::new(move || b.union(3, 1) as u64 + b.union(2, 4) as u64),
            ],
            check: Box::new(move |wins| check_uf(&c, &PAIRS, wins)),
        }
    })
}

/// A union-find whose `union` installs links by *check-then-store*
/// instead of compare-exchange — exactly the protocol the `Relaxed` root
/// re-check in `find_root` would license if the CAS's atomic re-read
/// were not load-bearing (DESIGN.md §9.3's prime-suspect analysis). The
/// checker must find the lost-merge interleaving.
struct CheckThenStoreUf<A: AtomicCellU32> {
    parent: Vec<A>,
}

impl<A: AtomicCellU32> CheckThenStoreUf<A> {
    fn new(n: u32) -> Self {
        CheckThenStoreUf {
            parent: (0..n).map(A::new).collect(),
        }
    }

    fn find_root(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Ordering::Relaxed);
            if p == x {
                return x;
            }
            x = p;
        }
    }

    fn union(&self, u: u32, v: u32) -> bool {
        loop {
            let ru = self.find_root(u);
            let rv = self.find_root(v);
            if ru == rv {
                return false;
            }
            let (hi, lo) = if ru > rv { (ru, rv) } else { (rv, ru) };
            // SEEDED BUG: the root re-check and the link installation
            // are two separate operations, so a concurrent union can
            // slip between them and its link is silently overwritten.
            if self.parent[hi as usize].load(Ordering::Relaxed) == hi {
                self.parent[hi as usize].store(lo, Ordering::Relaxed);
                return true;
            }
        }
    }
}

/// Detection demo: two unions race on the shared root `2`; under the
/// check-then-store protocol some interleaving loses a merge (both
/// callers return `true` but only one link survives), splitting the
/// final partition. Expected outcome: [`Outcome::Violation`].
pub fn seeded_weak_cas_bug(cfg: &Config) -> Outcome {
    explore(cfg, || {
        let uf: Arc<CheckThenStoreUf<ModelAtomicU32>> = Arc::new(CheckThenStoreUf::new(3));
        let (a, b, c) = (Arc::clone(&uf), Arc::clone(&uf), uf);
        RunSpec {
            threads: vec![
                Box::new(move || a.union(2, 0) as u64),
                Box::new(move || b.union(2, 1) as u64),
            ],
            check: Box::new(move |wins| {
                let labels: Vec<u32> = (0..3).map(|v| c.find_root(v)).collect();
                if labels != vec![0, 0, 0] {
                    return Err(format!("lost merge: final labels {labels:?}"));
                }
                let true_returns: u64 = wins.iter().sum();
                if true_returns != 2 {
                    return Err(format!("{true_returns} winners for 2 merges"));
                }
                Ok(fingerprint(&[
                    labels[0] as u64,
                    labels[1] as u64,
                    labels[2] as u64,
                ]))
            }),
        }
    })
}

/// Detection demo: the settle pass without the recompute arm — the
/// pre-hardening consolidation-window bug. A schedule where the
/// publisher lands after the settle re-read undercounts the similar
/// degree. Expected outcome: [`Outcome::Violation`].
pub fn seeded_settle_skip_bug(cfg: &Config) -> Outcome {
    explore(cfg, || {
        let sim: Arc<ModelSim> = Arc::new(SimStore::new(1));
        let (a, b) = (Arc::clone(&sim), sim);
        RunSpec {
            threads: vec![
                Box::new(move || {
                    a.set(0, Similarity::Sim);
                    0
                }),
                Box::new(move || two_phase_count(&b, 0, Similarity::Sim, false)),
            ],
            check: Box::new(move |results| {
                if results[1] != 1 {
                    return Err(format!(
                        "similar degree counted {} times, expected exactly 1",
                        results[1]
                    ));
                }
                Ok(fingerprint(&[results[1]]))
            }),
        }
    })
}

/// Mixes `seed` and per-dispatch `call` into a task-order permutation
/// (splitmix64-style finalizer): a rotation of submission order,
/// reversed on odd draws.
fn oracle_order(seed: u64, call: u64, n: usize) -> Vec<usize> {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(call.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let mut order: Vec<usize> = (0..n).collect();
    if n > 1 {
        order.rotate_left((z as usize) % n);
        if z & (1 << 40) != 0 {
            order.reverse();
        }
    }
    order
}

/// A bounded 2-thread run of the *real* pipeline — `ppscan()` on
/// concrete atomics with its production `SimStore`, union-find, and
/// scheduler — under [`ExecutionStrategy::Modeled`]: tasks execute on
/// the caller thread in oracle-chosen order, so every pool dispatch is
/// permuted without OS-schedule luck. This is not an `explore()`
/// scenario (the pipeline's state space dwarfs exhaustive search);
/// it sweeps a budget-bounded set of oracle seeds — capped at 48,
/// lower if `cfg.max_schedules` is — and checks every permuted run
/// produces the sequential baseline's clustering exactly. `Stats::
/// schedules` counts the seeds swept; the final-state set is the
/// (single) clustering fingerprint.
pub fn pipeline_modeled_2t(cfg: &Config) -> Outcome {
    use ppscan_core::params::ScanParams;
    use ppscan_core::ppscan::{ppscan, PpScanConfig};
    use ppscan_sched::{modeled, ExecutionStrategy};

    // Two triangles bridged through 2-3: cores on both sides, a hub
    // whose similar-degree straddles the threshold, and enough shared
    // neighbourhoods to exercise similarity reuse.
    let g = ppscan_graph::builder::from_edges(&[
        (0, 1),
        (1, 2),
        (0, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (3, 5),
    ]);
    let params = ScanParams::new(0.5, 2);
    let baseline = ppscan(
        &g,
        params,
        &PpScanConfig::with_threads(1).strategy(ExecutionStrategy::SequentialDeterministic),
    )
    .clustering;

    let seeds = cfg.max_schedules.min(48);
    let mut stats = crate::runtime::Stats {
        exhausted: true,
        ..Default::default()
    };
    for seed in 0..seeds {
        let mut call = 0u64;
        let clustering = modeled::with_oracle(
            move |n| {
                call += 1;
                oracle_order(seed, call, n)
            },
            || {
                ppscan(
                    &g,
                    params,
                    &PpScanConfig::with_threads(2).strategy(ExecutionStrategy::Modeled),
                )
                .clustering
            },
        );
        stats.schedules += 1;
        if clustering != baseline {
            return Outcome::Violation {
                schedule: vec![format!("oracle seed {seed} (rotation/reversal stream)")],
                message: format!(
                    "modeled 2-thread pipeline diverged from the sequential \
                     baseline under oracle seed {seed}: {} vs {}",
                    clustering.summary(),
                    baseline.summary()
                ),
                stats,
            };
        }
        let parts: Vec<u64> = baseline
            .core_cluster
            .iter()
            .map(|&c| u64::from(c))
            .chain(baseline.roles.iter().map(|&r| r as u64))
            .collect();
        stats.final_states.insert(fingerprint(&parts));
    }
    Outcome::Pass(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_budget(max_schedules: u64) -> Config {
        Config {
            max_schedules,
            ..Config::default()
        }
    }

    /// Acceptance criterion: with reduction off, the 2-thread union race
    /// exhaustively enumerates at least 1,000 distinct schedules.
    #[test]
    fn union_race_enumerates_at_least_1000_schedules() {
        let cfg = Config {
            por: false,
            ..cfg_budget(2_000_000)
        };
        match union_race_2t(&cfg) {
            Outcome::Pass(stats) => {
                assert!(stats.exhausted, "exploration must complete, not hit budget");
                assert!(
                    stats.schedules >= 1_000,
                    "only {} schedules enumerated",
                    stats.schedules
                );
            }
            Outcome::Violation {
                schedule, message, ..
            } => {
                panic!("unexpected violation: {message}\n{}", schedule.join("\n"))
            }
        }
    }

    /// Sleep-set reduction must not change what is observable: the set
    /// of distinct final states with POR on equals the set with POR off.
    #[test]
    fn por_preserves_final_state_set() {
        let full = Config {
            por: false,
            ..cfg_budget(2_000_000)
        };
        let reduced = cfg_budget(2_000_000);
        let s_full = match union_race_2t(&full) {
            Outcome::Pass(s) => s,
            Outcome::Violation { message, .. } => panic!("violation: {message}"),
        };
        let s_red = match union_race_2t(&reduced) {
            Outcome::Pass(s) => s,
            Outcome::Violation { message, .. } => panic!("violation: {message}"),
        };
        assert!(s_full.exhausted && s_red.exhausted);
        assert_eq!(s_full.final_states, s_red.final_states);
        assert!(
            s_red.schedules <= s_full.schedules,
            "reduction should not explore more schedules"
        );
    }

    /// DPOR must agree with the sleep-set explorer on every catalog
    /// scenario: same final-state set on passing scenarios, and the
    /// same violation verdict on the seeded-bug ones. This is the
    /// cross-validation the DPOR implementation leans on — the two
    /// reductions are derived independently from the same dependency
    /// relation, so any divergence is a bug in one of them.
    #[test]
    fn dpor_final_state_sets_match_sleep_sets_on_all_scenarios() {
        let sleep = cfg_budget(2_000_000);
        let dpor = Config {
            dpor: true,
            ..cfg_budget(2_000_000)
        };
        for sc in catalog() {
            let a = (sc.run)(&sleep);
            let b = (sc.run)(&dpor);
            if sc.expect_violation {
                assert!(
                    matches!(a, Outcome::Violation { .. }),
                    "{}: sleep-set explorer missed the seeded bug",
                    sc.name
                );
                assert!(
                    matches!(b, Outcome::Violation { .. }),
                    "{}: DPOR explorer missed the seeded bug",
                    sc.name
                );
                continue;
            }
            let (sa, sb) = match (&a, &b) {
                (Outcome::Pass(sa), Outcome::Pass(sb)) => (sa, sb),
                _ => panic!("{}: unexpected violation ({a:?} / {b:?})", sc.name),
            };
            assert!(sa.exhausted && sb.exhausted, "{}: budget hit", sc.name);
            assert_eq!(
                sa.final_states, sb.final_states,
                "{}: DPOR changed the observable final-state set",
                sc.name
            );
        }
    }

    /// Acceptance criterion: on `union-race-2t` the DPOR explorer does
    /// strictly less work than sleep sets alone while observing the
    /// same final states. Sleep sets complete 75 schedules but also
    /// start 23 runs that are then pruned as redundant (98 explored
    /// runs); DPOR's backtrack sets stop those runs from ever starting
    /// (75 + 0). Standalone DPOR (sleep sets off) lands at 352
    /// schedules against the 13,103 raw interleavings — both counts
    /// are pinned so a reduction regression shows up as a test diff.
    #[test]
    fn dpor_explores_strictly_fewer_runs_on_union_race_2t() {
        let run = |por: bool, dpor: bool| {
            let cfg = Config {
                por,
                dpor,
                ..cfg_budget(2_000_000)
            };
            match union_race_2t(&cfg) {
                Outcome::Pass(s) => s,
                Outcome::Violation { message, .. } => panic!("violation: {message}"),
            }
        };
        let sleep = run(true, false);
        let both = run(true, true);
        let pure = run(false, true);
        assert!(sleep.exhausted && both.exhausted && pure.exhausted);
        assert_eq!(sleep.final_states, both.final_states);
        assert_eq!(sleep.final_states, pure.final_states);
        assert_eq!((sleep.schedules, sleep.pruned), (75, 23));
        assert_eq!((both.schedules, both.pruned), (75, 0));
        assert_eq!(pure.schedules, 352);
        assert!(
            both.schedules + both.pruned < sleep.schedules + sleep.pruned,
            "DPOR must explore strictly fewer runs than sleep sets alone"
        );
    }

    /// The real pipeline under `Modeled` with permuted dispatch orders
    /// always reproduces the sequential clustering.
    #[test]
    fn pipeline_modeled_2t_matches_sequential_baseline() {
        match pipeline_modeled_2t(&cfg_budget(2_000_000)) {
            Outcome::Pass(s) => {
                assert_eq!(s.schedules, 48, "full oracle-seed sweep");
                assert_eq!(s.final_states.len(), 1);
            }
            Outcome::Violation { message, .. } => panic!("{message}"),
        }
    }

    #[test]
    fn union_chain_3t_passes() {
        let cfg = Config {
            preemption_bound: Some(3),
            ..cfg_budget(500_000)
        };
        let out = union_chain_3t(&cfg);
        assert!(out.is_pass(), "{out:?}");
        assert!(out.stats().schedules > 0);
    }

    #[test]
    fn find_during_union_passes_exhaustively() {
        let out = find_during_union(&cfg_budget(2_000_000));
        match out {
            Outcome::Pass(s) => assert!(s.exhausted && s.schedules > 0),
            Outcome::Violation {
                schedule, message, ..
            } => {
                panic!("{message}\n{}", schedule.join("\n"))
            }
        }
    }

    #[test]
    fn simstore_publish_passes_exhaustively() {
        let out = simstore_publish(&cfg_budget(2_000_000));
        match out {
            Outcome::Pass(s) => assert!(s.exhausted && s.schedules > 0),
            Outcome::Violation {
                schedule, message, ..
            } => {
                panic!("{message}\n{}", schedule.join("\n"))
            }
        }
    }

    /// The exhaustive form of the PR-1 consolidation-window regression:
    /// the publisher store is placed at *every* point relative to the
    /// two-phase loop, including inside the window, and the count is
    /// always exactly one.
    #[test]
    fn pending_slot_invariant_passes_exhaustively() {
        let out = pending_slot_invariant(&cfg_budget(2_000_000));
        match out {
            Outcome::Pass(s) => {
                assert!(s.exhausted && s.schedules > 0);
                // All schedules agree on the count: one final state.
                assert_eq!(s.final_states.len(), 1);
            }
            Outcome::Violation {
                schedule, message, ..
            } => {
                panic!("{message}\n{}", schedule.join("\n"))
            }
        }
    }

    #[test]
    fn canonical_labels_agreement_passes() {
        let out = canonical_labels_agreement(&cfg_budget(2_000_000));
        assert!(out.is_pass(), "{out:?}");
        assert!(out.stats().schedules > 0);
    }

    /// Acceptance criterion: the seeded check-then-store weakening of
    /// the union CAS is *caught* — the checker exhibits the lost-merge
    /// interleaving with a concrete replayable schedule.
    #[test]
    fn seeded_weak_cas_bug_is_detected() {
        match seeded_weak_cas_bug(&cfg_budget(2_000_000)) {
            Outcome::Violation {
                schedule, message, ..
            } => {
                assert!(
                    message.contains("lost merge") || message.contains("winners"),
                    "unexpected violation kind: {message}"
                );
                assert!(!schedule.is_empty(), "violation must carry its schedule");
            }
            Outcome::Pass(s) => panic!("seeded bug not detected in {} schedules", s.schedules),
        }
    }

    /// The pre-hardening settle-loop bug (missing recompute arm) is
    /// caught: some schedule leaves the slot unpublished at settle time
    /// and the count drops to zero.
    #[test]
    fn seeded_settle_skip_bug_is_detected() {
        match seeded_settle_skip_bug(&cfg_budget(2_000_000)) {
            Outcome::Violation { message, .. } => {
                assert!(message.contains("counted 0"), "unexpected: {message}");
            }
            Outcome::Pass(s) => panic!("seeded bug not detected in {} schedules", s.schedules),
        }
    }

    /// Single-thread scenarios have exactly one schedule, and the
    /// modeled substrate must agree with the real substrate on it.
    #[test]
    fn modeled_substrate_agrees_with_real_on_sequential_scenarios() {
        // Real substrate, plain execution.
        let real: ConcurrentUnionFind = ConcurrentUnionFind::new(6);
        let real_wins = [real.union(4, 2), real.union(2, 5), real.union(5, 4)]
            .iter()
            .filter(|&&w| w)
            .count() as u64;
        let real_labels = real.canonical_labels();

        // Modeled substrate, one logical thread under the explorer.
        let out = explore(&cfg_budget(1_000), || {
            let uf: Arc<ModelUf> = Arc::new(ConcurrentUnionFind::new(6));
            let (a, b) = (Arc::clone(&uf), uf);
            RunSpec {
                threads: vec![Box::new(move || {
                    a.union(4, 2) as u64 + a.union(2, 5) as u64 + a.union(5, 4) as u64
                })],
                check: Box::new(move |wins| {
                    let mut parts: Vec<u64> =
                        b.canonical_labels().iter().map(|&l| l as u64).collect();
                    parts.push(wins[0]);
                    Ok(fingerprint(&parts))
                }),
            }
        });
        let stats = match out {
            Outcome::Pass(s) => s,
            Outcome::Violation { message, .. } => panic!("violation: {message}"),
        };
        assert!(stats.exhausted);
        assert_eq!(
            stats.schedules, 1,
            "a single-thread scenario has exactly one schedule"
        );
        let mut parts: Vec<u64> = real_labels.iter().map(|&l| l as u64).collect();
        parts.push(real_wins);
        assert_eq!(
            stats.final_states.iter().copied().collect::<Vec<u64>>(),
            vec![fingerprint(&parts)],
            "modeled and real substrates disagree on a sequential scenario"
        );
    }

    /// The preemption bound restricts, never corrupts: bounded
    /// exploration finds a subset of the unbounded final states.
    #[test]
    fn preemption_bound_explores_subset_of_final_states() {
        let unbounded = match union_race_2t(&cfg_budget(2_000_000)) {
            Outcome::Pass(s) => s,
            Outcome::Violation { message, .. } => panic!("violation: {message}"),
        };
        let bounded_cfg = Config {
            preemption_bound: Some(1),
            ..cfg_budget(2_000_000)
        };
        let bounded = match union_race_2t(&bounded_cfg) {
            Outcome::Pass(s) => s,
            Outcome::Violation { message, .. } => panic!("violation: {message}"),
        };
        assert!(bounded.schedules < unbounded.schedules);
        assert!(bounded.final_states.is_subset(&unbounded.final_states));
    }
}
