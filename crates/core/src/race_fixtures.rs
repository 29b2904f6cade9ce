//! Traced protocol fixtures for the FastTrack race detector: small
//! workloads on the *traced* substrate ([`TracedAtomicU32`] + shadow
//! payloads) that mirror the access disciplines of the pipeline's
//! protocols, each in a correct and an intentionally broken variant.
//!
//! These are the real-execution counterparts of the `ppscan-check`
//! seeded-bug scenarios: where the model checker proves a bug reachable
//! by exhausting interleavings of a model, these fixtures demonstrate
//! the detector flags the same discipline violations on *actual* runs —
//! real threads under [`ExecutionStrategy::Parallel`], or the caller
//! thread under `Modeled` where the detector's logical-task-slot design
//! makes the dispatch contract (sibling tasks are unordered) checkable
//! even on a physically sequential execution.
//!
//! Both fixtures — [`claim_fixture`] (the check-then-store union
//! discipline) and [`publish_fixture`] (the settle-skip /
//! publish-without-acquire discipline) — race *between sibling tasks of
//! one dispatch*: the detector flags them under `Parallel` and
//! `Modeled` alike, because the missing edge is missing from the
//! recorded happens-before relation regardless of physical timing.

use ppscan_obs::race::{DetectionSession, RaceReport, ShadowCell};
use ppscan_sched::{ExecutionStrategy, WorkerPool};
use ppscan_unionfind::substrate::AtomicCellU32;
use ppscan_unionfind::TracedAtomicU32;
use std::sync::atomic::Ordering;

/// Runs `body`'s two closures as sibling tasks of one pool dispatch
/// under `strategy`, inside a fresh detection session; returns the
/// detected races.
fn run_pair(
    strategy: ExecutionStrategy,
    a: impl Fn() + Sync,
    b: impl Fn() + Sync,
) -> Vec<RaceReport> {
    let session = DetectionSession::begin();
    let pool = WorkerPool::with_strategy(2, strategy);
    pool.run_chunks(&[0..1, 1..2], |r| {
        if r.start == 0 {
            a();
        } else {
            b();
        }
    });
    session.finish()
}

/// The check-then-store claim discipline (PR 3's seeded union bug,
/// reshaped onto a shadow payload): two tasks contend to claim a slot;
/// the winner installs a payload and the loser consumes it.
///
/// * `buggy = false`: the claim is decided by an `AcqRel`
///   compare-exchange and the winner re-publishes the claim word with a
///   `DONE` bit (release) after installing; the loser consumes only
///   after acquiring `DONE`, which carries the install's happens-before
///   edge. Clean under every interleaving. (Acquiring the failed CAS
///   alone would *not* suffice — the install happens after the winning
///   CAS's release, which is exactly the kind of subtle gap the
///   detector exists to catch.)
/// * `buggy = true`: the claim is a `Relaxed` load + `Relaxed` store —
///   the re-check and the installation are separate operations, exactly
///   what the `Relaxed` root re-check in `find_root` would license if
///   the CAS's atomic re-read were removed. Whichever way the tasks
///   interleave, an unordered payload access pair executes (two writes
///   when both claims succeed, a write and an unsynchronized read
///   otherwise), so the detector flags every run.
pub fn claim_fixture(strategy: ExecutionStrategy, buggy: bool) -> Vec<RaceReport> {
    const DONE: u32 = 0x100;
    let claim: TracedAtomicU32 = AtomicCellU32::new(0);
    let payload: ShadowCell<u32> = ShadowCell::new("claim-payload", 0);
    let task = |me: u32| {
        if buggy {
            if claim.load(Ordering::Relaxed) == 0 {
                claim.store(me, Ordering::Relaxed);
                payload.set(me, "claim_fixture::install");
            } else {
                let _ = payload.get("claim_fixture::consume");
            }
        } else if claim
            .compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            payload.set(me, "claim_fixture::install");
            claim.store(me | DONE, Ordering::Release);
        } else {
            for _ in 0..1_000_000 {
                if claim.load(Ordering::Acquire) & DONE != 0 {
                    let _ = payload.get("claim_fixture::consume");
                    break;
                }
                std::hint::spin_loop();
            }
        }
    };
    run_pair(strategy, || task(1), || task(2))
}

/// The publish/consume discipline of the similarity store, with the
/// settle-skip bug's missing ordering: a publisher task writes a shadow
/// payload and raises a flag; a consumer task polls the flag (bounded)
/// and reads the payload once the flag is up.
///
/// * `buggy = false`: `Release` store / `Acquire` load — the flag
///   carries the payload's happens-before edge. Clean.
/// * `buggy = true`: both ends `Relaxed` — the consumer acts on the
///   payload with no edge from the publisher, the same shape as
///   consuming a similarity verdict whose label load was demoted to
///   `Relaxed`. Flagged on any run where the consumer observes the
///   flag; under `Modeled` submission order (publisher first) that is
///   every run.
pub fn publish_fixture(strategy: ExecutionStrategy, buggy: bool) -> Vec<RaceReport> {
    let (store_order, load_order) = if buggy {
        (Ordering::Relaxed, Ordering::Relaxed)
    } else {
        (Ordering::Release, Ordering::Acquire)
    };
    let flag: TracedAtomicU32 = AtomicCellU32::new(0);
    let payload: ShadowCell<u32> = ShadowCell::new("publish-payload", 0);
    run_pair(
        strategy,
        || {
            payload.set(42, "publish_fixture::publish");
            flag.store(1, store_order);
        },
        || {
            for _ in 0..10_000 {
                if flag.load(load_order) == 1 {
                    let _ = payload.get("publish_fixture::consume");
                    return;
                }
                std::hint::spin_loop();
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODELED: ExecutionStrategy = ExecutionStrategy::Modeled;
    const PARALLEL: ExecutionStrategy = ExecutionStrategy::Parallel;

    /// Retries `f` up to `budget` times, returning the first non-empty
    /// race list (for bugs whose races need a real interleaving to
    /// manifest).
    fn detect_within(budget: usize, f: impl Fn() -> Vec<RaceReport>) -> Vec<RaceReport> {
        for _ in 0..budget {
            let races = f();
            if !races.is_empty() {
                return races;
            }
        }
        Vec::new()
    }

    #[test]
    fn claim_bug_flagged_under_modeled_and_parallel() {
        for strategy in [MODELED, PARALLEL] {
            let races = claim_fixture(strategy, true);
            assert!(
                !races.is_empty(),
                "check-then-store bug not flagged under {strategy:?}"
            );
            assert!(races.iter().all(|r| r.location == "claim-payload"));
        }
    }

    #[test]
    fn claim_fixture_correct_is_clean() {
        assert!(claim_fixture(MODELED, false).is_empty());
        for _ in 0..20 {
            let races = claim_fixture(PARALLEL, false);
            assert!(races.is_empty(), "false positive: {races:?}");
        }
    }

    #[test]
    fn publish_bug_flagged_under_modeled_and_parallel() {
        // Modeled submission order runs the publisher first, so the
        // consumer always observes the flag: deterministic detection.
        let races = publish_fixture(MODELED, true);
        assert!(!races.is_empty(), "publish bug not flagged under modeled");
        // Parallel needs the consumer to observe the flag, which the
        // bounded poll makes near-certain; allow a few attempts.
        let races = detect_within(50, || publish_fixture(PARALLEL, true));
        assert!(!races.is_empty(), "publish bug not flagged under parallel");
        assert!(races.iter().all(|r| r.location == "publish-payload"));
    }

    #[test]
    fn publish_fixture_correct_is_clean() {
        assert!(publish_fixture(MODELED, false).is_empty());
        for _ in 0..20 {
            let races = publish_fixture(PARALLEL, false);
            assert!(races.is_empty(), "false positive: {races:?}");
        }
    }
}
