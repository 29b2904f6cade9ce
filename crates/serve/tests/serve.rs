//! Integration tests for the serving path: many client threads, live
//! index swaps, adversarial pool schedules. The key invariant is
//! **snapshot coherence**: every response is computed entirely against
//! one index generation and says which, so a response's clustering must
//! exactly equal the precomputed answer for that generation — never a
//! blend of old and new index state.

use ppscan_core::params::ScanParams;
use ppscan_core::pscan::pscan;
use ppscan_core::result::Clustering;
use ppscan_graph::{gen, CsrGraph};
use ppscan_obs::events::{EventKind, FlightEvent, WatchdogConfig};
use ppscan_sched::ExecutionStrategy;
use ppscan_serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn graph_a() -> Arc<CsrGraph> {
    Arc::new(gen::planted_partition(3, 14, 0.6, 0.04, 21))
}

fn graph_b() -> Arc<CsrGraph> {
    Arc::new(gen::clique_chain(6, 5))
}

const GRID: [(f64, usize); 4] = [(0.4, 2), (0.5, 3), (0.7, 2), (1.0, 1)];

fn answers(g: &CsrGraph) -> HashMap<(u64, usize), Clustering> {
    GRID.iter()
        .map(|&(eps, mu)| {
            (
                (eps.to_bits(), mu),
                pscan(g, ScanParams::new(eps, mu)).clustering,
            )
        })
        .collect()
}

/// Clients hammer the server while the main thread swaps the index back
/// and forth between two distinguishable graphs. Every response must
/// match the ground truth of exactly the generation it claims — under an
/// adversarial pool schedule, which perturbs the order of each query's
/// tasks.
#[test]
fn responses_are_coherent_across_live_swaps() {
    let a = graph_a();
    let b = graph_b();
    let expected_a = answers(&a);
    let expected_b = answers(&b);
    // Generation g serves graph A when odd (gen 1 is the initial A
    // index; each rebuild alternates).
    let expected = |generation: u64, eps: f64, mu: usize| -> &Clustering {
        let table = if generation % 2 == 1 {
            &expected_a
        } else {
            &expected_b
        };
        &table[&(eps.to_bits(), mu)]
    };

    let server = Server::start(
        Arc::clone(&a),
        ServeConfig {
            threads: 3,
            max_batch: 8,
            strategy: ExecutionStrategy::AdversarialSeeded { seed: 0xC0FFEE },
            ..ServeConfig::default()
        },
    );

    const CLIENTS: usize = 6;
    const QUERIES: usize = 60;
    const SWAPS: u64 = 6;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let server = &server;
            scope.spawn(move || {
                for q in 0..QUERIES {
                    let (eps, mu) = GRID[(c + q) % GRID.len()];
                    let response = server.query(eps, mu);
                    let clustering = response.result.expect("valid params");
                    assert_eq!(
                        &clustering,
                        expected(response.generation, eps, mu),
                        "incoherent response: generation {} for ({eps}, {mu})",
                        response.generation
                    );
                }
            });
        }
        // Swap while the clients are in flight.
        for s in 0..SWAPS {
            let next = if s % 2 == 0 {
                Arc::clone(&b)
            } else {
                Arc::clone(&a)
            };
            let generation = server.rebuild(next);
            assert_eq!(generation, s + 2, "generations publish in order");
        }
    });

    assert_eq!(server.queries_served(), (CLIENTS * QUERIES) as u64);
    assert_eq!(server.latency().count(), (CLIENTS * QUERIES) as u64);
    assert_eq!(server.generation(), SWAPS + 1);
    // The last swap replaced a graph-B snapshot. The batch answering a
    // final query started after every earlier batch ended, so no batch
    // still holds a B snapshot: each was freed, and the test's handle
    // is B's only owner.
    let _ = server.query(0.5, 2);
    assert_eq!(Arc::strong_count(&b), 1, "replaced snapshots must be freed");
}

/// Queries submitted before, during, and after a swap all complete, and
/// the swap itself never waits for the queue to drain: the rebuild
/// thread publishes while dozens of queries are still queued behind a
/// deliberately tiny batch size.
#[test]
fn queries_complete_without_blocking_across_a_swap() {
    let a = graph_a();
    let b = graph_b();
    let server = Server::start(
        Arc::clone(&a),
        ServeConfig {
            threads: 2,
            max_batch: 2,
            ..ServeConfig::default()
        },
    );

    let before: Vec<_> = (0..40).map(|_| server.submit(0.5, 2)).collect();
    let generation = server.rebuild(b);
    assert_eq!(generation, 2);
    let after: Vec<_> = (0..40).map(|_| server.submit(0.5, 2)).collect();

    let mut generations_seen = Vec::new();
    for ticket in before.into_iter().chain(after) {
        let response = ticket.wait();
        assert!(response.result.is_ok());
        generations_seen.push(response.generation);
    }
    assert_eq!(generations_seen.len(), 80);
    // The tail of the stream must be on the new index (the swap
    // happened before those queries were submitted)...
    assert_eq!(*generations_seen.last().unwrap(), 2);
    // ...and generations never go backwards in delivery order within a
    // client's FIFO stream.
    let mut last = 0;
    for g in generations_seen {
        assert!(g >= last, "generation went backwards");
        last = g;
    }
}

/// A deliberately stalled dispatcher provably trips the watchdog and
/// dumps the flight recorder. The stall is staged deterministically
/// through the `batch_hook` seam: the hook blocks the dispatcher inside
/// its first batch (work pinned in flight, more work queued behind it)
/// until the watchdog has fired, then releases it — after which every
/// query still completes.
#[test]
fn stalled_dispatcher_trips_the_watchdog_and_dumps_the_recorder() {
    struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
    }
    let gate = Arc::new(Gate {
        open: Mutex::new(false),
        cv: Condvar::new(),
    });

    let server = Server::start(
        graph_a(),
        ServeConfig {
            threads: 2,
            max_batch: 4,
            watchdog: Some(WatchdogConfig {
                deadline: Duration::from_millis(100),
                poll: Duration::from_millis(10),
            }),
            batch_hook: Some(Arc::new({
                let gate = Arc::clone(&gate);
                move |ordinal| {
                    if ordinal > 0 {
                        return; // only the first batch stalls
                    }
                    let mut open = gate.open.lock().unwrap();
                    // Safety valve so a broken watchdog can't wedge the
                    // test forever: the gate self-opens after 5s.
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while !*open {
                        let timeout = deadline.saturating_duration_since(Instant::now());
                        if timeout.is_zero() {
                            break;
                        }
                        let (guard, _) = gate.cv.wait_timeout(open, timeout).unwrap();
                        open = guard;
                    }
                }
            })),
            ..ServeConfig::default()
        },
    );

    // Enough work for the stalled batch plus a queue behind it: the
    // probe's pending view stays positive for the whole episode.
    let tickets: Vec<_> = (0..12).map(|_| server.submit(0.5, 2)).collect();

    let poll_deadline = Instant::now() + Duration::from_secs(10);
    while server.watchdog_trips() == 0 && Instant::now() < poll_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        server.watchdog_trips() >= 1,
        "watchdog never tripped on a stalled dispatcher"
    );

    // Release the dispatcher; the backlog must fully drain.
    *gate.open.lock().unwrap() = true;
    gate.cv.notify_all();
    for ticket in tickets {
        assert!(ticket.wait().result.is_ok());
    }

    // The trip captured a dump: valid JSON holding the stalled batch's
    // start event and the trip itself.
    let dump = server.watchdog_dump().expect("trip must capture a dump");
    let json = ppscan_obs::json::parse(&dump).expect("dump must be valid JSON");
    let events: Vec<FlightEvent> = json
        .get("events")
        .and_then(|e| e.as_arr())
        .expect("dump has an events array")
        .iter()
        .map(|e| FlightEvent::from_json(e).expect("events parse"))
        .collect();
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::BatchStart), "kinds: {kinds:?}");
    assert!(kinds.contains(&EventKind::WatchdogTrip), "kinds: {kinds:?}");
    assert!(
        server
            .metrics_snapshot()
            .counter("serve.watchdog_trips")
            .unwrap()
            >= 1
    );
}

/// The server keeps its observability contract: spans from the serving
/// loop land in a collector activated around `start`, with the batch
/// and query stages both present.
#[test]
fn serving_spans_land_in_the_callers_collector() {
    let collector = ppscan_obs::Collector::new();
    let guard = collector.activate();
    let server = Server::start(graph_a(), ServeConfig::default());
    for _ in 0..10 {
        assert!(server.query(0.5, 2).result.is_ok());
    }
    drop(server);
    drop(guard);
    let stages: Vec<&str> = collector.snapshot().into_iter().map(|s| s.stage).collect();
    assert!(
        stages.contains(&"serve-batch"),
        "missing serve-batch in {stages:?}"
    );
    assert!(
        stages.contains(&"serve-query"),
        "missing serve-query in {stages:?}"
    );
}
