//! The serving loop: a dispatcher thread drains an in-process request
//! queue into batches, takes one index snapshot per batch, and runs the
//! batch's queries in FIFO order, each across a [`WorkerPool`].
//!
//! Threading model:
//!
//! * **Clients** (any number of threads) call [`Server::submit`] /
//!   [`Server::query`]: push a job onto a mutex-protected queue and
//!   optionally block on a per-job response slot.
//! * **One dispatcher** owns the pool. It clones the current
//!   `Arc<IndexSnapshot>` *once per batch* (a reference-count increment
//!   under an uncontended lock) and holds it until the batch ends — the
//!   queries share the `&` reference and never touch the lock. Each
//!   query is one [`GsIndex::query_with`] across the whole pool, so a
//!   one-query batch still uses every worker.
//! * **Rebuilds and updates** ([`Server::rebuild`], [`Server::update`])
//!   happen on the calling thread: build the new index outside the
//!   lock, then swap the `Arc` under it. Publishing never waits for
//!   in-flight batches; a batch still holding the replaced snapshot
//!   frees it when the batch ends.
//!
//! Every query runs under a `serve-query` span nested in the batch's
//! `serve-batch` span, and its queue-to-completion latency lands in a
//! shared [`LatencyHistogram`], so a `ppscan-obs` collector activated
//! around [`Server::start`] sees the full serving pipeline.
//!
//! On top of the post-hoc span layer the server carries *live*
//! telemetry, because a long-lived process can't wait for a report at
//! exit:
//!
//! * A per-server [`MetricsRegistry`] ([`Server::metrics`]) with the
//!   serving gauges (`serve.queue_depth`, `serve.in_flight`,
//!   `serve.batch_size`, `serve.generation`), counters (`serve.queries`,
//!   `serve.batches`, `serve.slow_queries`, `serve.rebuilds`,
//!   `serve.watchdog_trips`), the `serve.latency` histogram split into
//!   `serve.queue_wait` (enqueue to the query's own start, which in a
//!   FIFO batch includes the queries ahead of it) plus `serve.exec`
//!   (start to answer), and the query pool's `pool.*` family
//!   ([`ppscan_sched::PoolMetrics`]).
//!   Sample it any time with [`Server::metrics_snapshot`].
//! * A [`FlightRecorder`] ring of the last [`DEFAULT_RECORDER_CAPACITY`]
//!   structured events (enqueue, batch-start/end, swap, slow-query).
//! * An optional [`StallWatchdog`] ([`ServeConfig::watchdog`]) whose
//!   probe reads completed batches as progress and queue depth plus the
//!   in-flight batch as pending work: if the dispatcher stops making
//!   progress with work outstanding for longer than the deadline, the
//!   recorder is dumped ([`Server::watchdog_dump`]) and
//!   `serve.watchdog_trips` moves. Size the deadline well above the
//!   worst single-batch latency.

use ppscan_core::params::ScanParams;
use ppscan_core::result::Clustering;
use ppscan_graph::{CsrGraph, GraphDelta};
use ppscan_gsindex::GsIndex;
use ppscan_obs::events::{
    EventKind, FlightRecorder, StallWatchdog, WatchdogConfig, DEFAULT_RECORDER_CAPACITY,
};
use ppscan_obs::registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
use ppscan_obs::{propagate, LatencyHistogram, Span};
use ppscan_sched::{ExecutionStrategy, PoolMetrics, WorkerPool};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Configuration for [`Server::start`].
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads in the query pool: each query runs across all of
    /// them (also used for index builds).
    pub threads: usize,
    /// Largest number of queued queries executed, one after another,
    /// against one snapshot.
    pub max_batch: usize,
    /// Execution strategy for the query pool. `AdversarialSeeded` turns
    /// the serving path into a schedule-perturbed stress harness.
    pub strategy: ExecutionStrategy,
    /// Queue-to-response latency (nanoseconds) above which a query
    /// counts as slow: bumps `serve.slow_queries` and records a
    /// flight-recorder event. 0 disables slow-query tracking.
    pub slow_query_nanos: u64,
    /// Stall-watchdog deadline/poll; `None` runs without a watchdog.
    pub watchdog: Option<WatchdogConfig>,
    /// Test seam: called by the dispatcher with the 0-based batch
    /// ordinal after the batch's snapshot is taken and its batch-start
    /// event recorded, *before* any query runs. A hook that blocks
    /// stalls the dispatcher mid-batch — exactly what a watchdog test
    /// needs to stage deterministically.
    pub batch_hook: Option<Arc<dyn Fn(u64) + Send + Sync>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 2,
            max_batch: 64,
            strategy: ExecutionStrategy::Parallel,
            slow_query_nanos: 0,
            watchdog: None,
            batch_hook: None,
        }
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("threads", &self.threads)
            .field("max_batch", &self.max_batch)
            .field("strategy", &self.strategy)
            .field("slow_query_nanos", &self.slow_query_nanos)
            .field("watchdog", &self.watchdog)
            .field("batch_hook", &self.batch_hook.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

/// The unit the server publishes: an index tagged with the generation
/// that produced it. Keeping the generation inside the payload means a
/// response's generation always names exactly the index that answered
/// it.
struct IndexSnapshot {
    generation: u64,
    index: GsIndex,
}

/// What a client gets back for one submitted query.
#[derive(Debug)]
pub struct QueryResponse {
    /// Generation of the index snapshot that answered the query (1 for
    /// the index built at [`Server::start`], +1 per [`Server::rebuild`]).
    pub generation: u64,
    /// The clustering, or the parameter-validation error. A malformed
    /// `(ε, µ)` is an `Err`, never a panic: one bad client must not
    /// take down the dispatcher.
    pub result: Result<Clustering, String>,
}

struct ResponseSlot {
    filled: Mutex<Option<QueryResponse>>,
    cv: Condvar,
}

/// A handle to one in-flight query; redeem it with [`Ticket::wait`].
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the dispatcher delivers the response.
    pub fn wait(self) -> QueryResponse {
        let mut filled = lock(&self.slot.filled);
        loop {
            if let Some(response) = filled.take() {
                return response;
            }
            filled = self
                .slot
                .cv
                .wait(filled)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Job {
    eps: f64,
    mu: usize,
    enqueued: Instant,
    slot: Arc<ResponseSlot>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// The published snapshot. Readers clone the `Arc`; publishers swap
    /// it. The lock is held only for a clone, a swap or a field read.
    current: Mutex<Arc<IndexSnapshot>>,
}

impl Shared {
    /// The published snapshot, held for as long as the caller keeps it.
    fn current(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&lock(&self.current))
    }
}

/// A long-lived `(ε, µ)` clustering server over a published
/// [`GsIndex`] snapshot. `Server` is `Sync`: share `&Server` across
/// client threads (e.g. via `std::thread::scope`). Dropping the server
/// drains the queue, answers every outstanding ticket, and joins the
/// dispatcher.
pub struct Server {
    shared: Arc<Shared>,
    hist: Arc<LatencyHistogram>,
    metrics: Arc<MetricsRegistry>,
    recorder: Arc<FlightRecorder>,
    watchdog: Option<StallWatchdog>,
    queries: Counter,
    rebuilds: Counter,
    updates: Counter,
    update_applied: Counter,
    update_touched: Counter,
    watchdog_trips: Counter,
    queue_depth: Gauge,
    generation_gauge: Gauge,
    next_generation: AtomicU64,
    rebuild_lock: Mutex<()>,
    threads: usize,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Builds a [`GsIndex`](ppscan_gsindex::GsIndex) over `graph` (this
    /// is the expensive part) and starts the dispatcher. Ambient
    /// observability context (span collectors, counter scopes) active
    /// on the calling thread is captured and re-attached on the
    /// dispatcher, so spans from the serving loop land in the caller's
    /// collector.
    pub fn start(graph: Arc<CsrGraph>, config: ServeConfig) -> Server {
        let threads = config.threads.max(1);
        let index = GsIndex::build(graph, threads);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            current: Mutex::new(Arc::new(IndexSnapshot {
                generation: 1,
                index,
            })),
        });

        let metrics = Arc::new(MetricsRegistry::new());
        let hist = metrics.histogram("serve.latency");
        let queue_wait = metrics.histogram("serve.queue_wait");
        let exec = metrics.histogram("serve.exec");
        let queries = metrics.counter("serve.queries");
        let batches = metrics.counter("serve.batches");
        let slow_queries = metrics.counter("serve.slow_queries");
        let rebuilds = metrics.counter("serve.rebuilds");
        let updates = metrics.counter("serve.updates");
        let update_applied = metrics.counter("update.applied_edges");
        let update_touched = metrics.counter("update.touched_vertices");
        let watchdog_trips = metrics.counter("serve.watchdog_trips");
        let queue_depth = metrics.gauge("serve.queue_depth");
        let in_flight = metrics.gauge("serve.in_flight");
        let batch_size = metrics.gauge("serve.batch_size");
        let generation_gauge = metrics.gauge("serve.generation");
        generation_gauge.set(1);
        let pool_metrics = PoolMetrics::register(&metrics, "pool", threads);
        let recorder = Arc::new(FlightRecorder::new(DEFAULT_RECORDER_CAPACITY));

        let ctx = propagate::capture();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            let hist = Arc::clone(&hist);
            let recorder = Arc::clone(&recorder);
            let queries = queries.clone();
            let batches = batches.clone();
            let slow_queries = slow_queries.clone();
            let queue_depth = queue_depth.clone();
            let in_flight = in_flight.clone();
            let max_batch = config.max_batch.max(1);
            let strategy = config.strategy;
            let slow_query_nanos = config.slow_query_nanos;
            let batch_hook = config.batch_hook.clone();
            std::thread::Builder::new()
                .name("ppscan-serve-dispatch".into())
                .spawn(move || {
                    let _ctx = ctx.attach();
                    let pool = WorkerPool::with_strategy(threads, strategy);
                    pool.attach_metrics(pool_metrics);
                    let mut batch: Vec<Job> = Vec::with_capacity(max_batch);
                    let mut batch_ordinal = 0u64;
                    loop {
                        {
                            let mut queue = lock(&shared.queue);
                            while queue.is_empty() && !shared.shutdown.load(SeqCst) {
                                queue = shared
                                    .cv
                                    .wait(queue)
                                    .unwrap_or_else(PoisonError::into_inner);
                            }
                            if queue.is_empty() {
                                // Shutdown requested and fully drained.
                                break;
                            }
                            while batch.len() < max_batch {
                                match queue.pop_front() {
                                    Some(job) => batch.push(job),
                                    None => break,
                                }
                            }
                        }
                        // In-flight before queue_depth is decremented,
                        // so the watchdog's pending view (depth +
                        // in-flight) never dips to 0 mid-handoff.
                        in_flight.set(batch.len() as i64);
                        batch_size.set(batch.len() as i64);
                        queue_depth.add(-(batch.len() as i64));
                        let _batch_span = Span::enter("serve-batch");
                        // One snapshot per batch: every query in the
                        // batch sees the same generation, and the
                        // per-query path does zero snapshot
                        // synchronization. Held until the batch ends.
                        let held = shared.current();
                        let snap: &IndexSnapshot = &held;
                        recorder.record(EventKind::BatchStart, batch.len() as u64, snap.generation);
                        if let Some(hook) = &batch_hook {
                            hook(batch_ordinal);
                        }
                        // FIFO, each query across the whole pool.
                        for job in &batch {
                            let _span = Span::enter("serve-query");
                            let started = Instant::now();
                            let result = ScanParams::checked(job.eps, job.mu)
                                .map(|params| snap.index.query_with(params, &pool));
                            let answered = Instant::now();
                            let latency = nanos(answered - job.enqueued);
                            queue_wait.record(nanos(started - job.enqueued));
                            exec.record(nanos(answered - started));
                            hist.record(latency);
                            queries.incr();
                            if slow_query_nanos > 0 && latency >= slow_query_nanos {
                                slow_queries.incr();
                                recorder.record(EventKind::SlowQuery, latency, snap.generation);
                            }
                            let response = QueryResponse {
                                generation: snap.generation,
                                result,
                            };
                            // Out of flight before the answer is visible,
                            // so its client never sees itself in flight.
                            in_flight.add(-1);
                            *lock(&job.slot.filled) = Some(response);
                            job.slot.cv.notify_all();
                        }
                        recorder.record(EventKind::BatchEnd, batch.len() as u64, snap.generation);
                        batches.incr();
                        batch_ordinal += 1;
                        batch.clear();
                    }
                })
                .expect("spawn dispatcher")
        };

        let watchdog = config.watchdog.map(|wd_config| {
            let recorder = Arc::clone(&recorder);
            let trips = watchdog_trips.clone();
            let batches = batches.clone();
            let queue_depth = queue_depth.clone();
            let in_flight = in_flight.clone();
            StallWatchdog::spawn(
                wd_config,
                recorder,
                move || {
                    let pending = queue_depth.value().max(0) + in_flight.value().max(0);
                    (batches.value(), pending as u64)
                },
                move |_dump| trips.incr(),
            )
        });

        Server {
            shared,
            hist,
            metrics,
            recorder,
            watchdog,
            queries,
            rebuilds,
            updates,
            update_applied,
            update_touched,
            watchdog_trips,
            queue_depth,
            generation_gauge,
            next_generation: AtomicU64::new(2),
            rebuild_lock: Mutex::new(()),
            threads,
            dispatcher: Some(dispatcher),
        }
    }

    /// Enqueues one query; returns immediately with a [`Ticket`].
    pub fn submit(&self, eps: f64, mu: usize) -> Ticket {
        let slot = Arc::new(ResponseSlot {
            filled: Mutex::new(None),
            cv: Condvar::new(),
        });
        let depth = {
            let mut queue = lock(&self.shared.queue);
            queue.push_back(Job {
                eps,
                mu,
                enqueued: Instant::now(),
                slot: Arc::clone(&slot),
            });
            queue.len()
        };
        self.queue_depth.add(1);
        self.recorder.record(EventKind::Enqueue, depth as u64, 0);
        self.shared.cv.notify_one();
        Ticket { slot }
    }

    /// Submits and waits: the blocking convenience wrapper.
    pub fn query(&self, eps: f64, mu: usize) -> QueryResponse {
        self.submit(eps, mu).wait()
    }

    /// Builds an index over `graph` on the *calling* thread and swaps
    /// it in. In-flight and queued queries keep completing against
    /// whichever snapshot their batch took — the swap never waits for
    /// them, and they wait for it only as long as one `Arc` swap holds
    /// the lock. Returns the new snapshot's generation. Concurrent
    /// rebuilds are serialized so generations publish in order.
    pub fn rebuild(&self, graph: Arc<CsrGraph>) -> u64 {
        let _serialize = lock(&self.rebuild_lock);
        let generation = self.next_generation.fetch_add(1, SeqCst);
        let index = GsIndex::build(graph, self.threads);
        self.publish(IndexSnapshot { generation, index }, 0);
        self.rebuilds.incr();
        generation
    }

    /// Applies a batch of edge edits to the currently-published
    /// snapshot's graph and publishes the incrementally-maintained index
    /// as a new generation — one snapshot swap per batch, never one per
    /// edit. The maintenance runs on the calling thread and recomputes
    /// only the touched neighborhoods
    /// ([`GsIndex::apply_delta`]); in-flight batches keep answering
    /// from whichever snapshot they took. An invalid delta
    /// (out-of-range vertex, duplicate edit) is an `Err` and publishes
    /// nothing. Returns the new snapshot's generation.
    pub fn update(&self, delta: &GraphDelta) -> Result<u64, String> {
        let _serialize = lock(&self.rebuild_lock);
        let (index, stats) = self
            .shared
            .current()
            .index
            .apply_delta(delta, self.threads)
            .map_err(|e| e.to_string())?;
        let generation = self.next_generation.fetch_add(1, SeqCst);
        self.publish(
            IndexSnapshot { generation, index },
            stats.applied_edges as u64,
        );
        self.updates.incr();
        self.update_applied.add(stats.applied_edges as u64);
        self.update_touched.add(stats.touched_vertices as u64);
        Ok(generation)
    }

    /// Swaps `snapshot` in as the current index and records the swap
    /// (`detail` lands in the flight-recorder event). The replaced
    /// snapshot is dropped after the lock is released, so freeing a
    /// large index never holds up the dispatcher; a batch still holding
    /// it frees it when the batch ends instead.
    fn publish(&self, snapshot: IndexSnapshot, detail: u64) {
        let generation = snapshot.generation;
        let replaced = std::mem::replace(&mut *lock(&self.shared.current), Arc::new(snapshot));
        drop(replaced);
        self.generation_gauge
            .set(generation.min(i64::MAX as u64) as i64);
        self.recorder.record(EventKind::Swap, detail, generation);
    }

    /// Generation of the currently-published snapshot.
    pub fn generation(&self) -> u64 {
        lock(&self.shared.current).generation
    }

    /// Per-query latency histogram (queue entry → response delivered).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.hist
    }

    /// Total queries answered so far (including parameter errors).
    pub fn queries_served(&self) -> u64 {
        self.queries.value()
    }

    /// The server's live metrics registry (`serve.*` and `pool.*`
    /// instruments). Share it with a
    /// [`TimelineSampler`](ppscan_obs::registry::TimelineSampler) to
    /// record a serving timeline.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time sample of every live instrument.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The flight recorder holding recent serving events.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// How many times the stall watchdog has tripped (0 when running
    /// without one).
    pub fn watchdog_trips(&self) -> u64 {
        self.watchdog_trips.value()
    }

    /// The flight-recorder dump captured at the most recent watchdog
    /// trip, if any.
    pub fn watchdog_dump(&self) -> Option<String> {
        self.watchdog.as_ref().and_then(StallWatchdog::last_dump)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Stop the watchdog before the dispatcher: the shutdown drain
        // below is ordinary slow progress, not a stall.
        self.watchdog.take();
        self.shared.shutdown.store(true, SeqCst);
        self.shared.cv.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            // A dispatcher panic already poisoned every outstanding
            // ticket; nothing useful to add on top.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppscan_core::pscan::pscan;
    use ppscan_graph::gen;

    fn test_graph() -> Arc<CsrGraph> {
        Arc::new(gen::planted_partition(3, 16, 0.6, 0.03, 11))
    }

    #[test]
    fn serves_the_same_answers_as_direct_queries() {
        let graph = test_graph();
        let server = Server::start(Arc::clone(&graph), ServeConfig::default());
        for (eps, mu) in [(0.4, 2), (0.5, 3), (0.7, 5), (1.0, 1)] {
            let response = server.query(eps, mu);
            assert_eq!(response.generation, 1);
            let expected = pscan(&graph, ScanParams::new(eps, mu)).clustering;
            assert_eq!(response.result.expect("valid params"), expected);
        }
        assert_eq!(server.queries_served(), 4);
        assert_eq!(server.latency().count(), 4);
    }

    #[test]
    fn malformed_params_error_without_killing_the_server() {
        let server = Server::start(test_graph(), ServeConfig::default());
        for (eps, mu) in [(0.0, 2), (-1.0, 2), (1.5, 2), (f64::NAN, 2), (0.5, 0)] {
            let response = server.query(eps, mu);
            assert!(response.result.is_err(), "({eps}, {mu}) must be rejected");
        }
        // The dispatcher is still alive and serving.
        assert!(server.query(0.5, 2).result.is_ok());
        assert_eq!(server.queries_served(), 6);
    }

    #[test]
    fn a_burst_larger_than_max_batch_is_fully_answered() {
        // Multi-query batches run back to back across the pool; every
        // answer must still be exactly pscan's.
        let graph = test_graph();
        let expected: Vec<Clustering> = (1..=4)
            .map(|mu| pscan(&graph, ScanParams::new(0.5, mu)).clustering)
            .collect();
        let server = Server::start(
            graph,
            ServeConfig {
                max_batch: 8,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..100).map(|i| server.submit(0.5, 1 + i % 4)).collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().result.unwrap(), expected[i % 4], "query {i}");
        }
        assert_eq!(server.queries_served(), 100);
        assert_eq!(server.latency().count(), 100);
    }

    #[test]
    fn latency_splits_into_queue_wait_and_exec() {
        let server = Server::start(
            test_graph(),
            ServeConfig {
                max_batch: 4,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..20).map(|i| server.submit(0.5, 1 + i % 3)).collect();
        for ticket in tickets {
            assert!(ticket.wait().result.is_ok());
        }
        let snap = server.metrics_snapshot();
        let [latency, wait, exec] =
            ["serve.latency", "serve.queue_wait", "serve.exec"].map(|name| {
                snap.histogram(name)
                    .unwrap_or_else(|| panic!("{name} not registered"))
                    .clone()
            });
        for h in [&latency, &wait, &exec] {
            assert_eq!(h.count, 20);
        }
        // Both parts are cut at the same instants as the whole, so
        // their sums add up to it.
        let closure = wait.mean_nanos + exec.mean_nanos - latency.mean_nanos;
        assert!(closure.abs() < 1.0, "split is off by {closure} ns");
    }

    #[test]
    fn rebuild_swaps_generations_and_answers_track_the_new_graph() {
        let graph_a = test_graph();
        let graph_b = Arc::new(gen::clique_chain(5, 4));
        let server = Server::start(Arc::clone(&graph_a), ServeConfig::default());
        assert_eq!(server.generation(), 1);
        assert_eq!(server.query(0.5, 2).generation, 1);

        assert_eq!(server.rebuild(Arc::clone(&graph_b)), 2);
        assert_eq!(server.generation(), 2);
        let response = server.query(0.5, 2);
        assert_eq!(response.generation, 2);
        assert_eq!(
            response.result.unwrap(),
            pscan(&graph_b, ScanParams::new(0.5, 2)).clustering
        );

        // The batch answering the next query started after every
        // earlier batch ended, so nothing holds the replaced snapshot:
        // its index, graph B's only other owner, is freed.
        assert_eq!(server.rebuild(graph_a), 3);
        let _ = server.query(0.5, 2);
        assert_eq!(Arc::strong_count(&graph_b), 1);
    }

    #[test]
    fn metrics_track_queries_batches_and_rebuilds() {
        let server = Server::start(test_graph(), ServeConfig::default());
        for _ in 0..12 {
            assert!(server.query(0.5, 2).result.is_ok());
            // An answered query is out of flight when its client sees it.
            assert_eq!(server.metrics_snapshot().gauge("serve.in_flight"), Some(0));
        }
        server.rebuild(test_graph());
        assert!(server.query(0.5, 2).result.is_ok());
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.queries"), Some(13));
        let batches = snap.counter("serve.batches").unwrap();
        assert!((1..=13).contains(&batches), "batches = {batches}");
        assert_eq!(snap.counter("serve.rebuilds"), Some(1));
        assert_eq!(snap.counter("serve.watchdog_trips"), Some(0));
        assert_eq!(snap.gauge("serve.generation"), Some(2));
        // Everything answered: no queued or in-flight work left behind.
        assert_eq!(snap.gauge("serve.queue_depth"), Some(0));
        assert_eq!(snap.gauge("serve.in_flight"), Some(0));
        let latency = snap.histogram("serve.latency").unwrap();
        assert_eq!(latency.count, 13);
        // The query pool's instruments ride along in the same registry.
        assert!(snap.counter("pool.dispatches").unwrap() >= 1);
        assert!(snap.counter("pool.tasks").unwrap() >= 13);
    }

    #[test]
    fn flight_recorder_sees_the_batch_lifecycle() {
        let server = Server::start(
            test_graph(),
            ServeConfig {
                // Threshold of 1ns: every query is "slow", so the
                // slow-query path is exercised deterministically.
                slow_query_nanos: 1,
                ..ServeConfig::default()
            },
        );
        assert!(server.query(0.5, 2).result.is_ok());
        server.rebuild(test_graph());
        let events = server.flight_recorder().events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        for kind in [
            EventKind::Enqueue,
            EventKind::BatchStart,
            EventKind::SlowQuery,
            EventKind::BatchEnd,
            EventKind::Swap,
        ] {
            assert!(kinds.contains(&kind), "missing {kind:?} in {kinds:?}");
        }
        assert_eq!(
            server.metrics_snapshot().counter("serve.slow_queries"),
            Some(1)
        );
        // The dump round-trips through JSON text.
        let dump = server.flight_recorder().to_json().to_pretty_string();
        let back = ppscan_obs::json::parse(&dump).unwrap();
        assert_eq!(back.get("dropped").and_then(|d| d.as_u64()), Some(0));
    }

    #[test]
    fn serving_under_race_detection_is_clean() {
        // The full serving path — concurrent clients, the dispatcher's
        // queries through the query pool, and a mid-stream
        // rebuild/publish — under an active detection session. The pool
        // contributes fork/join/steal edges and every traced access in
        // the query pipeline is checked; any unordered pair would land
        // in the session's race list.
        let session = ppscan_obs::race::DetectionSession::begin();
        let server = Server::start(test_graph(), ServeConfig::default());
        let tickets: Vec<Ticket> = (0..16).map(|i| server.submit(0.5, 1 + i % 3)).collect();
        server.rebuild(test_graph());
        let late: Vec<Ticket> = (0..8).map(|_| server.submit(0.6, 2)).collect();
        for ticket in tickets.into_iter().chain(late) {
            assert!(ticket.wait().result.is_ok());
        }
        drop(server);
        let races = session.finish();
        assert!(races.is_empty(), "serving path raced: {races:?}");
    }

    fn test_delta(
        g: &CsrGraph,
        size: usize,
        rng: &mut ppscan_graph::rng::SplitMix64,
    ) -> GraphDelta {
        let edges: Vec<(u32, u32)> = g.undirected_edges().collect();
        let mut delta = GraphDelta::new();
        let mut used = std::collections::HashSet::new();
        while delta.len() < size {
            if rng.gen_bool(0.5) && !edges.is_empty() {
                let (u, v) = edges[rng.gen_index(edges.len())];
                if used.insert((u, v)) {
                    delta.delete(u, v).unwrap();
                }
            } else {
                let u = rng.gen_index(g.num_vertices()) as u32;
                let v = rng.gen_index(g.num_vertices()) as u32;
                if u != v && used.insert((u.min(v), u.max(v))) {
                    delta.insert(u.min(v), u.max(v)).unwrap();
                }
            }
        }
        delta
    }

    #[test]
    fn update_publishes_one_generation_per_batch() {
        let graph = test_graph();
        let server = Server::start(Arc::clone(&graph), ServeConfig::default());
        let mut rng = ppscan_graph::rng::SplitMix64::seed_from_u64(7);
        let delta = test_delta(&graph, 12, &mut rng);
        let edited = delta.apply_to(&graph).unwrap().graph;

        assert_eq!(server.update(&delta).unwrap(), 2);
        assert_eq!(server.generation(), 2);
        let response = server.query(0.5, 2);
        assert_eq!(response.generation, 2);
        assert_eq!(
            response.result.unwrap(),
            pscan(&edited, ScanParams::new(0.5, 2)).clustering
        );

        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.updates"), Some(1));
        assert!(snap.counter("update.applied_edges").unwrap() >= 1);
        assert!(snap.counter("update.touched_vertices").unwrap() >= 2);
        // The swap landed in the flight recorder.
        let kinds: Vec<EventKind> = server
            .flight_recorder()
            .events()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&EventKind::Swap));
    }

    #[test]
    fn invalid_update_is_an_error_and_publishes_nothing() {
        let server = Server::start(test_graph(), ServeConfig::default());
        let mut delta = GraphDelta::new();
        delta.insert(0, 1_000_000).unwrap();
        assert!(server.update(&delta).is_err());
        assert_eq!(server.generation(), 1);
        assert_eq!(server.metrics_snapshot().counter("serve.updates"), Some(0));
        // A later valid update continues the generation sequence with
        // no gap.
        let mut ok = GraphDelta::new();
        ok.delete(0, 1).unwrap();
        assert_eq!(server.update(&ok).unwrap(), 2);
    }

    #[test]
    fn queries_racing_updates_answer_from_their_claimed_generation() {
        // Snapshot coherence: while update batches publish new
        // generations, every response must match a from-scratch answer
        // on exactly the graph version its claimed generation names —
        // never a half-applied batch, never a stale graph with a fresh
        // generation tag.
        let g0 = test_graph();
        let params = ScanParams::new(0.5, 2);
        let mut rng = ppscan_graph::rng::SplitMix64::seed_from_u64(0x00c0_de7e);
        let mut deltas = Vec::new();
        let mut expected = vec![pscan(&g0, params).clustering];
        let mut current = (*g0).clone();
        for _ in 0..6 {
            let delta = test_delta(&current, 8, &mut rng);
            current = delta.apply_to(&current).unwrap().graph;
            expected.push(pscan(&current, params).clustering);
            deltas.push(delta);
        }

        let server = Server::start(g0, ServeConfig::default());
        std::thread::scope(|s| {
            let server = &server;
            let expected = &expected;
            for _ in 0..3 {
                s.spawn(move || {
                    for _ in 0..30 {
                        let response = server.query(0.5, 2);
                        let generation = response.generation as usize;
                        assert!(
                            (1..=expected.len()).contains(&generation),
                            "generation {generation} out of range"
                        );
                        assert_eq!(
                            response.result.unwrap(),
                            expected[generation - 1],
                            "answer does not match generation {generation}'s graph"
                        );
                    }
                });
            }
            for (i, delta) in deltas.iter().enumerate() {
                assert_eq!(server.update(delta).unwrap(), i as u64 + 2);
            }
        });
        assert_eq!(server.generation(), 7);
    }

    #[test]
    fn drop_answers_every_outstanding_ticket() {
        let server = Server::start(test_graph(), ServeConfig::default());
        let tickets: Vec<Ticket> = (0..32).map(|_| server.submit(0.6, 2)).collect();
        drop(server);
        for ticket in tickets {
            assert!(ticket.wait().result.is_ok());
        }
    }
}
