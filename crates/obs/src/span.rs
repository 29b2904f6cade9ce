//! Span tracing core: scoped stage timers feeding process-wide
//! [`Collector`]s.
//!
//! The model is deliberately small:
//!
//! * A [`Span`] is an RAII guard for one named stage on the current
//!   thread. Stage names are `&'static str` so recording a span is a
//!   push/pop plus an `Instant` read — no allocation on the hot path.
//! * A [`Collector`] aggregates finished spans into per-stage,
//!   per-worker totals (busy nanos, task counts, injected yields).
//!   Collectors are activated per-thread; worker threads join a
//!   collector by attaching a captured [`SpanContext`] (the scheduler
//!   does this automatically via `ppscan-obs::propagate`).
//! * [`enter_worker`] tags the current thread with a worker id so
//!   aggregation can attribute time to individual pool workers;
//!   untagged threads record into the orchestrator (wall) slot.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    /// Stack of currently open stage names on this thread.
    static STAGE_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Worker id of this thread, when it is acting as a pool worker.
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
    /// Collectors receiving finished spans from this thread.
    static ACTIVE: RefCell<Vec<Arc<CollectorInner>>> = const { RefCell::new(Vec::new()) };
}

/// The innermost currently-open stage on this thread, if any.
pub fn current_stage() -> Option<&'static str> {
    STAGE_STACK.with(|s| s.borrow().last().copied())
}

/// An RAII guard timing one named stage on the current thread.
///
/// Recording happens on [`finish`](Span::finish) or drop, whichever
/// comes first. `finish` additionally returns the measured duration,
/// which lets callers keep legacy `Duration`-based bookkeeping backed
/// by the span layer.
#[derive(Debug)]
pub struct Span {
    stage: &'static str,
    start: Instant,
    done: bool,
}

impl Span {
    /// Opens a span for `stage` on the current thread.
    pub fn enter(stage: &'static str) -> Span {
        STAGE_STACK.with(|s| s.borrow_mut().push(stage));
        Span {
            stage,
            start: Instant::now(),
            done: false,
        }
    }

    /// Closes the span and returns its duration.
    pub fn finish(mut self) -> Duration {
        self.record()
    }

    fn record(&mut self) -> Duration {
        debug_assert!(!self.done);
        self.done = true;
        let elapsed = self.start.elapsed();
        STAGE_STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(
                popped,
                Some(self.stage),
                "spans must close in LIFO order on one thread"
            );
        });
        let worker = WORKER.with(|w| w.get());
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        ACTIVE.with(|a| {
            for collector in a.borrow().iter() {
                collector.record_span(self.stage, worker, nanos);
            }
        });
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            self.record();
        }
    }
}

/// Tags the current thread as pool worker `worker` until the returned
/// guard drops (the previous tag, if any, is restored).
pub fn enter_worker(worker: usize) -> WorkerGuard {
    let prev = WORKER.with(|w| w.replace(Some(worker)));
    WorkerGuard { prev }
}

/// Guard restoring the previous worker tag. See [`enter_worker`].
#[derive(Debug)]
pub struct WorkerGuard {
    prev: Option<usize>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        WORKER.with(|w| w.set(self.prev));
    }
}

/// Records `n` injected yields against the current stage and worker in
/// every active collector. Used by the scheduler's adversarial strategy
/// so schedule perturbation shows up in reports.
pub fn record_yields(n: u64) {
    if n == 0 {
        return;
    }
    let stage = current_stage().unwrap_or("task");
    let worker = WORKER.with(|w| w.get());
    ACTIVE.with(|a| {
        for collector in a.borrow().iter() {
            collector.record_yields(stage, worker, n);
        }
    });
}

/// Records `n` successful steals against the current stage and worker in
/// every active collector. Used by the work-stealing scheduler so load
/// imbalance (how much work migrated between workers) shows up in
/// reports.
pub fn record_steals(n: u64) {
    if n == 0 {
        return;
    }
    let stage = current_stage().unwrap_or("task");
    let worker = WORKER.with(|w| w.get());
    ACTIVE.with(|a| {
        for collector in a.borrow().iter() {
            collector.record_steals(stage, worker, n);
        }
    });
}

/// Aggregated totals for one worker within one stage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerAgg {
    /// Worker id (from [`enter_worker`]).
    pub worker: usize,
    /// Sum of span durations recorded by this worker, in nanoseconds.
    pub busy_nanos: u64,
    /// Number of spans (≈ tasks) recorded by this worker.
    pub tasks: u64,
    /// Injected yields recorded by this worker.
    pub yields: u64,
    /// Tasks this worker stole from other workers' deques.
    pub steals: u64,
}

/// Aggregated totals for one stage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageAgg {
    /// Stage name.
    pub stage: &'static str,
    /// Sum of span durations from *untagged* threads (the orchestrator),
    /// i.e. the stage's wall time when the driver wraps each phase in a
    /// single span.
    pub wall_nanos: u64,
    /// Number of orchestrator spans.
    pub wall_count: u64,
    /// Per-worker aggregates, sorted by worker id.
    pub workers: Vec<WorkerAgg>,
}

impl StageAgg {
    /// Total busy nanoseconds across all workers.
    pub fn worker_busy_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_nanos).sum()
    }

    /// Total task count across all workers.
    pub fn worker_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }
}

#[derive(Default)]
struct CollectorInner {
    stages: Mutex<Vec<StageAgg>>,
}

impl CollectorInner {
    fn with_stage(&self, stage: &'static str, f: impl FnOnce(&mut StageAgg)) {
        let mut stages = self.stages.lock().unwrap();
        let agg = match stages.iter_mut().find(|s| s.stage == stage) {
            Some(agg) => agg,
            None => {
                stages.push(StageAgg {
                    stage,
                    ..StageAgg::default()
                });
                stages.last_mut().unwrap()
            }
        };
        f(agg);
    }

    fn record_span(&self, stage: &'static str, worker: Option<usize>, nanos: u64) {
        self.with_stage(stage, |agg| match worker {
            None => {
                agg.wall_nanos += nanos;
                agg.wall_count += 1;
            }
            Some(w) => {
                let slot = worker_slot(&mut agg.workers, w);
                slot.busy_nanos += nanos;
                slot.tasks += 1;
            }
        });
    }

    fn record_yields(&self, stage: &'static str, worker: Option<usize>, n: u64) {
        self.with_stage(stage, |agg| {
            let w = worker.unwrap_or(0);
            worker_slot(&mut agg.workers, w).yields += n;
        });
    }

    fn record_steals(&self, stage: &'static str, worker: Option<usize>, n: u64) {
        self.with_stage(stage, |agg| {
            let w = worker.unwrap_or(0);
            worker_slot(&mut agg.workers, w).steals += n;
        });
    }
}

fn worker_slot(workers: &mut Vec<WorkerAgg>, w: usize) -> &mut WorkerAgg {
    match workers.binary_search_by_key(&w, |s| s.worker) {
        Ok(i) => &mut workers[i],
        Err(i) => {
            workers.insert(
                i,
                WorkerAgg {
                    worker: w,
                    ..WorkerAgg::default()
                },
            );
            &mut workers[i]
        }
    }
}

/// A process-wide span aggregator.
///
/// Activate it on the orchestrating thread; pool workers join through
/// [`capture_context`]/[`SpanContext::attach`] (done automatically by
/// `ppscan-sched`). Cloning is cheap and clones share the same totals.
#[derive(Clone, Default)]
pub struct Collector {
    inner: Arc<CollectorInner>,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Starts receiving spans from the current thread until the guard
    /// drops. Re-activating an already-active collector is a no-op
    /// (idempotent, like `CounterScope` attachment).
    pub fn activate(&self) -> CollectorGuard {
        let installed = ACTIVE.with(|a| {
            let mut active = a.borrow_mut();
            if active.iter().any(|c| Arc::ptr_eq(c, &self.inner)) {
                false
            } else {
                active.push(Arc::clone(&self.inner));
                true
            }
        });
        CollectorGuard {
            inner: Arc::clone(&self.inner),
            installed,
        }
    }

    /// A snapshot of the per-stage aggregates, in first-seen stage order.
    pub fn snapshot(&self) -> Vec<StageAgg> {
        self.inner.stages.lock().unwrap().clone()
    }
}

/// Guard removing the collector from the current thread's active set.
pub struct CollectorGuard {
    inner: Arc<CollectorInner>,
    installed: bool,
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        if self.installed {
            ACTIVE.with(|a| {
                let mut active = a.borrow_mut();
                if let Some(i) = active.iter().position(|c| Arc::ptr_eq(c, &self.inner)) {
                    active.remove(i);
                }
            });
        }
    }
}

/// Captures the current thread's span context — active collectors plus
/// the open stage stack — for transfer to another thread.
pub fn capture_context() -> SpanContext {
    SpanContext {
        collectors: ACTIVE.with(|a| a.borrow().clone()),
        stages: STAGE_STACK.with(|s| s.borrow().clone()),
    }
}

/// A captured span context. See [`capture_context`].
#[derive(Clone)]
pub struct SpanContext {
    collectors: Vec<Arc<CollectorInner>>,
    stages: Vec<&'static str>,
}

impl SpanContext {
    /// Installs the captured context on the current thread until the
    /// guard drops. Collectors already active here are skipped; the
    /// captured stage stack is installed only if this thread has no
    /// open spans (so nesting inside an existing span is preserved).
    pub fn attach(&self) -> SpanContextGuard {
        let installed: Vec<Arc<CollectorInner>> = ACTIVE.with(|a| {
            let mut active = a.borrow_mut();
            let mut added = Vec::new();
            for c in &self.collectors {
                if !active.iter().any(|existing| Arc::ptr_eq(existing, c)) {
                    active.push(Arc::clone(c));
                    added.push(Arc::clone(c));
                }
            }
            added
        });
        let stages_installed = STAGE_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.is_empty() && !self.stages.is_empty() {
                stack.extend_from_slice(&self.stages);
                true
            } else {
                false
            }
        });
        SpanContextGuard {
            installed,
            stage_depth: if stages_installed {
                self.stages.len()
            } else {
                0
            },
        }
    }
}

/// Guard undoing a [`SpanContext::attach`].
pub struct SpanContextGuard {
    installed: Vec<Arc<CollectorInner>>,
    stage_depth: usize,
}

impl Drop for SpanContextGuard {
    fn drop(&mut self) {
        if self.stage_depth > 0 {
            STAGE_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let new_len = stack.len().saturating_sub(self.stage_depth);
                stack.truncate(new_len);
            });
        }
        if !self.installed.is_empty() {
            ACTIVE.with(|a| {
                let mut active = a.borrow_mut();
                for c in &self.installed {
                    if let Some(i) = active.iter().position(|e| Arc::ptr_eq(e, c)) {
                        active.remove(i);
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn spans_nest_and_aggregate() {
        let collector = Collector::new();
        let _guard = collector.activate();
        {
            let outer = Span::enter("outer");
            assert_eq!(current_stage(), Some("outer"));
            {
                let _inner = Span::enter("inner");
                assert_eq!(current_stage(), Some("inner"));
            }
            assert_eq!(current_stage(), Some("outer"));
            let d = outer.finish();
            assert!(d >= Duration::ZERO);
        }
        assert_eq!(current_stage(), None);
        let snap = collector.snapshot();
        assert_eq!(snap.len(), 2);
        let outer = snap.iter().find(|s| s.stage == "outer").unwrap();
        assert_eq!(outer.wall_count, 1);
        assert!(outer.workers.is_empty());
    }

    #[test]
    fn worker_tag_routes_to_worker_slot() {
        let collector = Collector::new();
        let _guard = collector.activate();
        {
            let _w = enter_worker(3);
            let _span = Span::enter("work");
        }
        let snap = collector.snapshot();
        let work = snap.iter().find(|s| s.stage == "work").unwrap();
        assert_eq!(work.wall_count, 0);
        assert_eq!(work.workers.len(), 1);
        assert_eq!(work.workers[0].worker, 3);
        assert_eq!(work.workers[0].tasks, 1);
    }

    #[test]
    fn context_transfers_to_other_threads() {
        let collector = Collector::new();
        let _guard = collector.activate();
        let phase = Span::enter("phase");
        let ctx = capture_context();
        thread::scope(|scope| {
            for w in 0..4 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    let _worker = enter_worker(w);
                    let _ctx = ctx.attach();
                    // Stage stack transferred: tasks inherit "phase".
                    assert_eq!(current_stage(), Some("phase"));
                    for _ in 0..5 {
                        let _task = Span::enter(current_stage().unwrap());
                    }
                });
            }
        });
        drop(phase);
        let snap = collector.snapshot();
        assert_eq!(snap.len(), 1);
        let agg = &snap[0];
        assert_eq!(agg.stage, "phase");
        assert_eq!(agg.wall_count, 1);
        assert_eq!(agg.workers.len(), 4);
        assert_eq!(agg.worker_tasks(), 20);
    }

    #[test]
    fn activation_is_idempotent() {
        let collector = Collector::new();
        let _g1 = collector.activate();
        {
            let _g2 = collector.activate();
            let _span = Span::enter("once");
        }
        // Inner guard dropped; outer activation must still be live and
        // the span must have been counted exactly once.
        let _span = Span::enter("again");
        drop(_span);
        let snap = collector.snapshot();
        assert_eq!(
            snap.iter().find(|s| s.stage == "once").unwrap().wall_count,
            1
        );
        assert_eq!(
            snap.iter().find(|s| s.stage == "again").unwrap().wall_count,
            1
        );
    }

    #[test]
    fn yields_are_attributed() {
        let collector = Collector::new();
        let _guard = collector.activate();
        {
            let _w = enter_worker(1);
            let _span = Span::enter("stage");
            record_yields(7);
        }
        let snap = collector.snapshot();
        let agg = snap.iter().find(|s| s.stage == "stage").unwrap();
        assert_eq!(agg.workers[0].yields, 7);
    }

    #[test]
    fn steals_are_attributed() {
        let collector = Collector::new();
        let _guard = collector.activate();
        {
            let _w = enter_worker(2);
            let _span = Span::enter("stage");
            record_steals(3);
            record_steals(0); // no-op
        }
        let snap = collector.snapshot();
        let agg = snap.iter().find(|s| s.stage == "stage").unwrap();
        assert_eq!(agg.workers[0].worker, 2);
        assert_eq!(agg.workers[0].steals, 3);
        assert_eq!(agg.workers[0].yields, 0);
    }

    /// Aggregation is lossless: every span entered lands in the
    /// collector's count. Runs on a fresh thread so other tests' spans
    /// don't perturb it.
    #[test]
    fn collector_counts_every_span_entered() {
        thread::spawn(|| {
            let collector = Collector::new();
            let _guard = collector.activate();
            const SPANS: usize = 286;
            for _ in 0..SPANS {
                let _span = Span::enter("counted");
            }
            let snap = collector.snapshot();
            let agg = snap.iter().find(|s| s.stage == "counted").unwrap();
            assert_eq!(agg.wall_count, SPANS as u64);
        })
        .join()
        .unwrap();
    }
}
