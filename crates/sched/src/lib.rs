//! # ppscan-sched
//!
//! Degree-based dynamic task scheduling (paper §4.4, Algorithm 5) on a
//! persistent work-stealing thread pool with **pluggable execution
//! strategies**.
//!
//! ppSCAN bundles vertex computations into tasks by accumulating the
//! degrees of vertices that still require work and cutting a task every
//! time the running sum exceeds a threshold (32768 in the paper's tuned
//! setting). Tasks are contiguous vertex ranges — so worker threads touch
//! adjacent regions of the CSR `dst`/`sim` arrays — and are executed on
//! worker threads with dynamic scheduling.
//!
//! This crate provides that scheduler as a reusable primitive:
//!
//! * [`chunk_by_weight`] reproduces Algorithm 5's master-thread loop:
//!   given a per-vertex weight (degree, or 0 for vertices whose role is
//!   already known), it emits the task ranges.
//! * [`WorkerPool`] runs a closure over every task range
//!   ([`WorkerPool::run_chunks`]), over per-vertex indices
//!   ([`WorkerPool::run_vertices`]), or over disjoint mutable items
//!   ([`WorkerPool::run_mut`]), under a chosen [`ExecutionStrategy`].
//!
//! ## The work-stealing pool
//!
//! Worker threads are spawned **once**, when the pool is built, and
//! parked on a condvar between dispatches. Each dispatch partitions the
//! task positions into per-worker bounded deques; a worker drains its
//! own deque from the bottom and, when empty, steals from the top of a
//! randomly chosen victim's deque (Chase–Lev protocol, std-only). ppSCAN
//! runs six barrier-separated phases per clustering, so no thread is
//! spawned or joined per phase (measured against a spawn-per-dispatch
//! shared-queue pool in
//! `crates/bench/baselines/sched_overhead_{before,after}.json`).
//!
//! ## Execution strategies
//!
//! Parallel SCAN reproductions live or die on determinism of the *result*
//! under nondeterministic schedules (Theorems 4.1/4.2). To make schedule
//! bugs reproducible on demand instead of once-in-a-hundred CI runs,
//! every phase can be replayed under one of these strategies:
//!
//! * [`ExecutionStrategy::Parallel`] — the production path: worker
//!   threads drain per-worker deques with randomized-victim stealing
//!   (work conservation without static assignment, the
//!   `SubmitTaskToPool` of Algorithm 5).
//! * [`ExecutionStrategy::SequentialDeterministic`] — every task runs in
//!   submission order on the caller thread. A reference schedule: any
//!   result difference against `Parallel` is a concurrency bug.
//! * [`ExecutionStrategy::AdversarialSeeded`] — a seeded task-order
//!   permutation plus seeded pre/post-task yield injection, so worker
//!   interleavings vary reproducibly with the seed. Used by the
//!   differential stress driver to hunt schedule-dependent bugs and to
//!   pin regressions to a replayable seed.
//! * [`ExecutionStrategy::Modeled`] — caller thread, oracle-chosen order
//!   (the model-checking seam; see [`modeled`]).
//!
//! ## Observability
//!
//! The pool is the workspace's single context-propagation point: on every
//! dispatch it captures the submitting thread's ambient context through
//! the `ppscan_obs::propagate` registry (span collectors, kernel counter
//! scopes, and anything else a layer registers) and attaches it on every
//! worker thread for the duration of that dispatch. Each task
//! additionally runs inside a `ppscan_obs::Span` named after the
//! submitting thread's current stage, with the worker id tagged, so an
//! active `ppscan_obs::Collector` sees per-stage / per-worker busy time,
//! task counts, injected-yield counts, and steal counts — with zero
//! plumbing at call sites.
//!
//! ```
//! use ppscan_sched::{chunk_by_weight, ExecutionStrategy, WorkerPool, DEFAULT_DEGREE_THRESHOLD};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let degrees = [100u64, 1, 1, 50_000, 2, 2];
//! let tasks = chunk_by_weight(6, 64, |v| degrees[v as usize]);
//! assert!(tasks.len() > 1); // the heavy vertex forces a cut
//!
//! for strategy in [
//!     ExecutionStrategy::Parallel,
//!     ExecutionStrategy::SequentialDeterministic,
//!     ExecutionStrategy::AdversarialSeeded { seed: 7 },
//! ] {
//!     let pool = WorkerPool::with_strategy(2, strategy);
//!     let sum = AtomicU64::new(0);
//!     pool.run_chunks(&tasks, |range| {
//!         for v in range {
//!             sum.fetch_add(degrees[v as usize], Ordering::Relaxed);
//!         }
//!     });
//!     assert_eq!(sum.load(Ordering::Relaxed), degrees.iter().sum::<u64>());
//! }
//! let _ = DEFAULT_DEGREE_THRESHOLD;
//! ```

use ppscan_obs::registry::{Counter, MetricsRegistry};
use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// The paper's tuned degree-sum threshold: "when the degree sum is above
/// the threshold 32768 … a task is submitted". Tuned by doubling from 1
/// until the task-queue maintenance cost became negligible (§4.4).
pub const DEFAULT_DEGREE_THRESHOLD: u64 = 32_768;

/// How a [`WorkerPool`] orders and interleaves its tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecutionStrategy {
    /// Production path: tasks are claimed from per-worker deques (with
    /// stealing) by `threads` worker threads.
    #[default]
    Parallel,
    /// Every task runs in submission order on the caller thread; no
    /// worker threads are spawned. The reference schedule for
    /// differential testing.
    SequentialDeterministic,
    /// Tasks are claimed by worker threads in a seeded *permuted* order,
    /// and every task is bracketed by a seeded number of
    /// `std::thread::yield_now` calls, perturbing the interleaving
    /// reproducibly. Same seed + same task set ⇒ same submission order
    /// and injection pattern (the OS interleaving still varies, which is
    /// the point: one seed explores a family of schedules biased away
    /// from the happy path).
    AdversarialSeeded {
        /// Permutation and yield-injection seed.
        seed: u64,
    },
    /// Every task runs on the caller thread, in an order chosen by the
    /// ambient [`modeled`] oracle (submission order when none is
    /// installed). This is the model-checking seam: an exhaustive
    /// explorer — `ppscan-check`, or a test sweeping permutations —
    /// installs an oracle with [`modeled::with_oracle`] and drives the
    /// pool through every task order it cares about, deterministically.
    Modeled,
}

/// The task-order oracle backing [`ExecutionStrategy::Modeled`].
///
/// An oracle is a thread-local closure `FnMut(num_tasks) -> order`
/// consulted once per pool dispatch; it returns the permutation of
/// `0..num_tasks` in which the caller thread executes the tasks. With no
/// oracle installed, `Modeled` degrades to submission order (identical
/// to [`ExecutionStrategy::SequentialDeterministic`]).
pub mod modeled {
    use std::cell::RefCell;

    type Oracle = Box<dyn FnMut(usize) -> Vec<usize>>;

    thread_local! {
        static ORACLE: RefCell<Option<Oracle>> = const { RefCell::new(None) };
    }

    /// Installs `oracle` as the caller thread's task-order oracle for
    /// the duration of `f` (restoring any previously installed oracle
    /// afterwards, so oracles nest).
    ///
    /// The orders an oracle returns must be permutations of
    /// `0..num_tasks`; dispatch panics otherwise.
    pub fn with_oracle<R>(
        oracle: impl FnMut(usize) -> Vec<usize> + 'static,
        f: impl FnOnce() -> R,
    ) -> R {
        let prev = ORACLE.with(|o| o.borrow_mut().replace(Box::new(oracle)));
        struct Restore(Option<Oracle>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                ORACLE.with(|o| *o.borrow_mut() = prev);
            }
        }
        let _restore = Restore(prev);
        f()
    }

    /// The order for a dispatch of `num_tasks` tasks: the oracle's
    /// choice, or submission order when no oracle is installed.
    pub(crate) fn order_for(num_tasks: usize) -> Vec<usize> {
        let order = ORACLE.with(|o| {
            o.borrow_mut()
                .as_mut()
                .map(|oracle| oracle(num_tasks))
                .unwrap_or_else(|| (0..num_tasks).collect())
        });
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert!(
            sorted.into_iter().eq(0..num_tasks),
            "modeled oracle must return a permutation of 0..{num_tasks}, got {order:?}"
        );
        order
    }
}

impl ExecutionStrategy {
    /// Parses the [`Display`](std::fmt::Display) form back into a
    /// strategy: `"parallel"`, `"sequential"`, `"adversarial(SEED)"`.
    /// Used by report readers and the stress corpus replayer.
    pub fn parse(s: &str) -> Option<ExecutionStrategy> {
        match s {
            "parallel" => Some(ExecutionStrategy::Parallel),
            "sequential" => Some(ExecutionStrategy::SequentialDeterministic),
            "modeled" => Some(ExecutionStrategy::Modeled),
            _ => {
                let seed = s.strip_prefix("adversarial(")?.strip_suffix(')')?;
                Some(ExecutionStrategy::AdversarialSeeded {
                    seed: seed.parse().ok()?,
                })
            }
        }
    }
}

impl std::fmt::Display for ExecutionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionStrategy::Parallel => write!(f, "parallel"),
            ExecutionStrategy::SequentialDeterministic => write!(f, "sequential"),
            ExecutionStrategy::AdversarialSeeded { seed } => write!(f, "adversarial({seed})"),
            ExecutionStrategy::Modeled => write!(f, "modeled"),
        }
    }
}

/// SplitMix64 step — the standard 64-bit mixer (Steele et al.), used for
/// seeded permutations, yield counts, and victim selection so the crate
/// stays free of external RNG dependencies.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn seeded_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Chunk size for [`WorkerPool::run_vertices`]: fixed multiple of the
/// thread count so the task set is a pure function of `(n, threads)` —
/// independent of the strategy, which keeps sequential and parallel
/// replays working over identical task sets.
fn uniform_chunks(n: usize, threads: usize) -> Vec<Range<u32>> {
    if n == 0 {
        return Vec::new();
    }
    let per = n.div_ceil(threads * 4).max(1);
    (0..n)
        .step_by(per)
        .map(|s| s as u32..((s + per).min(n)) as u32)
        .collect()
}

/// Algorithm 5's master-thread loop: walks vertices `0..n`, accumulates
/// `weight(v)` and cuts a task range whenever the accumulated sum exceeds
/// `threshold`. Vertices with weight 0 (no work required — e.g. role
/// already known) still belong to some range, but never force cuts, so a
/// long prefix of finished vertices costs nothing.
///
/// Returns contiguous, disjoint ranges exactly covering `0..n` (no range
/// for `n = 0`). Every range except possibly the last has accumulated
/// weight exceeding `threshold` or is a single overweight vertex.
pub fn chunk_by_weight(
    n: usize,
    threshold: u64,
    mut weight: impl FnMut(u32) -> u64,
) -> Vec<Range<u32>> {
    let mut tasks = Vec::new();
    let mut beg = 0u32;
    let mut acc = 0u64;
    for v in 0..n as u32 {
        acc = acc.saturating_add(weight(v));
        if acc > threshold {
            tasks.push(beg..v + 1);
            beg = v + 1;
            acc = 0;
        }
    }
    if (beg as usize) < n {
        tasks.push(beg..n as u32);
    }
    tasks
}

/// The task set [`WorkerPool::run_weighted`] executes: Algorithm 5's
/// [`chunk_by_weight`], except that when there are *fewer vertices than
/// workers* the accumulator would almost always emit a single task (a
/// tiny range rarely exceeds the threshold), leaving every other thread
/// idle and — worse for the differential stress driver — collapsing the
/// schedule space to one interleaving. Emit one task per vertex instead,
/// so even degenerate graphs exercise multi-task schedules.
pub fn weighted_tasks(
    n: usize,
    threshold: u64,
    threads: usize,
    weight: impl FnMut(u32) -> u64,
) -> Vec<Range<u32>> {
    if n > 0 && n < threads {
        return (0..n as u32).map(|v| v..v + 1).collect();
    }
    chunk_by_weight(n, threshold, weight)
}

/// Locks a mutex, ignoring poisoning: the pool's own state transitions
/// never panic mid-update, and a poisoned lock here would otherwise turn
/// one propagated task panic into a wedged pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live pool telemetry: counters registered in a
/// [`MetricsRegistry`](ppscan_obs::registry::MetricsRegistry) and fed by
/// the pool once attached via [`WorkerPool::attach_metrics`].
///
/// Complements the span layer, which aggregates *per run* and only while
/// a collector is active: these counters are always on and cheap enough
/// to sample live (a long-lived serve process polls them into its
/// timeline). `dispatches`/`tasks` count on every strategy; `steals`,
/// `parks`, `wakes`, and `worker_busy` are fed by the persistent
/// workers, so they stay 0 on caller-thread runs.
#[derive(Clone, Debug)]
pub struct PoolMetrics {
    /// Dispatches submitted to the pool, any strategy.
    pub dispatches: Counter,
    /// Logical tasks across all dispatches.
    pub tasks: Counter,
    /// Tasks that migrated between workers via stealing.
    pub steals: Counter,
    /// Park episodes: a worker ran out of work and blocked on the
    /// pool condvar (counted once per episode, not per spurious wake).
    pub parks: Counter,
    /// Parked workers woken with a job to run.
    pub wakes: Counter,
    /// Per-worker busy nanoseconds (time inside task bodies).
    pub worker_busy: Vec<Counter>,
}

impl PoolMetrics {
    /// Registers the pool counter family under `prefix` (names
    /// `{prefix}.dispatches`, `{prefix}.tasks`, `{prefix}.steals`,
    /// `{prefix}.parks`, `{prefix}.wakes`,
    /// `{prefix}.worker{W}.busy_nanos`) for a pool of `workers` threads.
    pub fn register(registry: &MetricsRegistry, prefix: &str, workers: usize) -> Arc<PoolMetrics> {
        Arc::new(PoolMetrics {
            dispatches: registry.counter(&format!("{prefix}.dispatches")),
            tasks: registry.counter(&format!("{prefix}.tasks")),
            steals: registry.counter(&format!("{prefix}.steals")),
            parks: registry.counter(&format!("{prefix}.parks")),
            wakes: registry.counter(&format!("{prefix}.wakes")),
            worker_busy: (0..workers)
                .map(|w| registry.counter(&format!("{prefix}.worker{w}.busy_nanos")))
                .collect(),
        })
    }
}

/// Runs queue position `queue_pos` of a dispatch: maps the position
/// through the adversarial claim-order permutation if one is installed,
/// brackets the task with seeded yields under adversarial replay, and
/// records the task as a span under `stage`. Shared by the inline and
/// work-stealing paths so both execute byte-identical task bodies.
fn run_position<F>(
    run_task: &F,
    stage: &'static str,
    order: Option<&[usize]>,
    seed: u64,
    queue_pos: usize,
) where
    F: Fn(usize) + Sync,
{
    let task = order.map_or(queue_pos, |o| o[queue_pos]);
    if order.is_some() {
        // Seeded pre/post-task yield injection: perturb where this
        // worker sits relative to the others without changing what it
        // computes.
        let mut state = seed ^ (task as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let pre = splitmix64(&mut state) % 4;
        for _ in 0..pre {
            std::thread::yield_now();
        }
        {
            let _span = ppscan_obs::Span::enter(stage);
            run_task(task);
        }
        let post = splitmix64(&mut state) % 2;
        for _ in 0..post {
            std::thread::yield_now();
        }
        ppscan_obs::span::record_yields(pre + post);
    } else {
        let _span = ppscan_obs::Span::enter(stage);
        run_task(task);
    }
}

/// One worker's slice of the dispatch positions, stealable from the
/// other end: a Chase–Lev deque specialised to the pool's drain-only
/// life cycle. Positions `top..bottom` are outstanding; the owner pops
/// from `bottom`, thieves advance `top`. No pushes ever happen after
/// publication (the task set is fixed at dispatch), so the classic
/// protocol loses its grow/overflow cases and needs no buffer — the
/// indices *are* the values.
struct Deque {
    /// Steal end (thieves advance this upward). `isize` so the owner's
    /// speculative `bottom - 1` underflow on an empty deque stays
    /// well-defined.
    top: AtomicIsize,
    /// Owner end (the owner moves this downward).
    bottom: AtomicIsize,
}

enum Steal {
    Taken(usize),
    Empty,
    /// Lost a CAS race with the owner or another thief; the deque may
    /// still hold work, so a draining scan must revisit it.
    Retry,
}

impl Deque {
    fn new(range: Range<usize>) -> Self {
        Deque {
            top: AtomicIsize::new(range.start as isize),
            bottom: AtomicIsize::new(range.end as isize),
        }
    }

    /// Owner pop from the bottom. The SeqCst fence orders the
    /// speculative `bottom` decrement against the thief's `top` read —
    /// the heart of the Chase–Lev protocol: either the thief sees the
    /// decrement (and finds the deque empty) or the owner sees the
    /// thief's `top` advance (and backs off / races the CAS on the last
    /// element).
    fn take(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            if t == b {
                // Single element left: race thieves for it, then reset
                // to the canonical empty state either way.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                return won.then_some(b as usize);
            }
            Some(b as usize)
        } else {
            // Already empty; undo the speculative decrement.
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Thief steal from the top.
    fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        std::sync::atomic::fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t < b {
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                Steal::Taken(t as usize)
            } else {
                Steal::Retry
            }
        } else {
            Steal::Empty
        }
    }
}

/// Splits dispatch positions `0..num_tasks` into one contiguous deque
/// per worker (balanced to within one task; empty deques for surplus
/// workers).
fn deques_for(num_tasks: usize, workers: usize) -> Vec<Deque> {
    (0..workers)
        .map(|w| Deque::new(w * num_tasks / workers..(w + 1) * num_tasks / workers))
        .collect()
}

/// Everything one dispatch shares with the persistent workers. Lives on
/// the submitting thread's stack: the submitter blocks until every
/// worker has signalled completion, so the borrow outlives all use (that
/// barrier is what makes the type-erased [`Job`] pointer sound).
struct DispatchCtx<'a, F: Fn(usize) + Sync> {
    run_task: &'a F,
    stage: &'static str,
    /// Adversarial claim-order permutation (`None` ⇒ plain parallel).
    order: Option<Vec<usize>>,
    seed: u64,
    deques: Vec<Deque>,
    /// The submitter's ambient observability context, attached by every
    /// worker for the duration of the dispatch.
    ambient: ppscan_obs::propagate::CapturedContext,
    /// Fork/join scope of the race detector: every task records a fork
    /// (or steal) edge at start and contributes to the join edge at end
    /// (see [`ppscan_obs::race::task_scope`]). Inert when no detection
    /// session is active.
    fork: ppscan_obs::race::ForkPoint,
    /// Live pool counters, when attached ([`WorkerPool::attach_metrics`]).
    metrics: Option<Arc<PoolMetrics>>,
    /// First task panic, re-raised on the submitting thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set after a task panicked: the remaining workers stop claiming.
    abort: AtomicBool,
}

impl<F: Fn(usize) + Sync> DispatchCtx<'_, F> {
    /// A persistent worker's share of one dispatch: drain the own deque,
    /// then steal from randomized victims until every deque is empty.
    /// All observability guards are scoped *inside* this call, so their
    /// deferred counter/span flushes land before the worker signals
    /// completion and releases the submitter.
    fn worker_main(&self, w: usize) {
        let _worker = ppscan_obs::span::enter_worker(w);
        let _ambient = self.ambient.attach();
        let mut rng = self.seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
        let mut steals = 0u64;
        // Busy time accumulates locally and flushes once at the end of
        // the worker's share, keeping the per-task cost at two `Instant`
        // reads when metrics are attached and zero otherwise.
        let mut busy_nanos = 0u64;
        let own = &self.deques[w];
        while !self.abort.load(Ordering::Relaxed) {
            if let Some(pos) = own.take() {
                busy_nanos += self.run_pos(pos);
                continue;
            }
            match self.steal_from_any(w, &mut rng) {
                Some(pos) => {
                    steals += 1;
                    busy_nanos += self.run_pos(pos);
                }
                None => break,
            }
        }
        ppscan_obs::span::record_steals(steals);
        if let Some(metrics) = &self.metrics {
            metrics.steals.add(steals);
            metrics.worker_busy[w].add(busy_nanos);
        }
    }

    /// One full randomized-victim sweep, repeated while any victim
    /// reports a lost race. Termination needs no consensus round: the
    /// task set is fixed at publication (deques only drain), so a single
    /// sweep observing every deque empty with no contention is final.
    fn steal_from_any(&self, w: usize, rng: &mut u64) -> Option<usize> {
        let n = self.deques.len();
        loop {
            if self.abort.load(Ordering::Relaxed) {
                return None;
            }
            let offset = (splitmix64(rng) % n as u64) as usize;
            let mut contended = false;
            for i in 0..n {
                let victim = (offset + i) % n;
                if victim == w {
                    continue;
                }
                match self.deques[victim].steal() {
                    Steal::Taken(pos) => return Some(pos),
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            if !contended {
                return None;
            }
            std::thread::yield_now();
        }
    }

    /// Runs one claimed position, returning its busy nanoseconds (0 when
    /// no metrics are attached — the timing reads are skipped entirely).
    fn run_pos(&self, pos: usize) -> u64 {
        let start = self.metrics.is_some().then(Instant::now);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ppscan_obs::race::task_scope(&self.fork, || {
                run_position(
                    self.run_task,
                    self.stage,
                    self.order.as_deref(),
                    self.seed,
                    pos,
                );
            });
        }));
        if let Err(payload) = result {
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
            self.abort.store(true, Ordering::SeqCst);
        }
        start.map_or(0, |s| {
            u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }
}

/// A type-erased pointer to the current dispatch's [`DispatchCtx`],
/// published to the persistent workers through the pool mutex.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    // SAFETY: contract of the pointee — `call` must only be invoked
    // with the matching `data` while the submitting dispatch is still
    // blocked (see the `Send` impl below).
    call: unsafe fn(*const (), usize),
}

// SAFETY: `data` points at a `DispatchCtx` (which is `Sync` — all its
// fields are shared-access-safe) pinned on the submitting thread's
// stack; the submitter blocks until every worker finishes, so the
// pointee strictly outlives all worker access.
unsafe impl Send for Job {}

/// Monomorphized entry point stored in [`Job::call`]: recovers the
/// concrete `DispatchCtx` type and runs one worker's share.
// SAFETY: contract — `data` must point at a live `DispatchCtx<F>` of
// the same `F` this shim was monomorphized for.
unsafe fn worker_shim<F: Fn(usize) + Sync>(data: *const (), w: usize) {
    // SAFETY: `data` was created from `&DispatchCtx<F>` in
    // `WorkerPool::dispatch` and is kept alive by the completion
    // barrier (see `Job`).
    let ctx = unsafe { &*data.cast::<DispatchCtx<'_, F>>() };
    ctx.worker_main(w);
}

struct PoolState {
    /// Bumped once per dispatch; workers run each epoch exactly once.
    epoch: u64,
    /// The published dispatch, `Some` from publication until the
    /// submitter observes completion.
    job: Option<Job>,
    /// Workers still inside the current epoch.
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between dispatches (the park/unpark handshake).
    work_cv: Condvar,
    /// The submitter parks here until `active` drops to zero.
    done_cv: Condvar,
    /// Live park/wake counters, when attached. Workers re-read this at
    /// the top of every epoch, so an attach takes effect from the next
    /// park episode onward.
    metrics: Mutex<Option<Arc<PoolMetrics>>>,
}

/// The persistent worker threads of a [`WorkerPool`]. Spawned once at pool construction, parked on `work_cv` between
/// dispatches, joined on drop.
struct PersistentWorkers {
    shared: Arc<PoolShared>,
    /// Serialises concurrent dispatches on a shared pool (the epoch
    /// protocol carries one job at a time).
    submit: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

impl PersistentWorkers {
    fn spawn(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            metrics: Mutex::new(None),
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppscan-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        PersistentWorkers {
            shared,
            submit: Mutex::new(()),
            handles,
        }
    }

    /// Publishes `ctx` to the workers, blocks until all of them have
    /// finished the epoch, then re-raises the first task panic (if any)
    /// on the calling thread.
    fn dispatch<F: Fn(usize) + Sync>(&self, threads: usize, ctx: &DispatchCtx<'_, F>) {
        let payload = {
            let _submit = lock(&self.submit);
            {
                let mut st = lock(&self.shared.state);
                st.epoch += 1;
                st.job = Some(Job {
                    data: (ctx as *const DispatchCtx<'_, F>).cast(),
                    call: worker_shim::<F>,
                });
                st.active = threads;
                self.shared.work_cv.notify_all();
            }
            let mut st = lock(&self.shared.state);
            while st.active > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
            drop(st);
            lock(&ctx.panic).take()
            // `_submit` drops here — before the resume below — so a
            // propagated panic cannot poison the submit lock.
        };
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for PersistentWorkers {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A persistent worker's outer loop: park until the epoch advances, run
/// the published job, signal completion, repeat until shutdown.
fn worker_loop(shared: &PoolShared, w: usize) {
    let mut seen = 0u64;
    loop {
        let metrics = lock(&shared.metrics).clone();
        let job = {
            let mut st = lock(&shared.state);
            let mut parked = false;
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen {
                    seen = st.epoch;
                    if parked {
                        if let Some(m) = &metrics {
                            m.wakes.incr();
                        }
                    }
                    break st.job.expect("an open epoch must carry a job");
                }
                if !parked {
                    // Once per episode: spurious condvar wakes within
                    // the same idle stretch are not new parks.
                    parked = true;
                    if let Some(m) = &metrics {
                        m.parks.incr();
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the submitter holds the DispatchCtx alive until
        // `active` reaches zero, which happens only after this call
        // returns and we decrement below.
        unsafe { (job.call)(job.data, w) };
        let mut st = lock(&shared.state);
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A task-execution engine with an explicit thread count and
/// [`ExecutionStrategy`]. One pool is built per algorithm run so the
/// thread count is an explicit experiment parameter (Figure 6 sweeps it
/// from 1 to 256).
///
/// The worker threads are spawned once, at construction, and parked
/// between dispatches; a task panic still propagates to the submitting
/// thread exactly like a sequential panic would.
pub struct WorkerPool {
    threads: usize,
    strategy: ExecutionStrategy,
    /// `Some` iff the strategy can dispatch in parallel (`Parallel` /
    /// `AdversarialSeeded`) *and* `threads > 1` — caller-thread
    /// strategies never pay for idle workers.
    persistent: Option<PersistentWorkers>,
    /// Live pool counters, when attached ([`Self::attach_metrics`]).
    metrics: Mutex<Option<Arc<PoolMetrics>>>,
}

impl WorkerPool {
    /// Builds a pool with exactly `threads` worker threads and the
    /// production [`ExecutionStrategy::Parallel`] strategy.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        Self::with_strategy(threads, ExecutionStrategy::Parallel)
    }

    /// Builds a pool with an explicit execution strategy.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_strategy(threads: usize, strategy: ExecutionStrategy) -> Self {
        assert!(threads > 0, "need at least one thread");
        let wants_workers = matches!(
            strategy,
            ExecutionStrategy::Parallel | ExecutionStrategy::AdversarialSeeded { .. }
        );
        let persistent = (threads > 1 && wants_workers).then(|| PersistentWorkers::spawn(threads));
        Self {
            threads,
            strategy,
            persistent,
            metrics: Mutex::new(None),
        }
    }

    /// Attaches live counters to the pool: from here on, every dispatch
    /// feeds `metrics` (see [`PoolMetrics`] for which counters move
    /// under which strategy). Attach before the first dispatch for complete
    /// park/wake coverage; the counter family should be registered with
    /// `workers >= self.threads()` so per-worker busy slots exist.
    pub fn attach_metrics(&self, metrics: Arc<PoolMetrics>) {
        assert!(
            metrics.worker_busy.len() >= self.threads,
            "PoolMetrics registered for {} workers, pool has {}",
            metrics.worker_busy.len(),
            self.threads
        );
        if let Some(workers) = &self.persistent {
            *lock(&workers.shared.metrics) = Some(Arc::clone(&metrics));
        }
        *lock(&self.metrics) = Some(metrics);
    }

    /// The attached live counters, if any.
    pub fn metrics(&self) -> Option<Arc<PoolMetrics>> {
        lock(&self.metrics).clone()
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool's execution strategy.
    pub fn strategy(&self) -> ExecutionStrategy {
        self.strategy
    }

    /// Runs `body` once per task range under the pool's strategy — the
    /// `SubmitTaskToPool` + `JoinThreadPool` pair of Algorithm 5. Returns
    /// only after all tasks complete (the paper's phase barrier).
    pub fn run_chunks<F>(&self, tasks: &[Range<u32>], body: F)
    where
        F: Fn(Range<u32>) + Sync,
    {
        self.execute(tasks.len(), |i| body(tasks[i].clone()));
    }

    /// Convenience: chunks `0..n` by `weight` with `threshold` (see
    /// [`weighted_tasks`]), then runs `body` per range. This is the full
    /// Algorithm 5 in one call.
    pub fn run_weighted<W, F>(&self, n: usize, threshold: u64, weight: W, body: F)
    where
        W: FnMut(u32) -> u64,
        F: Fn(Range<u32>) + Sync,
    {
        let tasks = weighted_tasks(n, threshold, self.threads, weight);
        self.run_chunks(&tasks, body);
    }

    /// Parallel for-each over `0..n` with uniform index chunking (used by
    /// uniform-cost phases where degree weighting buys nothing). The
    /// chunking is a pure function of `(n, threads)` so replays under
    /// different strategies cover identical task sets.
    pub fn run_vertices<F>(&self, n: usize, body: F)
    where
        F: Fn(u32) + Sync,
    {
        let tasks = uniform_chunks(n, self.threads);
        self.run_chunks(&tasks, |range| {
            for v in range {
                body(v);
            }
        });
    }

    /// Runs `body` once per item of `items`, mutably and under the pool's
    /// strategy — items dispatch through exactly the same engine as
    /// [`run_chunks`](Self::run_chunks) tasks (one task per item), so
    /// every strategy's ordering and interleaving guarantees carry over.
    /// Used for per-slice work like the GS*-Index's parallel
    /// neighbor-order sorts.
    pub fn run_mut<T, F>(&self, items: &mut [T], body: F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        struct SendPtr<T>(*mut T);
        // SAFETY: sharing the base pointer across workers is sound
        // because each index is claimed by exactly one task (below), so
        // the derived `&mut T`s are disjoint; `T: Send` makes handing
        // them to worker threads legal.
        unsafe impl<T: Send> Sync for SendPtr<T> {}
        impl<T> SendPtr<T> {
            /// Keeps the closure capturing the whole `Sync` wrapper, not
            /// the raw pointer field (disjoint closure capture would
            /// otherwise defeat the impl above).
            fn at(&self, i: usize) -> *mut T {
                // SAFETY: caller stays within the original slice.
                unsafe { self.0.add(i) }
            }
        }
        let base = SendPtr(items.as_mut_ptr());
        let body = &body;
        self.execute(items.len(), move |i| {
            // SAFETY: `execute` hands each index in `0..items.len()` to
            // exactly one task, and the dispatch barrier keeps `items`
            // borrowed for the duration — the &mut below never aliases.
            let item = unsafe { &mut *base.at(i) };
            body(item);
        });
    }

    /// Dispatches `num_tasks` logical tasks (`run_task(i)` for each `i in
    /// 0..num_tasks`) under the strategy.
    ///
    /// Every task runs wrapped in the ambient observability context of
    /// the submitting thread (see [`propagate`](ppscan_obs::propagate)):
    /// span collectors, kernel counter scopes, and any other registered
    /// propagator transfer to workers automatically, and each task is
    /// recorded as a span under the submitting thread's current stage.
    /// This is the pool's task-wrapper hook — call sites never touch
    /// scope plumbing.
    fn execute<F>(&self, num_tasks: usize, run_task: F)
    where
        F: Fn(usize) + Sync,
    {
        if num_tasks == 0 {
            return;
        }
        if let Some(metrics) = self.metrics() {
            metrics.dispatches.incr();
            metrics.tasks.add(num_tasks as u64);
        }
        let stage = ppscan_obs::span::current_stage().unwrap_or("task");
        match self.strategy {
            ExecutionStrategy::SequentialDeterministic => {
                // The caller thread acts as worker 0 so per-worker task
                // counts match parallel replays over the same task set.
                let _worker = ppscan_obs::span::enter_worker(0);
                for i in 0..num_tasks {
                    let _span = ppscan_obs::Span::enter(stage);
                    run_task(i);
                }
            }
            ExecutionStrategy::Modeled => {
                // Caller thread, oracle-chosen order: the exhaustive
                // checker's replayable schedule. Each task still runs as
                // its own logical thread under race detection, so an
                // unsynchronized task pair is flagged even though the
                // modeled execution is physically sequential.
                let order = modeled::order_for(num_tasks);
                let fork = ppscan_obs::race::fork_point();
                let _worker = ppscan_obs::span::enter_worker(0);
                for i in order {
                    let _span = ppscan_obs::Span::enter(stage);
                    ppscan_obs::race::task_scope(&fork, || run_task(i));
                }
                fork.join();
            }
            ExecutionStrategy::Parallel => {
                self.dispatch(num_tasks, stage, &run_task, None);
            }
            ExecutionStrategy::AdversarialSeeded { seed } => {
                let order = seeded_permutation(num_tasks, seed);
                self.dispatch(num_tasks, stage, &run_task, Some((order, seed)));
            }
        }
    }

    /// Parallel dispatch: routes to the inline loop (one effective
    /// worker) or the persistent work-stealing pool. `adversarial`
    /// supplies the permuted claim order and the yield-injection seed.
    fn dispatch<F>(
        &self,
        num_tasks: usize,
        stage: &'static str,
        run_task: &F,
        adversarial: Option<(Vec<usize>, u64)>,
    ) where
        F: Fn(usize) + Sync,
    {
        let (order, seed) = match adversarial {
            Some((order, seed)) => (Some(order), seed),
            None => (None, 0),
        };
        if self.threads.min(num_tasks) <= 1 {
            // One effective worker: run on the caller thread so claim
            // order is exactly the (possibly permuted) position order —
            // the adversarial single-thread replay determinism depends
            // on this.
            let fork = ppscan_obs::race::fork_point();
            let _worker = ppscan_obs::span::enter_worker(0);
            for queue_pos in 0..num_tasks {
                ppscan_obs::race::task_scope(&fork, || {
                    run_position(run_task, stage, order.as_deref(), seed, queue_pos);
                });
            }
            fork.join();
            return;
        }
        // Parallel strategies with more than one thread always own
        // persistent workers (see `with_strategy`).
        let workers = self
            .persistent
            .as_ref()
            .expect("parallel pool with threads > 1 has workers");
        let fork = ppscan_obs::race::fork_point();
        let ctx = DispatchCtx {
            run_task,
            stage,
            order,
            seed,
            deques: deques_for(num_tasks, self.threads),
            ambient: ppscan_obs::propagate::capture(),
            fork: fork.clone(),
            metrics: self.metrics(),
            panic: Mutex::new(None),
            abort: AtomicBool::new(false),
        };
        workers.dispatch(self.threads, &ctx);
        fork.join();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool({} threads, {})", self.threads, self.strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    const ALL_STRATEGIES: [ExecutionStrategy; 5] = [
        ExecutionStrategy::Parallel,
        ExecutionStrategy::SequentialDeterministic,
        ExecutionStrategy::AdversarialSeeded { seed: 1 },
        ExecutionStrategy::AdversarialSeeded { seed: 0xdead_beef },
        ExecutionStrategy::Modeled,
    ];

    #[test]
    fn detector_flags_unordered_dispatch_tasks_under_every_strategy() {
        use ppscan_obs::race::{DetectionSession, ShadowCell};
        // Two tasks of one dispatch write the same plain payload with no
        // protocol: the scheduler contract makes them concurrent, so the
        // detector must flag the pair under every parallel-semantics
        // strategy — including the physically sequential Modeled
        // execution.
        for strategy in [
            ExecutionStrategy::Parallel,
            ExecutionStrategy::Modeled,
            ExecutionStrategy::AdversarialSeeded { seed: 7 },
        ] {
            let session = DetectionSession::begin();
            let pool = WorkerPool::with_strategy(2, strategy);
            let cell = ShadowCell::new("dispatch-shared", 0u32);
            pool.run_vertices(4, |v| cell.set(v, "task-write"));
            let races = session.finish();
            assert!(
                races.iter().any(|r| r.kind == "write-write"),
                "{strategy}: expected a race, got {races:?}"
            );
        }
    }

    #[test]
    fn detector_orders_across_dispatch_barriers() {
        use ppscan_obs::race::{DetectionSession, ShadowCell};
        // Task writes in dispatch 1 happen-before task reads in dispatch
        // 2 (join edge → submitter → fork edge), and disjoint per-task
        // writes never race: the clean sweep over every strategy must be
        // silent.
        for strategy in ALL_STRATEGIES {
            let session = DetectionSession::begin();
            let pool = WorkerPool::with_strategy(3, strategy);
            let cells: Vec<ShadowCell<u32>> = (0..8).map(|_| ShadowCell::new("slot", 0)).collect();
            pool.run_vertices(8, |v| cells[v as usize].set(v + 1, "phase-1"));
            pool.run_vertices(8, |v| {
                assert_eq!(cells[v as usize].get("phase-2"), v + 1);
            });
            let races = session.finish();
            assert!(races.is_empty(), "{strategy}: false positive {races:?}");
        }
    }

    #[test]
    fn chunks_cover_exactly() {
        let tasks = chunk_by_weight(10, 5, |_| 2);
        // acc crosses 5 after 3 vertices (6 > 5).
        assert_eq!(tasks, vec![0..3, 3..6, 6..9, 9..10]);
        let covered: u64 = tasks.iter().map(|r| (r.end - r.start) as u64).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn zero_weights_never_cut() {
        let tasks = chunk_by_weight(100, 10, |_| 0);
        assert_eq!(tasks, vec![0..100]);
    }

    #[test]
    fn empty_input() {
        assert!(chunk_by_weight(0, 10, |_| 1).is_empty());
    }

    #[test]
    fn overweight_vertex_isolated() {
        let w = [1u64, 1, 1000, 1, 1];
        let tasks = chunk_by_weight(5, 10, |v| w[v as usize]);
        // The 1000-weight vertex closes its own task immediately.
        assert!(tasks.contains(&(0..3)));
        let total: u32 = tasks.iter().map(|r| r.end - r.start).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn skipping_finished_prefix_matches_paper() {
        // Mirrors Algorithm 5: weight 0 for vertices with known roles.
        let known = [true, true, true, false, false, true, false];
        let deg = [9u64, 9, 9, 4, 4, 9, 4];
        let tasks = chunk_by_weight(7, 7, |v| {
            if known[v as usize] {
                0
            } else {
                deg[v as usize]
            }
        });
        // Accumulation: v3 (4), v4 (8 > 7 → cut at 0..5), v6 (4, tail).
        assert_eq!(tasks, vec![0..5, 5..7]);
    }

    #[test]
    fn saturating_weights_do_not_overflow() {
        let tasks = chunk_by_weight(4, u64::MAX, |_| u64::MAX / 2);
        assert_eq!(tasks.last().unwrap().end, 4);
    }

    #[test]
    fn weighted_tasks_split_degenerate_inputs_per_vertex() {
        // Fewer vertices than workers: one task per vertex, not the
        // single under-threshold range the accumulator would emit.
        assert_eq!(
            weighted_tasks(3, u64::MAX, 4, |_| 1),
            vec![0..1, 1..2, 2..3]
        );
        // At or above the worker count: plain Algorithm 5 chunking.
        assert_eq!(weighted_tasks(100, u64::MAX, 4, |_| 1), vec![0..100]);
        assert_eq!(
            weighted_tasks(10, 5, 4, |_| 2),
            chunk_by_weight(10, 5, |_| 2)
        );
        assert!(weighted_tasks(0, 10, 4, |_| 1).is_empty());
    }

    #[test]
    fn run_weighted_covers_degenerate_small_inputs() {
        for strategy in ALL_STRATEGIES {
            let pool = WorkerPool::with_strategy(4, strategy);
            let tasks = AtomicUsize::new(0);
            let visited = AtomicU64::new(0);
            pool.run_weighted(
                3,
                u64::MAX,
                |_| 1,
                |r| {
                    tasks.fetch_add(1, Ordering::Relaxed);
                    for v in r {
                        visited.fetch_add(1 << v, Ordering::Relaxed);
                    }
                },
            );
            assert_eq!(tasks.load(Ordering::Relaxed), 3, "{strategy}");
            assert_eq!(visited.load(Ordering::Relaxed), 0b111, "{strategy}");
        }
    }

    #[test]
    fn deque_owner_and_thief_drain_disjointly() {
        let d = Deque::new(0..3);
        assert!(matches!(d.steal(), Steal::Taken(0)));
        assert_eq!(d.take(), Some(2));
        assert_eq!(d.take(), Some(1)); // last element goes through the CAS race
        assert_eq!(d.take(), None);
        assert!(matches!(d.steal(), Steal::Empty));

        let d = Deque::new(5..6);
        assert_eq!(d.take(), Some(5));
        assert_eq!(d.take(), None);

        let empty = Deque::new(7..7);
        assert_eq!(empty.take(), None);
        assert!(matches!(empty.steal(), Steal::Empty));
    }

    #[test]
    fn deques_partition_positions_exactly() {
        for (num_tasks, workers) in [(10, 3), (3, 8), (0, 4), (1000, 7)] {
            let deques = deques_for(num_tasks, workers);
            assert_eq!(deques.len(), workers);
            let mut seen = vec![false; num_tasks];
            for d in &deques {
                while let Some(pos) = d.take() {
                    assert!(!seen[pos], "position {pos} handed out twice");
                    seen[pos] = true;
                }
            }
            assert!(seen.into_iter().all(|s| s), "{num_tasks}/{workers}");
        }
    }

    #[test]
    fn pool_runs_every_chunk_once_under_every_strategy() {
        for strategy in ALL_STRATEGIES {
            let pool = WorkerPool::with_strategy(4, strategy);
            let tasks = chunk_by_weight(1000, 16, |_| 1);
            let visits = AtomicUsize::new(0);
            let sum = AtomicU64::new(0);
            pool.run_chunks(&tasks, |r| {
                visits.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(r.len() as u64, Ordering::Relaxed);
            });
            assert_eq!(visits.load(Ordering::Relaxed), tasks.len(), "{strategy}");
            assert_eq!(sum.load(Ordering::Relaxed), 1000, "{strategy}");
        }
    }

    /// Exactly-once delivery under work stealing, shaken across
    /// repeated dispatches on one (reused) pool.
    #[test]
    fn work_stealing_delivers_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        for round in 0..20 {
            let n = 97 + round * 13;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let tasks: Vec<Range<u32>> = (0..n as u32).map(|i| i..i + 1).collect();
            pool.run_chunks(&tasks, |r| {
                hits[r.start as usize].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "round {round}, task {i}");
            }
        }
    }

    /// The pool must reuse its spawned threads: across many
    /// dispatches the set of distinct worker thread ids stays bounded by
    /// the pool size.
    #[test]
    fn work_stealing_workers_are_persistent() {
        let pool = WorkerPool::new(2);
        let ids = Mutex::new(std::collections::HashSet::new());
        for _ in 0..5 {
            pool.run_vertices(400, |_| {
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        }
        let ids = ids.into_inner().unwrap();
        assert!(!ids.is_empty());
        assert!(
            ids.len() <= 2,
            "5 dispatches must reuse the same 2 workers, saw {} ids",
            ids.len()
        );
        assert!(
            !ids.contains(&std::thread::current().id()),
            "tasks run on pool workers, not the submitter"
        );
    }

    #[test]
    fn run_vertices_visits_all_under_every_strategy() {
        for strategy in ALL_STRATEGIES {
            let pool = WorkerPool::with_strategy(3, strategy);
            let sum = AtomicU64::new(0);
            pool.run_vertices(257, |v| {
                sum.fetch_add(v as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 256 * 257 / 2, "{strategy}");
        }
    }

    #[test]
    fn run_weighted_end_to_end() {
        let pool = WorkerPool::new(2);
        let count = AtomicUsize::new(0);
        pool.run_weighted(
            100,
            8,
            |_| 3,
            |r| {
                count.fetch_add(r.len(), Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn run_mut_visits_every_item() {
        for strategy in ALL_STRATEGIES {
            let pool = WorkerPool::with_strategy(3, strategy);
            let mut items: Vec<u64> = (0..100).collect();
            pool.run_mut(&mut items, |x| *x += 1);
            assert!(
                items.iter().enumerate().all(|(i, &x)| x == i as u64 + 1),
                "{strategy}"
            );
        }
    }

    #[test]
    fn sequential_strategy_preserves_submission_order() {
        let pool = WorkerPool::with_strategy(4, ExecutionStrategy::SequentialDeterministic);
        let log = Mutex::new(Vec::new());
        let tasks: Vec<Range<u32>> = (0..20).map(|i| i..i + 1).collect();
        pool.run_chunks(&tasks, |r| log.lock().unwrap().push(r.start));
        assert_eq!(*log.lock().unwrap(), (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn adversarial_permutation_is_seed_deterministic() {
        let order_of = |seed: u64| {
            // Single worker thread: claim order IS execution order.
            let pool = WorkerPool::with_strategy(1, ExecutionStrategy::AdversarialSeeded { seed });
            let log = Mutex::new(Vec::new());
            let tasks: Vec<Range<u32>> = (0..50).map(|i| i..i + 1).collect();
            pool.run_chunks(&tasks, |r| log.lock().unwrap().push(r.start));
            log.into_inner().unwrap()
        };
        assert_eq!(
            order_of(42),
            order_of(42),
            "same seed must replay identically"
        );
        assert_ne!(
            order_of(42),
            order_of(43),
            "different seeds should permute differently"
        );
        let mut sorted = order_of(42);
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..50).collect::<Vec<u32>>(),
            "permutation must cover all tasks"
        );
    }

    #[test]
    fn seeded_permutation_is_a_permutation() {
        for seed in [0u64, 1, 99] {
            let mut p = seeded_permutation(257, seed);
            p.sort_unstable();
            assert_eq!(p, (0..257).collect::<Vec<usize>>());
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        WorkerPool::new(0);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = WorkerPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.run_chunks(&[0..5, 5..9], |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn modeled_without_oracle_runs_in_submission_order() {
        let pool = WorkerPool::with_strategy(4, ExecutionStrategy::Modeled);
        let log = Mutex::new(Vec::new());
        let tasks: Vec<Range<u32>> = (0..12).map(|i| i..i + 1).collect();
        pool.run_chunks(&tasks, |r| log.lock().unwrap().push(r.start));
        assert_eq!(*log.lock().unwrap(), (0..12).collect::<Vec<u32>>());
    }

    #[test]
    fn modeled_oracle_chooses_the_task_order() {
        let pool = WorkerPool::with_strategy(4, ExecutionStrategy::Modeled);
        let tasks: Vec<Range<u32>> = (0..5).map(|i| i..i + 1).collect();
        let log = Mutex::new(Vec::new());
        modeled::with_oracle(
            |n| (0..n).rev().collect(),
            || pool.run_chunks(&tasks, |r| log.lock().unwrap().push(r.start)),
        );
        assert_eq!(*log.lock().unwrap(), vec![4, 3, 2, 1, 0]);
        // The oracle uninstalls with its scope.
        let log2 = Mutex::new(Vec::new());
        pool.run_chunks(&tasks, |r| log2.lock().unwrap().push(r.start));
        assert_eq!(*log2.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn modeled_oracles_nest_and_restore() {
        let pool = WorkerPool::with_strategy(2, ExecutionStrategy::Modeled);
        let tasks: Vec<Range<u32>> = (0..3).map(|i| i..i + 1).collect();
        let run = |pool: &WorkerPool| {
            let log = Mutex::new(Vec::new());
            pool.run_chunks(&tasks, |r| log.lock().unwrap().push(r.start));
            log.into_inner().unwrap()
        };
        modeled::with_oracle(
            |n| (0..n).rev().collect(),
            || {
                assert_eq!(run(&pool), vec![2, 1, 0]);
                modeled::with_oracle(
                    |n| (0..n).collect(),
                    || assert_eq!(run(&pool), vec![0, 1, 2]),
                );
                // Inner oracle gone: the outer one is back in force.
                assert_eq!(run(&pool), vec![2, 1, 0]);
            },
        );
    }

    #[test]
    fn modeled_rejects_non_permutation_orders() {
        let result = std::panic::catch_unwind(|| {
            let pool = WorkerPool::with_strategy(2, ExecutionStrategy::Modeled);
            modeled::with_oracle(|_| vec![0, 0], || pool.run_chunks(&[0..1, 1..2], |_| {}));
        });
        assert!(result.is_err(), "a duplicate-index order must be rejected");
    }

    #[test]
    fn modeled_run_mut_follows_oracle_order() {
        let pool = WorkerPool::with_strategy(2, ExecutionStrategy::Modeled);
        let mut items: Vec<u64> = vec![0; 4];
        let stamp = AtomicU64::new(0);
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let log2 = std::rc::Rc::clone(&log);
        modeled::with_oracle(
            move |n| {
                log2.borrow_mut().push(n);
                (0..n).rev().collect()
            },
            || {
                pool.run_mut(&mut items, |x| {
                    *x = stamp.fetch_add(1, Ordering::Relaxed) + 1;
                });
            },
        );
        assert_eq!(*log.borrow(), vec![4], "one oracle query per dispatch");
        assert_eq!(items, vec![4, 3, 2, 1]);
    }

    #[test]
    fn strategy_display_parse_roundtrip() {
        for strategy in ALL_STRATEGIES {
            let text = strategy.to_string();
            assert_eq!(ExecutionStrategy::parse(&text), Some(strategy), "{text}");
        }
        for bad in [
            "",
            "Parallel",
            "adversarial",
            "adversarial(",
            "adversarial(x)",
        ] {
            assert_eq!(ExecutionStrategy::parse(bad), None, "{bad:?}");
        }
    }

    /// Per-worker span aggregation must be schedule-independent in total:
    /// an adversarial replay distributes tasks differently across workers
    /// than the sequential reference, but per-stage task counts and task
    /// coverage must agree exactly.
    #[test]
    fn span_aggregation_matches_across_strategies() {
        use ppscan_obs::span::{Collector, Span, StageAgg};

        fn run(strategy: ExecutionStrategy) -> Vec<StageAgg> {
            let collector = Collector::new();
            let guard = collector.activate();
            let pool = WorkerPool::with_strategy(4, strategy);
            let tasks = chunk_by_weight(503, 8, |_| 1);
            {
                let _phase = Span::enter("phase-a");
                pool.run_chunks(&tasks, |r| {
                    std::hint::black_box(r.len());
                });
            }
            {
                let _phase = Span::enter("phase-b");
                pool.run_vertices(97, |v| {
                    std::hint::black_box(v);
                });
            }
            drop(guard);
            collector.snapshot()
        }

        let reference = run(ExecutionStrategy::SequentialDeterministic);
        let expected_a = chunk_by_weight(503, 8, |_| 1).len() as u64;
        let ref_a = reference.iter().find(|s| s.stage == "phase-a").unwrap();
        assert_eq!(ref_a.worker_tasks(), expected_a);
        assert_eq!(ref_a.wall_count, 1);

        for strategy in [
            ExecutionStrategy::Parallel,
            ExecutionStrategy::AdversarialSeeded { seed: 7 },
            ExecutionStrategy::AdversarialSeeded { seed: 0xfeed },
        ] {
            let snap = run(strategy);
            for stage in ["phase-a", "phase-b"] {
                let ours = snap.iter().find(|s| s.stage == stage).unwrap();
                let theirs = reference.iter().find(|s| s.stage == stage).unwrap();
                assert_eq!(
                    ours.worker_tasks(),
                    theirs.worker_tasks(),
                    "{strategy}/{stage}: total task count must be schedule-independent"
                );
                assert_eq!(ours.wall_count, 1, "{strategy}/{stage}");
                assert!(
                    ours.workers.len() <= 4,
                    "{strategy}/{stage}: at most `threads` workers"
                );
            }
        }
    }

    #[test]
    fn adversarial_yields_are_reported() {
        use ppscan_obs::span::{Collector, Span};
        let collector = Collector::new();
        let guard = collector.activate();
        let pool = WorkerPool::with_strategy(2, ExecutionStrategy::AdversarialSeeded { seed: 3 });
        {
            let _phase = Span::enter("yielding");
            pool.run_vertices(512, |v| {
                std::hint::black_box(v);
            });
        }
        drop(guard);
        let snap = collector.snapshot();
        let agg = snap.iter().find(|s| s.stage == "yielding").unwrap();
        let yields: u64 = agg.workers.iter().map(|w| w.yields).sum();
        assert!(yields > 0, "seeded yield injection should be observable");
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            let pool = WorkerPool::new(2);
            pool.run_chunks(&[0..1, 1..2, 2..3, 3..4], |r| {
                if r.start == 2 {
                    panic!("task failure");
                }
            });
        });
        assert!(result.is_err(), "worker panic must reach the submitter");
    }

    /// A panic must not wedge the persistent pool: the same pool object
    /// dispatches normally afterwards.
    #[test]
    fn pool_survives_a_task_panic() {
        let pool = WorkerPool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_vertices(64, |v| {
                if v == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        let sum = AtomicU64::new(0);
        pool.run_vertices(64, |v| {
            sum.fetch_add(v as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 63 * 64 / 2);
    }

    #[test]
    fn pool_metrics_count_dispatches_and_busy_time() {
        let registry = MetricsRegistry::new();
        let metrics = PoolMetrics::register(&registry, "sched", 4);
        let pool = WorkerPool::new(4);
        pool.attach_metrics(Arc::clone(&metrics));
        const DISPATCHES: u64 = 5;
        const TASKS: usize = 40;
        let tasks: Vec<Range<u32>> = (0..TASKS as u32).map(|i| i..i + 1).collect();
        for _ in 0..DISPATCHES {
            pool.run_chunks(&tasks, |_| {
                // Enough work that busy time is reliably nonzero.
                std::hint::black_box((0..2000u64).sum::<u64>());
            });
        }
        assert_eq!(metrics.dispatches.value(), DISPATCHES);
        assert_eq!(metrics.tasks.value(), (TASKS as u64) * DISPATCHES);
        let busy: u64 = metrics.worker_busy.iter().map(Counter::value).sum();
        assert!(busy > 0, "workers must accumulate busy time");
        // Workers park between dispatches and wake into the next one;
        // exact counts depend on timing, but after several dispatches
        // both must have moved.
        let snap = registry.snapshot();
        assert!(snap.counter("sched.parks").unwrap() > 0);
        assert!(snap.counter("sched.wakes").unwrap() > 0);
        assert_eq!(snap.counter("sched.dispatches"), Some(DISPATCHES));
    }

    #[test]
    fn pool_metrics_count_on_caller_thread_strategies() {
        let registry = MetricsRegistry::new();
        let metrics = PoolMetrics::register(&registry, "sched", 2);
        let pool = WorkerPool::with_strategy(2, ExecutionStrategy::SequentialDeterministic);
        pool.attach_metrics(Arc::clone(&metrics));
        pool.run_chunks(&[0..1, 1..2, 2..3], |_| {});
        // Dispatch/task counting is strategy-independent; the persistent
        // workers' counters stay 0 (no workers exist to park or steal).
        assert_eq!(metrics.dispatches.value(), 1);
        assert_eq!(metrics.tasks.value(), 3);
        assert_eq!(metrics.parks.value(), 0);
        assert_eq!(metrics.steals.value(), 0);
    }

    #[test]
    #[should_panic(expected = "PoolMetrics registered for")]
    fn attach_rejects_undersized_metrics() {
        let registry = MetricsRegistry::new();
        let metrics = PoolMetrics::register(&registry, "sched", 1);
        let pool = WorkerPool::new(3);
        pool.attach_metrics(metrics);
    }

    /// Steals land in the attached metrics: dispatch positions split
    /// contiguously across workers, so making worker 0's quarter slow
    /// and everyone else's instant leaves workers 1..3 idle with a
    /// stealable backlog sitting in worker 0's deque.
    #[test]
    fn pool_metrics_observe_steals_under_imbalance() {
        let registry = MetricsRegistry::new();
        let metrics = PoolMetrics::register(&registry, "sched", 4);
        let pool = WorkerPool::new(4);
        pool.attach_metrics(Arc::clone(&metrics));
        let tasks: Vec<Range<u32>> = (0..16u32).map(|i| i..i + 1).collect();
        for _ in 0..10 {
            pool.run_chunks(&tasks, |r| {
                if r.start < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
            if metrics.steals.value() > 0 {
                return;
            }
        }
        panic!("no steals observed across 10 imbalanced dispatches");
    }
}
