//! Scoped instrumentation counters.
//!
//! Figure 4 of the paper compares the *number of set-intersection
//! invocations* (`CompSim` calls) between pSCAN and ppSCAN, normalized by
//! |E|. These counters make that measurement available to the harness at
//! negligible cost (one thread-local increment per invocation — orders
//! of magnitude cheaper than the intersection itself).
//!
//! Counters used to be process-global statics, which made every
//! counter-asserting test flaky under `cargo test`'s parallel execution
//! and let concurrent algorithm runs pollute each other's deltas. They
//! are now **scoped**: a [`CounterScope`] is an explicit handle;
//! recording only happens on threads where a scope is *active*, into
//! exactly the scopes active on that thread.
//!
//! The record path itself never touches the scope stack: `record_*`
//! bumps plain thread-local [`Cell`]s unconditionally, and attribution
//! is deferred — each attach guard remembers the local totals at
//! activation and charges the delta to its scopes when it drops (with
//! [`CounterScope::snapshot`] folding in the current thread's still-open
//! window). This keeps the kernel hot path at two non-atomic
//! thread-local additions per `CompSim`, whether or not any scope is
//! active.
//!
//! Internally every counter is a slot in one fixed-size array (indexed
//! by the `IDX_*` constants), so the windowing machinery is written
//! once; the public [`CounterSnapshot`] keeps named fields because the
//! report schema names them.
//!
//! Scopes propagate to `ppscan_sched::WorkerPool` worker threads
//! **automatically**: the first activation registers a
//! [`ppscan_obs::propagate::Propagator`] that the pool consults when
//! capturing the submitting thread's ambient context, so algorithm code
//! never plumbs scopes through pool call sites. The manual primitives
//! remain for code that spawns raw threads outside the pool: capture
//! the caller's scopes with [`inherit`] and re-activate them on the
//! worker with [`ActiveScopes::attach`]:
//!
//! ```
//! use ppscan_intersect::counters::{self, CounterScope};
//!
//! let scope = CounterScope::new();
//! let (delta, _) = scope.measure(|| {
//!     let scopes = counters::inherit(); // capture on the caller thread
//!     std::thread::scope(|s| {
//!         s.spawn(|| {
//!             let _guard = scopes.attach(); // re-activate on the worker
//!             counters::record_invocation();
//!         });
//!     });
//! });
//! assert_eq!(delta.compsim_invocations, 1);
//! ```

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};

/// Number of distinct counters a scope tracks.
const N: usize = 2;

// Slot indexes into the counter arrays.
const IDX_INVOCATIONS: usize = 0;
const IDX_SCANNED: usize = 1;

struct ScopeInner {
    counts: [AtomicU64; N],
}

impl Default for ScopeInner {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One entry on a thread's active-scope stack: the scope plus the
/// thread-local totals at the moment it was activated here. The window
/// `LOCAL - base` is what this activation charges to the scope.
struct ActiveEntry {
    scope: Arc<ScopeInner>,
    base: [u64; N],
}

thread_local! {
    /// Scopes recording on this thread. A stack: guards pop what they
    /// pushed, so nested `measure`/`attach` compose.
    static ACTIVE: RefCell<Vec<ActiveEntry>> = const { RefCell::new(Vec::new()) };
    /// This thread's monotone totals. `record_*` only ever touches
    /// these; scopes are charged by delta on guard drop.
    static LOCAL: [Cell<u64>; N] = const { [const { Cell::new(0) }; N] };
}

/// Current thread-local totals.
fn local_counts() -> [u64; N] {
    LOCAL.with(|l| std::array::from_fn(|i| l[i].get()))
}

/// A point-in-time snapshot of one scope's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Number of `CompSim` (set-intersection) invocations.
    pub compsim_invocations: u64,
    /// Number of array elements consumed across all intersections
    /// (a proxy for comparison work).
    pub elements_scanned: u64,
}

impl CounterSnapshot {
    fn from_array(a: [u64; N]) -> Self {
        CounterSnapshot {
            compsim_invocations: a[IDX_INVOCATIONS],
            elements_scanned: a[IDX_SCANNED],
        }
    }

    fn to_array(self) -> [u64; N] {
        let mut a = [0u64; N];
        a[IDX_INVOCATIONS] = self.compsim_invocations;
        a[IDX_SCANNED] = self.elements_scanned;
        a
    }

    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let (now, then) = (self.to_array(), earlier.to_array());
        CounterSnapshot::from_array(std::array::from_fn(|i| now[i] - then[i]))
    }
}

/// An isolated counter accumulator. Cloning shares the accumulator
/// (handles are `Arc`-backed); distinct `new()` scopes never interfere,
/// across threads or within one.
#[derive(Clone, Default)]
pub struct CounterScope {
    inner: Arc<ScopeInner>,
}

impl CounterScope {
    /// Fresh scope with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Activates the scope on the **current thread** until the guard
    /// drops: `record_*` calls on this thread accumulate into it.
    /// Re-activating an already-active scope is a no-op (no double
    /// counting).
    pub fn activate(&self) -> AttachGuard {
        ActiveScopes {
            scopes: vec![self.inner.clone()],
        }
        .attach()
    }

    /// Current totals of this scope. If the scope is active on the
    /// *calling* thread, the still-open window since its activation here
    /// is folded in, so snapshots taken before the guard drops are
    /// accurate. Windows open on *other* threads only land when their
    /// guards drop (i.e. when those workers finish).
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut totals: [u64; N] =
            std::array::from_fn(|i| self.inner.counts[i].load(Ordering::Relaxed));
        let now = local_counts();
        ACTIVE.with(|a| {
            if let Some(e) = a
                .borrow()
                .iter()
                .find(|e| Arc::ptr_eq(&e.scope, &self.inner))
            {
                for i in 0..N {
                    totals[i] += now[i] - e.base[i];
                }
            }
        });
        CounterSnapshot::from_array(totals)
    }

    /// Runs `f` with the scope active on the current thread and returns
    /// the counter delta it produced alongside `f`'s result. Parallel
    /// callees must still [`inherit`]/[`ActiveScopes::attach`] to carry
    /// the scope onto their worker threads.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (CounterSnapshot, R) {
        let before = self.snapshot();
        let guard = self.activate();
        let out = f();
        drop(guard);
        (self.snapshot().since(&before), out)
    }
}

impl std::fmt::Debug for CounterScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterScope")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// The set of scopes active on the capturing thread; send it into worker
/// threads and [`attach`](ActiveScopes::attach) there.
#[derive(Clone, Default)]
pub struct ActiveScopes {
    scopes: Vec<Arc<ScopeInner>>,
}

/// Registers counter-scope propagation with the `ppscan_obs` context
/// registry (once per process). After this, `ppscan_sched::WorkerPool`
/// carries active scopes onto its worker threads automatically.
/// Invoked from every activation path so any code that *uses* scopes
/// also propagates them; calling it eagerly is also fine.
pub fn ensure_propagator() {
    static REGISTER: Once = Once::new();
    REGISTER.call_once(|| {
        ppscan_obs::propagate::register(Arc::new(CountersPropagator));
    });
}

struct CountersPropagator;

impl ppscan_obs::propagate::Propagator for CountersPropagator {
    fn capture(&self) -> Box<dyn ppscan_obs::propagate::CapturedSlot> {
        Box::new(inherit())
    }
}

impl ppscan_obs::propagate::CapturedSlot for ActiveScopes {
    fn attach(&self) -> Box<dyn std::any::Any> {
        Box::new(ActiveScopes::attach(self))
    }
}

/// Captures the scopes currently active on this thread (cheap: one Arc
/// clone per active scope, usually zero or one).
pub fn inherit() -> ActiveScopes {
    ACTIVE.with(|a| ActiveScopes {
        scopes: a.borrow().iter().map(|e| e.scope.clone()).collect(),
    })
}

impl ActiveScopes {
    /// Activates the captured scopes on the current thread until the
    /// guard drops. Scopes already active here are skipped (pointer
    /// identity), so attaching on the capturing thread itself — e.g. when
    /// a "worker" task runs inline under the sequential strategy — does
    /// not double-count.
    pub fn attach(&self) -> AttachGuard {
        ensure_propagator();
        let base = local_counts();
        let pushed = ACTIVE.with(|a| {
            let mut stack = a.borrow_mut();
            let mut pushed = 0;
            for s in &self.scopes {
                if !stack.iter().any(|e| Arc::ptr_eq(&e.scope, s)) {
                    stack.push(ActiveEntry {
                        scope: s.clone(),
                        base,
                    });
                    pushed += 1;
                }
            }
            pushed
        });
        AttachGuard { pushed }
    }
}

/// RAII guard deactivating what [`ActiveScopes::attach`] /
/// [`CounterScope::activate`] activated; on drop it charges the
/// thread-local counts accumulated during its window to the scopes it
/// pushed.
#[must_use = "dropping the guard immediately deactivates the scope"]
pub struct AttachGuard {
    pushed: usize,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        let now = local_counts();
        ACTIVE.with(|a| {
            let mut stack = a.borrow_mut();
            for _ in 0..self.pushed {
                let e = stack.pop().expect("guard outlived its stack entries");
                for (i, slot) in e.scope.counts.iter().enumerate() {
                    slot.fetch_add(now[i] - e.base[i], Ordering::Relaxed);
                }
            }
        });
    }
}

/// Adds `n` to one thread-local slot.
#[inline]
fn bump(idx: usize, n: u64) {
    LOCAL.with(|l| l[idx].set(l[idx].get() + n));
}

/// Records one `CompSim` invocation. Called by every kernel entry point;
/// compiles to a single thread-local increment.
#[inline]
pub fn record_invocation() {
    bump(IDX_INVOCATIONS, 1);
}

/// Records `n` scanned elements. Kernels batch this per call, not per
/// element, to keep the hot loop clean.
#[inline]
pub fn record_scanned(n: u64) {
    bump(IDX_SCANNED, n);
}

/// Records one `CompSim` invocation together with its scanned-element
/// count in a single thread-local access. The block kernels call this
/// once at each exit instead of paying two `LOCAL.with` round trips per
/// invocation.
#[inline]
pub fn record_invocation_scanned(n: u64) {
    LOCAL.with(|l| {
        l[IDX_INVOCATIONS].set(l[IDX_INVOCATIONS].get() + 1);
        l[IDX_SCANNED].set(l[IDX_SCANNED].get() + n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_monotone() {
        let scope = CounterScope::new();
        let (d, ()) = scope.measure(|| {
            record_invocation();
            record_invocation();
            record_scanned(10);
            record_scanned(0); // no-op
        });
        assert_eq!(d.compsim_invocations, 2);
        assert_eq!(d.elements_scanned, 10);
    }

    #[test]
    fn recording_without_scope_is_a_noop() {
        let scope = CounterScope::new();
        record_invocation(); // no scope active: goes nowhere
        assert_eq!(scope.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn nested_scopes_both_record() {
        let outer = CounterScope::new();
        let inner = CounterScope::new();
        let (od, _) = outer.measure(|| {
            record_invocation();
            let (id, ()) = inner.measure(record_invocation);
            assert_eq!(id.compsim_invocations, 1);
        });
        assert_eq!(od.compsim_invocations, 2, "outer sees nested work too");
    }

    #[test]
    fn snapshot_sees_unflushed_counts_on_current_thread() {
        // Drivers snapshot while their own activation guard is still
        // alive; the open window must be visible despite deferred
        // attribution.
        let scope = CounterScope::new();
        let _g = scope.activate();
        record_invocation();
        record_scanned(5);
        let snap = scope.snapshot();
        assert_eq!(snap.compsim_invocations, 1);
        assert_eq!(snap.elements_scanned, 5);
    }

    #[test]
    fn reactivating_active_scope_does_not_double_count() {
        let scope = CounterScope::new();
        let (d, ()) = scope.measure(|| {
            let _again = scope.activate();
            record_invocation();
        });
        assert_eq!(d.compsim_invocations, 1);
    }

    #[test]
    fn scopes_are_isolated_across_threads() {
        // Property test (satellite): per-thread scopes with interleaved
        // recording never observe each other's counts.
        let scopes: Vec<CounterScope> = (0..4).map(|_| CounterScope::new()).collect();
        std::thread::scope(|s| {
            for (i, scope) in scopes.iter().enumerate() {
                s.spawn(move || {
                    let _g = scope.activate();
                    for _ in 0..=i {
                        record_invocation();
                        record_scanned(7);
                    }
                });
            }
        });
        for (i, scope) in scopes.iter().enumerate() {
            let snap = scope.snapshot();
            assert_eq!(snap.compsim_invocations, i as u64 + 1, "scope {i}");
            assert_eq!(snap.elements_scanned, 7 * (i as u64 + 1), "scope {i}");
        }
    }

    #[test]
    fn inherit_attach_carries_scope_to_worker() {
        let scope = CounterScope::new();
        let (d, ()) = scope.measure(|| {
            let scopes = inherit();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = scopes.attach();
                    record_invocation();
                    record_scanned(3);
                });
                s.spawn(|| {
                    // No attach: this worker's records go nowhere.
                    record_invocation();
                });
            });
        });
        assert_eq!(d.compsim_invocations, 1);
        assert_eq!(d.elements_scanned, 3);
    }
}
