//! FastTrack-style happens-before race detection for *real* executions.
//!
//! `ppscan-check` exhaustively explores tiny modeled scenarios; this
//! module is the complementary dynamic analysis: it watches one actual
//! run (under any [`ExecutionStrategy`], including real `Parallel`
//! threads) and reports happens-before data races on the non-atomic
//! payloads the lock-free protocols guard.
//!
//! # Model
//!
//! * Every participating thread carries a **vector clock** `C_t`.
//! * Every *synchronizing* atomic location carries a release clock `L`,
//!   maintained **per store** (the TSan `ReleaseStore` rule): a
//!   `Release`/`AcqRel`/`SeqCst` *store* **replaces** `L` with the
//!   writer's clock — a plain store starts a fresh release sequence, so
//!   it must not carry earlier, unrelated writers' clocks — while a
//!   *successful* release RMW **joins** its clock into `L`, because an
//!   RMW continues the release sequence of the store it read from. An
//!   `Acquire`/`AcqRel`/`SeqCst` load joins `L` into the reader's
//!   clock; `Relaxed` accesses induce no edge. (An earlier revision
//!   joined on every release store, so `L` accumulated across writers
//!   and an acquire load inherited the clock of *every* past releaser,
//!   not just the one it read from — over-synchronizing, which can only
//!   hide races. The per-store clock drops exactly those phantom edges.
//!   We still don't track *which* store a load read from: hooks
//!   serialize through the session lock, and a load is credited with
//!   the latest store in that order — the remaining, strictly smaller
//!   over-approximation of C++ synchronizes-with.)
//! * The worker pool contributes **fork edges** (submitter → every
//!   task, recorded when a worker takes or *steals* the task) and
//!   **join edges** (every task → the submitter's post-barrier
//!   continuation) via [`ForkPoint`].
//! * Every **shadow-tracked data location** (see [`ShadowCell`])
//!   carries FastTrack state: a last-write *epoch* `(t, c)` and a read
//!   state that is a single epoch until two threads read concurrently,
//!   at which point it widens to a full read vector clock. A write must
//!   happen-after the last write and all reads; a read must
//!   happen-after the last write. Violations are recorded as
//!   [`RaceReport`]s.
//!
//! Detection is scoped by a [`DetectionSession`]: while one is active
//! (process-global, sessions serialize on a gate so parallel tests
//! cannot cross-talk), the traced substrates
//! (`ppscan_unionfind::traced`) and the pool hooks feed this module;
//! when no session is active every hook is a single relaxed flag load.
//!
//! `ExecutionStrategy` is defined in `ppscan-sched`; this crate only
//! names it in docs.

use crate::json::{self, Json};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Schema version of [`RaceReport`].
pub const RACE_REPORT_VERSION: u32 = 1;

/// How many recent atomic-op sites each thread keeps as provenance for
/// race reports.
const PROVENANCE_DEPTH: usize = 16;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Vector clocks and epochs
// ---------------------------------------------------------------------

/// A vector clock over thread slots. Slots are assigned densely per
/// [`DetectionSession`], so clocks stay short (one entry per thread
/// that actually participated).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock.
    pub fn new() -> VectorClock {
        VectorClock(Vec::new())
    }

    /// Component for thread slot `t` (0 when never ticked).
    pub fn get(&self, t: usize) -> u64 {
        self.0.get(t).copied().unwrap_or(0)
    }

    /// Sets component `t` to `v` (growing as needed).
    pub fn set(&mut self, t: usize, v: u64) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] = v;
    }

    /// Pointwise maximum: `self ⊔= other`.
    pub fn join(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Whether `self ⊑ other` pointwise.
    pub fn dominated_by(&self, other: &VectorClock) -> bool {
        self.0.iter().enumerate().all(|(t, &v)| v <= other.get(t))
    }

    /// The raw components (for serialization).
    pub fn components(&self) -> &[u64] {
        &self.0
    }
}

/// A FastTrack epoch: one thread's clock component at an access,
/// written `c@t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochStamp {
    /// Thread slot.
    pub tid: usize,
    /// That thread's clock component at the access.
    pub clock: u64,
}

impl EpochStamp {
    fn happens_before(&self, c: &VectorClock) -> bool {
        self.clock <= c.get(self.tid)
    }
}

// ---------------------------------------------------------------------
// Race reports
// ---------------------------------------------------------------------

/// One side of a racy access pair.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RaceAccess {
    /// Thread slot of the access.
    pub thread: u64,
    /// That thread's clock component at the access.
    pub clock: u64,
    /// Whether the access was a write.
    pub write: bool,
    /// Source-level site label of the access.
    pub site: String,
    /// The accessing thread's recent atomic-op provenance (most recent
    /// last): the trail of traced sync/shadow operations leading up to
    /// the access.
    pub recent_ops: Vec<String>,
    /// The accessing thread's vector clock (full clock for the
    /// detecting access; reconstructed-from-epoch for the earlier one).
    pub vector_clock: Vec<u64>,
}

/// A detected happens-before data race, versioned for embedding in
/// [`crate::RunReport`]s (`races` array, serialized only when
/// non-empty).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RaceReport {
    /// Schema version ([`RACE_REPORT_VERSION`]).
    pub version: u32,
    /// Label of the shadow location both accesses touched.
    pub location: String,
    /// `"write-write"`, `"read-write"`, or `"write-read"` (earlier
    /// access first).
    pub kind: String,
    /// The earlier access of the unordered pair.
    pub first: RaceAccess,
    /// The access that detected the race.
    pub second: RaceAccess,
}

impl RaceReport {
    /// Serializes to a [`Json`] value.
    pub fn to_json(&self) -> Json {
        fn access(a: &RaceAccess) -> Json {
            Json::Obj(vec![
                ("thread".into(), Json::from_u64(a.thread)),
                ("clock".into(), Json::from_u64(a.clock)),
                ("write".into(), Json::Bool(a.write)),
                ("site".into(), Json::Str(a.site.clone())),
                (
                    "recent_ops".into(),
                    Json::Arr(a.recent_ops.iter().cloned().map(Json::Str).collect()),
                ),
                (
                    "vector_clock".into(),
                    Json::Arr(a.vector_clock.iter().map(|&v| Json::from_u64(v)).collect()),
                ),
            ])
        }
        Json::Obj(vec![
            ("version".into(), Json::Int(self.version as i128)),
            ("location".into(), Json::Str(self.location.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("first".into(), access(&self.first)),
            ("second".into(), access(&self.second)),
        ])
    }

    /// Deserializes from a [`Json`] value.
    pub fn from_json(v: &Json) -> Result<RaceReport, String> {
        fn access(v: &Json) -> Result<RaceAccess, String> {
            let u64s = |key: &str| -> Result<u64, String> {
                v.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("race access missing {key}"))
            };
            let arr = |key: &str| v.get(key).and_then(Json::as_arr);
            Ok(RaceAccess {
                thread: u64s("thread")?,
                clock: u64s("clock")?,
                write: matches!(v.get("write"), Some(Json::Bool(true))),
                site: v
                    .get("site")
                    .and_then(Json::as_str)
                    .ok_or("race access missing site")?
                    .to_string(),
                recent_ops: arr("recent_ops")
                    .map(|a| {
                        a.iter()
                            .filter_map(|e| e.as_str().map(str::to_string))
                            .collect()
                    })
                    .unwrap_or_default(),
                vector_clock: arr("vector_clock")
                    .map(|a| a.iter().filter_map(Json::as_u64).collect())
                    .unwrap_or_default(),
            })
        }
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("race report missing {key}"))
        };
        Ok(RaceReport {
            version: v
                .get("version")
                .and_then(Json::as_u64)
                .ok_or("race report missing version")? as u32,
            location: str_field("location")?,
            kind: str_field("kind")?,
            first: access(v.get("first").ok_or("race report missing first")?)?,
            second: access(v.get("second").ok_or("race report missing second")?)?,
        })
    }

    /// Parses a report from JSON text.
    pub fn parse(text: &str) -> Result<RaceReport, String> {
        RaceReport::from_json(&json::parse(text).map_err(|e| e.to_string())?)
    }

    /// Serializes to pretty JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }
}

// ---------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------

/// FastTrack read state of a shadow location.
#[derive(Clone, Debug)]
enum ReadState {
    /// No read since the last write.
    None,
    /// All reads since the last write are totally ordered: keep just
    /// the last one (the FastTrack same-epoch fast path).
    Epoch(EpochStamp, &'static str),
    /// Concurrent readers: full read clock plus per-thread site labels.
    Shared(VectorClock, HashMap<usize, &'static str>),
}

#[derive(Clone, Debug)]
struct ShadowVar {
    label: &'static str,
    write: Option<(EpochStamp, &'static str)>,
    read: ReadState,
}

#[derive(Default)]
struct ThreadState {
    clock: VectorClock,
    recent_ops: Vec<String>,
}

impl ThreadState {
    fn note_op(&mut self, op: String) {
        if self.recent_ops.len() == PROVENANCE_DEPTH {
            self.recent_ops.remove(0);
        }
        self.recent_ops.push(op);
    }
}

#[derive(Default)]
struct SessionState {
    /// Monotone id distinguishing sessions, so stale thread-local slot
    /// assignments from a previous session are never reused.
    id: u64,
    threads: Vec<ThreadState>,
    /// Release clock per synchronizing atomic location (keyed by cell
    /// address; cells must outlive the session's use of them).
    sync: HashMap<usize, VectorClock>,
    /// FastTrack state per shadow-tracked data location.
    shadow: HashMap<usize, ShadowVar>,
    races: Vec<RaceReport>,
    /// Dedup key set: (location address, kind) already reported.
    reported: Vec<(usize, &'static str)>,
}

impl SessionState {
    fn thread(&mut self, t: usize) -> &mut ThreadState {
        while self.threads.len() <= t {
            self.threads.push(ThreadState::default());
        }
        &mut self.threads[t]
    }

    fn record_race(
        &mut self,
        loc: usize,
        kind: &'static str,
        label: &'static str,
        first: (EpochStamp, &'static str, bool),
        second: (usize, &'static str, bool),
    ) {
        let (second_tid, second_site, second_write) = second;
        if self.reported.contains(&(loc, kind)) {
            return;
        }
        self.reported.push((loc, kind));
        let second_state = &self.threads[second_tid];
        let second = RaceAccess {
            thread: second_tid as u64,
            clock: second_state.clock.get(second_tid),
            write: second_write,
            site: second_site.to_string(),
            recent_ops: second_state.recent_ops.clone(),
            vector_clock: second_state.clock.components().to_vec(),
        };
        let (stamp, site, write) = first;
        let first_state = self.threads.get(stamp.tid);
        let mut first_vc = VectorClock::new();
        first_vc.set(stamp.tid, stamp.clock);
        self.races.push(RaceReport {
            version: RACE_REPORT_VERSION,
            location: label.to_string(),
            kind: kind.to_string(),
            first: RaceAccess {
                thread: stamp.tid as u64,
                clock: stamp.clock,
                write,
                site: site.to_string(),
                recent_ops: first_state
                    .map(|s| s.recent_ops.clone())
                    .unwrap_or_default(),
                vector_clock: first_vc.components().to_vec(),
            },
            second,
        });
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static GATE: Mutex<()> = Mutex::new(());

fn state() -> &'static Mutex<SessionState> {
    static STATE: OnceLock<Mutex<SessionState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(SessionState::default()))
}

thread_local! {
    /// `(session id, thread slot)` of the calling thread's registration.
    static SLOT: std::cell::Cell<(u64, usize)> = const { std::cell::Cell::new((0, usize::MAX)) };
}

/// Whether a [`DetectionSession`] is currently active (one relaxed
/// load; every hook bails out on `false`).
#[inline]
pub fn detection_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn current_slot(s: &mut SessionState) -> usize {
    SLOT.with(|slot| {
        let (sid, t) = slot.get();
        if sid == s.id && t != usize::MAX {
            return t;
        }
        let t = s.threads.len();
        s.threads.push(ThreadState::default());
        // A fresh slot starts its own component at 1 so its epochs are
        // distinguishable from the zero clock.
        s.threads[t].clock.set(t, 1);
        slot.set((s.id, t));
        t
    })
}

/// An active race-detection scope. Only one exists at a time
/// process-wide (`begin` serializes on a global gate), so concurrently
/// running tests cannot cross-talk through the detector.
pub struct DetectionSession {
    _gate: MutexGuard<'static, ()>,
}

impl DetectionSession {
    /// Activates detection. Blocks until any other active session
    /// finishes.
    pub fn begin() -> DetectionSession {
        let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let mut s = lock(state());
            let id = s.id + 1;
            *s = SessionState {
                id,
                ..SessionState::default()
            };
            // Register the session-owning thread as slot 0.
            current_slot(&mut s);
        }
        ACTIVE.store(true, Ordering::SeqCst);
        DetectionSession { _gate: gate }
    }

    /// Deactivates detection and returns every race found.
    pub fn finish(self) -> Vec<RaceReport> {
        ACTIVE.store(false, Ordering::SeqCst);
        let races = std::mem::take(&mut lock(state()).races);
        drop(self);
        races
    }

    /// Races found so far without ending the session.
    pub fn races_so_far(&self) -> Vec<RaceReport> {
        lock(state()).races.clone()
    }
}

impl Drop for DetectionSession {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// Fork / join / steal edges (worker-pool hooks)
// ---------------------------------------------------------------------

struct ForkInner {
    /// Submitter clock at the fork, joined by each task at start (the
    /// fork edge — recorded when the task is taken *or stolen*).
    fork: VectorClock,
    /// Accumulated task-end clocks, joined back into the submitter at
    /// the barrier (the join edge).
    joined: Mutex<VectorClock>,
}

/// A fork/join scope handed out by [`fork_point`]. The worker pool
/// creates one per dispatch; tasks call [`ForkPoint::task_start`] /
/// [`ForkPoint::task_end`], the submitter calls [`ForkPoint::join`]
/// after its barrier. When no session is active this is a no-op shell.
#[derive(Clone)]
pub struct ForkPoint(Option<Arc<ForkInner>>);

/// Captures the calling thread's clock as a fork point and advances it
/// (so work after the dispatch is not ordered before the fork).
pub fn fork_point() -> ForkPoint {
    if !detection_active() {
        return ForkPoint(None);
    }
    let mut s = lock(state());
    let t = current_slot(&mut s);
    let clock = s.threads[t].clock.clone();
    let tick = clock.get(t) + 1;
    s.threads[t].clock.set(t, tick);
    ForkPoint(Some(Arc::new(ForkInner {
        fork: clock,
        joined: Mutex::new(VectorClock::new()),
    })))
}

impl ForkPoint {
    /// Records the fork (or steal) edge into the current worker thread:
    /// everything the submitter did before the dispatch happens-before
    /// this task. In the Chase–Lev pool only the submitter pushes, so
    /// the steal edge (victim's release push → thief's acquire steal)
    /// has the same source clock as the fork edge and is recorded here
    /// at the moment the thief starts the stolen task.
    pub fn task_start(&self) {
        if let Some(inner) = &self.0 {
            if !detection_active() {
                return;
            }
            let mut s = lock(state());
            let t = current_slot(&mut s);
            let fork = inner.fork.clone();
            s.thread(t).clock.join(&fork);
        }
    }

    /// Records this task's contribution to the join edge and advances
    /// the worker clock (tasks of the same dispatch stay unordered).
    pub fn task_end(&self) {
        if let Some(inner) = &self.0 {
            if !detection_active() {
                return;
            }
            let mut s = lock(state());
            let t = current_slot(&mut s);
            let clock = s.threads[t].clock.clone();
            lock(&inner.joined).join(&clock);
            let tick = clock.get(t) + 1;
            s.threads[t].clock.set(t, tick);
        }
    }

    /// Records the join edge into the submitter: every task of the
    /// dispatch happens-before everything after the barrier.
    pub fn join(&self) {
        if let Some(inner) = &self.0 {
            if !detection_active() {
                return;
            }
            let mut s = lock(state());
            let t = current_slot(&mut s);
            let joined = lock(&inner.joined).clone();
            s.thread(t).clock.join(&joined);
        }
    }
}

/// Runs one dispatched task as its own *logical* thread: a fresh clock
/// slot, a fork edge in, a join edge out, restoring the caller's slot
/// afterwards (even on unwind).
///
/// The worker pool promises nothing about the relative order of two
/// tasks in one dispatch — even when one OS worker happens to run both
/// back-to-back, or when `ExecutionStrategy::Modeled` runs the whole
/// dispatch on the caller thread. Giving every task its own slot makes
/// the detector check that *contract* instead of the incidental OS
/// schedule: an unsynchronized task pair is flagged deterministically,
/// no matter how the scheduler happened to place the tasks.
pub fn task_scope<R>(fork: &ForkPoint, f: impl FnOnce() -> R) -> R {
    if fork.0.is_none() || !detection_active() {
        return f();
    }
    let prev = SLOT.with(|s| s.get());
    {
        let mut s = lock(state());
        let t = s.threads.len();
        s.threads.push(ThreadState::default());
        s.threads[t].clock.set(t, 1);
        let id = s.id;
        SLOT.with(|slot| slot.set((id, t)));
    }
    struct Restore((u64, usize));
    impl Drop for Restore {
        fn drop(&mut self) {
            SLOT.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(prev);
    fork.task_start();
    let r = f();
    fork.task_end();
    r
}

// ---------------------------------------------------------------------
// Sync-location hooks (traced atomic substrates)
// ---------------------------------------------------------------------

fn is_acquire(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn is_release(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// Records an atomic load at sync location `loc`: acquire-or-stronger
/// joins the location's release clock into the thread clock.
pub fn sync_load(loc: usize, site: &'static str, order: Ordering) {
    if !detection_active() {
        return;
    }
    let mut s = lock(state());
    let t = current_slot(&mut s);
    s.thread(t).note_op(format!("load {order:?} @ {site}"));
    if is_acquire(order) {
        if let Some(l) = s.sync.get(&loc).cloned() {
            s.thread(t).clock.join(&l);
        }
    }
}

/// Records an atomic store at sync location `loc`: release-or-stronger
/// **replaces** the location's release clock with the thread clock and
/// advances the thread clock. Replacement (not join) is the per-store
/// precision rule: a plain store heads a *new* release sequence, so an
/// acquire load that reads it must synchronize with this writer only —
/// joining would let the location accumulate every past releaser's
/// clock and invent happens-before edges that hide races.
pub fn sync_store(loc: usize, site: &'static str, order: Ordering) {
    if !detection_active() {
        return;
    }
    let mut s = lock(state());
    let t = current_slot(&mut s);
    s.thread(t).note_op(format!("store {order:?} @ {site}"));
    if is_release(order) {
        let clock = s.threads[t].clock.clone();
        s.sync.insert(loc, clock.clone());
        let tick = clock.get(t) + 1;
        s.threads[t].clock.set(t, tick);
    }
}

/// Records a read-modify-write (CAS) at sync location `loc`. `success`
/// tells whether the RMW took effect; a failed CAS is a load with the
/// failure ordering. Unlike [`sync_store`], a successful release RMW
/// **joins** into the location clock rather than replacing it: an RMW
/// reads the previous store, so it *continues* that store's release
/// sequence — an acquire load after the RMW synchronizes with both the
/// RMW and the store it extended.
pub fn sync_rmw(loc: usize, site: &'static str, order: Ordering, success: bool) {
    if !detection_active() {
        return;
    }
    let mut s = lock(state());
    let t = current_slot(&mut s);
    s.thread(t)
        .note_op(format!("rmw({success}) {order:?} @ {site}"));
    if is_acquire(order) || (!success && order == Ordering::SeqCst) {
        if let Some(l) = s.sync.get(&loc).cloned() {
            s.thread(t).clock.join(&l);
        }
    }
    if success && is_release(order) {
        let clock = s.threads[t].clock.clone();
        s.sync.entry(loc).or_default().join(&clock);
        let tick = clock.get(t) + 1;
        s.threads[t].clock.set(t, tick);
    }
}

// ---------------------------------------------------------------------
// Shadow memory (plain data the protocols guard)
// ---------------------------------------------------------------------

fn shadow_entry<'a>(s: &'a mut SessionState, loc: usize, label: &'static str) -> &'a mut ShadowVar {
    s.shadow.entry(loc).or_insert_with(|| ShadowVar {
        label,
        write: None,
        read: ReadState::None,
    })
}

/// Records a plain (non-atomic) read of shadow location `loc`; reports
/// a race if the last write does not happen-before it.
pub fn shadow_read(loc: usize, label: &'static str, site: &'static str) {
    if !detection_active() {
        return;
    }
    let mut s = lock(state());
    let t = current_slot(&mut s);
    s.thread(t).note_op(format!("read @ {site}"));
    let clock = s.threads[t].clock.clone();
    let var = shadow_entry(&mut s, loc, label);
    let write = var.write;
    let label = var.label;
    // write-read check.
    if let Some((w, wsite)) = write {
        if !w.happens_before(&clock) {
            s.record_race(loc, "write-read", label, (w, wsite, true), (t, site, false));
        }
    }
    let me = EpochStamp {
        tid: t,
        clock: clock.get(t),
    };
    let var = shadow_entry(&mut s, loc, label);
    match &mut var.read {
        ReadState::None => var.read = ReadState::Epoch(me, site),
        ReadState::Epoch(r, rsite) => {
            if r.tid == t || r.happens_before(&clock) {
                var.read = ReadState::Epoch(me, site);
            } else {
                // Concurrent readers: widen to a read clock.
                let mut vc = VectorClock::new();
                vc.set(r.tid, r.clock);
                vc.set(t, me.clock);
                let mut sites = HashMap::new();
                sites.insert(r.tid, *rsite);
                sites.insert(t, site);
                var.read = ReadState::Shared(vc, sites);
            }
        }
        ReadState::Shared(vc, sites) => {
            vc.set(t, me.clock);
            sites.insert(t, site);
        }
    }
}

/// Records a plain (non-atomic) write of shadow location `loc`;
/// reports a race if the last write or any read does not happen-before
/// it.
pub fn shadow_write(loc: usize, label: &'static str, site: &'static str) {
    if !detection_active() {
        return;
    }
    let mut s = lock(state());
    let t = current_slot(&mut s);
    s.thread(t).note_op(format!("write @ {site}"));
    let clock = s.threads[t].clock.clone();
    let var = shadow_entry(&mut s, loc, label);
    let write = var.write;
    let label = var.label;
    let read = var.read.clone();
    if let Some((w, wsite)) = write {
        if !w.happens_before(&clock) {
            s.record_race(loc, "write-write", label, (w, wsite, true), (t, site, true));
        }
    }
    match read {
        ReadState::None => {}
        ReadState::Epoch(r, rsite) => {
            if !r.happens_before(&clock) {
                s.record_race(loc, "read-write", label, (r, rsite, false), (t, site, true));
            }
        }
        ReadState::Shared(vc, sites) => {
            if !vc.dominated_by(&clock) {
                // Pick the first non-ordered reader for the report.
                let offender = (0..vc.components().len())
                    .find(|&rt| vc.get(rt) > clock.get(rt))
                    .unwrap_or(0);
                let stamp = EpochStamp {
                    tid: offender,
                    clock: vc.get(offender),
                };
                let rsite = sites.get(&offender).copied().unwrap_or("<read>");
                s.record_race(
                    loc,
                    "read-write",
                    label,
                    (stamp, rsite, false),
                    (t, site, true),
                );
            }
        }
    }
    let me = EpochStamp {
        tid: t,
        clock: clock.get(t),
    };
    let var = shadow_entry(&mut s, loc, label);
    var.write = Some((me, site));
    var.read = ReadState::None;
}

/// A plain value under shadow-memory tracking: reads and writes go
/// through the detector (when a session is active) exactly like the
/// non-atomic payloads the lock-free protocols guard.
///
/// Deliberately `Sync` *without* interior synchronization — that is the
/// point: a [`DetectionSession`] decides whether the protocol around it
/// orders the accesses. Only use it inside detector fixtures.
pub struct ShadowCell<T> {
    label: &'static str,
    value: std::cell::UnsafeCell<T>,
}

// SAFETY: intentionally racy test instrument — concurrent access is
// exactly what the surrounding DetectionSession exists to observe, and
// fixtures only read/write `Copy` word-sized payloads whose tearing
// cannot corrupt allocator or drop state.
unsafe impl<T: Send + Copy> Sync for ShadowCell<T> {}

impl<T: Copy> ShadowCell<T> {
    /// A shadow-tracked cell labeled `label` in race reports.
    pub fn new(label: &'static str, value: T) -> ShadowCell<T> {
        ShadowCell {
            label,
            value: std::cell::UnsafeCell::new(value),
        }
    }

    /// Tracked read.
    pub fn get(&self, site: &'static str) -> T {
        shadow_read(self.value.get() as usize, self.label, site);
        // SAFETY: plain read of a Copy value; racy by design (see type
        // docs) and observed by the detector above.
        unsafe { *self.value.get() }
    }

    /// Tracked write.
    pub fn set(&self, v: T, site: &'static str) {
        shadow_write(self.value.get() as usize, self.label, site);
        // SAFETY: plain write of a Copy value; racy by design (see type
        // docs) and observed by the detector above.
        unsafe { *self.value.get() = v }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn vector_clock_join_and_domination() {
        let mut a = VectorClock::new();
        a.set(0, 3);
        a.set(2, 1);
        let mut b = VectorClock::new();
        b.set(0, 1);
        b.set(1, 5);
        let mut j = a.clone();
        j.join(&b);
        assert_eq!(j.components(), &[3, 5, 1]);
        assert!(a.dominated_by(&j));
        assert!(b.dominated_by(&j));
        assert!(!j.dominated_by(&a));
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let session = DetectionSession::begin();
        let cell = ShadowCell::new("payload", 0u32);
        std::thread::scope(|s| {
            s.spawn(|| cell.set(1, "writer-a"));
            s.spawn(|| cell.set(2, "writer-b"));
        });
        let races = session.finish();
        assert!(
            races.iter().any(|r| r.kind == "write-write"),
            "expected a write-write race, got {races:?}"
        );
        let r = &races[0];
        assert_eq!(r.version, RACE_REPORT_VERSION);
        assert_eq!(r.location, "payload");
    }

    #[test]
    fn release_acquire_ordering_suppresses_the_race() {
        let session = DetectionSession::begin();
        let cell = ShadowCell::new("payload", 0u32);
        let flag = AtomicU32::new(0);
        let floc = &flag as *const _ as usize;
        std::thread::scope(|s| {
            s.spawn(|| {
                cell.set(1, "producer");
                sync_store(floc, "flag", Ordering::Release);
                flag.store(1, Ordering::Release);
            });
            s.spawn(|| {
                while flag.load(Ordering::Acquire) == 0 {
                    std::hint::spin_loop();
                }
                sync_load(floc, "flag", Ordering::Acquire);
                assert_eq!(cell.get("consumer"), 1);
            });
        });
        let races = session.finish();
        assert!(races.is_empty(), "false positive: {races:?}");
    }

    #[test]
    fn relaxed_flag_does_not_order_and_races() {
        let session = DetectionSession::begin();
        let cell = ShadowCell::new("payload", 0u32);
        let flag = AtomicU32::new(0);
        let floc = &flag as *const _ as usize;
        std::thread::scope(|s| {
            s.spawn(|| {
                cell.set(1, "producer");
                sync_store(floc, "flag", Ordering::Relaxed);
                flag.store(1, Ordering::Relaxed);
            });
            s.spawn(|| {
                while flag.load(Ordering::Relaxed) == 0 {
                    std::hint::spin_loop();
                }
                sync_load(floc, "flag", Ordering::Relaxed);
                let _ = cell.get("consumer");
            });
        });
        let races = session.finish();
        assert!(
            races.iter().any(|r| r.kind == "write-read"),
            "relaxed flag must not create a happens-before edge: {races:?}"
        );
    }

    #[test]
    fn plain_release_store_does_not_carry_earlier_writers_clocks() {
        // The per-store precision fixture. Writer A publishes a payload
        // under the flag; writer B then release-stores the *same* flag
        // without ever having synchronized with A (B heads a fresh
        // release sequence); reader C acquire-loads after B's store and
        // touches the payload. C synchronizes with B only — its read
        // races with A's write. A release clock that accumulated joins
        // across stores would hand C writer A's clock through B's
        // unrelated store and miss this race. The `gate` is an
        // *untraced* atomic: it pins the A → B → C schedule without
        // feeding the detector any edges.
        let session = DetectionSession::begin();
        let cell = ShadowCell::new("payload", 0u32);
        let flag = AtomicU32::new(0);
        let floc = &flag as *const _ as usize;
        let gate = AtomicU32::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                cell.set(1, "writer-a");
                sync_store(floc, "flag", Ordering::Release);
                flag.store(1, Ordering::Release);
                gate.store(1, Ordering::SeqCst);
            });
            s.spawn(|| {
                while gate.load(Ordering::SeqCst) < 1 {
                    std::hint::spin_loop();
                }
                sync_store(floc, "flag", Ordering::Release);
                flag.store(2, Ordering::Release);
                gate.store(2, Ordering::SeqCst);
            });
            s.spawn(|| {
                while gate.load(Ordering::SeqCst) < 2 {
                    std::hint::spin_loop();
                }
                assert_eq!(flag.load(Ordering::Acquire), 2);
                sync_load(floc, "flag", Ordering::Acquire);
                let _ = cell.get("reader-c");
            });
        });
        let races = session.finish();
        assert!(
            races.iter().any(|r| r.kind == "write-read"),
            "B's store must not smuggle A's clock to C: {races:?}"
        );
    }

    #[test]
    fn release_rmw_continues_the_release_sequence() {
        // The counterpart positive case: B extends A's release sequence
        // with a release *RMW* instead of a store. C acquire-loads after
        // the RMW and must be synchronized with A through the sequence
        // (store-clock replacement must NOT apply to RMWs) — no race.
        let session = DetectionSession::begin();
        let cell = ShadowCell::new("payload", 0u32);
        let flag = AtomicU32::new(0);
        let floc = &flag as *const _ as usize;
        let gate = AtomicU32::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                cell.set(1, "writer-a");
                sync_store(floc, "flag", Ordering::Release);
                flag.store(1, Ordering::Release);
                gate.store(1, Ordering::SeqCst);
            });
            s.spawn(|| {
                while gate.load(Ordering::SeqCst) < 1 {
                    std::hint::spin_loop();
                }
                // Release-only RMW: B acquires nothing from A, yet its
                // increment continues A's release sequence.
                flag.fetch_add(1, Ordering::Release);
                sync_rmw(floc, "flag", Ordering::Release, true);
                gate.store(2, Ordering::SeqCst);
            });
            s.spawn(|| {
                while gate.load(Ordering::SeqCst) < 2 {
                    std::hint::spin_loop();
                }
                assert_eq!(flag.load(Ordering::Acquire), 2);
                sync_load(floc, "flag", Ordering::Acquire);
                assert_eq!(cell.get("reader-c"), 1);
            });
        });
        let races = session.finish();
        assert!(
            races.is_empty(),
            "RMW must join, not replace, the release clock: {races:?}"
        );
    }

    #[test]
    fn fork_join_edges_order_submitter_and_tasks() {
        let session = DetectionSession::begin();
        let cell = ShadowCell::new("task-output", 0u32);
        cell.set(1, "pre-fork"); // submitter writes before the fork
        let fork = fork_point();
        std::thread::scope(|s| {
            let fork = fork.clone();
            let cell = &cell;
            s.spawn(move || {
                fork.task_start();
                cell.set(2, "task"); // ordered after pre-fork write
                fork.task_end();
            });
        });
        fork.join();
        assert_eq!(cell.get("post-join"), 2); // ordered after the task
        let races = session.finish();
        assert!(races.is_empty(), "fork/join must order: {races:?}");
    }

    #[test]
    fn sibling_tasks_without_protocol_race() {
        let session = DetectionSession::begin();
        let cell = ShadowCell::new("shared", 0u32);
        let fork = fork_point();
        std::thread::scope(|s| {
            for name in ["sibling-a", "sibling-b"] {
                let fork = fork.clone();
                let cell = &cell;
                s.spawn(move || {
                    fork.task_start();
                    cell.set(7, name);
                    fork.task_end();
                });
            }
        });
        fork.join();
        let races = session.finish();
        assert!(
            races.iter().any(|r| r.kind == "write-write"),
            "sibling tasks are unordered: {races:?}"
        );
    }

    #[test]
    fn concurrent_reads_alone_are_not_a_race() {
        let session = DetectionSession::begin();
        let cell = ShadowCell::new("read-only", 9u32);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let cell = &cell;
                s.spawn(move || {
                    assert_eq!(cell.get("reader"), 9);
                });
            }
        });
        let races = session.finish();
        assert!(races.is_empty(), "reads never race: {races:?}");
    }

    #[test]
    fn race_report_json_round_trip() {
        let report = RaceReport {
            version: RACE_REPORT_VERSION,
            location: "uf.parent[3]".into(),
            kind: "write-write".into(),
            first: RaceAccess {
                thread: 0,
                clock: 4,
                write: true,
                site: "union:winner".into(),
                recent_ops: vec!["rmw(true) AcqRel @ parent".into()],
                vector_clock: vec![4],
            },
            second: RaceAccess {
                thread: 2,
                clock: 7,
                write: true,
                site: "union:loser".into(),
                recent_ops: vec!["load Relaxed @ parent".into()],
                vector_clock: vec![1, 0, 7],
            },
        };
        let parsed = RaceReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn detection_off_means_hooks_are_inert() {
        let cell = ShadowCell::new("inert", 0u32);
        {
            // Hold the session gate, so no other test's session is active
            // while these writes run; `begin` below takes it again.
            let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
            assert!(!detection_active());
            std::thread::scope(|s| {
                s.spawn(|| cell.set(1, "a"));
                s.spawn(|| cell.set(2, "b"));
            });
        }
        // No session: nothing recorded, nothing to report.
        let session = DetectionSession::begin();
        assert!(session.finish().is_empty());
    }
}
