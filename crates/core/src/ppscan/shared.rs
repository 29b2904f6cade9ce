//! Shared lock-free state of a ppSCAN run: the graph, parameters, kernel,
//! the atomic per-edge similarity labels, the atomic per-vertex roles and
//! the free list of the role-computing passes' bitmaps.

use crate::params::ScanParams;
use crate::result::Role;
use crate::simstore::SimStore;
use ppscan_graph::rng::SplitMix64;
use ppscan_graph::{CsrGraph, VertexId};
use ppscan_intersect::count::Bitmap;
use ppscan_intersect::{Kernel, Similarity};
use ppscan_sched::ExecutionStrategy;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

/// Test-only inter-loop publication hook (see `Shared::between_loops`).
#[cfg(test)]
pub(crate) type BetweenLoopsHook = Box<dyn Fn(&crate::simstore::SimStore, VertexId) + Sync>;

/// Degree ratio from which the rank schedule hands an edge to its
/// higher-degree endpoint, in core checking and in the pull. Below it the
/// two lists cost about the same to probe, and the paper's id order keeps
/// the labels a vertex publishes landing on the vertices processed next.
pub(crate) const SKEW_RATIO: usize = 2;

/// Atomic role encoding: `0 = Unknown`, `1 = Core`, `2 = NonCore`.
const ROLE_UNKNOWN: u8 = 0;
const ROLE_CORE: u8 = 1;
const ROLE_NONCORE: u8 = 2;

pub(crate) struct Shared<'g> {
    pub g: &'g CsrGraph,
    pub params: ScanParams,
    pub kernel: Kernel,
    /// Whether core checking runs the rank schedule: skewed edges go to
    /// their higher-degree endpoint ([`Shared::computes`]), every edge is
    /// checked against a bitmap of its computing endpoint's neighbors,
    /// and the pull follows. Set once per run for the default
    /// [`Kernel::Adaptive`]; an explicitly chosen kernel keeps the
    /// paper's id-ordered pairwise schedule.
    pub rank_schedule: bool,
    pub sim: SimStore,
    /// Under the sequential-deterministic schedule no concurrent writer
    /// exists, so per-vertex invariants (`sd == ed` after the counting
    /// pass) hold *exactly* and are promoted from `debug_assert` to hard
    /// asserts.
    pub strict_invariants: bool,
    /// `Some(seed)` under [`ExecutionStrategy::AdversarialSeeded`]:
    /// enables seeded yield injection at phase-internal racy windows (see
    /// [`Shared::adversarial_pause`]).
    yield_seed: Option<u64>,
    /// Test-only seam at the inter-loop window of `check_core_vertex`
    /// (the same program point as [`Shared::adversarial_pause`]): lets a
    /// test deterministically play the role of a concurrent thread that
    /// publishes a similarity label between the counting loop and the
    /// settling loop. This is how the consolidation-race regression test
    /// constructs the hostile interleaving without depending on OS
    /// scheduling.
    #[cfg(test)]
    pub(crate) between_loops_hook: Option<BetweenLoopsHook>,
    role: Vec<AtomicU8>,
    /// Clean bitmaps tasks hand back for the next task to borrow (see
    /// [`Marks`]): a phase allocates at most one per concurrently running
    /// task, whatever the degree threshold.
    bitmaps: Mutex<Vec<Bitmap>>,
}

impl<'g> Shared<'g> {
    pub fn new(
        g: &'g CsrGraph,
        params: ScanParams,
        kernel: Kernel,
        strategy: ExecutionStrategy,
    ) -> Self {
        let n = g.num_vertices();
        let mut role = Vec::with_capacity(n);
        role.resize_with(n, || AtomicU8::new(ROLE_UNKNOWN));
        Self {
            g,
            params,
            kernel,
            rank_schedule: kernel == Kernel::Adaptive,
            sim: SimStore::new(g.num_directed_edges()),
            strict_invariants: strategy == ExecutionStrategy::SequentialDeterministic,
            yield_seed: match strategy {
                ExecutionStrategy::AdversarialSeeded { seed } => Some(seed),
                _ => None,
            },
            #[cfg(test)]
            between_loops_hook: None,
            role,
            bitmaps: Mutex::new(Vec::new()),
        }
    }

    /// How many bitmaps the run has allocated, all handed back by now,
    /// and whether each came back clean.
    #[cfg(test)]
    pub(crate) fn handed_back_bitmaps(&self) -> (usize, bool) {
        let free = self.bitmaps.lock().unwrap();
        (free.len(), free.iter().all(Bitmap::is_clear))
    }

    /// Whether `u` computes the edge `(u, v)` during core checking. The
    /// paper gives every edge to its endpoint `u < v`. The rank schedule
    /// gives a skewed edge, one whose endpoints' degrees differ by at
    /// least [`SKEW_RATIO`]×, to the endpoint that outranks the other
    /// ([`CsrGraph::outranks`]), and keeps the paper's rule for the rest.
    /// Theorem 4.1's at-most-once argument needs only that each edge have
    /// exactly one such endpoint.
    #[inline]
    pub fn computes(&self, u: VertexId, v: VertexId) -> bool {
        if self.rank_schedule && (self.dominates(u, v) || self.dominates(v, u)) {
            self.g.outranks(u, v)
        } else {
            u < v
        }
    }

    /// Whether `d[u] ≥ SKEW_RATIO · d[v]`.
    #[inline]
    pub fn dominates(&self, u: VertexId, v: VertexId) -> bool {
        self.g.degree(u) >= SKEW_RATIO * self.g.degree(v)
    }

    /// A handle that borrows a bitmap from the run's free list at its
    /// first check and hands it back clean when dropped.
    pub fn marks(&self) -> Marks<'_> {
        Marks {
            free: &self.bitmaps,
            n: self.g.num_vertices(),
            bits: None,
            marked: None,
        }
    }

    /// Runs the test-only inter-loop seam for vertex `u` (no-op outside
    /// tests and when no hook is installed).
    #[inline]
    pub fn between_loops(&self, u: VertexId) {
        #[cfg(test)]
        if let Some(hook) = &self.between_loops_hook {
            hook(&self.sim, u);
        }
        let _ = u;
    }

    /// Whether the test-only inter-loop hook is installed. The hook
    /// plays the role of a concurrent publisher, so the sequential
    /// empty-consolidation-window assertion (see `check_core_vertex`)
    /// must stand down while it is active.
    #[inline]
    pub fn has_between_hook(&self) -> bool {
        #[cfg(test)]
        {
            self.between_loops_hook.is_some()
        }
        #[cfg(not(test))]
        {
            false
        }
    }

    /// Seeded yield injection at a racy window, keyed by the vertex being
    /// processed. The scheduler's own yield injection only perturbs task
    /// *boundaries*; real schedule bugs live at linearization points
    /// *inside* a task body — e.g. the gap between `CheckCore`'s counting
    /// loop and its settling loop, where a concurrent thread can publish a
    /// similarity label. Under [`ExecutionStrategy::AdversarialSeeded`]
    /// this widens such windows cooperatively, so hostile interleavings
    /// are reachable even on a single-core machine (where genuine
    /// preemption inside the window is vanishingly rare); under the other
    /// strategies it is a no-op.
    #[inline]
    pub fn adversarial_pause(&self, u: VertexId) {
        if let Some(seed) = self.yield_seed {
            let yields = SplitMix64::seed_from_u64(seed ^ u as u64).gen_index(32);
            for _ in 0..yields {
                std::thread::yield_now();
            }
        }
    }

    /// Whether `u`'s role is still undecided.
    #[inline]
    pub fn role_unknown(&self, u: VertexId) -> bool {
        self.role[u as usize].load(Ordering::Relaxed) == ROLE_UNKNOWN
    }

    /// Whether `u` is a (decided) core.
    #[inline]
    pub fn is_core(&self, u: VertexId) -> bool {
        self.role[u as usize].load(Ordering::Relaxed) == ROLE_CORE
    }

    /// Whether `u` is a (decided) non-core.
    #[inline]
    pub fn is_noncore(&self, u: VertexId) -> bool {
        self.role[u as usize].load(Ordering::Relaxed) == ROLE_NONCORE
    }

    /// Publishes `u`'s role.
    #[inline]
    pub fn set_role(&self, u: VertexId, r: Role) {
        let enc = match r {
            Role::Core => ROLE_CORE,
            Role::NonCore => ROLE_NONCORE,
        };
        self.role[u as usize].store(enc, Ordering::Relaxed);
    }

    /// Extracts the final role vector.
    ///
    /// # Panics
    /// Panics if any role is still unknown — Theorem 4.2 guarantees the
    /// consolidating phase decided every vertex.
    pub fn roles_vec(&self) -> Vec<Role> {
        self.role
            .iter()
            .enumerate()
            .map(|(u, r)| match r.load(Ordering::Relaxed) {
                ROLE_CORE => Role::Core,
                ROLE_NONCORE => Role::NonCore,
                _ => panic!("vertex {u} has undecided role after consolidation"),
            })
            .collect()
    }

    /// `CompSim(u, v)` for the slot `eo = e(u, v)`: runs the configured
    /// kernel and publishes the label at **both** directed slots
    /// (similarity value reuse, §3.2.1). The reverse offset comes from
    /// the graph's precomputed reverse-edge index in O(1), where the
    /// paper binary-searches `v`'s sorted neighbors.
    pub fn comp_sim_both(&self, u: VertexId, v: VertexId, eo: usize) -> Similarity {
        self.publish_both(eo, self.comp_sim_value(u, v))
    }

    /// Publishes `label` at slot `eo` and its reverse slot.
    pub fn publish_both(&self, eo: usize, label: Similarity) -> Similarity {
        self.sim.set(eo, label);
        self.sim.set(self.g.rev_offset(eo), label);
        label
    }

    /// `CompSim(u, v)` publishing only `e(u, v)` (used by non-core
    /// clustering, where the reverse direction is never read again).
    pub fn comp_sim_forward(&self, u: VertexId, v: VertexId, eo: usize) -> Similarity {
        let label = self.comp_sim_value(u, v);
        self.sim.set(eo, label);
        label
    }

    fn comp_sim_value(&self, u: VertexId, v: VertexId) -> Similarity {
        let (nu, nv) = (self.g.neighbors(u), self.g.neighbors(v));
        let min_cn = self.params.min_cn(nu.len(), nv.len());
        self.kernel.check(nu, nv, min_cn)
    }
}

/// One task's bitmap, borrowed from the run's free list at the first
/// [`check`](Marks::check) and holding at most one marked list.
///
/// The task marks a vertex's list at its first checked edge and
/// [`clear`](Marks::clear)s it when done with the vertex; dropping the
/// handle hands the clean bitmap back. Since a task borrows at most one
/// bitmap and returns it before the next task on its worker starts, a
/// phase allocates at most one per concurrently running task: zeroing
/// costs O(threads · n / 8) bytes at any degree threshold.
pub(crate) struct Marks<'s> {
    free: &'s Mutex<Vec<Bitmap>>,
    n: usize,
    bits: Option<Bitmap>,
    /// The list currently marked in `bits`.
    marked: Option<&'s [VertexId]>,
}

impl<'s> Marks<'s> {
    /// `CompSim` of an adjacent pair through the bitmap: marks `nu`
    /// unless it is already the marked list, then probes `nv` against it
    /// ([`Bitmap::check`]).
    pub fn check(&mut self, nu: &'s [VertexId], nv: &[VertexId], min_cn: u64) -> Similarity {
        let bits = self.bits.get_or_insert_with(|| {
            let free = self
                .free
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            free.unwrap_or_else(|| Bitmap::new(self.n))
        });
        match self.marked {
            Some(m) => debug_assert!(std::ptr::eq(m, nu), "one marked list at a time"),
            None => {
                bits.mark(nu);
                self.marked = Some(nu);
            }
        }
        bits.check(nv, min_cn)
    }

    /// Unmarks the marked list, if any.
    pub fn clear(&mut self) {
        if let (Some(m), Some(bits)) = (self.marked.take(), self.bits.as_mut()) {
            bits.unmark(m);
        }
    }
}

impl Drop for Marks<'_> {
    fn drop(&mut self) {
        self.clear();
        if let Some(bits) = self.bits.take() {
            // A pop or push leaves the list valid, so a lock poisoned by
            // another task's panic is still safe to use.
            self.free
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(bits);
        }
    }
}
