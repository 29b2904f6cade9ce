//! Shared lock-free state of a ppSCAN run: the graph, parameters, kernel,
//! the atomic per-edge similarity labels and the atomic per-vertex roles.

use crate::params::ScanParams;
use crate::result::Role;
use crate::simstore::SimStore;
use ppscan_graph::rng::SplitMix64;
use ppscan_graph::{CsrGraph, VertexId};
use ppscan_intersect::{Kernel, Similarity};
use ppscan_sched::ExecutionStrategy;
use std::sync::atomic::{AtomicU8, Ordering};

/// Test-only inter-loop publication hook (see `Shared::between_loops`).
#[cfg(test)]
pub(crate) type BetweenLoopsHook = Box<dyn Fn(&crate::simstore::SimStore, VertexId) + Sync>;

/// Atomic role encoding: `0 = Unknown`, `1 = Core`, `2 = NonCore`.
const ROLE_UNKNOWN: u8 = 0;
const ROLE_CORE: u8 = 1;
const ROLE_NONCORE: u8 = 2;

pub(crate) struct Shared<'g> {
    pub g: &'g CsrGraph,
    pub params: ScanParams,
    pub kernel: Kernel,
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
            sim: SimStore::new(g.num_directed_edges()),
            strict_invariants: strategy == ExecutionStrategy::SequentialDeterministic,
            yield_seed: match strategy {
                ExecutionStrategy::AdversarialSeeded { seed } => Some(seed),
                _ => None,
            },
            #[cfg(test)]
            between_loops_hook: None,
            role,
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
        let label = self.comp_sim_value(u, v);
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
