//! Role computing (paper Algorithm 3): similarity pruning, core checking
//! and core consolidating, each a barrier-separated parallel phase, with
//! the rank schedule's pull between the last two.

use super::shared::{Marks, Shared};
use crate::result::Role;
use ppscan_graph::VertexId;
use ppscan_intersect::Similarity;
use ppscan_sched::WorkerPool;
use std::sync::atomic::{AtomicBool, Ordering};

/// Phase 1 — `PruneSim(u)` for every vertex in parallel.
///
/// Applies the degree-only similarity-predicate pruning to every
/// out-slot of `u` (each directed slot is written exclusively by its
/// source vertex: no conflicts) and initializes `role[u]` from the local
/// `sd`/`ed` bounds when they already decide it. The rule's thresholds
/// are computed once per distinct degree before the pass
/// (`EpsilonThreshold::degree_bounds`), so each slot costs two integer
/// comparisons.
pub(crate) fn prune_sim(shared: &Shared<'_>, pool: &WorkerPool, degree_threshold: u64) {
    let g = shared.g;
    let n = g.num_vertices();
    let mu = shared.params.mu as i64;
    let mut bounds = vec![None; g.max_degree() + 1];
    for u in g.vertices() {
        let d = g.degree(u);
        bounds[d].get_or_insert_with(|| shared.params.epsilon.degree_bounds(d));
    }
    pool.run_weighted(
        n,
        degree_threshold,
        |u| g.degree(u) as u64,
        |range| {
            for u in range {
                let d_u = g.degree(u);
                let bounds = bounds[d_u].expect("every degree present has bounds");
                let mut sd = 0i64;
                let mut ed = d_u as i64;
                for eo in g.neighbor_range(u) {
                    let v = g.edge_dst(eo);
                    let label = bounds.label(g.degree(v));
                    debug_assert_eq!(
                        label,
                        shared.params.epsilon.prune_by_degree(d_u, g.degree(v))
                    );
                    match label {
                        Similarity::Sim => {
                            shared.sim.set(eo, label);
                            sd += 1;
                        }
                        Similarity::NSim => {
                            shared.sim.set(eo, label);
                            ed -= 1;
                        }
                        Similarity::Unknown => {}
                    }
                }
                if sd >= mu {
                    shared.set_role(u, Role::Core);
                } else if ed < mu {
                    shared.set_role(u, Role::NonCore);
                }
                // Otherwise the role stays Unknown for the next phases.
            }
        },
    );
}

/// Phases 2 and 3 — core checking, the pull, and core consolidating:
/// every role still unknown after [`prune_sim`] is decided.
pub(crate) fn check_roles(shared: &Shared<'_>, pool: &WorkerPool, degree_threshold: u64) {
    check_core(shared, pool, degree_threshold, /*oriented=*/ true);
    pull(shared, pool, degree_threshold);
    check_core(shared, pool, degree_threshold, /*oriented=*/ false);
}

/// Phases 2 and 3 — `CheckCore(u)` / `ConsolidateCore(u)` for every
/// still-unknown vertex in parallel.
///
/// With `oriented = true` this is the core-checking phase: `u` only
/// computes edges `(u, v)` that [`Shared::computes`] gives it (`u < v`
/// in the paper; under the rank schedule a skewed edge goes to its
/// higher-degree endpoint), so every similarity is computed at most once
/// across all threads (Theorem 4.1) at the price of some roles staying
/// unknown. With `oriented = false`
/// it is the consolidating phase, which finishes those roles; Theorem
/// 4.1's argument shows no edge is computed twice there either.
fn check_core(shared: &Shared<'_>, pool: &WorkerPool, degree_threshold: u64, oriented: bool) {
    let g = shared.g;
    let n = g.num_vertices();
    pool.run_weighted(
        n,
        degree_threshold,
        // Algorithm 5: only vertices still requiring computation carry
        // weight.
        |u| {
            if shared.role_unknown(u) {
                g.degree(u) as u64
            } else {
                0
            }
        },
        |range| {
            let mut scratch = Scratch::new(shared);
            for u in range {
                if shared.role_unknown(u) {
                    check_core_vertex(shared, u, oriented, &mut scratch);
                }
            }
        },
    );
}

/// Per-task scratch of [`check_core_vertex`], reused across the task's
/// vertices.
struct Scratch<'s> {
    /// The slots the counting loop saw as `Unknown`.
    pending: Vec<usize>,
    /// The bitmap the rank schedule checks edges against.
    marks: Marks<'s>,
}

impl<'s> Scratch<'s> {
    fn new(shared: &'s Shared<'_>) -> Self {
        Scratch {
            pending: Vec::new(),
            marks: shared.marks(),
        }
    }
}

/// Algorithm 3 lines 21–33 for one vertex.
///
/// `scratch.pending` lists the edge slots the first loop saw as
/// `Unknown`. The second loop walks exactly those slots and **re-reads**
/// each one: a label published by a concurrent thread between the two
/// loops is *counted* rather than skipped. (The pre-fix code skipped
/// every already-known slot in the second loop, so a label that became
/// known between the loops was never folded into `sd`/`ed` and the final
/// role decision could be wrong — the consolidation race.) With the
/// re-read, every edge slot of `u` is counted exactly once, so after a
/// full consolidating pass `sd == ed` holds exactly.
///
/// Under the rank schedule the checking pass marks `N(u)` at the first
/// edge it computes; it is unmarked on every exit.
fn check_core_vertex<'s>(
    shared: &'s Shared<'_>,
    u: VertexId,
    oriented: bool,
    scratch: &mut Scratch<'s>,
) {
    let role = decide_vertex(shared, u, oriented, scratch);
    scratch.marks.clear();
    if let Some(role) = role {
        shared.set_role(u, role);
    }
}

/// The body of [`check_core_vertex`]: `u`'s role, or `None` when the
/// checking pass's orientation left it undecided.
fn decide_vertex<'s>(
    shared: &'s Shared<'_>,
    u: VertexId,
    oriented: bool,
    scratch: &mut Scratch<'s>,
) -> Option<Role> {
    let g = shared.g;
    let mu = shared.params.mu as i64;
    let mut sd = 0i64;
    let mut ed = g.degree(u) as i64;
    let pending = &mut scratch.pending;
    pending.clear();

    // First loop (lines 22–30): initialize the local bounds from labels
    // already decided by pruning, neighbors, or earlier phases; remember
    // the undecided slots.
    for eo in g.neighbor_range(u) {
        match shared.sim.get(eo) {
            Similarity::Sim => {
                sd += 1;
                if sd >= mu {
                    return Some(Role::Core);
                }
            }
            Similarity::NSim => {
                ed -= 1;
                if ed < mu {
                    return Some(Role::NonCore);
                }
            }
            Similarity::Unknown => pending.push(eo),
        }
    }

    // The racy window: between the counting loop above and the settling
    // loop below, concurrent threads may publish labels for the slots we
    // saw as Unknown. Under the adversarial strategy, dwell here.
    if !pending.is_empty() {
        shared.adversarial_pause(u);
    }
    shared.between_loops(u);

    // Second loop (lines 31–33): settle every slot the first loop left
    // open — computing it ourselves, or counting the label a concurrent
    // thread published in the meantime. During core checking
    // (`oriented`) the orientation still bounds what *we* compute, but
    // freshly-published labels are counted regardless of direction: they
    // are final, and ignoring them is exactly the race.
    for &eo in pending.iter() {
        let v = g.edge_dst(eo);
        let label = match shared.sim.get(eo) {
            Similarity::Unknown => {
                if oriented && !shared.computes(u, v) {
                    continue;
                }
                if oriented && shared.rank_schedule {
                    let (nu, nv) = (g.neighbors(u), g.neighbors(v));
                    let min_cn = shared.params.min_cn(nu.len(), nv.len());
                    shared.publish_both(eo, scratch.marks.check(nu, nv, min_cn))
                } else {
                    shared.comp_sim_both(u, v, eo)
                }
            }
            published => {
                // Reaching this arm means the slot was `Unknown` in the
                // counting loop but carries a label now: another actor
                // published it inside the consolidation window. Under
                // the sequential reference schedule no concurrent
                // writer exists (the test-only hook plays one when
                // installed), so the window must be observably empty —
                // see DESIGN.md §9.4 for the structural proof.
                if shared.strict_invariants && !shared.has_between_hook() {
                    panic!(
                        "consolidation window must be empty under the sequential \
                         reference schedule: slot {eo} of vertex {u} changed \
                         between the counting and settling loops"
                    );
                }
                published
            }
        };
        match label {
            Similarity::Sim => {
                sd += 1;
                if sd >= mu {
                    return Some(Role::Core);
                }
            }
            Similarity::NSim => {
                ed -= 1;
                if ed < mu {
                    return Some(Role::NonCore);
                }
            }
            Similarity::Unknown => unreachable!("kernel always decides"),
        }
    }

    // All edges of u accounted: the bounds are exact and must decide —
    // unless the orientation skipped edges, in which case the role stays
    // unknown for the consolidating phase.
    if oriented {
        return None;
    }
    // Every slot was counted exactly once (first loop or pending walk),
    // so the bounds coincide: sd == ed == |similar edges|. Under the
    // deterministic reference schedule this is promoted to a hard assert
    // — any violation is a counting bug, not schedule noise.
    if shared.strict_invariants {
        assert_eq!(sd, ed, "exact bounds must coincide for vertex {u}");
    } else {
        debug_assert_eq!(sd, ed, "exact bounds must coincide");
    }
    Some(if sd >= mu { Role::Core } else { Role::NonCore })
}

/// The pull, between core checking and consolidating, under the rank
/// schedule only.
///
/// After core checking, every still-`Unknown` slot `(u, v)` of an
/// undecided `u` points at a `v` that the edge was given to and that was
/// decided before it reached the edge. Consolidation would compute each
/// such edge pairwise from `u`, scanning `N(v)` once per `u`: a hub pays
/// its list again for every low-degree neighbor. Instead, undecided
/// vertices flag each such `v` with `d[v] ≥ 2·d[u]`
/// ([`super::shared::SKEW_RATIO`]), and each flagged `v` marks `N(v)`
/// once and settles those slots by probing the undecided vertices'
/// lists. Each slot is settled at most
/// once: only `v` pulls the edge, and consolidation re-reads the label.
/// Below the ratio the edge stays with consolidation, whose per-vertex
/// early termination would skip some edges a pull computes, which is the
/// better trade on balanced graphs. Costs O(Σ degree of undecided and
/// flagged vertices) plus the probes.
fn pull(shared: &Shared<'_>, pool: &WorkerPool, degree_threshold: u64) {
    if !shared.rank_schedule {
        return;
    }
    let g = shared.g;
    let n = g.num_vertices();
    // One flag per vertex, set only to `true` and read after the join
    // barrier that ends the flagging pass.
    let flagged: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    pool.run_weighted(
        n,
        degree_threshold,
        |u| {
            if shared.role_unknown(u) {
                g.degree(u) as u64
            } else {
                0
            }
        },
        |range| {
            for u in range {
                if !shared.role_unknown(u) {
                    continue;
                }
                for eo in g.neighbor_range(u) {
                    if shared.sim.get(eo) != Similarity::Unknown {
                        continue;
                    }
                    let v = g.edge_dst(eo);
                    // The at-most-once argument: the edge was `v`'s to
                    // compute, and `v` stopped before it.
                    if shared.strict_invariants || cfg!(debug_assertions) {
                        assert!(
                            shared.computes(v, u) && !shared.role_unknown(v),
                            "slot {eo} of {u} left open by {v}"
                        );
                    }
                    if shared.dominates(v, u) {
                        flagged[v as usize].store(true, Ordering::Relaxed);
                    }
                }
            }
        },
    );
    let is_flagged = |v: VertexId| flagged[v as usize].load(Ordering::Relaxed);
    pool.run_weighted(
        n,
        degree_threshold,
        |v| if is_flagged(v) { g.degree(v) as u64 } else { 0 },
        |range| {
            let mut marks = shared.marks();
            for v in range {
                if !is_flagged(v) {
                    continue;
                }
                let nv = g.neighbors(v);
                for eo in g.neighbor_range(v) {
                    let u = g.edge_dst(eo);
                    if shared.role_unknown(u)
                        && shared.dominates(v, u)
                        && shared.sim.get(eo) == Similarity::Unknown
                    {
                        let nu = g.neighbors(u);
                        let min_cn = shared.params.min_cn(nv.len(), nu.len());
                        shared.publish_both(eo, marks.check(nv, nu, min_cn));
                    }
                }
                marks.clear();
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ScanParams;
    use crate::ppscan::shared::Shared;
    use crate::result::Role;
    use crate::verify;
    use ppscan_graph::gen;
    use ppscan_intersect::Kernel;
    use ppscan_sched::WorkerPool;

    /// Runs only the role-computing step and returns the roles.
    fn roles_of(g: &ppscan_graph::CsrGraph, eps: f64, mu: usize, threads: usize) -> Vec<Role> {
        let params = ScanParams::new(eps, mu);
        let shared = Shared::new(
            g,
            params,
            Kernel::MergeEarly,
            ppscan_sched::ExecutionStrategy::Parallel,
        );
        let pool = WorkerPool::new(threads);
        prune_sim(&shared, &pool, 64);
        check_roles(&shared, &pool, 64);
        shared.roles_vec()
    }

    #[test]
    fn all_roles_decided_after_consolidation() {
        // Theorem 4.2: roles complete — roles_vec panics otherwise.
        let g = gen::planted_partition(3, 20, 0.6, 0.04, 3);
        let roles = roles_of(&g, 0.5, 3, 4);
        assert_eq!(roles.len(), g.num_vertices());
    }

    #[test]
    fn roles_match_reference_on_grid() {
        let g = gen::roll(200, 10, 11);
        for eps in [0.2, 0.5, 0.8] {
            for mu in [1usize, 3, 6] {
                let expect = verify::reference_clustering(&g, ScanParams::new(eps, mu)).roles;
                for threads in [1usize, 4] {
                    assert_eq!(
                        roles_of(&g, eps, mu, threads),
                        expect,
                        "eps={eps} mu={mu} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn prune_alone_decides_extremes() {
        // ε = 0.1 on a clique: every edge is degree-pruned Sim, so the
        // pruning phase alone fixes every role to Core.
        let g = gen::complete(8);
        let params = ScanParams::new(0.1, 2);
        let shared = Shared::new(
            &g,
            params,
            Kernel::MergeEarly,
            ppscan_sched::ExecutionStrategy::Parallel,
        );
        let pool = WorkerPool::new(2);
        prune_sim(&shared, &pool, 64);
        for u in g.vertices() {
            assert!(shared.is_core(u), "vertex {u} not decided by pruning");
        }
    }

    #[test]
    fn check_core_skips_decided_vertices() {
        // After pruning decided everything, the check/consolidate phases
        // must not invoke a single intersection.
        use ppscan_intersect::counters::CounterScope;
        let g = gen::complete(10);
        let params = ScanParams::new(0.1, 2);
        let shared = Shared::new(
            &g,
            params,
            Kernel::MergeEarly,
            ppscan_sched::ExecutionStrategy::Parallel,
        );
        let pool = WorkerPool::new(2);
        prune_sim(&shared, &pool, 64);
        let scope = CounterScope::new();
        let (delta, _) = scope.measure(|| {
            check_roles(&shared, &pool, 64);
        });
        assert_eq!(delta.compsim_invocations, 0);
    }

    #[test]
    fn label_published_in_consolidation_window_is_counted() {
        // Deterministic schedule-injection regression for the
        // consolidation race: a concurrent thread publishes a similarity
        // label in the window between `check_core_vertex`'s counting loop
        // and its settling loop. The pre-fix settling loop skipped every
        // already-known slot, so the published label was never folded
        // into `sd`/`ed`: on this graph (K5, ε = 0.5, µ = 4, every edge
        // similar, so vertex 0 is exactly-borderline Core) that left
        // `sd = 3 ≠ ed = 4` — a wrong NonCore role, caught by the
        // `sd == ed` invariant. The fixed loop re-reads the slot and
        // counts the published label, deciding Core.
        use ppscan_sched::ExecutionStrategy;
        let g = gen::complete(5);
        let params = ScanParams::new(0.5, 4);
        let mut shared = Shared::new(&g, params, Kernel::MergeEarly, ExecutionStrategy::Parallel);
        let eo = g.edge_offset(0, 1).unwrap();
        let rev = g.edge_offset(1, 0).unwrap();
        shared.between_loops_hook = Some(Box::new(move |sim, u| {
            if u == 0 {
                // The "concurrent thread": CompSim(1, 0) publishing both
                // directed slots, exactly inside the racy window.
                sim.set(eo, ppscan_intersect::Similarity::Sim);
                sim.set(rev, ppscan_intersect::Similarity::Sim);
            }
        }));
        check_core_vertex(
            &shared,
            0,
            /*oriented=*/ false,
            &mut Scratch::new(&shared),
        );
        assert!(
            shared.is_core(0),
            "borderline core vertex must count the label published in the window"
        );
    }

    #[test]
    fn consolidation_window_sweep_counts_any_published_slot() {
        // Exhaustive sweep of the publication point: for *every* neighbor
        // slot of the borderline vertex, a simulated concurrent thread
        // publishes that slot's label inside the consolidation window.
        // The settling loop must fold the published label into the
        // bounds regardless of which slot raced — on K5 with ε = 0.5,
        // µ = 4 the decision is Core every time. The same scenario is
        // checked over *all* interleavings (not just the hook-injected
        // one) by `ppscan-check`'s `simstore-publish` and
        // `pending-slot-invariant` scenarios.
        //
        // Two passes race: consolidation under the paper's schedule,
        // and core checking under the rank schedule, where K5's equal
        // degrees give every edge of vertex 0 to 0 and 0 checks its
        // other three edges against a bitmap of N(0). There a missed
        // label leaves `sd = 3` and the role undecided, and the bitmap
        // must go back clean.
        use ppscan_sched::ExecutionStrategy;
        let g = gen::complete(5);
        for (kernel, oriented, x) in [(Kernel::MergeEarly, false, 0), (Kernel::Adaptive, true, 0)] {
            let slots: Vec<usize> = g.neighbor_range(x).collect();
            for (i, &eo) in slots.iter().enumerate() {
                let params = ScanParams::new(0.5, 4);
                let mut shared = Shared::new(&g, params, kernel, ExecutionStrategy::Parallel);
                let v = g.edge_dst(eo);
                let rev = g.edge_offset(v, x).unwrap();
                shared.between_loops_hook = Some(Box::new(move |sim, u| {
                    if u == x {
                        sim.set(eo, ppscan_intersect::Similarity::Sim);
                        sim.set(rev, ppscan_intersect::Similarity::Sim);
                    }
                }));
                check_core_vertex(&shared, x, oriented, &mut Scratch::new(&shared));
                assert!(
                    shared.is_core(x),
                    "{kernel}, vertex {x}, slot {i} (edge offset {eo}): label published \
                     in the window must be counted"
                );
                let expect_bitmaps = usize::from(oriented);
                assert_eq!(shared.handed_back_bitmaps(), (expect_bitmaps, true));
            }
        }
    }

    #[test]
    fn rank_schedule_matches_reference_under_every_strategy() {
        // The rank schedule at one vertex per task, under every strategy
        // (the sequential one with its hard asserts) and thread count:
        // regular graphs, where every edge keeps the id rule, and hub
        // graphs, where skewed edges go to the hub and the pull runs.
        // Each run allocates at most one bitmap per worker and gets
        // every one back clean.
        use ppscan_sched::ExecutionStrategy;
        let graphs = [
            gen::complete(9),
            gen::cycle(12),
            gen::grid(5, 6),
            gen::star(24),
            gen::clique_chain(5, 4),
            gen::rmat_social(8, 6, 2),
        ];
        let strategies = [
            ExecutionStrategy::Parallel,
            ExecutionStrategy::SequentialDeterministic,
            ExecutionStrategy::AdversarialSeeded { seed: 7 },
            ExecutionStrategy::Modeled,
        ];
        let mut pulled = 0usize;
        for g in &graphs {
            for (eps, mu) in [(0.2, 2), (0.5, 3), (0.8, 2)] {
                let params = ScanParams::new(eps, mu);
                let expect = verify::reference_clustering(g, params).roles;
                for strategy in strategies {
                    for threads in [1usize, 2, 4] {
                        let shared = Shared::new(g, params, Kernel::Adaptive, strategy);
                        let pool = WorkerPool::with_strategy(threads, strategy);
                        prune_sim(&shared, &pool, 1);
                        check_core(&shared, &pool, 1, true);
                        pulled += g
                            .directed_edges()
                            .filter(|&(u, v, eo)| {
                                shared.role_unknown(u)
                                    && shared.sim.get(eo) == Similarity::Unknown
                                    && shared.dominates(v, u)
                            })
                            .count();
                        pull(&shared, &pool, 1);
                        check_core(&shared, &pool, 1, false);
                        let at = format!(
                            "n={} eps={eps} {strategy} threads={threads}",
                            g.num_vertices()
                        );
                        assert_eq!(shared.roles_vec(), expect, "{at}");
                        let (bitmaps, clean) = shared.handed_back_bitmaps();
                        assert!(
                            bitmaps <= threads && clean,
                            "{at}: {bitmaps} bitmaps, clean {clean}"
                        );
                    }
                }
            }
        }
        assert!(pulled > 0, "the sweep must reach the pull");
    }

    #[test]
    fn pull_settles_hub_edges_before_consolidation() {
        // A star with chords between consecutive leaves, ε = 0.3, µ = 3:
        // pruning makes every chord similar, which leaves the middle
        // leaves one similar edge short of core. The hub outranks every
        // leaf, decides Core after its first three edges and leaves the
        // rest open, so those leaves stay undecided through core
        // checking. Each has degree 3 against the hub's 30, so the pull
        // settles all their hub edges from one marking of N(hub), and
        // consolidation computes nothing.
        use ppscan_intersect::counters::CounterScope;
        use ppscan_sched::ExecutionStrategy;
        let mut b = ppscan_graph::GraphBuilder::new();
        for leaf in 1..=30u32 {
            b = b.add_edge(0, leaf);
            if leaf > 1 {
                b = b.add_edge(leaf - 1, leaf);
            }
        }
        let g = b.build();
        let params = ScanParams::new(0.3, 3);
        let strategy = ExecutionStrategy::SequentialDeterministic;
        let shared = Shared::new(&g, params, Kernel::Adaptive, strategy);
        let pool = WorkerPool::with_strategy(1, strategy);
        prune_sim(&shared, &pool, 1);
        check_core(&shared, &pool, 1, true);
        let open_to_undecided = |shared: &Shared<'_>| {
            g.neighbor_range(0)
                .filter(|&eo| {
                    shared.sim.get(eo) == Similarity::Unknown && shared.role_unknown(g.edge_dst(eo))
                })
                .count()
        };
        assert!(shared.is_core(0), "the hub decides early");
        assert!(
            open_to_undecided(&shared) > 20,
            "undecided leaves wait on the hub"
        );
        pull(&shared, &pool, 1);
        assert_eq!(open_to_undecided(&shared), 0, "the pull settles them");
        let (d, ()) = CounterScope::new().measure(|| check_core(&shared, &pool, 1, false));
        assert_eq!(
            d.compsim_invocations, 0,
            "consolidation finds every slot settled"
        );
        let expect = verify::reference_clustering(&g, params).roles;
        assert_eq!(shared.roles_vec(), expect);
    }

    #[test]
    fn modeled_task_order_sweep_matches_reference() {
        // `ExecutionStrategy::Modeled` runs the real phase pipeline on
        // the caller thread in an oracle-chosen task order. Sweeping
        // rotation permutations asserts the role computation is
        // insensitive to task order — the single-threaded counterpart of
        // what `ppscan-check` proves over true interleavings.
        use ppscan_sched::{modeled, ExecutionStrategy};
        let g = gen::planted_partition(2, 12, 0.7, 0.08, 11);
        let expect = verify::reference_clustering(&g, ScanParams::new(0.5, 3)).roles;
        let tasks_seen = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for shift in 0..6usize {
            let seen = tasks_seen.clone();
            let roles = modeled::with_oracle(
                move |n| {
                    seen.fetch_max(n, std::sync::atomic::Ordering::Relaxed);
                    (0..n).map(|i| (i + shift) % n.max(1)).collect()
                },
                || {
                    let shared = Shared::new(
                        &g,
                        ScanParams::new(0.5, 3),
                        Kernel::MergeEarly,
                        ExecutionStrategy::Modeled,
                    );
                    let pool = WorkerPool::with_strategy(2, ExecutionStrategy::Modeled);
                    // Low degree threshold so the phases split into
                    // several tasks and the rotation actually permutes.
                    prune_sim(&shared, &pool, 8);
                    check_roles(&shared, &pool, 8);
                    shared.roles_vec()
                },
            );
            assert_eq!(roles, expect, "shift={shift}");
        }
        assert!(
            tasks_seen.load(std::sync::atomic::Ordering::Relaxed) > 1,
            "sweep must exercise a multi-task phase, otherwise rotations are vacuous"
        );
    }
}
