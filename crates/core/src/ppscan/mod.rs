//! ppSCAN — the paper's contribution (Algorithms 3–5).
//!
//! A multi-phase, lock-free parallelization of pruning-based structural
//! clustering. The two dependency-coupled steps of sequential pSCAN are
//! decomposed into **six barrier-separated phases**, each embarrassingly
//! parallel over vertices:
//!
//! **Role computing** ([`roles`], Algorithm 3)
//! 1. *Similarity pruning* — decide labels from degrees alone
//!    (similarity-predicate pruning) and initialize roles.
//! 2. *Core checking* — min-max pruning with local `sd`/`ed`; only one
//!    endpoint of an edge computes it (similarity reuse without
//!    write-write conflicts). In the paper that is the `u < v` endpoint.
//!    Under the default [`Kernel::Adaptive`] (the rank schedule), an edge
//!    whose endpoints' degrees differ by at least 2× goes to the
//!    higher-degree endpoint instead, and every edge is checked against
//!    a bitmap of the computing endpoint's neighbors: `min(d[u], d[v])`
//!    probes for a skewed edge, where a merge takes `d[u] + d[v]` steps.
//!
//!    *The pull* (rank schedule only) — each edge an undecided vertex
//!    still waits on, at a decided neighbor of at least twice its
//!    degree, is settled from that neighbor's bitmap, one marking per
//!    neighbor.
//! 3. *Core consolidating* — identical logic without the orientation
//!    constraint, finishing roles the constraint left undecided, with
//!    the pairwise kernel (Theorems 4.1/4.2 guarantee no duplicated work
//!    and complete roles; they need only a strict total order).
//!
//! **Core & non-core clustering** ([`cluster`], Algorithm 4)
//! 4. *Core clustering without / with similarity computation* — wait-free
//!    union-find; phase 4a unions along already-known similar edges so
//!    phase 4b's union-find pruning (`IsSameSet`) can skip whole batches
//!    of intersections.
//! 5. *Cluster-id initialization* — CAS-min of core ids per disjoint set.
//! 6. *Non-core clustering* — cores hand their cluster id to similar
//!    non-core neighbors; per-task pair buffers are merged into the
//!    global array (the paper's pipelined copy-back).
//!
//! Every phase is scheduled with the degree-based dynamic task scheduler
//! (Algorithm 5, `ppscan-sched`), and every pairwise `CompSim` goes
//! through the configurable [`Kernel`]. An explicitly chosen kernel runs
//! the paper's id-ordered schedule throughout.

pub(crate) mod cluster;
pub(crate) mod roles;
pub(crate) mod shared;

use crate::params::ScanParams;
use crate::report as report_glue;
use crate::result::Clustering;
use crate::timing::StageTimings;
use ppscan_graph::CsrGraph;
use ppscan_intersect::Kernel;
use ppscan_obs::{RunReport, Span};
use ppscan_sched::{ExecutionStrategy, WorkerPool, DEFAULT_DEGREE_THRESHOLD};

/// Execution configuration for ppSCAN.
#[derive(Clone, Debug)]
pub struct PpScanConfig {
    /// Worker threads (the paper sweeps 1–256; defaults to all cores).
    pub threads: usize,
    /// `CompSim` kernel; defaults to [`Kernel::Adaptive`], which runs
    /// core checking on the rank schedule (bitmap probes, skewed edges
    /// from their higher-degree endpoint, then the pull) and every other
    /// `CompSim` with [`Kernel::auto`]'s block kernel. Any other kernel
    /// runs the paper's id-ordered schedule; `Kernel::MergeEarly`
    /// reproduces its "ppSCAN-NO".
    pub kernel: Kernel,
    /// Degree-sum threshold of the task scheduler (paper: 32768).
    pub degree_threshold: u64,
    /// How every phase's tasks are ordered and interleaved. `Parallel`
    /// for production; `SequentialDeterministic` as the reference
    /// schedule; `AdversarialSeeded` to replay hostile interleavings from
    /// a seed (the differential stress driver sweeps all three).
    pub strategy: ExecutionStrategy,
}

impl Default for PpScanConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: Kernel::Adaptive,
            degree_threshold: DEFAULT_DEGREE_THRESHOLD,
            strategy: ExecutionStrategy::Parallel,
        }
    }
}

impl PpScanConfig {
    /// Default configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Default::default()
        }
    }

    /// Builder-style kernel override.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder-style scheduler threshold override.
    pub fn degree_threshold(mut self, t: u64) -> Self {
        self.degree_threshold = t;
        self
    }

    /// Builder-style execution-strategy override.
    pub fn strategy(mut self, strategy: ExecutionStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// ppSCAN result: canonical clustering, per-stage timings (Figure 6),
/// and the unified machine-readable run report.
#[derive(Debug)]
pub struct PpScanOutput {
    /// Canonical clustering (identical to the sequential algorithms').
    pub clustering: Clustering,
    /// Durations of the four stages (sourced from the stage spans).
    pub timings: StageTimings,
    /// The run's [`RunReport`]: config, graph shape, span-sourced
    /// per-worker phase metrics, and kernel counters.
    pub report: RunReport,
}

/// Runs ppSCAN.
pub fn ppscan(g: &CsrGraph, params: ScanParams, config: &PpScanConfig) -> PpScanOutput {
    ppscan_ablation(g, params, config, false)
}

/// Runs ppSCAN, optionally skipping the first core-clustering phase
/// (`ClusterCoreWithoutCompSim`) — the §4.3 two-phase-clustering ablation
/// measured by `bin/ablation_twophase`. Results are identical either way;
/// only the amount of union-find pruning differs.
pub fn ppscan_ablation(
    g: &CsrGraph,
    params: ScanParams,
    config: &PpScanConfig,
    skip_cluster_phase_one: bool,
) -> PpScanOutput {
    let pool = WorkerPool::with_strategy(config.threads, config.strategy);
    let shared = shared::Shared::new(g, params, config.kernel, config.strategy);
    let mut timings = StageTimings::default();

    let ((core_label, pairs), report) = report_glue::instrument("ppscan", g, params, || {
        // ---- Role computing (Algorithm 3) ----
        {
            let span = Span::enter(report_glue::STAGE_SIMILARITY_PRUNING);
            roles::prune_sim(&shared, &pool, config.degree_threshold);
            timings.prune = span.finish();
        }

        {
            let span = Span::enter(report_glue::STAGE_CORE_CHECKING);
            roles::check_roles(&shared, &pool, config.degree_threshold);
            timings.check_core = span.finish();
        }

        // ---- Core and non-core clustering (Algorithm 4) ----
        let uf = {
            let span = Span::enter(report_glue::STAGE_CORE_CLUSTERING);
            let uf = cluster::cluster_cores(
                &shared,
                &pool,
                config.degree_threshold,
                skip_cluster_phase_one,
            );
            timings.core_cluster = span.finish();
            uf
        };

        let span = Span::enter(report_glue::STAGE_NONCORE_CLUSTERING);
        let out = cluster::cluster_noncores(&shared, &pool, config.degree_threshold, &uf);
        timings.noncore_cluster = span.finish();
        out
    });
    let report = report
        .with_threads(config.threads)
        .with_kernel(config.kernel.to_string())
        .with_strategy(config.strategy.to_string())
        .with_degree_threshold(config.degree_threshold);

    let clustering = Clustering::from_raw(shared.roles_vec(), core_label, pairs);
    PpScanOutput {
        clustering,
        timings,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pscan::pscan;
    use ppscan_graph::gen;

    fn assert_matches_pscan(g: &CsrGraph, eps: f64, mu: usize, cfg: &PpScanConfig) {
        let p = ScanParams::new(eps, mu);
        let expected = pscan(g, p).clustering;
        let got = ppscan(g, p, cfg).clustering;
        assert_eq!(
            got, expected,
            "ppSCAN({cfg:?}) != pSCAN at eps={eps} mu={mu}"
        );
    }

    #[test]
    fn golden_example_all_kernels() {
        let g = gen::scan_paper_example();
        for kernel in Kernel::ALL.into_iter().filter(|k| k.available()) {
            let cfg = PpScanConfig::with_threads(2).kernel(kernel);
            assert_matches_pscan(&g, 0.7, 2, &cfg);
        }
    }

    #[test]
    fn structured_graphs_parameter_grid() {
        let cfg = PpScanConfig::with_threads(4);
        for g in [
            gen::complete(8),
            gen::star(10),
            gen::path(12),
            gen::cycle(9),
            gen::grid(4, 5),
            gen::clique_chain(5, 4),
        ] {
            for eps in [0.3, 0.6, 0.9] {
                for mu in [1, 2, 4] {
                    assert_matches_pscan(&g, eps, mu, &cfg);
                }
            }
        }
    }

    #[test]
    fn random_graphs_multiple_thread_counts() {
        for threads in [1usize, 2, 4] {
            let cfg = PpScanConfig::with_threads(threads);
            for seed in 0..3 {
                let g = gen::erdos_renyi(150, 900, seed);
                assert_matches_pscan(&g, 0.5, 3, &cfg);
            }
            let g = gen::roll(300, 12, 1);
            assert_matches_pscan(&g, 0.4, 4, &cfg);
        }
    }

    #[test]
    fn tiny_scheduler_threshold_forces_many_tasks() {
        // threshold 1 → one task per vertex with work: stresses barriers
        // and the lock-free phases.
        let cfg = PpScanConfig::with_threads(4).degree_threshold(1);
        let g = gen::planted_partition(3, 25, 0.6, 0.02, 5);
        assert_matches_pscan(&g, 0.5, 3, &cfg);
    }

    #[test]
    fn ablation_skipping_phase_one_is_equivalent() {
        let g = gen::planted_partition(3, 20, 0.7, 0.02, 9);
        let p = ScanParams::new(0.5, 3);
        let cfg = PpScanConfig::with_threads(2);
        let a = ppscan(&g, p, &cfg).clustering;
        let b = ppscan_ablation(&g, p, &cfg, true).clustering;
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_degenerate_graphs() {
        let cfg = PpScanConfig::with_threads(2);
        for g in [CsrGraph::empty(0), CsrGraph::empty(7), gen::path(2)] {
            let out = ppscan(&g, ScanParams::new(0.5, 2), &cfg);
            assert_eq!(out.clustering.num_vertices(), g.num_vertices());
        }
    }

    #[test]
    fn timings_cover_all_stages() {
        let g = gen::roll(200, 10, 2);
        let out = ppscan(&g, ScanParams::new(0.3, 3), &PpScanConfig::with_threads(2));
        assert!(out.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn observed_run_emits_full_report() {
        let g = gen::roll(300, 12, 4);
        let cfg = PpScanConfig::with_threads(2);
        let out = ppscan(&g, ScanParams::new(0.4, 3), &cfg);
        let r = &out.report;
        assert_eq!(r.algorithm, "ppscan");
        assert_eq!(r.threads, Some(2));
        assert_eq!(r.graph.unwrap().vertices, g.num_vertices() as u64);
        assert!(r.wall_nanos > 0);
        // All four stages present, span-sourced, with recorded tasks.
        for stage in crate::report::PPSCAN_STAGES {
            let p = r.phase(stage).unwrap_or_else(|| panic!("missing {stage}"));
            assert!(p.wall_nanos > 0, "{stage} wall time");
        }
        assert!(r.phases.iter().any(|p| p.tasks > 0));
        assert!(r.counters.compsim_invocations > 0);
        // Report phases and StageTimings come from the same spans.
        let back = crate::report::stage_timings_from(r);
        assert_eq!(back.prune, out.timings.prune);
        // Round-trips through JSON.
        let parsed = ppscan_obs::RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(&parsed, r);
    }
}
