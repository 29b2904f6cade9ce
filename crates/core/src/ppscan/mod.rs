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
//! 2. *Core checking* — min-max pruning with local `sd`/`ed`; only the
//!    `u < v` endpoint computes an edge (similarity reuse without
//!    write-write conflicts).
//! 3. *Core consolidating* — identical logic without the `u < v`
//!    constraint, finishing roles the order constraint left undecided
//!    (Theorems 4.1/4.2 guarantee no duplicated work and complete roles).
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
//! (Algorithm 5, `ppscan-sched`), and every `CompSim` goes through the
//! configurable [`Kernel`] — the vectorized pivot kernel by default.

pub(crate) mod cluster;
pub(crate) mod roles;
pub(crate) mod shared;

use crate::params::ScanParams;
use crate::report as report_glue;
use crate::result::Clustering;
use crate::timing::StageTimings;
use ppscan_graph::CsrGraph;
use ppscan_intersect::counters::CounterScope;
use ppscan_intersect::Kernel;
use ppscan_obs::{Collector, RunReport, Span};
use ppscan_sched::{ExecutionStrategy, PoolMetrics, WorkerPool, DEFAULT_DEGREE_THRESHOLD};
use std::sync::Arc;
use std::time::Instant;

/// Execution configuration for ppSCAN.
#[derive(Clone, Debug)]
pub struct PpScanConfig {
    /// Worker threads (the paper sweeps 1–256; defaults to all cores).
    pub threads: usize,
    /// `CompSim` kernel; defaults to [`Kernel::Adaptive`] (degree-ratio
    /// dispatch between galloping and the widest available block
    /// kernel). `Kernel::MergeEarly` reproduces the paper's "ppSCAN-NO".
    pub kernel: Kernel,
    /// Degree-sum threshold of the task scheduler (paper: 32768).
    pub degree_threshold: u64,
    /// How every phase's tasks are ordered and interleaved. `Parallel`
    /// for production; `SequentialDeterministic` as the reference
    /// schedule; `AdversarialSeeded` to replay hostile interleavings from
    /// a seed (the differential stress driver sweeps all three).
    pub strategy: ExecutionStrategy,
    /// Whether the run activates its own span collector + kernel counter
    /// scope and fills the output's [`RunReport`] with per-worker phase
    /// metrics and counters. On by default; `bin/obs_overhead` measures
    /// the cost of leaving it on (the stage spans themselves always run —
    /// they are also the source of [`StageTimings`]).
    pub observe: bool,
    /// Live pool counters to attach to the run's worker pool (see
    /// [`PoolMetrics`]). `None` by default — live metrics are for
    /// long-lived hosts (serving, soak benches) that sample a registry
    /// while runs execute; one-shot runs report post-hoc instead.
    pub metrics: Option<Arc<PoolMetrics>>,
}

impl Default for PpScanConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: Kernel::Adaptive,
            degree_threshold: DEFAULT_DEGREE_THRESHOLD,
            strategy: ExecutionStrategy::Parallel,
            observe: true,
            metrics: None,
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

    /// Builder-style observation toggle.
    pub fn observe(mut self, observe: bool) -> Self {
        self.observe = observe;
        self
    }

    /// Builder-style live pool-metrics attachment.
    pub fn metrics(mut self, metrics: Option<Arc<PoolMetrics>>) -> Self {
        self.metrics = metrics;
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
    /// The run's [`RunReport`]: config, graph shape, span-sourced phase
    /// metrics (per-worker when `observe` is on), and kernel counters.
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
    if let Some(metrics) = &config.metrics {
        pool.attach_metrics(Arc::clone(metrics));
    }
    let shared = shared::Shared::new(g, params, config.kernel, config.strategy);
    let mut timings = StageTimings::default();

    // Observation: a collector + counter scope for this run, activated
    // only when configured. The stage spans below always run — they are
    // the single source of `StageTimings` — but without an active
    // collector they cost two clock reads per stage and nothing per task.
    let collector = Collector::new();
    let scope = CounterScope::new();
    let guards = config
        .observe
        .then(|| (collector.activate(), scope.activate()));
    let wall = Instant::now();

    // ---- Role computing (Algorithm 3) ----
    {
        let span = Span::enter(report_glue::STAGE_SIMILARITY_PRUNING);
        roles::prune_sim(&shared, &pool, config.degree_threshold);
        timings.prune = span.finish();
    }

    {
        let span = Span::enter(report_glue::STAGE_CORE_CHECKING);
        roles::check_core(
            &shared,
            &pool,
            config.degree_threshold,
            /*only_greater=*/ true,
        );
        roles::check_core(
            &shared,
            &pool,
            config.degree_threshold,
            /*only_greater=*/ false,
        );
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

    let (core_label, pairs) = {
        let span = Span::enter(report_glue::STAGE_NONCORE_CLUSTERING);
        let out = cluster::cluster_noncores(&shared, &pool, config.degree_threshold, &uf);
        timings.noncore_cluster = span.finish();
        out
    };

    let wall = wall.elapsed();
    drop(guards);

    let mut report = report_glue::base_report("ppscan", g, params)
        .with_threads(config.threads)
        .with_kernel(config.kernel.to_string())
        .with_strategy(config.strategy.to_string())
        .with_degree_threshold(config.degree_threshold);
    report.wall_nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    if config.observe {
        report.phases = RunReport::phases_from(&collector.snapshot());
        report.counters = report_glue::counters_from(scope.snapshot());
    } else {
        report.phases = report_glue::stage_phases(&timings);
    }

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

    #[test]
    fn unobserved_run_still_reports_stage_walls() {
        let g = gen::roll(150, 10, 5);
        let cfg = PpScanConfig::with_threads(2).observe(false);
        let out = ppscan(&g, ScanParams::new(0.4, 3), &cfg);
        assert_eq!(out.report.counters.compsim_invocations, 0);
        for stage in crate::report::PPSCAN_STAGES {
            assert!(out.report.phase(stage).unwrap().wall_nanos > 0);
        }
    }
}
