//! `RunReport` glue for the algorithm drivers.
//!
//! `ppscan-obs` defines the report format without knowing about graphs,
//! parameters, or kernels; this module is the binding layer: canonical
//! stage names, conversion from a [`Breakdown`] to report phases and
//! from report phases back to [`StageTimings`], and [`instrument`] — a
//! wrapper that runs any driver under a fresh span collector + kernel
//! counter scope and returns the run's [`RunReport`] alongside its
//! result.

use crate::params::ScanParams;
use crate::timing::{Breakdown, StageTimings};
use ppscan_graph::CsrGraph;
use ppscan_intersect::counters::CounterScope;
use ppscan_obs::report::{KernelCounters, PhaseMetrics, RunReport};
use ppscan_obs::Collector;
use std::time::{Duration, Instant};

/// Stage name: similarity pruning (ppSCAN phase 1).
pub const STAGE_SIMILARITY_PRUNING: &str = "similarity-pruning";
/// Stage name: core checking + consolidating (ppSCAN phases 2–3).
pub const STAGE_CORE_CHECKING: &str = "core-checking";
/// Stage name: two-phase core clustering (ppSCAN phase 4).
pub const STAGE_CORE_CLUSTERING: &str = "core-clustering";
/// Stage name: cluster-id init + non-core clustering (ppSCAN phases 5–6).
pub const STAGE_NONCORE_CLUSTERING: &str = "noncore-clustering";

/// ppSCAN stage names in execution order, aligned with
/// [`StageTimings::stages`].
pub const PPSCAN_STAGES: [&str; 4] = [
    STAGE_SIMILARITY_PRUNING,
    STAGE_CORE_CHECKING,
    STAGE_CORE_CLUSTERING,
    STAGE_NONCORE_CLUSTERING,
];

/// Phase name: similarity evaluation (Figure-1 breakdown).
pub const PHASE_SIMILARITY_EVALUATION: &str = "similarity-evaluation";
/// Phase name: workload-reduction computation (Figure-1 breakdown).
pub const PHASE_WORKLOAD_REDUCTION: &str = "workload-reduction";
/// Phase name: everything else (Figure-1 breakdown).
pub const PHASE_OTHER: &str = "other";

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A report skeleton with the fields every driver shares.
pub fn base_report(algorithm: &str, g: &CsrGraph, params: ScanParams) -> RunReport {
    RunReport::new(algorithm)
        .with_params(params.epsilon.as_f64(), params.mu as u64)
        .with_graph(g.num_vertices() as u64, g.num_edges() as u64)
}

/// Converts a Figure-1 [`Breakdown`] into report phases (wall-time only —
/// the sequential algorithms have no workers).
pub fn breakdown_phases(b: &Breakdown) -> Vec<PhaseMetrics> {
    [
        (PHASE_SIMILARITY_EVALUATION, b.similarity_evaluation),
        (PHASE_WORKLOAD_REDUCTION, b.workload_reduction),
        (PHASE_OTHER, b.other),
    ]
    .into_iter()
    .map(|(name, d)| PhaseMetrics {
        name: name.to_string(),
        wall_nanos: nanos(d),
        ..PhaseMetrics::default()
    })
    .collect()
}

/// Rebuilds [`StageTimings`] from a report's phases (zero for missing
/// stages). The inverse of the span-sourced phase list, used by harness
/// code that still consumes `StageTimings`.
pub fn stage_timings_from(report: &RunReport) -> StageTimings {
    let get = |name: &str| {
        report
            .phase(name)
            .map_or(Duration::ZERO, |p| Duration::from_nanos(p.wall_nanos))
    };
    StageTimings {
        prune: get(STAGE_SIMILARITY_PRUNING),
        check_core: get(STAGE_CORE_CHECKING),
        core_cluster: get(STAGE_CORE_CLUSTERING),
        noncore_cluster: get(STAGE_NONCORE_CLUSTERING),
    }
}

/// Converts a counter snapshot into report counters.
pub fn counters_from(snapshot: ppscan_intersect::counters::CounterSnapshot) -> KernelCounters {
    KernelCounters {
        compsim_invocations: snapshot.compsim_invocations,
        elements_scanned: snapshot.elements_scanned,
        ..KernelCounters::default()
    }
}

/// Runs `f` under a fresh span [`Collector`] and kernel [`CounterScope`]
/// (both propagate to pool workers automatically) and returns its result
/// together with a populated [`RunReport`]: wall time, span-sourced
/// phases, and kernel counters. Config fields beyond `(ε, µ)` and the
/// graph shape are the caller's to fill.
pub fn instrument<R>(
    algorithm: &str,
    g: &CsrGraph,
    params: ScanParams,
    f: impl FnOnce() -> R,
) -> (R, RunReport) {
    let collector = Collector::new();
    let scope = CounterScope::new();
    let wall = Instant::now();
    let out = {
        let _spans = collector.activate();
        let _counters = scope.activate();
        f()
    };
    let wall = wall.elapsed();
    let mut report = base_report(algorithm, g, params);
    report.wall_nanos = nanos(wall);
    report.phases = RunReport::phases_from(&collector.snapshot());
    report.counters = counters_from(scope.snapshot());
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppscan_graph::gen;

    #[test]
    fn instrument_captures_phases_and_counters() {
        let g = gen::clique_chain(4, 3);
        let params = ScanParams::new(0.5, 2);
        let (clustering, report) = instrument("scanxp", &g, params, || {
            crate::scanxp::scanxp(&g, params, 2)
        });
        assert_eq!(clustering.num_vertices(), g.num_vertices());
        assert_eq!(report.algorithm, "scanxp");
        assert_eq!(report.graph.unwrap().vertices, g.num_vertices() as u64);
        assert!(report.wall_nanos > 0);
        // SCAN-XP's exhaustive merge records scanned elements (it has no
        // early-terminating CompSim entry point, so no invocation count).
        assert!(
            report.counters.elements_scanned > 0,
            "counter scope must propagate into the pool automatically"
        );
        assert!(
            !report.phases.is_empty(),
            "pool tasks must be recorded as spans"
        );
        let tasks: u64 = report.phases.iter().map(|p| p.tasks).sum();
        assert!(tasks > 0);
    }

    #[test]
    fn breakdown_phases_roundtrip_names() {
        let b = Breakdown {
            similarity_evaluation: Duration::from_millis(3),
            workload_reduction: Duration::from_millis(2),
            other: Duration::from_millis(1),
        };
        let phases = breakdown_phases(&b);
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].name, PHASE_SIMILARITY_EVALUATION);
        assert_eq!(phases[0].wall_nanos, 3_000_000);
    }
}
