//! Per-layer metrics of a traced run.
//!
//! A layer the workload's own ops pass through is measured on those ops.
//! Every other layer is measured by a probe on the workload's graph that
//! calls the layer's public functions directly, each call wrapped in a span,
//! so every traced run reports every per-layer metric.

use crate::explore::start_server;
use crate::inputs::{self, Seeds, OFFLINE_EPS, OFFLINE_MU, PROBE_QUERY_RATE, THREADS};
use crate::offline::{self, OpDetail, Prepared};
use crate::openloop::{self, LoopOut};
use crate::stats::{mean, median, percentile};
use crate::trace::{span, Tracer};
use crate::Report;
use ppscan_core::params::ScanParams;
use ppscan_core::ppscan::{ppscan, PpScanConfig};
use ppscan_graph::rng::SplitMix64;
use ppscan_graph::CsrGraph;
use ppscan_gsindex::OwnedGsIndex;
use ppscan_intersect::counters::CounterScope;
use ppscan_serve::Server;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Op ids of probe spans start here, clear of the workload's own ops.
const PROBE_OP: u64 = 1 << 40;
/// Adjacency pairs replayed through the kernel.
const CHECK_PAIRS: usize = 20_000;
/// Deltas the direct index-maintenance probe applies.
const PROBE_DELTAS: usize = 20;
/// Rounds of the `(ε, µ)` grid the direct query probe runs.
const QUERY_ROUNDS: usize = 5;
/// Queries of the serve probe (workloads without a server of their own).
const SERVE_PROBE_QUERIES: usize = 80;

/// Runs `f` as a span of op `op` and returns its result and its length in
/// seconds.
fn timed<R>(tracer: &Tracer, op: u64, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = span(Some(tracer), op, 0, name, |_| f());
    (out, t.elapsed().as_secs_f64())
}

/// `graph`, `core`, `intersect` and `sched.ppscan_*` metrics from traced
/// offline ops.
pub fn offline_layers(prep: &Prepared, details: &[OpDetail], t: &Tracer, report: &mut Report) {
    let read = median(&t.durations("graph.read_edge_list"));
    report.put("graph.read_edge_list_s", read);
    report.put("graph.ingest_mb_per_s", prep.file_bytes as f64 / 1e6 / read);
    report.put("core.ppscan_s", median(&t.durations("core.ppscan")));
    report.put("core.classify_s", median(&t.durations("core.classify")));
    let stage = |f: fn(&OpDetail) -> f64| median(&details.iter().map(f).collect::<Vec<_>>());
    report.put("core.prune_s", stage(|d| d.timings.prune.as_secs_f64()));
    report.put(
        "core.check_core_s",
        stage(|d| d.timings.check_core.as_secs_f64()),
    );
    report.put(
        "core.core_cluster_s",
        stage(|d| d.timings.core_cluster.as_secs_f64()),
    );
    report.put(
        "core.noncore_cluster_s",
        stage(|d| d.timings.noncore_cluster.as_secs_f64()),
    );

    let sum = |f: fn(&OpDetail) -> u64| details.iter().map(f).sum::<u64>() as f64;
    let calls = sum(|d| d.report.counters.compsim_invocations);
    let ops = details.len() as f64;
    report.put("intersect.compsim_invocations", calls / ops);
    report.put(
        "intersect.compsim_per_edge",
        calls / sum(|d| d.edges as u64).max(1.0),
    );
    report.put(
        "intersect.elements_per_invocation",
        sum(|d| d.report.counters.elements_scanned) / calls.max(1.0),
    );
    let gallop = sum(|d| d.report.counters.adaptive_gallop);
    let block = sum(|d| d.report.counters.adaptive_block);
    report.put(
        "intersect.adaptive_gallop_frac",
        gallop / (gallop + block).max(1.0),
    );
    let busy = sum(|d| {
        d.report
            .phases
            .iter()
            .flat_map(|p| &p.workers)
            .map(|w| w.busy_nanos)
            .sum()
    });
    let wall = sum(|d| d.report.phases.iter().map(|p| p.wall_nanos).sum());
    report.put(
        "sched.ppscan_busy_frac",
        busy / (THREADS as f64 * wall).max(1.0),
    );
}

/// Offline-op layers for a workload without file ingest: writes its graph
/// to disk and runs one traced offline op per ε.
pub fn offline_probe(g: &CsrGraph, workload: &str, t: &Tracer, report: &mut Report) {
    let path = crate::scratch_file(workload, "txt");
    let prep = Prepared::new(g, &path).expect("write and reload the edge-list file");
    let mut details = Vec::new();
    for e in 0..OFFLINE_EPS.len() {
        let (_, ok, detail) = offline::op(&prep, e, Some(t), PROBE_OP + e as u64);
        report.tally.record(ok);
        details.extend(detail);
    }
    offline_layers(&prep, &details, t, report);
    std::fs::remove_file(&path).ok();
}

/// `serve.*`, `sched.serve_busy_frac` and `bench.gen_lag_p99_ms` from a
/// server that has just carried the open-loop load `out`.
pub fn serve_layers(server: &Server, out: &LoopOut, report: &mut Report) {
    let lat = server.latency().summary();
    report.put("serve.latency_p50_us", lat.p50_nanos as f64 / 1e3);
    report.put("serve.latency_p99_us", lat.p99_nanos as f64 / 1e3);
    let snap = server.metrics_snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    report.put(
        "serve.batch_size_mean",
        counter("serve.queries") / counter("serve.batches").max(1.0),
    );
    let busy: f64 = (0..THREADS)
        .map(|w| counter(&format!("pool.worker{w}.busy_nanos")))
        .sum();
    report.put(
        "sched.serve_busy_frac",
        busy / (THREADS as f64 * out.wall_s * 1e9),
    );
    report.put("bench.gen_lag_p99_ms", percentile(&out.lag_ms, 0.99));
    report.put(
        "bench.redeem_ready_frac",
        out.ready_on_reach as f64 / out.latency_ms.len().max(1) as f64,
    );
}

/// Times three `Server::rebuild`s of `g` as `serve.rebuild_s`.
pub fn rebuilds(server: &Server, g: &Arc<CsrGraph>, t: &Tracer, report: &mut Report) {
    let mut secs = Vec::new();
    for r in 0..3 {
        let before = server.generation();
        let (generation, s) = timed(t, PROBE_OP + r, "serve.rebuild", || {
            server.rebuild(Arc::clone(g))
        });
        report.tally.record(generation == before + 1);
        secs.push(s);
    }
    report.put("serve.rebuild_s", median(&secs));
}

/// Serve-layer metrics for a workload without a server: starts one over
/// `g` and offers it a short open-loop query stream.
pub fn serve_probe(g: &Arc<CsrGraph>, seeds: &mut Seeds, t: &Tracer, report: &mut Report) {
    let grid = inputs::grid();
    let points = inputs::shuffled_rounds(grid.len(), SERVE_PROBE_QUERIES, seeds.next());
    let (server, _) = start_server(g, 1);
    let check = |_: usize, _: u64, resp: &ppscan_serve::QueryResponse| resp.result.is_ok();
    let out = openloop::run(
        &server,
        &grid,
        &points,
        PROBE_QUERY_RATE,
        Some(t),
        PROBE_OP,
        &check,
    );
    report.tally.absorb(out.tally);
    serve_layers(&server, &out, report);
    rebuilds(&server, g, t, report);
}

/// Direct calls into `core` (thread scaling), `intersect` (kernel replay),
/// `gsindex` (build, query, apply_delta) and `graph` (delta splice) on the
/// workload's graph.
pub fn direct(g: &Arc<CsrGraph>, seeds: &mut Seeds, t: &Tracer, report: &mut Report) {
    // core: the same ppSCAN on one thread and on THREADS.
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for (e, &eps) in OFFLINE_EPS.iter().enumerate() {
        let params = ScanParams::new(eps, OFFLINE_MU);
        let op = PROBE_OP + e as u64;
        let (a, s1) = timed(t, op, "core.ppscan_1t", || {
            ppscan(g, params, &PpScanConfig::with_threads(1))
        });
        let (b, s2) = timed(t, op, "core.ppscan_2t", || {
            ppscan(g, params, &PpScanConfig::with_threads(THREADS))
        });
        report.tally.record(a.clustering == b.clustering);
        one.push(s1);
        many.push(s2);
    }
    report.put("core.ppscan_1t_s", median(&one));
    report.put(
        "core.speedup_2t",
        one.iter().sum::<f64>() / many.iter().sum::<f64>(),
    );

    // intersect: the default kernel replayed over a seeded sample of
    // adjacency slots (hubs are drawn in proportion to their degree, as
    // core checking meets them).
    let kernel = PpScanConfig::default().kernel;
    let mut rng = SplitMix64::seed_from_u64(seeds.next());
    let m2 = g.num_directed_edges();
    let pairs: Vec<(u32, u32)> = (0..CHECK_PAIRS)
        .map(|_| {
            let slot = rng.gen_index(m2);
            (g.slot_src(slot), g.edge_dst(slot))
        })
        .collect();
    let replay = || {
        for &eps in &OFFLINE_EPS {
            let params = ScanParams::new(eps, OFFLINE_MU);
            for &(u, v) in &pairs {
                let (a, b) = (g.neighbors(u), g.neighbors(v));
                black_box(kernel.check(a, b, params.min_cn(a.len(), b.len())));
            }
        }
    };
    let (counts, ()) = CounterScope::new().measure(replay);
    let passes: Vec<f64> = (0..3)
        .map(|r| timed(t, PROBE_OP + r, "intersect.check_replay", replay).1)
        .collect();
    let pass_ns = median(&passes) * 1e9;
    let calls = (CHECK_PAIRS * OFFLINE_EPS.len()) as f64;
    report.put("intersect.check_ns_per_call", pass_ns / calls);
    report.put(
        "intersect.elems_per_ns",
        counts.elements_scanned as f64 / pass_ns,
    );

    // gsindex: build, query over the grid, incremental maintenance.
    let mut builds = Vec::new();
    let mut index = None;
    for r in 0..3 {
        drop(index.take());
        let (idx, s) = timed(t, PROBE_OP + r, "gsindex.build", || {
            OwnedGsIndex::build(Arc::clone(g), THREADS)
        });
        builds.push(s);
        index = Some(idx);
    }
    let index = index.expect("built at least once");
    report.put("gsindex.build_s", median(&builds));
    report.put("gsindex.heap_mb", index.heap_bytes() as f64 / 1e6);

    let grid = inputs::grid();
    let points = inputs::shuffled_rounds(grid.len(), grid.len() * QUERY_ROUNDS, seeds.next());
    let mut query_us = Vec::new();
    for (i, &p) in points.iter().enumerate() {
        let (eps, mu) = grid[p];
        let (_, s) = timed(t, PROBE_OP + i as u64, "gsindex.query", || {
            index.query(ScanParams::new(eps, mu))
        });
        query_us.push(s * 1e6);
    }
    report.put("gsindex.query_p50_us", median(&query_us));
    report.put("gsindex.query_p99_us", percentile(&query_us, 0.99));

    let deltas = inputs::delta_chain(g, PROBE_DELTAS, seeds.next());
    let (mut apply_ms, mut splice_ms) = (Vec::new(), Vec::new());
    let (mut touched, mut recomputed) = (Vec::new(), Vec::new());
    let (mut sum_recomputed, mut sum_applied) = (0usize, 0usize);
    let mut current = index;
    let mut shadow = Arc::clone(g);
    for (i, d) in deltas.iter().enumerate() {
        let op = PROBE_OP + i as u64;
        let (res, s) = timed(t, op, "gsindex.apply_delta", || {
            current.apply_delta(d, THREADS)
        });
        let Ok((next, stats)) = res else {
            report.tally.record(false);
            break;
        };
        apply_ms.push(s * 1e3);
        touched.push(stats.touched_vertices as f64);
        recomputed.push(stats.recomputed_edges as f64);
        sum_recomputed += stats.recomputed_edges;
        sum_applied += stats.applied_edges;
        current = next;

        let (spliced, s) = timed(t, op, "graph.delta_apply_to", || d.apply_to(&shadow));
        splice_ms.push(s * 1e3);
        let Ok(spliced) = spliced else {
            report.tally.record(false);
            break;
        };
        report
            .tally
            .record(spliced.graph.raw_neighbors() == current.graph().raw_neighbors());
        shadow = Arc::new(spliced.graph);
    }
    report.put("gsindex.apply_delta_ms", median(&apply_ms));
    report.put("gsindex.touched_vertices", mean(&touched));
    report.put("gsindex.recomputed_edges", mean(&recomputed));
    report.put(
        "gsindex.recomputed_per_applied",
        sum_recomputed as f64 / sum_applied.max(1) as f64,
    );
    report.put("graph.delta_apply_to_ms", median(&splice_ms));
}
