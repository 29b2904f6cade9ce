//! `explore-communities`: open-loop `(ε, µ)` queries against a served
//! GS*-Index, each checked against pSCAN.

use crate::inputs::{self, Seeds, EXPLORE_RATE, THREADS};
use crate::stats::{median, percentile, Schedule};
use crate::trace::Tracer;
use crate::{openloop, probes, Report};
use ppscan_core::params::ScanParams;
use ppscan_core::pscan::pscan;
use ppscan_core::result::Clustering;
use ppscan_graph::CsrGraph;
use ppscan_serve::{ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

/// Server starts per run; their median is `setup_s`.
const SETUPS: usize = 9;

/// pSCAN's answer for every grid point, computed on [`THREADS`] threads.
pub fn oracle(g: &CsrGraph, grid: &[(f64, usize)]) -> Vec<Clustering> {
    let mut answers: Vec<Option<Clustering>> = vec![None; grid.len()];
    std::thread::scope(|s| {
        for (w, chunk) in answers.chunks_mut(grid.len().div_ceil(THREADS)).enumerate() {
            let base = w * grid.len().div_ceil(THREADS);
            s.spawn(move || {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    let (eps, mu) = grid[base + k];
                    *slot = Some(pscan(g, ScanParams::new(eps, mu)).clustering);
                }
            });
        }
    });
    answers
        .into_iter()
        .map(|a| a.expect("every grid point was computed"))
        .collect()
}

/// Starts the server `times` times (dropping all but the last) and returns
/// it with the median start time in seconds.
pub fn start_server(g: &Arc<CsrGraph>, times: usize) -> (Server, f64) {
    let mut secs = Vec::new();
    let mut server = None;
    for _ in 0..times {
        drop(server.take());
        let t = Instant::now();
        server = Some(Server::start(Arc::clone(g), serve_config()));
        secs.push(t.elapsed().as_secs_f64());
    }
    (server.expect("started at least once"), median(&secs))
}

/// The server configuration every serve workload uses.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: THREADS,
        ..ServeConfig::default()
    }
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>, report: &mut Report) {
    let mut seeds = Seeds::new(seed);
    let g = Arc::new(inputs::community_graph(seeds.next()));
    let grid = inputs::grid();
    let expected = oracle(&g, &grid);
    // Whole rounds only, so every grid point is asked equally often and the
    // percentiles fall at the same place in the cost groups on every seed.
    let rounds = (Schedule::new(EXPLORE_RATE).count_within(seconds) / grid.len()).max(1);
    let count = rounds * grid.len();
    let points = inputs::shuffled_rounds(grid.len(), count, seeds.next());

    let (server, setup_s) = start_server(&g, SETUPS);
    let check = |i: usize, _: u64, resp: &ppscan_serve::QueryResponse| {
        resp.generation == 1 && resp.result.as_ref() == Ok(&expected[points[i]])
    };
    let out = openloop::run(&server, &grid, &points, EXPLORE_RATE, tracer, 1, &check);
    report.tally.absorb(out.tally);

    match tracer {
        None => {
            report.put("setup_s", setup_s);
            report.put("op_p50_ms", median(&out.latency_ms));
            report.put("op_p90_ms", percentile(&out.latency_ms, 0.9));
            report.put("ops_per_s", out.latency_ms.len() as f64 / out.wall_s);
            report.note_tail("op_p90_ms", out.latency_ms.len(), 0.9);
        }
        Some(t) => {
            probes::serve_layers(&server, &out, report);
            probes::rebuilds(&server, &g, t, report);
            report.put(
                "bench.trace_overhead",
                median(&out.traced_ms) / median(&out.untraced_ms),
            );
            drop(server);
            let mut seeds = Seeds::new(seed ^ 0x0ff1);
            probes::direct(&g, &mut seeds, t, report);
            probes::offline_probe(&g, "explore-communities", t, report);
        }
    }
}
