//! `offline-skewed`: graph file on disk → CSR → ppSCAN → classified output.

use crate::inputs::{self, Seeds, OFFLINE_EPS, OFFLINE_MU, THREADS};
use crate::probes;
use crate::stats::{median, percentile, Tally};
use crate::trace::{span, Tracer};
use crate::Report;
use ppscan_core::params::ScanParams;
use ppscan_core::ppscan::{ppscan, PpScanConfig};
use ppscan_core::pscan::pscan;
use ppscan_core::result::{Clustering, UnclusteredClass};
use ppscan_core::timing::StageTimings;
use ppscan_graph::io::{read_edge_list_file, write_edge_list};
use ppscan_graph::CsrGraph;
use ppscan_obs::RunReport;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on measured ops; far above what a run reaches.
const MAX_OPS: usize = 100_000;
/// Warm-up rounds (one op per ε each) before the measured ops.
const WARMUP_ROUNDS: usize = 3;

/// A graph written to disk plus the expected output of every op on it.
pub struct Prepared {
    /// The edge-list file each op reads.
    pub path: PathBuf,
    /// Size of that file in bytes.
    pub file_bytes: u64,
    /// The graph as the text loader returns it. The oracle runs on this,
    /// not on the generated graph: the text format cannot express trailing
    /// isolated vertices, so the loaded graph may have fewer vertices.
    pub loaded: Arc<CsrGraph>,
    /// pSCAN's clustering and its classification, per [`OFFLINE_EPS`].
    expected: Vec<(Clustering, Vec<UnclusteredClass>)>,
}

impl Prepared {
    /// Writes `g` to `path` (untimed), loads it back once and runs the
    /// pSCAN oracle for every ε of the cycle.
    pub fn new(g: &CsrGraph, path: &Path) -> std::io::Result<Prepared> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        write_edge_list(g, &mut w)?;
        w.flush()?;
        drop(w);
        let file_bytes = std::fs::metadata(path)?.len();
        let loaded = read_edge_list_file(path)?;
        if loaded.num_vertices() != g.num_vertices() {
            eprintln!(
                "perfbench: the edge-list file dropped {} trailing isolated vertices ({} generated, {} loaded)",
                g.num_vertices() - loaded.num_vertices(),
                g.num_vertices(),
                loaded.num_vertices()
            );
        }
        let expected = OFFLINE_EPS
            .iter()
            .map(|&eps| {
                let c = pscan(&loaded, ScanParams::new(eps, OFFLINE_MU)).clustering;
                let classes = c.classify_unclustered(&loaded);
                (c, classes)
            })
            .collect();
        Ok(Prepared {
            path: path.to_path_buf(),
            file_bytes,
            loaded: Arc::new(loaded),
            expected,
        })
    }
}

/// What one op measured beyond its wall time (kept for traced ops only).
pub struct OpDetail {
    /// ppSCAN's own stage timings.
    pub timings: StageTimings,
    /// ppSCAN's run report: kernel counters and per-worker busy time.
    pub report: RunReport,
    /// Undirected edges of the loaded graph.
    pub edges: usize,
}

/// One op: read the file, cluster it at `OFFLINE_EPS[e]`, classify every
/// vertex. Returns the op's wall time in seconds, whether its output
/// matched the oracle, and (when traced) its detail.
pub fn op(
    prep: &Prepared,
    e: usize,
    tracer: Option<&Tracer>,
    op_id: u64,
) -> (f64, bool, Option<OpDetail>) {
    let params = ScanParams::new(OFFLINE_EPS[e], OFFLINE_MU);
    let config = PpScanConfig::with_threads(THREADS);
    let start = Instant::now();
    let (ok, out, g) = span(tracer, op_id, 0, "offline.op", |root| {
        let g = span(tracer, op_id, root, "graph.read_edge_list", |_| {
            read_edge_list_file(&prep.path)
        });
        let Ok(g) = g else {
            return (false, None, None);
        };
        let out = span(tracer, op_id, root, "core.ppscan", |_| {
            ppscan(&g, params, &config)
        });
        let classes = span(tracer, op_id, root, "core.classify", |_| {
            out.clustering.classify_unclustered(&g)
        });
        let (want, want_classes) = &prep.expected[e];
        let ok = out.clustering == *want && classes == *want_classes;
        (ok, Some(out), Some(g))
    });
    let secs = start.elapsed().as_secs_f64();
    let detail = match (tracer, out, g) {
        (Some(_), Some(out), Some(g)) => Some(OpDetail {
            timings: out.timings,
            report: out.report,
            edges: g.num_edges(),
        }),
        _ => None,
    };
    (secs, ok, detail)
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>, report: &mut Report) {
    let mut seeds = Seeds::new(seed);
    let g = inputs::skewed_graph(seeds.next());
    let path = crate::scratch_file("offline-skewed", "txt");
    let prep = Prepared::new(&g, &path).expect("write and reload the edge-list file");
    drop(g);
    let order = inputs::shuffled_rounds(OFFLINE_EPS.len(), MAX_OPS, seeds.next());

    // Set-up: warm-up rounds of one op per ε, not counted as measured ops.
    // setup_s is the median round's mean op time; a round covers every ε,
    // so the median does not fall between the ε's very different costs.
    let mut setup = Vec::new();
    for _ in 0..WARMUP_ROUNDS {
        let mut round = 0.0;
        for e in 0..OFFLINE_EPS.len() {
            let (secs, ok, _) = op(&prep, e, None, 0);
            report.tally.record(ok);
            round += secs;
        }
        setup.push(round / OFFLINE_EPS.len() as f64);
    }

    let mut lat_ms = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut details = Vec::new();
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < seconds && i < MAX_OPS {
        // In a traced run every other op is traced, so the two halves give
        // the tracing overhead.
        let tr = tracer.filter(|_| i % 2 == 1);
        let (secs, ok, detail) = op(&prep, order[i], tr, i as u64 + 1);
        tally.record(ok);
        lat_ms.push(secs * 1e3);
        if tr.is_some() {
            traced_ms.push(secs * 1e3);
        } else {
            untraced_ms.push(secs * 1e3);
        }
        details.extend(detail);
        i += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    report.tally.absorb(tally);

    match tracer {
        None => {
            report.put("setup_s", median(&setup));
            report.put("op_p50_ms", median(&lat_ms));
            report.put("op_p90_ms", percentile(&lat_ms, 0.9));
            report.put("ops_per_s", lat_ms.len() as f64 / wall);
            report.note_tail("op_p90_ms", lat_ms.len(), 0.9);
        }
        Some(t) => {
            probes::offline_layers(&prep, &details, t, report);
            report.put(
                "bench.trace_overhead",
                median(&traced_ms) / median(&untraced_ms),
            );
            let mut seeds = Seeds::new(seed ^ 0x0ff1);
            probes::direct(&prep.loaded, &mut seeds, t, report);
            probes::serve_probe(&prep.loaded, &mut seeds, t, report);
        }
    }
    std::fs::remove_file(&path).ok();
}
