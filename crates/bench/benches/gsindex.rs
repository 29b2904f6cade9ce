//! Microbenchmarks for the GS*-Index: construction cost (the exhaustive
//! similarity pass the ppSCAN paper criticizes, §3.3) versus per-query
//! cost (output-proportional), and the ppSCAN recomputation it competes
//! with.
//!
//! Plain `harness = false` binary (no criterion in the hermetic build).

use ppscan_bench::{best_of, secs, Table};
use ppscan_core::params::ScanParams;
use ppscan_core::ppscan::{ppscan, PpScanConfig};
use ppscan_graph::gen;
use ppscan_gsindex::GsIndex;
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    let mut table = Table::new(&["benchmark", "case", "best"]);

    for n in [2_000usize, 10_000] {
        let g = Arc::new(gen::roll(n, 16, 3));
        let (d, _) = best_of(|| black_box(GsIndex::build(Arc::clone(&g), 2)));
        table.row(vec![
            "gsindex/build".into(),
            format!("roll-d16 n={n}"),
            secs(d),
        ]);
    }

    let g = Arc::new(gen::roll(10_000, 16, 3));
    let index = GsIndex::build(Arc::clone(&g), 2);
    let cfg = PpScanConfig::with_threads(2);
    for eps10 in [2u32, 5, 8] {
        let p = ScanParams::new(eps10 as f64 / 10.0, 5);
        let (d, _) = best_of(|| black_box(index.query(p)));
        table.row(vec![
            "gsindex/answer".into(),
            format!("index-query eps=0.{eps10}"),
            secs(d),
        ]);
        let (d, _) = best_of(|| black_box(ppscan(&g, p, &cfg)));
        table.row(vec![
            "gsindex/answer".into(),
            format!("ppscan-recompute eps=0.{eps10}"),
            secs(d),
        ]);
    }

    table.print(false);
}
