//! Index-backed parameter exploration: build a GS*-Index-style
//! similarity index once, then answer any `(ε, µ)` clustering query with
//! no set intersections — the alternative the ppSCAN paper's related
//! work (§3.3) weighs against fast recomputation.
//!
//! ```sh
//! cargo run --release --example index_exploration [n] [avg_degree]
//! ```

use ppscan::gsindex::GsIndex;
use ppscan::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let d: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    let graph = Arc::new(ppscan::graph::gen::roll(n, d, 7));
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let t0 = Instant::now();
    let index = GsIndex::build(Arc::clone(&graph), threads);
    let build_time = t0.elapsed();
    println!(
        "index built in {build_time:?} ({:.1} MiB)",
        index.heap_bytes() as f64 / (1 << 20) as f64
    );

    println!(
        "\n{:>5} {:>4} {:>9} {:>9} {:>12} {:>12}",
        "eps", "mu", "cores", "clusters", "query", "recompute"
    );
    let cfg = PpScanConfig::default();
    let mut total_query = std::time::Duration::ZERO;
    for mu in [2usize, 5, 10] {
        for eps10 in [2u32, 5, 8] {
            let p = ScanParams::new(eps10 as f64 / 10.0, mu);
            let t0 = Instant::now();
            let from_index = index.query(p);
            let tq = t0.elapsed();
            total_query += tq;
            let t0 = Instant::now();
            let recomputed = ppscan(&graph, p, &cfg).clustering;
            let tr = t0.elapsed();
            assert_eq!(from_index, recomputed, "index and ppSCAN must agree");
            println!(
                "{:>5.1} {:>4} {:>9} {:>9} {:>12?} {:>12?}",
                eps10 as f64 / 10.0,
                mu,
                from_index.num_cores(),
                from_index.num_clusters(),
                tq,
                tr
            );
        }
    }
    println!(
        "\nevery query verified identical to a fresh ppSCAN run; \
         index amortizes after enough queries (build {build_time:?}, \
         9 queries took {total_query:?})"
    );
}
