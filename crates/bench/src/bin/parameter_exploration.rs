//! Extension experiment — index-based vs recomputation-based parameter
//! exploration (paper §3.3): the ppSCAN paper argues GS*-Index's
//! exhaustive construction is "prohibitively expensive" and positions
//! fast recomputation (ppSCAN) as the better way to explore parameters.
//! This harness quantifies the trade-off: index build cost, per-query
//! cost from the index, per-query cost of a fresh ppSCAN run, and the
//! break-even query count.
//!
//! ```sh
//! cargo run --release -p ppscan-bench --bin parameter_exploration -- [--scale 1.0]
//! ```

use ppscan_bench::{best_of, secs, HarnessArgs, Table};
use ppscan_core::ppscan::{ppscan, PpScanConfig};
use ppscan_gsindex::GsIndex;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args = HarnessArgs::parse();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let cfg = PpScanConfig::with_threads(threads);

    let mut table = Table::new(&[
        "dataset",
        "index build",
        "avg query (index)",
        "avg query (ppSCAN)",
        "break-even #queries",
    ]);
    // The paper's evaluation grid: ε ∈ {0.1..0.9} × µ ∈ {2,5,10,15}.
    let grid: Vec<(f64, usize)> = (1..=9)
        .flat_map(|e| [2usize, 5, 10, 15].map(|mu| (e as f64 / 10.0, mu)))
        .collect();

    let mut report = ppscan_bench::figure_report("parameter_exploration", &args);
    for (d, g) in ppscan_bench::load_datasets(&args) {
        let g = Arc::new(g);
        let t0 = Instant::now();
        let index = GsIndex::build(Arc::clone(&g), threads);
        let build = t0.elapsed();

        let mut idx_total = Duration::ZERO;
        let mut pp_total = Duration::ZERO;
        for &(eps, mu) in &grid {
            let p = ppscan_core::params::ScanParams::new(eps, mu);
            let (tq, idx_result) = best_of(|| index.query(p));
            idx_total += tq;
            let (tr, pp_result) = best_of(|| ppscan(&g, p, &cfg));
            pp_total += tr;
            let mut r = pp_result.report.clone();
            r.dataset = Some(d.name().into());
            report.runs.push(r);
            assert_eq!(
                idx_result,
                pp_result.clustering,
                "{}: index and ppSCAN disagree at eps={eps} mu={mu}",
                d.name()
            );
        }
        let idx_avg = idx_total / grid.len() as u32;
        let pp_avg = pp_total / grid.len() as u32;
        let break_even = if pp_avg > idx_avg {
            format!(
                "{:.1}",
                build.as_secs_f64() / (pp_avg - idx_avg).as_secs_f64()
            )
        } else {
            "never".into()
        };
        table.row(vec![
            d.name().into(),
            secs(build),
            format!("{:.6}", idx_avg.as_secs_f64()),
            format!("{:.6}", pp_avg.as_secs_f64()),
            break_even,
        ]);
    }
    println!(
        "\nParameter exploration: GS*-Index vs ppSCAN recomputation over a \
         {}-point (eps, mu) grid (results verified equal)",
        36
    );
    table.print(args.csv);
    ppscan_bench::emit_report(&args, report, &table);
}
