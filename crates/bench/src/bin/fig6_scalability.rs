//! Figure 6 — scalability with the number of threads: per-stage time
//! breakdown of ppSCAN's four stages at ε = 0.2, µ = 5, sweeping the
//! thread count.
//!
//! The paper sweeps 1–256 threads on a 64-core KNL. Default here sweeps
//! `--threads 1,2,4,8`; self-speedups are only meaningful up to the
//! physical core count of the host (EXPERIMENTS.md records the caveat
//! for the 1-core CI machine).
//!
//! ```sh
//! cargo run --release -p ppscan-bench --bin fig6_scalability -- \
//!     [--scale 1.0] [--threads 1,2,4,8,16]
//! ```

use ppscan_bench::{secs, HarnessArgs, Table};
use ppscan_core::ppscan::{ppscan, PpScanConfig};
use ppscan_core::report::stage_timings_from;
use ppscan_obs::RunReport;
use std::time::Duration;

fn main() {
    let mut args = HarnessArgs::parse();
    if !args.eps_given {
        args.eps_list = vec![0.2]; // the figure fixes eps = 0.2
    }
    let eps = args.eps_list[0];

    let mut table = Table::new(&[
        "dataset",
        "threads",
        "prune",
        "check",
        "core-cl",
        "noncore-cl",
        "total",
        "self-speedup",
    ]);
    let mut report = ppscan_bench::figure_report("fig6_scalability", &args);
    for (d, g) in ppscan_bench::load_datasets(&args) {
        let mut t1: Option<Duration> = None;
        for &threads in &args.threads {
            let cfg = PpScanConfig::with_threads(threads);
            let p = args.params(eps);
            // Best-of-RUNS per stage (stages measured within one run);
            // the span-sourced run report is the source of truth, and the
            // printed stage times are re-derived from it.
            let mut best_total = Duration::MAX;
            let mut best: Option<RunReport> = None;
            for _ in 0..ppscan_bench::RUNS {
                let o = ppscan(&g, p, &cfg);
                if o.timings.total() < best_total {
                    best_total = o.timings.total();
                    best = Some(o.report);
                }
            }
            let mut best_report = best.unwrap();
            best_report.dataset = Some(d.name().into());
            let stages = stage_timings_from(&best_report);
            let base = *t1.get_or_insert(best_total);
            table.row(vec![
                d.name().into(),
                threads.to_string(),
                secs(stages.prune),
                secs(stages.check_core),
                secs(stages.core_cluster),
                secs(stages.noncore_cluster),
                secs(best_total),
                format!(
                    "{:.2}x",
                    base.as_secs_f64() / best_total.as_secs_f64().max(1e-9)
                ),
            ]);
            report.runs.push(best_report);
        }
    }
    println!(
        "\nFigure 6: ppSCAN per-stage scalability (eps = {eps}, mu = {})",
        args.mu
    );
    table.print(args.csv);
    ppscan_bench::emit_report(&args, report, &table);
}
