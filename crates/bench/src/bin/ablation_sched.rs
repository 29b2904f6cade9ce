//! Ablation (§4.4) — degree-based dynamic task scheduling: ppSCAN
//! runtime across scheduler degree-sum thresholds, from one-task-per-
//! vertex (threshold 1) through the paper's tuned 32768 up to a single
//! task (∞, no parallelism within a phase). The paper tuned the
//! threshold "by multiplying (originally 1) by 2 until the workload is
//! not balanced or the task queue maintaining cost is negligible".
//!
//! ```sh
//! cargo run --release -p ppscan-bench --bin ablation_sched -- [--scale 1.0]
//! ```

use ppscan_bench::{best_of, secs, HarnessArgs, Table};
use ppscan_core::ppscan::{ppscan, PpScanConfig};

const THRESHOLDS: [u64; 7] = [1, 64, 1024, 8192, 32_768, 262_144, u64::MAX];

fn main() {
    let mut args = HarnessArgs::parse();
    if !args.eps_given {
        args.eps_list = vec![0.2]; // scheduling stress shows at small eps
    }
    let eps = args.eps_list[0];
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    let mut report = ppscan_bench::figure_report("ablation_sched", &args);
    let mut table = Table::new(&["dataset", "threshold", "time (s)", "vs 32768"]);
    for (d, g) in ppscan_bench::load_datasets(&args) {
        let p = args.params(eps);
        let mut tuned = None;
        let mut rows = Vec::new();
        for &threshold in &THRESHOLDS {
            let cfg = PpScanConfig::with_threads(threads).degree_threshold(threshold);
            let (t, out) = best_of(|| ppscan(&g, p, &cfg));
            let mut r = out.report;
            r.dataset = Some(d.name().into());
            report.runs.push(r);
            if threshold == 32_768 {
                tuned = Some(t);
            }
            rows.push((threshold, t));
        }
        let tuned = tuned.unwrap();
        for (threshold, t) in rows {
            let label = if threshold == u64::MAX {
                "inf".to_string()
            } else {
                threshold.to_string()
            };
            table.row(vec![
                d.name().into(),
                label,
                secs(t),
                format!(
                    "{:+.1}%",
                    (t.as_secs_f64() / tuned.as_secs_f64() - 1.0) * 100.0
                ),
            ]);
        }
    }
    println!(
        "\nAblation §4.4: scheduler degree-sum threshold sweep \
         (eps = {eps}, mu = {}, {threads} threads)",
        args.mu
    );
    table.print(args.csv);
    ppscan_bench::emit_report(&args, report, &table);
}
