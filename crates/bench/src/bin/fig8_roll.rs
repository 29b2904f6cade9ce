//! Figure 8 — robustness on synthetic ROLL graphs: runtime and
//! self-speedup (over 1 thread) across ε for fixed |E| and average degree
//! d ∈ {40, 80, 120, 160}, on both kernel paths (AVX2 "CPU" and AVX-512
//! "KNL").
//!
//! Expected shape per the paper: higher-degree graphs take longer at
//! small ε; the curves converge as ε grows and pruning removes the core
//! checking work.
//!
//! ```sh
//! cargo run --release -p ppscan-bench --bin fig8_roll -- [--scale 1.0]
//! ```

use ppscan_bench::{best_of, secs, HarnessArgs, Table};
use ppscan_core::ppscan::{ppscan, PpScanConfig};
use ppscan_intersect::Kernel;

fn main() {
    let args = HarnessArgs::parse();
    let budget = (1_000_000.0 * args.scale) as usize;
    eprintln!("generating ROLL suite with |E| ≈ {budget} …");
    let suite = ppscan_graph::datasets::roll_suite(budget);
    for (name, g) in &suite {
        eprintln!(
            "  {name}: {} vertices, {} edges",
            g.num_vertices(),
            g.num_edges()
        );
    }
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    let mut report = ppscan_bench::figure_report("fig8_roll", &args);
    let mut combined = Table::new(&[
        "kernel",
        "graph",
        "eps",
        "t(1 thread)",
        "t(all)",
        "self-speedup",
    ]);
    for kernel in [Kernel::PivotAvx2, Kernel::PivotAvx512] {
        if !kernel.available() {
            eprintln!("skipping {kernel} (unavailable)");
            continue;
        }
        let cfg = PpScanConfig::with_threads(threads).kernel(kernel);
        let cfg1 = PpScanConfig::with_threads(1).kernel(kernel);
        let mut table = Table::new(&["graph", "eps", "t(1 thread)", "t(all)", "self-speedup"]);
        for (name, g) in &suite {
            for &eps in &args.eps_list {
                let p = args.params(eps);
                let (t1, _) = best_of(|| ppscan(g, p, &cfg1));
                let (tn, out) = best_of(|| ppscan(g, p, &cfg));
                let mut r = out.report;
                r.dataset = Some(name.clone());
                report.runs.push(r);
                let speedup = format!("{:.2}x", t1.as_secs_f64() / tn.as_secs_f64().max(1e-9));
                table.row(vec![
                    name.clone(),
                    format!("{eps:.1}"),
                    secs(t1),
                    secs(tn),
                    speedup.clone(),
                ]);
                combined.row(vec![
                    kernel.to_string(),
                    name.clone(),
                    format!("{eps:.1}"),
                    secs(t1),
                    secs(tn),
                    speedup,
                ]);
            }
        }
        println!(
            "\nFigure 8 ({kernel}, {threads} threads, mu = {}): ROLL graphs",
            args.mu
        );
        table.print(args.csv);
    }
    ppscan_bench::emit_report(&args, report, &combined);
}
