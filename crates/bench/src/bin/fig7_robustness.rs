//! Figure 7 — robustness across parameters: ppSCAN runtime over the full
//! µ ∈ {2, 5, 10, 15} × ε ∈ {0.1 … 0.9} grid on each dataset.
//!
//! Expected shape per the paper: similar trends for all µ; at ε = 0.1 the
//! large-µ runs get slightly slower (less pruning); webbase-like graphs
//! run longer at µ = 2 (many cores → more clustering work).
//!
//! ```sh
//! cargo run --release -p ppscan-bench --bin fig7_robustness -- [--scale 1.0]
//! ```

use ppscan_bench::{best_of, secs, HarnessArgs, Table};
use ppscan_core::params::ScanParams;
use ppscan_core::ppscan::{ppscan, PpScanConfig};

const MUS: [usize; 4] = [2, 5, 10, 15];

fn main() {
    let mut args = HarnessArgs::parse();
    if !args.eps_given && !args.quick {
        args.eps_list = (1..=9).map(|k| k as f64 / 10.0).collect();
    }
    let cfg =
        PpScanConfig::with_threads(std::thread::available_parallelism().map_or(4, |n| n.get()));

    let mut header = vec!["dataset".to_string(), "eps".to_string()];
    header.extend(MUS.iter().map(|mu| format!("mu={mu} (s)")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    let mut report = ppscan_bench::figure_report("fig7_robustness", &args);
    for (d, g) in ppscan_bench::load_datasets(&args) {
        for &eps in &args.eps_list {
            let mut row = vec![d.name().to_string(), format!("{eps:.1}")];
            for &mu in &MUS {
                let p = ScanParams::new(eps, mu);
                let (t, out) = best_of(|| ppscan(&g, p, &cfg));
                let mut r = out.report;
                r.dataset = Some(d.name().into());
                report.runs.push(r);
                row.push(secs(t));
            }
            table.row(row);
        }
    }
    println!("\nFigure 7: ppSCAN robustness across (eps, mu)");
    table.print(args.csv);
    ppscan_bench::emit_report(&args, report, &table);
}
