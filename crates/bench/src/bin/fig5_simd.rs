//! Figure 5 — set-intersection vectorization improvement: speedup of the
//! core-checking stage with the pivot-based vectorized kernel (ppSCAN)
//! over the non-vectorized merge kernel (ppSCAN-NO), on both the AVX2
//! ("CPU") and AVX-512 ("KNL") paths.
//!
//! Expected shape per the paper: larger speedups at small ε (more
//! intersection work survives pruning), decaying toward 1× as ε grows;
//! AVX-512 ≥ AVX2.
//!
//! ```sh
//! cargo run --release -p ppscan-bench --bin fig5_simd -- [--scale 1.0]
//! ```

use ppscan_bench::{HarnessArgs, Table};
use ppscan_core::ppscan::{ppscan, PpScanConfig};
use ppscan_intersect::Kernel;
use std::time::Duration;

/// Best-of-RUNS time of the core-checking stage (the stage that contains
/// the vast majority of set intersections — §6.2.2), plus the best run's
/// report.
fn core_checking_time(
    g: &ppscan_graph::CsrGraph,
    p: ppscan_core::params::ScanParams,
    cfg: &PpScanConfig,
) -> (Duration, ppscan_obs::RunReport) {
    let mut best = Duration::MAX;
    let mut best_report = None;
    for _ in 0..ppscan_bench::RUNS {
        let o = ppscan(g, p, cfg);
        if o.timings.check_core < best {
            best = o.timings.check_core;
            best_report = Some(o.report);
        }
    }
    (best, best_report.unwrap())
}

fn main() {
    let args = HarnessArgs::parse();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let baseline_cfg = PpScanConfig::with_threads(threads).kernel(Kernel::MergeEarly);

    let mut header = vec![
        "dataset".to_string(),
        "eps".to_string(),
        "ppSCAN-NO (s)".to_string(),
    ];
    let mut isa_cfgs = Vec::new();
    // The paper's Algorithm 6 pivot kernels (CPU = AVX2, KNL = AVX-512)
    // plus this reproduction's block kernel extension (see
    // ppscan_intersect::simd_block for why the pivot kernels only pay off
    // on in-order cores like KNL's).
    for kernel in [
        Kernel::PivotAvx2,
        Kernel::PivotAvx512,
        Kernel::BlockAvx2,
        Kernel::BlockAvx512,
    ] {
        if kernel.available() {
            header.push(format!("{kernel} speedup"));
            isa_cfgs.push(PpScanConfig::with_threads(threads).kernel(kernel));
        }
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    let mut report = ppscan_bench::figure_report("fig5_simd", &args);

    for (d, g) in ppscan_bench::load_datasets(&args) {
        for &eps in &args.eps_list {
            let p = args.params(eps);
            let (base, base_report) = core_checking_time(&g, p, &baseline_cfg);
            let mut push_run = |mut r: ppscan_obs::RunReport| {
                r.dataset = Some(d.name().into());
                report.runs.push(r);
            };
            push_run(base_report);
            let mut row = vec![
                d.name().to_string(),
                format!("{eps:.1}"),
                format!("{:.3}", base.as_secs_f64()),
            ];
            for cfg in &isa_cfgs {
                let (t, kernel_report) = core_checking_time(&g, p, cfg);
                push_run(kernel_report);
                row.push(format!(
                    "{:.2}x",
                    base.as_secs_f64() / t.as_secs_f64().max(1e-9)
                ));
            }
            table.row(row);
        }
    }
    println!(
        "\nFigure 5: core-checking speedup of vectorized pivot kernels over \
         ppSCAN-NO (merge), mu = {}",
        args.mu
    );
    table.print(args.csv);
    ppscan_bench::emit_report(&args, report, &table);
}
