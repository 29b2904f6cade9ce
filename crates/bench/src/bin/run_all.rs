//! Runs the complete evaluation suite — every table, figure and ablation
//! — by spawning each harness binary in sequence, forwarding the common
//! flags. Writes everything it prints to stdout; use
//! `cargo run --release -p ppscan-bench --bin run_all -- --scale 0.25`
//! for a faster pass, or `--quick` for a smoke run.
//!
//! `--report-dir <dir>` (intercepted, not forwarded) makes every child
//! binary emit its machine-readable report as `<dir>/<bin>.json` via the
//! common `--report` flag, then validates that each written file parses
//! back as a `FigureReport`. Diff them against committed baselines with
//! the `report_check` binary.

use std::path::PathBuf;
use std::process::Command;

const BINS: [&str; 11] = [
    "table1",
    "table2",
    "fig1_breakdown",
    "fig2_compare",
    "fig3_compare",
    "fig4_invocations",
    "fig5_simd",
    "fig6_scalability",
    "fig7_robustness",
    "fig8_roll",
    "ablation_edorder",
];
const EXTRA_BINS: [&str; 5] = [
    "ablation_twophase",
    "ablation_sched",
    "parameter_exploration",
    "serve_bench",
    "soak",
];

fn main() {
    let mut forwarded: Vec<String> = Vec::new();
    let mut report_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--report-dir" {
            let dir = args.next().unwrap_or_else(|| {
                eprintln!("missing value for --report-dir");
                std::process::exit(2);
            });
            report_dir = Some(PathBuf::from(dir));
        } else {
            forwarded.push(arg);
        }
    }
    if let Some(dir) = &report_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create report dir {}: {e}", dir.display());
            std::process::exit(2);
        });
    }
    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    let mut failures = Vec::new();
    for bin in BINS.iter().chain(EXTRA_BINS.iter()) {
        println!("\n================ {bin} ================");
        let mut cmd = Command::new(exe_dir.join(bin));
        cmd.args(&forwarded);
        let report_path = report_dir.as_ref().map(|d| d.join(format!("{bin}.json")));
        if let Some(path) = &report_path {
            cmd.arg("--report").arg(path);
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            eprintln!("{bin} FAILED: {status}");
            failures.push(*bin);
            continue;
        }
        // A child that exited green must also have produced a loadable
        // report when one was requested.
        if let Some(path) = &report_path {
            let check = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| ppscan_obs::FigureReport::parse(&text));
            if let Err(e) = check {
                eprintln!("{bin} report invalid at {}: {e}", path.display());
                failures.push(*bin);
            }
        }
    }
    if failures.is_empty() {
        println!("\nall experiments completed");
        if let Some(dir) = &report_dir {
            println!("reports in {}", dir.display());
        }
    } else {
        eprintln!("\nfailed: {failures:?}");
        std::process::exit(1);
    }
}
