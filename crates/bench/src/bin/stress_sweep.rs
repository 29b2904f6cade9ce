//! Standalone entry point for the differential stress sweep, so CI and
//! the nightly workflow can run it at configurable size and keep the
//! resulting `RunReport` (seed log, config counts, embedded
//! [`ppscan_obs::race::RaceReport`]s) as an artifact.
//!
//! `--race-detection` wraps every case in a
//! [`ppscan_obs::race::DetectionSession`]: the pool's fork/join edges
//! and the traced atomics in the code under test feed the FastTrack
//! happens-before detector, and any detected race lands in the report's
//! `races` array — which `report_check` rejects unconditionally, so a
//! clean sweep is a gate, not a log line.
//!
//! ```sh
//! cargo run --release -p ppscan-bench --bin stress_sweep -- \
//!     [--cases N] [--seed S] [--race-detection] [--report <path>]
//! ```

use ppscan_core::stress::{run_stress, StressConfig};
use std::path::PathBuf;

fn main() {
    let mut cfg = StressConfig::default();
    let mut report_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--cases" => {
                cfg.cases = value("--cases").parse().unwrap_or_else(|e| {
                    eprintln!("bad --cases: {e}");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                cfg.master_seed = value("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("bad --seed: {e}");
                    std::process::exit(2);
                })
            }
            "--race-detection" => cfg.race_detection = true,
            "--report" => report_path = Some(PathBuf::from(value("--report"))),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let (result, report) = run_stress(&cfg);
    if let Some(path) = &report_path {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        report.write_to_file(path).unwrap_or_else(|e| {
            eprintln!("cannot write report to {}: {e}", path.display());
            std::process::exit(2);
        });
        println!("report: {}", path.display());
    }
    if !report.races.is_empty() {
        for race in &report.races {
            eprintln!(
                "{} race on {} ({} vs {})",
                race.kind, race.location, race.first.site, race.second.site
            );
        }
        eprintln!("stress_sweep: {} race(s) detected", report.races.len());
        std::process::exit(1);
    }
    match result {
        Ok(stats) => {
            println!(
                "stress_sweep: {} cases, {} configs checked, race detection {}",
                stats.cases,
                stats.checked,
                if cfg.race_detection { "on" } else { "off" }
            );
        }
        Err(failure) => {
            eprintln!("{failure}");
            std::process::exit(1);
        }
    }
}
