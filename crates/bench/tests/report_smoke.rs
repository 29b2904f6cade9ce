//! Every bench binary's `--report <path>` must produce a parseable
//! [`FigureReport`] on a tiny graph, `run_all --report-dir` must fan the
//! flag out to one report per figure, and `report_check` must accept a
//! self-baseline and reject corrupt input.

use ppscan_obs::FigureReport;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Tiny-graph flags shared by every smoke invocation: ~10³ edges, the
/// reduced `--quick` grid, a single dataset for the dataset-driven bins.
const TINY: [&str; 5] = ["--scale", "0.01", "--quick", "--datasets", "orkut"];

fn tmp_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("report-smoke");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Runs one bench binary on [`TINY`] with `--report` and parses what it
/// wrote.
fn check_bin(name: &str, exe: &str) -> FigureReport {
    run_bin(name, exe, &TINY, &tmp_dir().join(format!("{name}.json")))
}

/// Runs one bench binary with `args` plus `--report <path>` and parses
/// what it wrote. Tests that run the same binary concurrently pass
/// different paths.
fn run_bin(name: &str, exe: &str, args: &[&str], path: &Path) -> FigureReport {
    let output = Command::new(exe)
        .args(args)
        .arg("--report")
        .arg(path)
        .output()
        .unwrap_or_else(|e| panic!("launching {name}: {e}"));
    assert!(
        output.status.success(),
        "{name} failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{name} wrote no report at {}: {e}", path.display()));
    let report =
        FigureReport::parse(&text).unwrap_or_else(|e| panic!("{name} report does not parse: {e}"));
    assert_eq!(report.figure, name, "report must identify its figure");
    assert!(report.table.is_some(), "{name} must attach its table");
    report
}

macro_rules! report_smoke {
    ($($name:ident),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                let report = check_bin(
                    stringify!($name),
                    env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                );
                // Every figure except fig8 (whose kernels may be
                // unavailable on the host) records at least one run.
                if stringify!($name) != "fig8_roll" {
                    assert!(!report.runs.is_empty(), "no runs recorded");
                }
            }
        )+
    };
}

report_smoke!(
    table1,
    table2,
    fig1_breakdown,
    fig2_compare,
    fig3_compare,
    fig4_invocations,
    fig5_simd,
    fig6_scalability,
    fig7_robustness,
    fig8_roll,
    ablation_edorder,
    ablation_twophase,
    ablation_sched,
    parameter_exploration,
    serve_bench,
    soak,
);

#[test]
fn ppscan_runs_carry_span_phases_and_counters() {
    // Deep-check one figure: fig6's runs are span-sourced ppSCAN reports.
    let report = run_bin(
        "fig6_scalability",
        env!("CARGO_BIN_EXE_fig6_scalability"),
        &TINY,
        &tmp_dir().join("fig6_deep_check.json"),
    );
    for run in &report.runs {
        assert_eq!(run.algorithm, "ppscan");
        assert!(run.wall_nanos > 0);
        assert_eq!(run.phases.len(), 4, "four span-sourced stages");
        assert!(run.counters.compsim_invocations > 0);
        assert!(run.phases.iter().any(|p| p.tasks > 0));
    }
}

#[test]
fn explicit_eps_equal_to_the_default_is_kept() {
    // fig7 replaces an ε list nobody gave with its 0.1..0.9 grid; an
    // explicit `--eps` that happens to equal the shared default must
    // still sweep exactly those four values.
    let report = run_bin(
        "fig7_robustness",
        env!("CARGO_BIN_EXE_fig7_robustness"),
        &[
            "--scale",
            "0.01",
            "--datasets",
            "orkut",
            "--eps",
            "0.2,0.4,0.6,0.8",
        ],
        &tmp_dir().join("fig7_explicit_eps.json"),
    );
    let rows = &report.table.expect("fig7 attaches its table").rows;
    let eps: Vec<&str> = rows.iter().map(|r| r[1].as_str()).collect();
    assert_eq!(eps, ["0.2", "0.4", "0.6", "0.8"]);
}

#[test]
fn run_all_report_dir_emits_one_report_per_figure() {
    let dir = tmp_dir().join("run-all");
    // Reports left by an earlier run would be counted too.
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(TINY)
        .arg("--report-dir")
        .arg(&dir)
        .output()
        .expect("launching run_all");
    assert!(
        output.status.success(),
        "run_all failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("report dir") {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let report =
            FigureReport::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        assert_eq!(report.figure, stem);
        count += 1;
    }
    assert_eq!(count, 16, "one report per figure binary");
}

#[test]
fn report_check_accepts_self_baseline_and_rejects_garbage() {
    // table1's statistics are deterministic for a fixed seed + scale, so
    // a fresh run must diff clean against itself.
    let a = tmp_dir().join("table1-baseline.json");
    let b = tmp_dir().join("table1-current.json");
    for path in [&a, &b] {
        let output = Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(TINY)
            .arg("--report")
            .arg(path)
            .output()
            .expect("launching table1");
        assert!(output.status.success());
    }
    let ok = Command::new(env!("CARGO_BIN_EXE_report_check"))
        .arg(&b)
        .arg("--baseline")
        .arg(&a)
        .output()
        .expect("launching report_check");
    assert!(
        ok.status.success(),
        "self-baseline diff must be clean:\n{}",
        String::from_utf8_lossy(&ok.stderr)
    );

    let garbage = tmp_dir().join("garbage.json");
    std::fs::write(&garbage, "{\"schema\": 1, \"not\": \"a report\"").unwrap();
    let bad = Command::new(env!("CARGO_BIN_EXE_report_check"))
        .arg(&garbage)
        .output()
        .expect("launching report_check");
    assert!(!bad.status.success(), "garbage must be rejected");
}

#[test]
fn report_check_fails_on_embedded_races() {
    use ppscan_obs::race::{RaceAccess, RaceReport, RACE_REPORT_VERSION};
    let access = |thread: u64, write: bool, site: &str| RaceAccess {
        thread,
        clock: 1,
        write,
        site: site.to_string(),
        recent_ops: Vec::new(),
        vector_clock: vec![1, 1],
    };
    let mut run = ppscan_obs::RunReport::new("stress");
    run.races.push(RaceReport {
        version: RACE_REPORT_VERSION,
        location: "claim-payload".to_string(),
        kind: "write-write".to_string(),
        first: access(1, true, "fixture::install"),
        second: access(2, true, "fixture::install"),
    });
    let path = tmp_dir().join("racy-run.json");
    run.write_to_file(&path).expect("write racy run report");
    let out = Command::new(env!("CARGO_BIN_EXE_report_check"))
        .arg(&path)
        .output()
        .expect("launching report_check");
    assert!(
        !out.status.success(),
        "a report embedding races must fail the check"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("claim-payload") && stderr.contains("write-write"),
        "race kind and location must be surfaced:\n{stderr}"
    );

    // The same report with the race removed passes: the gate, not the
    // round trip, is what rejected it.
    let mut clean = run;
    clean.races.clear();
    let clean_path = tmp_dir().join("clean-run.json");
    clean.write_to_file(&clean_path).expect("write clean run");
    let ok = Command::new(env!("CARGO_BIN_EXE_report_check"))
        .arg(&clean_path)
        .output()
        .expect("launching report_check");
    assert!(
        ok.status.success(),
        "race-free run report must pass:\n{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}
