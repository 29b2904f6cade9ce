//! # ppscan-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6). Each experiment is a binary under `src/bin/`; run
//! them with `cargo run --release -p ppscan-bench --bin <name>`, or all
//! of them with `--bin run_all`. `EXPERIMENTS.md` records the outputs
//! next to the paper's numbers.
//!
//! Common flags (all binaries):
//!
//! * `--scale <f>` — dataset scale factor (default varies per binary;
//!   1.0 ≈ 10⁵–10⁶ edges per dataset). Use bigger scales on bigger
//!   machines.
//! * `--csv` — emit machine-readable CSV after the human-readable table.
//! * `--mu <n>`, `--eps <a,b,c>` — parameter overrides.
//! * `--threads <a,b,c>` — thread counts (scalability experiments).
//! * `--quick` — reduced parameter grid for smoke testing.
//! * `--report <path.json>` — write the figure's machine-readable
//!   [`FigureReport`] (context, rendered table, per-run `RunReport`s)
//!   alongside the printed output. `run_all --report-dir <dir>` fans
//!   this out to one report per figure; `report_check` validates the
//!   files and diffs them against committed baselines.
//!
//! The harness measures **in-memory processing time** exactly as the
//! paper does: graph generation/loading is excluded; each measurement is
//! the best of [`RUNS`] runs ("we repeat each execution three times and
//! report the best run").

use ppscan_core::params::ScanParams;
use ppscan_graph::datasets::Dataset;
use ppscan_obs::json::Json;
use ppscan_obs::report::{PhaseMetrics, RunReport, TableData};
use ppscan_obs::FigureReport;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Measurement repetitions; the paper reports the best of three.
pub const RUNS: usize = 3;

/// Parsed common CLI flags.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Dataset scale multiplier.
    pub scale: f64,
    /// Emit CSV rows after the table.
    pub csv: bool,
    /// ε values to sweep.
    pub eps_list: Vec<f64>,
    /// Whether `--eps` was given. Harnesses with a figure-specific ε
    /// grid replace `eps_list` only when it was not.
    pub eps_given: bool,
    /// µ value (µ sweeps use their own list).
    pub mu: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Datasets to run on.
    pub datasets: Vec<Dataset>,
    /// Reduced grid for smoke tests.
    pub quick: bool,
    /// Write the figure's machine-readable [`FigureReport`] here.
    pub report: Option<PathBuf>,
    /// Measurement repetitions per cell (best-of-`runs`).
    pub runs: usize,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: 1.0,
            csv: false,
            eps_list: vec![0.2, 0.4, 0.6, 0.8],
            eps_given: false,
            mu: 5,
            threads: vec![1, 2, 4, 8],
            datasets: Dataset::TABLE1.to_vec(),
            quick: false,
            report: None,
            runs: RUNS,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Self {
        Self::parse_with(&[]).0
    }

    /// [`parse`](Self::parse), but binaries with bin-specific value
    /// flags (e.g. the soak harness's `--budget-secs`) list them here
    /// instead of re-implementing the whole parser: each occurrence is
    /// returned as a `(flag, value)` pair, in argument order. Flags not
    /// in either set still exit 2 — the unknown-flag contract holds.
    pub fn parse_with(extra_value_flags: &[&str]) -> (Self, Vec<(String, String)>) {
        let mut out = Self::default();
        let mut extras: Vec<(String, String)> = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => out.scale = value("--scale").parse().expect("bad --scale"),
                "--csv" => out.csv = true,
                "--quick" => out.quick = true,
                "--mu" => out.mu = value("--mu").parse().expect("bad --mu"),
                "--eps" => {
                    out.eps_list = value("--eps")
                        .split(',')
                        .map(|s| s.parse().expect("bad --eps"))
                        .collect();
                    out.eps_given = true;
                }
                "--threads" => {
                    out.threads = value("--threads")
                        .split(',')
                        .map(|s| s.parse().expect("bad --threads"))
                        .collect();
                }
                "--datasets" => {
                    out.datasets = value("--datasets")
                        .split(',')
                        .map(|s| {
                            Dataset::parse(s).unwrap_or_else(|| {
                                eprintln!("unknown dataset {s}");
                                std::process::exit(2);
                            })
                        })
                        .collect();
                }
                "--report" => out.report = Some(PathBuf::from(value("--report"))),
                "--runs" => {
                    out.runs = value("--runs").parse().expect("bad --runs");
                    assert!(out.runs > 0, "--runs must be positive");
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale <f> --csv --quick --mu <n> --eps <a,b,..> \
                         --threads <a,b,..> --datasets <d1,d2,..> --report <path.json> \
                         --runs <n>{}",
                        if extra_value_flags.is_empty() {
                            String::new()
                        } else {
                            format!(" {} <v>", extra_value_flags.join(" <v> "))
                        }
                    );
                    std::process::exit(0);
                }
                other if extra_value_flags.contains(&other) => {
                    extras.push((other.to_string(), value(other)));
                }
                other => {
                    eprintln!("unknown flag {other} (see --help)");
                    std::process::exit(2);
                }
            }
        }
        if out.quick {
            out.scale = out.scale.min(0.1);
            out.eps_list.truncate(2);
            out.threads.truncate(2);
        }
        (out, extras)
    }

    /// `ScanParams` for one ε of the sweep.
    pub fn params(&self, eps: f64) -> ScanParams {
        ScanParams::new(eps, self.mu)
    }
}

/// Best-of-[`RUNS`] wall-clock measurement of `f` (the paper's
/// methodology). Returns the best duration and the last result.
pub fn best_of<R>(f: impl FnMut() -> R) -> (Duration, R) {
    best_of_n(RUNS, f)
}

/// Best-of-`n` wall-clock measurement of `f`. Comparison bins raise `n`
/// (via `--runs`) on noisy machines, where best-of-three is not enough
/// to shake off scheduling bursts.
pub fn best_of_n<R>(n: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..n.max(1) {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed());
        out = Some(r);
    }
    (best, out.unwrap())
}

/// Seconds with 3 decimals for table cells.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// A simple aligned-text table that can also replay itself as CSV.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The table as report data, exactly as printed.
    pub fn to_data(&self) -> TableData {
        TableData {
            header: self.header.clone(),
            rows: self.rows.clone(),
        }
    }

    /// Prints the aligned table, and CSV when `csv` is set.
    pub fn print(&self, csv: bool) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
        if csv {
            println!("\n# CSV");
            println!("{}", self.header.join(","));
            for row in &self.rows {
                println!("{}", row.join(","));
            }
        }
    }
}

/// A [`FigureReport`] skeleton for one bench binary: the figure name
/// plus the harness-flag context every run of the figure shares.
pub fn figure_report(figure: &str, args: &HarnessArgs) -> FigureReport {
    let mut r = FigureReport::new(figure);
    r.context.push(("scale".into(), Json::Num(args.scale)));
    r.context
        .push(("mu".into(), Json::from_u64(args.mu as u64)));
    r.context.push((
        "eps".into(),
        Json::Arr(args.eps_list.iter().map(|&e| Json::Num(e)).collect()),
    ));
    r.context.push((
        "threads".into(),
        Json::Arr(
            args.threads
                .iter()
                .map(|&t| Json::from_u64(t as u64))
                .collect(),
        ),
    ));
    r.context.push((
        "datasets".into(),
        Json::Arr(
            args.datasets
                .iter()
                .map(|d| Json::Str(d.name().to_string()))
                .collect(),
        ),
    ));
    r.context.push(("quick".into(), Json::Bool(args.quick)));
    r.context
        .push(("runs".into(), Json::from_u64(args.runs as u64)));
    r
}

/// Attaches the rendered table to `report` and writes it to
/// `--report <path>` when the flag was given (no-op otherwise). Exits
/// non-zero if the file cannot be written — a missing report must fail
/// loudly, CI uploads it as an artifact.
pub fn emit_report(args: &HarnessArgs, mut report: FigureReport, table: &Table) {
    report.table = Some(table.to_data());
    let Some(path) = &args.report else { return };
    if let Err(e) = report.write_to_file(path) {
        eprintln!("could not write report {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("report written to {}", path.display());
}

/// Diffs two figure reports cell by cell. Cells that parse as numbers on
/// both sides compare within relative tolerance `tol` (and absolute
/// tolerance `tol` near zero); everything else must match exactly. Wall
/// times and counters inside `runs` are machine-dependent and are *not*
/// compared — the rendered table is the regression surface. Returns
/// human-readable mismatch descriptions (empty = match).
pub fn diff_figures(baseline: &FigureReport, got: &FigureReport, tol: f64) -> Vec<String> {
    let mut diffs = Vec::new();
    if baseline.figure != got.figure {
        diffs.push(format!(
            "figure name: baseline {:?}, got {:?}",
            baseline.figure, got.figure
        ));
    }
    let (Some(base_t), Some(got_t)) = (&baseline.table, &got.table) else {
        if baseline.table.is_some() != got.table.is_some() {
            diffs.push("one report has a table, the other does not".into());
        }
        return diffs;
    };
    if base_t.header != got_t.header {
        diffs.push(format!(
            "table header: baseline {:?}, got {:?}",
            base_t.header, got_t.header
        ));
        return diffs;
    }
    if base_t.rows.len() != got_t.rows.len() {
        diffs.push(format!(
            "row count: baseline {}, got {}",
            base_t.rows.len(),
            got_t.rows.len()
        ));
        return diffs;
    }
    for (i, (br, gr)) in base_t.rows.iter().zip(&got_t.rows).enumerate() {
        for ((bc, gc), col) in br.iter().zip(gr).zip(&base_t.header) {
            let close = match (bc.parse::<f64>(), gc.parse::<f64>()) {
                (Ok(b), Ok(g)) => (b - g).abs() <= tol * b.abs().max(1.0),
                _ => bc == gc,
            };
            if !close {
                diffs.push(format!(
                    "row {i} column {col:?}: baseline {bc:?}, got {gc:?}"
                ));
            }
        }
    }
    diffs
}

/// Tolerances for [`diff_runs`]. Defaults are deliberately loose: run
/// metrics cross machines, and the check is after structural
/// regressions (a phase vanishing, a counter doubling), not noise.
#[derive(Clone, Copy, Debug)]
pub struct RunDiffOptions {
    /// Relative tolerance for kernel counters (invocations, scans).
    pub counter_tol: f64,
    /// Absolute tolerance on a phase's share of end-to-end wall time.
    pub phase_tol: f64,
    /// Phases below this baseline share are skipped by the share check
    /// (tiny phases have share dominated by fixed overhead).
    pub min_share: f64,
    /// When set, a run whose timeline ends with a `serve.latency`
    /// summary must keep its p999 within `(1 + tol)` of the baseline's.
    /// Relative and one-sided (faster is never a regression); loose by
    /// design — tail latency crosses machines worse than any counter.
    pub p999_tol: Option<f64>,
}

impl Default for RunDiffOptions {
    fn default() -> Self {
        Self {
            counter_tol: 0.2,
            phase_tol: 0.25,
            min_share: 0.10,
            p999_tol: None,
        }
    }
}

/// Identity of one run within a figure, stable across machines: every
/// configuration axis the harnesses sweep, but no measured quantity.
/// The ISA suffix of auto-selected kernels (`block-avx512` here,
/// `block-avx2` on a runner without AVX-512) is a machine property,
/// not a configuration property, and is stripped.
fn run_identity(r: &RunReport) -> String {
    let config = r
        .extra
        .iter()
        .find(|(k, _)| k == "config")
        .and_then(|(_, v)| v.as_str())
        .unwrap_or("");
    let kernel = r
        .kernel
        .as_deref()
        .unwrap_or("?")
        .trim_end_matches("-avx512")
        .trim_end_matches("-avx2");
    format!(
        "{} dataset={} threads={} eps={} mu={} kernel={kernel} strategy={} config={}",
        r.algorithm,
        r.dataset.as_deref().unwrap_or("?"),
        r.threads.map_or("?".into(), |t| t.to_string()),
        r.eps.map_or("?".into(), |e| format!("{e}")),
        r.mu.map_or("?".into(), |m| m.to_string()),
        r.strategy.as_deref().unwrap_or("?"),
        config,
    )
}

/// Diffs the *runs* of two figure reports: matches runs by
/// configuration ([`run_identity`]) and compares what stays meaningful
/// across machines — the phase list, each major phase's share of the
/// end-to-end wall time, and the kernel counters — against the
/// [`RunDiffOptions`] tolerances. Complements [`diff_figures`], which
/// only sees the rendered table. Returns human-readable mismatch
/// descriptions (empty = match).
pub fn diff_runs(baseline: &FigureReport, got: &FigureReport, opt: &RunDiffOptions) -> Vec<String> {
    let mut diffs = Vec::new();
    if baseline.runs.len() != got.runs.len() {
        diffs.push(format!(
            "run count: baseline {}, got {}",
            baseline.runs.len(),
            got.runs.len()
        ));
    }
    let mut remaining: Vec<&RunReport> = got.runs.iter().collect();
    for base in &baseline.runs {
        let id = run_identity(base);
        let Some(pos) = remaining.iter().position(|r| run_identity(r) == id) else {
            diffs.push(format!("run missing from report: {id}"));
            continue;
        };
        let run = remaining.swap_remove(pos);
        let base_phases: Vec<&str> = base.phases.iter().map(|p| p.name.as_str()).collect();
        let got_phases: Vec<&str> = run.phases.iter().map(|p| p.name.as_str()).collect();
        if base_phases != got_phases {
            diffs.push(format!(
                "{id}: phases changed: baseline {base_phases:?}, got {got_phases:?}"
            ));
            continue;
        }
        for (bp, gp) in base.phases.iter().zip(&run.phases) {
            let share = |p: &PhaseMetrics, total: u64| p.wall_nanos as f64 / (total.max(1)) as f64;
            let bs = share(bp, base.wall_nanos);
            let gs = share(gp, run.wall_nanos);
            if bs >= opt.min_share && (bs - gs).abs() > opt.phase_tol {
                diffs.push(format!(
                    "{id}: phase {:?} share {:.2} vs baseline {:.2} (tol {:.2})",
                    bp.name, gs, bs, opt.phase_tol
                ));
            }
        }
        let counters = [
            (
                "compsim_invocations",
                base.counters.compsim_invocations,
                run.counters.compsim_invocations,
            ),
            (
                "elements_scanned",
                base.counters.elements_scanned,
                run.counters.elements_scanned,
            ),
        ];
        for (name, b, g) in counters {
            if b == 0 {
                continue;
            }
            let rel = (g as f64 - b as f64).abs() / b as f64;
            if rel > opt.counter_tol {
                diffs.push(format!(
                    "{id}: counter {name} = {g} vs baseline {b} \
                     ({:.0}% off, tol {:.0}%)",
                    rel * 100.0,
                    opt.counter_tol * 100.0
                ));
            }
        }
        if let Some(tol) = opt.p999_tol {
            let p999 = |r: &RunReport| {
                r.timeline
                    .last()
                    .and_then(|s| s.histogram("serve.latency"))
                    .map(|h| h.p999_nanos)
            };
            if let (Some(b), Some(g)) = (p999(base), p999(run)) {
                if b > 0 && g as f64 > b as f64 * (1.0 + tol) {
                    diffs.push(format!(
                        "{id}: serve.latency p999 = {g}ns vs baseline {b}ns \
                         (tol {tol:.2}x)"
                    ));
                }
            }
        }
    }
    for run in remaining {
        diffs.push(format!("unexpected extra run: {}", run_identity(run)));
    }
    diffs
}

/// Generates the requested datasets once, with progress logging.
pub fn load_datasets(args: &HarnessArgs) -> Vec<(Dataset, ppscan_graph::CsrGraph)> {
    args.datasets
        .iter()
        .map(|&d| {
            eprint!("generating {} (scale {}) … ", d.name(), args.scale);
            let t0 = Instant::now();
            let g = d.generate_scaled(args.scale);
            eprintln!(
                "{} vertices, {} edges ({:?})",
                g.num_vertices(),
                g.num_edges(),
                t0.elapsed()
            );
            (d, g)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_and_aligns() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(true); // smoke: must not panic
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn best_of_returns_result() {
        let (d, r) = best_of(|| 41 + 1);
        assert_eq!(r, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
    }

    #[test]
    fn figure_report_carries_table_and_context() {
        let args = HarnessArgs::default();
        let mut t = Table::new(&["dataset", "time"]);
        t.row(vec!["orkut-s".into(), "1.5".into()]);
        let mut r = figure_report("fig_test", &args);
        r.table = Some(t.to_data());
        let back = FigureReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.figure, "fig_test");
        assert_eq!(back.table.unwrap().rows[0][0], "orkut-s");
        assert!(back.context.iter().any(|(k, _)| k == "scale"));
    }

    #[test]
    fn diff_figures_tolerates_numeric_noise_only() {
        let mk = |cell: &str| {
            let mut r = FigureReport::new("f");
            r.table = Some(TableData {
                header: vec!["d".into(), "t".into()],
                rows: vec![vec!["orkut-s".into(), cell.into()]],
            });
            r
        };
        assert!(diff_figures(&mk("1.00"), &mk("1.04"), 0.05).is_empty());
        let diffs = diff_figures(&mk("1.00"), &mk("1.10"), 0.05);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        // Non-numeric cells must match exactly.
        assert!(!diff_figures(&mk("TLE"), &mk("1.0"), 0.05).is_empty());
        assert!(diff_figures(&mk("TLE"), &mk("TLE"), 0.05).is_empty());
    }

    fn run_with(dataset: &str, wall: u64, phases: &[(&str, u64)], invocations: u64) -> RunReport {
        let mut r = RunReport::new("ppscan");
        r.dataset = Some(dataset.into());
        r.threads = Some(8);
        r.eps = Some(0.2);
        r.mu = Some(5);
        r.wall_nanos = wall;
        r.phases = phases
            .iter()
            .map(|&(name, nanos)| PhaseMetrics {
                name: name.into(),
                wall_nanos: nanos,
                tasks: 1,
                workers: Vec::new(),
            })
            .collect();
        r.counters.compsim_invocations = invocations;
        r.counters.elements_scanned = invocations * 100;
        r
    }

    #[test]
    fn diff_runs_matches_identical_reports() {
        let mut a = FigureReport::new("f");
        a.runs
            .push(run_with("roll", 100, &[("prune", 20), ("check", 80)], 1000));
        let b = a.clone();
        assert!(diff_runs(&a, &b, &RunDiffOptions::default()).is_empty());
    }

    #[test]
    fn diff_runs_tolerates_noise_but_catches_regressions() {
        let mut base = FigureReport::new("f");
        base.runs
            .push(run_with("roll", 100, &[("prune", 20), ("check", 80)], 1000));
        // 10% counter noise, phase shares shifted a little: fine.
        let mut ok = FigureReport::new("f");
        ok.runs
            .push(run_with("roll", 120, &[("prune", 30), ("check", 90)], 1100));
        assert!(diff_runs(&base, &ok, &RunDiffOptions::default()).is_empty());
        // Counter doubled: regression.
        let mut bad = FigureReport::new("f");
        bad.runs
            .push(run_with("roll", 100, &[("prune", 20), ("check", 80)], 2000));
        assert_eq!(diff_runs(&base, &bad, &RunDiffOptions::default()).len(), 2);
        // A major phase collapses to a sliver of the wall: regression.
        let mut skew = FigureReport::new("f");
        skew.runs
            .push(run_with("roll", 100, &[("prune", 20), ("check", 5)], 1000));
        assert_eq!(diff_runs(&base, &skew, &RunDiffOptions::default()).len(), 1);
    }

    #[test]
    fn diff_runs_catches_structural_changes() {
        let mut base = FigureReport::new("f");
        base.runs
            .push(run_with("roll", 100, &[("prune", 20), ("check", 80)], 1000));
        // Phase list changed.
        let mut renamed = FigureReport::new("f");
        renamed
            .runs
            .push(run_with("roll", 100, &[("prune", 20)], 1000));
        assert!(!diff_runs(&base, &renamed, &RunDiffOptions::default()).is_empty());
        // Run for a different dataset: both missing and extra.
        let mut other = FigureReport::new("f");
        other.runs.push(run_with(
            "other",
            100,
            &[("prune", 20), ("check", 80)],
            1000,
        ));
        let diffs = diff_runs(&base, &other, &RunDiffOptions::default());
        assert_eq!(diffs.len(), 2, "{diffs:?}");
    }

    #[test]
    fn diff_figures_catches_shape_changes() {
        let mut a = FigureReport::new("f");
        a.table = Some(TableData {
            header: vec!["x".into()],
            rows: vec![vec!["1".into()]],
        });
        let mut b = a.clone();
        b.table.as_mut().unwrap().rows.push(vec!["2".into()]);
        assert!(!diff_figures(&a, &b, 0.05).is_empty());
        let mut c = a.clone();
        c.table.as_mut().unwrap().header[0] = "y".into();
        assert!(!diff_figures(&a, &c, 0.05).is_empty());
    }
}

pub mod compare;
