//! Validates machine-readable run reports: every input file must parse
//! as a [`FigureReport`] (or bare [`RunReport`]) and survive a serialize
//! → parse round trip unchanged. With `--baseline <path>`, additionally
//! diffs the single input figure against the committed baseline — the
//! rendered table is compared cell by cell, numeric cells within a
//! relative tolerance (`--tol`, default 0.05), everything else exactly.
//!
//! `--check-runs` moves the baseline diff to the run level: runs are
//! matched by configuration and their phase lists, major-phase shares
//! of wall time, and kernel counters must agree within `--phase-tol`
//! (absolute share, default 0.25) and `--counter-tol` (relative,
//! default 0.2). The cell-level table diff is skipped in this mode —
//! comparison tables hold wall times, which do not survive a machine
//! change; phase shares and counters do. `--p999-tol <rel>` adds a
//! one-sided tail-latency bound: a matched run's last-timeline-sample
//! `serve.latency` p999 must stay within `(1 + rel)` of the baseline's.
//!
//! `--check-timeline` asserts the soak invariants on every figure-report
//! run that carries a metrics timeline (schema 2): at least
//! `--min-snapshots` samples (default 10), `at_nanos` non-decreasing,
//! `serve.queue_depth` never above the run's `queue_bound` extra, and
//! zero watchdog trips in both the `watchdog_trips` extra and the final
//! sample's `serve.watchdog_trips` counter. A figure report with no
//! timeline-bearing run at all fails the check — an empty timeline must
//! not pass silently.
//!
//! ```sh
//! cargo run --release -p ppscan-bench --bin report_check -- \
//!     target/reports/*.json
//! cargo run --release -p ppscan-bench --bin report_check -- \
//!     target/reports/table1.json --baseline crates/bench/baselines/table1_quick.json
//! cargo run --release -p ppscan-bench --bin report_check -- \
//!     target/reports/fig6_scalability.json \
//!     --baseline crates/bench/baselines/fig6_quick.json --check-runs
//! ```
//!
//! Every checked run — bare or inside a figure report — additionally
//! passes through an unconditional race gate: a report embedding any
//! [`RunReport::races`] entries fails the check outright, printing each
//! race's kind and location. A race report documents a detector hit; it
//! is never a passing artifact.
//!
//! Exits non-zero on the first invalid file or any baseline mismatch.

use ppscan_bench::RunDiffOptions;
use ppscan_obs::{FigureReport, RunReport};
use std::path::PathBuf;

/// The soak invariants for one timeline-bearing run; returns
/// human-readable violations (empty = pass).
fn check_timeline(r: &RunReport, min_snapshots: usize) -> Vec<String> {
    let mut errs = Vec::new();
    let who = format!(
        "{} dataset={}",
        r.algorithm,
        r.dataset.as_deref().unwrap_or("?")
    );
    if r.timeline.len() < min_snapshots {
        errs.push(format!(
            "{who}: timeline has {} samples, need >= {min_snapshots}",
            r.timeline.len()
        ));
    }
    let mut last_at = 0u64;
    for (i, s) in r.timeline.iter().enumerate() {
        if s.at_nanos < last_at {
            errs.push(format!(
                "{who}: timeline at_nanos went backwards at sample {i} \
                 ({} < {last_at})",
                s.at_nanos
            ));
        }
        last_at = s.at_nanos;
    }
    let extra = |k: &str| r.extra.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    if let Some(bound) = extra("queue_bound").and_then(|v| v.as_i64()) {
        for (i, s) in r.timeline.iter().enumerate() {
            if let Some(depth) = s.gauge("serve.queue_depth") {
                if depth > bound {
                    errs.push(format!(
                        "{who}: serve.queue_depth {depth} exceeds queue_bound \
                         {bound} at sample {i}"
                    ));
                }
            }
        }
    }
    let trips_extra = extra("watchdog_trips").and_then(|v| v.as_u64());
    if let Some(trips) = trips_extra {
        if trips > 0 {
            errs.push(format!("{who}: watchdog_trips extra is {trips}, want 0"));
        }
    }
    if let Some(trips) = r
        .timeline
        .last()
        .and_then(|s| s.counter("serve.watchdog_trips"))
    {
        if trips > 0 {
            errs.push(format!(
                "{who}: final sample counts {trips} watchdog trips, want 0"
            ));
        }
    }
    errs
}

/// The race gate: prints every race embedded in the run and returns
/// whether the run is clean.
fn check_races(r: &RunReport, path: &std::path::Path) -> bool {
    if r.races.is_empty() {
        return true;
    }
    eprintln!(
        "{}: run {} embeds {} race report(s):",
        path.display(),
        r.algorithm,
        r.races.len()
    );
    for race in &r.races {
        eprintln!(
            "  {} race on {} ({} vs {})",
            race.kind, race.location, race.first.site, race.second.site
        );
    }
    false
}

enum Parsed {
    Figure(Box<FigureReport>),
    Run(Box<RunReport>),
}

/// Parses a report file as a figure report, falling back to a bare run
/// report, and verifies the round trip in both cases.
fn load(path: &PathBuf) -> Result<Parsed, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match FigureReport::parse(&text) {
        Ok(figure) => {
            let again = FigureReport::parse(&figure.to_json_string())
                .map_err(|e| format!("{}: round trip failed: {e}", path.display()))?;
            if again != figure {
                return Err(format!("{}: round trip not identical", path.display()));
            }
            Ok(Parsed::Figure(Box::new(figure)))
        }
        Err(figure_err) => {
            let run = RunReport::parse(&text).map_err(|run_err| {
                format!(
                    "{}: not a figure report ({figure_err}) nor a run report ({run_err})",
                    path.display()
                )
            })?;
            let again = RunReport::parse(&run.to_json_string())
                .map_err(|e| format!("{}: round trip failed: {e}", path.display()))?;
            if again != run {
                return Err(format!("{}: round trip not identical", path.display()));
            }
            Ok(Parsed::Run(Box::new(run)))
        }
    }
}

fn main() {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut baseline: Option<PathBuf> = None;
    let mut tol = 0.05f64;
    let mut check_runs = false;
    let mut timeline = false;
    let mut min_snapshots = 10usize;
    let mut run_opt = RunDiffOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        let parse = |name: &str, v: String| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline"))),
            "--tol" => tol = parse("--tol", value("--tol")),
            "--check-runs" => check_runs = true,
            "--counter-tol" => run_opt.counter_tol = parse("--counter-tol", value("--counter-tol")),
            "--phase-tol" => run_opt.phase_tol = parse("--phase-tol", value("--phase-tol")),
            "--p999-tol" => run_opt.p999_tol = Some(parse("--p999-tol", value("--p999-tol"))),
            "--check-timeline" => timeline = true,
            "--min-snapshots" => {
                min_snapshots = value("--min-snapshots").parse().unwrap_or_else(|_| {
                    eprintln!("bad --min-snapshots");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: report_check <report.json>... [--baseline <path>] [--tol <rel>] \
                     [--check-runs] [--counter-tol <rel>] [--phase-tol <abs>] \
                     [--p999-tol <rel>] [--check-timeline] [--min-snapshots <n>]"
                );
                std::process::exit(0);
            }
            _ => files.push(PathBuf::from(arg)),
        }
    }
    if check_runs && baseline.is_none() {
        eprintln!("--check-runs requires --baseline");
        std::process::exit(2);
    }
    if files.is_empty() {
        eprintln!("no report files given (see --help)");
        std::process::exit(2);
    }
    if baseline.is_some() && files.len() != 1 {
        eprintln!("--baseline compares exactly one report");
        std::process::exit(2);
    }

    let mut checked = Vec::new();
    for path in &files {
        match load(path) {
            Ok(Parsed::Figure(f)) => {
                println!(
                    "{}: ok (figure {}, {} runs, {} table rows)",
                    path.display(),
                    f.figure,
                    f.runs.len(),
                    f.table.as_ref().map_or(0, |t| t.rows.len())
                );
                if !f.runs.iter().all(|r| check_races(r, path)) {
                    std::process::exit(1);
                }
                if timeline {
                    let carriers: Vec<&RunReport> =
                        f.runs.iter().filter(|r| !r.timeline.is_empty()).collect();
                    if carriers.is_empty() {
                        eprintln!(
                            "{}: --check-timeline, but no run carries a timeline",
                            path.display()
                        );
                        std::process::exit(1);
                    }
                    let errs: Vec<String> = carriers
                        .iter()
                        .flat_map(|r| check_timeline(r, min_snapshots))
                        .collect();
                    if errs.is_empty() {
                        println!(
                            "  timeline ok: {} run(s), >= {min_snapshots} samples each",
                            carriers.len()
                        );
                    } else {
                        for e in &errs {
                            eprintln!("  {e}");
                        }
                        std::process::exit(1);
                    }
                }
                checked.push(f);
            }
            Ok(Parsed::Run(r)) => {
                println!(
                    "{}: ok (run report, algorithm {}, {} phases)",
                    path.display(),
                    r.algorithm,
                    r.phases.len()
                );
                if !check_races(&r, path) {
                    std::process::exit(1);
                }
                // Model-checker reports carry a scenario array; surface
                // the schedule-count summary so the CI artifact is
                // legible from the job log alone.
                if r.algorithm == "modelcheck" {
                    let extra = |k: &str| r.extra.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                    if let Some(scenarios) = extra("scenarios").and_then(|v| v.as_arr()) {
                        let schedules: u64 = scenarios
                            .iter()
                            .filter_map(|s| s.get("schedules").and_then(|v| v.as_u64()))
                            .sum();
                        let ok = extra("all_ok").and_then(|v| v.as_bool()).unwrap_or(false);
                        println!(
                            "  modelcheck: {} scenarios, {} schedules explored, all_ok={}",
                            scenarios.len(),
                            schedules,
                            ok
                        );
                        if !ok {
                            eprintln!("{}: modelcheck report flags a failure", path.display());
                            std::process::exit(1);
                        }
                    }
                }
                if timeline {
                    if r.timeline.is_empty() {
                        eprintln!(
                            "{}: --check-timeline, but the run has no timeline",
                            path.display()
                        );
                        std::process::exit(1);
                    }
                    let errs = check_timeline(&r, min_snapshots);
                    if errs.is_empty() {
                        println!("  timeline ok: {} samples", r.timeline.len());
                    } else {
                        for e in &errs {
                            eprintln!("  {e}");
                        }
                        std::process::exit(1);
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(base_path) = baseline {
        let Some(got) = checked.pop() else {
            eprintln!("--baseline requires a figure report input");
            std::process::exit(2);
        };
        let base = match load(&base_path) {
            Ok(Parsed::Figure(f)) => f,
            Ok(Parsed::Run(_)) => {
                eprintln!("{}: baseline must be a figure report", base_path.display());
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        // Run-level checking replaces the cell-level table diff: tables
        // of comparison figures hold wall times, which do not survive a
        // machine change (run shares and counters do).
        let mut diffs = if check_runs {
            let mut d = Vec::new();
            if base.figure != got.figure {
                d.push(format!(
                    "figure name: baseline {:?}, got {:?}",
                    base.figure, got.figure
                ));
            }
            d
        } else {
            ppscan_bench::diff_figures(&base, &got, tol)
        };
        if check_runs {
            diffs.extend(ppscan_bench::diff_runs(&base, &got, &run_opt));
        }
        if diffs.is_empty() {
            println!(
                "baseline match: {} vs {} (tol {tol}{})",
                base_path.display(),
                files[0].display(),
                if check_runs {
                    format!(
                        ", runs checked: counter-tol {} phase-tol {}",
                        run_opt.counter_tol, run_opt.phase_tol
                    )
                } else {
                    String::new()
                }
            );
        } else {
            eprintln!("baseline mismatch vs {}:", base_path.display());
            for d in &diffs {
                eprintln!("  {d}");
            }
            std::process::exit(1);
        }
    }
}
