//! The ppscan benchmark: two workloads over the public API of the crates,
//! end-to-end metrics from untraced runs, per-layer metrics from traced ones.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! Every op's output is checked; any failure makes the exit code 1.

mod explore;
mod inputs;
mod offline;
mod openloop;
mod probes;
mod stats;
mod trace;

use stats::{samples_beyond, Tally};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 2] = ["offline-skewed", "explore-communities"];

/// Metrics of untraced runs: `(name, unit)`. Each workload reports every
/// one; `op` is the workload's own operation (see README.md).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of traced runs: `(name, unit)`. Each workload reports every one.
const PER_LAYER: [(&str, &str); 34] = [
    ("graph.read_edge_list_s", "s"),
    ("graph.ingest_mb_per_s", "MB/s"),
    ("graph.delta_apply_to_ms", "ms"),
    ("core.ppscan_s", "s"),
    ("core.prune_s", "s"),
    ("core.check_core_s", "s"),
    ("core.core_cluster_s", "s"),
    ("core.noncore_cluster_s", "s"),
    ("core.classify_s", "s"),
    ("core.ppscan_1t_s", "s"),
    ("core.speedup_2t", "x"),
    ("intersect.compsim_invocations", "count"),
    ("intersect.compsim_per_edge", "1/edge"),
    ("intersect.elements_per_invocation", "count"),
    ("intersect.adaptive_gallop_frac", "fraction"),
    ("intersect.check_ns_per_call", "ns"),
    ("intersect.elems_per_ns", "1/ns"),
    ("sched.ppscan_busy_frac", "fraction"),
    ("sched.serve_busy_frac", "fraction"),
    ("gsindex.build_s", "s"),
    ("gsindex.heap_mb", "MB"),
    ("gsindex.query_p50_us", "us"),
    ("gsindex.query_p99_us", "us"),
    ("gsindex.apply_delta_ms", "ms"),
    ("gsindex.touched_vertices", "count"),
    ("gsindex.recomputed_edges", "count"),
    ("gsindex.recomputed_per_applied", "1/edit"),
    ("serve.latency_p50_us", "us"),
    ("serve.latency_p99_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.rebuild_s", "s"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.redeem_ready_frac", "fraction"),
    ("bench.trace_overhead", "ratio"),
];

/// What a run measured and whether its outputs were right.
pub struct Report {
    /// Every checked operation.
    pub tally: Tally,
    table: &'static [(&'static str, &'static str)],
    values: Vec<(&'static str, f64)>,
}

impl Report {
    fn new(table: &'static [(&'static str, &'static str)]) -> Report {
        Report {
            tally: Tally::default(),
            table,
            values: Vec::new(),
        }
    }

    /// Sets metric `name`, which must be in this run's table. A value that
    /// is not finite cannot be reported and counts as a failed check.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|&(n, _)| n == name),
            "{name} is not a metric of this run"
        );
        assert!(
            self.values.iter().all(|&(n, _)| n != name),
            "{name} reported twice"
        );
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value})");
            self.tally.record(false);
        }
        self.values.push((name, value));
    }

    /// Warns on stderr when a tail percentile has fewer than ten samples
    /// beyond it.
    pub fn note_tail(&self, name: &str, n: usize, q: f64) {
        let beyond = samples_beyond(n, q);
        if beyond < 10 {
            eprintln!("perfbench: {name} rests on {n} samples, only {beyond} beyond it");
        }
    }

    /// The result line: every metric of the table, in table order.
    fn to_json(&self) -> String {
        let mut out = String::new();
        let failed = self.tally.failed;
        let correct = failed == 0 && self.tally.attempted > 0;
        write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            self.tally.attempted
        )
        .expect("writing to a String");
        for (i, &(name, unit)) in self.table.iter().enumerate() {
            let value = self
                .values
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process in MB (VmHWM).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// A path for a temporary file of this run under `perfbench/out/`.
pub fn scratch_file(stem: &str, ext: &str) -> PathBuf {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir.join(format!("{stem}-{}.{ext}", std::process::id()))
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let tracer = args.trace.then(Tracer::new);
    let mut report = Report::new(if args.trace { &PER_LAYER } else { &END_TO_END });
    let run = match args.workload.as_str() {
        "offline-skewed" => offline::run,
        _ => explore::run,
    };
    run(args.seed, args.seconds, tracer.as_ref(), &mut report);
    if !args.trace {
        report.put("peak_rss_mb", peak_rss_mb());
    }
    if let Some(t) = &tracer {
        let path = out_dir().join(format!("trace-{}.json", args.workload));
        if let Err(e) = t.write_json(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    eprintln!(
        "perfbench: {} seed {}: {} ops attempted, {} failed (failed_frac {})",
        args.workload,
        args.seed,
        report.tally.attempted,
        report.tally.failed,
        report.tally.failed_frac()
    );
    println!("{}", report.to_json());
    if report.tally.failed == 0 && report.tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppscan_obs::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Json, key: &str, field: &str) -> Vec<String> {
        match json.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| match m.get(field) {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{key}.{field} is {other:?}"),
                })
                .collect(),
            other => panic!("{key} is {other:?}"),
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = benchmark_json();
        let names = |t: &[(&str, &str)]| t.iter().map(|&(n, _)| n.to_string()).collect::<Vec<_>>();
        let units = |t: &[(&str, &str)]| t.iter().map(|&(_, u)| u.to_string()).collect::<Vec<_>>();
        assert_eq!(listed(&json, "end_to_end", "name"), names(&END_TO_END));
        assert_eq!(listed(&json, "end_to_end", "unit"), units(&END_TO_END));
        assert_eq!(listed(&json, "per_layer", "name"), names(&PER_LAYER));
        assert_eq!(listed(&json, "per_layer", "unit"), units(&PER_LAYER));
        assert_eq!(listed(&json, "workloads", "name"), WORKLOADS);
    }

    #[test]
    fn result_line_lists_every_metric_in_order() {
        let mut r = Report::new(&END_TO_END);
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            r.put(name, 1.5 + i as f64);
        }
        r.tally.record(true);
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        let parsed = parse(&line).expect("result line is JSON");
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(setup.get("unit"), Some(&Json::Str("s".into())));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::new(&END_TO_END);
        for &(name, _) in &END_TO_END {
            r.put(name, 1.0);
        }
        r.tally.record(true);
        r.tally.record(false);
        assert!(r
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }

    #[test]
    #[should_panic(expected = "not a metric")]
    fn unknown_metric_is_a_bug() {
        Report::new(&END_TO_END).put("op_p99_ms", 1.0);
    }
}
