//! Observability overhead — the cost of the `ppscan-obs` layers on the
//! ppSCAN hot path, measured as identical best-of-[`ppscan_bench::RUNS`]
//! runs in three configurations:
//!
//! * **off** — span collector + kernel counter scope disabled.
//! * **observed** — the tracing layer enabled (`observe = true`, the
//!   default).
//! * **observed+registry** — tracing *plus* the live-metrics path: pool
//!   counters ([`ppscan_sched::PoolMetrics`]) attached to the worker
//!   pool and a [`TimelineSampler`] hammering the registry with a
//!   snapshot every 10 ms for the whole measurement. This is the
//!   worst-case serving-telemetry configuration.
//!
//! Both layers are designed to stay well under 5% combined: spans are
//! per *task* (hundreds of vertices), counter recording is a pair of
//! relaxed increments on a thread-sharded cell, and snapshotting reads
//! are on the sampler thread, not the hot path. `--max-overhead <f>`
//! turns the bound into a gate (exit 1 when the worst ratio exceeds it).
//! ppSCAN runs at each thread count of `--threads`, so a run's shape does
//! not depend on the host's core count.
//!
//! ```sh
//! cargo run --release -p ppscan-bench --bin obs_overhead -- \
//!     [--scale 1.0] [--threads 1,2] [--max-overhead 0.05]
//! ```

use ppscan_bench::{secs, HarnessArgs, Table};
use ppscan_core::ppscan::{ppscan, PpScanConfig};
use ppscan_obs::json::Json;
use ppscan_obs::registry::{MetricsRegistry, TimelineSampler};
use ppscan_sched::PoolMetrics;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let (mut args, extras) = HarnessArgs::parse_with(&["--max-overhead"]);
    let max_overhead: Option<f64> = extras
        .iter()
        .rev()
        .find(|(f, _)| f == "--max-overhead")
        .map(|(_, v)| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad --max-overhead: {v}");
                std::process::exit(2);
            })
        });
    if args.eps_list == [0.2, 0.4, 0.6, 0.8] && !args.quick {
        args.eps_list = vec![0.2, 0.6]; // small eps = busiest hot path
    }
    let registry = Arc::new(MetricsRegistry::new());

    let mut report = ppscan_bench::figure_report("obs_overhead", &args);
    let mut table = Table::new(&[
        "dataset",
        "threads",
        "eps",
        "off (s)",
        "observed (s)",
        "obs+reg (s)",
        "obs overhead",
        "obs+reg overhead",
    ]);
    let mut worst: f64 = 0.0;
    for (d, g) in ppscan_bench::load_datasets(&args) {
        for (&threads, &eps) in args
            .threads
            .iter()
            .flat_map(|t| args.eps_list.iter().map(move |e| (t, e)))
        {
            let observed_cfg = PpScanConfig::with_threads(threads);
            let unobserved_cfg = PpScanConfig::with_threads(threads).observe(false);
            let registry_cfg = PpScanConfig::with_threads(threads)
                .metrics(Some(PoolMetrics::register(&registry, "pool", threads)));
            let p = args.params(eps);
            // Best-of-N with the three configs *interleaved* per
            // repetition rather than run as consecutive blocks: machine
            // drift between blocks (throttling, noisy neighbours) would
            // otherwise masquerade as overhead.
            let mut t_off = Duration::MAX;
            let mut t_on = Duration::MAX;
            let mut t_reg = Duration::MAX;
            let mut out = None;
            let mut out_reg = None;
            for _ in 0..args.runs.max(1) {
                let t0 = Instant::now();
                let _ = ppscan(&g, p, &unobserved_cfg);
                t_off = t_off.min(t0.elapsed());

                let t0 = Instant::now();
                out = Some(ppscan(&g, p, &observed_cfg));
                t_on = t_on.min(t0.elapsed());

                // The sampler snapshots every instrument every 10 ms
                // for the whole measurement: registry *and* read-side
                // cost, not just recording.
                let sampler =
                    TimelineSampler::start(Arc::clone(&registry), Duration::from_millis(10));
                let t0 = Instant::now();
                out_reg = Some(ppscan(&g, p, &registry_cfg));
                t_reg = t_reg.min(t0.elapsed());
                drop(sampler);
            }
            let (out, out_reg) = (out.unwrap(), out_reg.unwrap());
            let base = t_off.as_secs_f64().max(1e-9);
            let overhead = t_on.as_secs_f64() / base - 1.0;
            let overhead_reg = t_reg.as_secs_f64() / base - 1.0;
            worst = worst.max(overhead).max(overhead_reg);
            for (mode, mut r, ratio) in [
                ("observed", out.report, overhead),
                ("observed+registry", out_reg.report, overhead_reg),
            ] {
                r.dataset = Some(d.name().into());
                r.push_extra("config", Json::Str(format!("mode={mode}")));
                r.push_extra("overhead_ratio", Json::Num(ratio));
                report.runs.push(r);
            }
            table.row(vec![
                d.name().into(),
                threads.to_string(),
                format!("{eps:.1}"),
                secs(t_off),
                secs(t_on),
                secs(t_reg),
                format!("{:+.2}%", overhead * 100.0),
                format!("{:+.2}%", overhead_reg * 100.0),
            ]);
        }
    }
    report
        .context
        .push(("worst_overhead_ratio".into(), Json::Num(worst)));
    println!(
        "\nObservability overhead: ppSCAN with tracing off / on / on+live \
         registry sampling (threads {:?}, mu = {}); worst {:+.2}%",
        args.threads,
        args.mu,
        worst * 100.0
    );
    table.print(args.csv);
    ppscan_bench::emit_report(&args, report, &table);
    if let Some(bound) = max_overhead {
        if worst > bound {
            eprintln!(
                "overhead gate FAILED: worst {:+.2}% exceeds --max-overhead {:+.2}%",
                worst * 100.0,
                bound * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "overhead gate ok: worst {:+.2}% <= {:+.2}%",
            worst * 100.0,
            bound * 100.0
        );
    }
}
