//! Incremental index maintenance vs from-scratch rebuild — the
//! streaming-update benchmark backing `crates/update`. Each cell applies
//! one [`GraphDelta`] batch to a prebuilt GS*-Index over ROLL-d40 twice:
//! through [`GsIndex::apply_delta_with`] (localized recomputation)
//! and by splicing the graph then rebuilding the index from scratch —
//! both sides pay the CSR splice, so the comparison isolates the index
//! work. The batch sizes sweep the streaming regime — single edits,
//! small batches, and 1% of `|E|` at once — under two workloads:
//! `hot` (endpoints confined to a small vertex window, the locality
//! profile of a real update stream) and `uniform` (endpoints sampled
//! over the whole graph). Uniform 1%-of-`|E|` batches touch nearly every
//! vertex on a hub-heavy ROLL graph — recomputation is inherently
//! global there, so the `--min-speedup` gate covers the `hot` cells;
//! the uniform rows are reported alongside as the locality cliff.
//!
//! The run reports are diffable across machines with `report_check
//! --check-runs`: the phase list ([`PHASE_ORDER`], captured from one
//! traced [`GsIndex::apply_delta_with`]) is structural with wall shares
//! zeroed, and the `config` extra pins the *deterministic* update stats
//! (applied / touched / recomputed counts) into the run identity — a
//! touched-set derivation change shows up as a missing + extra run, not
//! as timing noise.
//!
//! ```sh
//! cargo run --release -p ppscan-bench --bin update_bench -- \
//!     [--quick] [--scale S] [--threads 1,2] [--runs N] \
//!     [--min-speedup X] [--report FILE]
//! ```
//!
//! `--min-speedup X` exits non-zero unless every `hot` cell's
//! incremental apply beats the from-scratch rebuild by at least `X`×
//! (the acceptance gate runs this at `--runs 9 --min-speedup 5`).

use ppscan_bench::{best_of_n, emit_report, figure_report, HarnessArgs, Table};
use ppscan_graph::datasets::roll_suite;
use ppscan_graph::delta::GraphDelta;
use ppscan_graph::CsrGraph;
use ppscan_gsindex::GsIndex;
use ppscan_obs::json::Json;
use ppscan_obs::report::PhaseMetrics;
use ppscan_obs::{Collector, RunReport};
use ppscan_sched::WorkerPool;
use ppscan_update::stress::{hot_delta, random_delta, BatchSpec};
use std::sync::Arc;

/// Edge budget for the ROLL suite at `--scale 1.0` (the bench uses the
/// ROLL-d40 entry, the paper's streaming-favourite degree).
const EDGE_BUDGET: f64 = 1_000_000.0;

/// Delta seed base; each batch spec draws its own delta so the cells
/// are independent but reproducible.
const DELTA_SEED: u64 = 0x00ed_beac_0000;

/// Canonical phase order for the emitted reports. Both are
/// machine-dependent wall times, so their shares are zeroed — the
/// regression surface is the phase *list* plus the deterministic update
/// stats pinned into each run's `config` identity.
const PHASE_ORDER: [&str; 2] = ["update-sim", "update-roles"];

fn normalize_phases(stages: Vec<PhaseMetrics>) -> Vec<PhaseMetrics> {
    PHASE_ORDER
        .iter()
        .map(|&name| {
            let mut p = stages
                .iter()
                .find(|p| p.name == name)
                .cloned()
                .unwrap_or_else(|| PhaseMetrics {
                    name: name.to_string(),
                    ..PhaseMetrics::default()
                });
            p.wall_nanos = 0;
            p
        })
        .collect()
}

fn main() {
    let (args, extras) = HarnessArgs::parse_with(&["--min-speedup"]);
    let min_speedup: f64 = extras
        .iter()
        .rev()
        .find(|(f, _)| f == "--min-speedup")
        .map(|(_, v)| v.parse().expect("bad --min-speedup"))
        .unwrap_or(0.0);
    let batches = [
        BatchSpec::Fixed(1),
        BatchSpec::Fixed(16),
        BatchSpec::EdgeFraction(0.01),
    ];

    let budget = (EDGE_BUDGET * args.scale) as usize;
    let (name, graph) = roll_suite(budget).into_iter().next().expect("suite entry");
    let graph = Arc::new(graph);
    eprintln!(
        "{name}: {} vertices, {} edges (scale {})",
        graph.num_vertices(),
        graph.num_edges(),
        args.scale
    );
    // The base index is what a live server would already hold; building
    // it is load, not measurement.
    let base = GsIndex::build(Arc::clone(&graph), *args.threads.iter().max().unwrap());

    type DeltaDraw = fn(&CsrGraph, usize, u64) -> GraphDelta;
    let workloads: [(&str, DeltaDraw); 2] = [("hot", hot_delta), ("uniform", random_delta)];

    let mut report = figure_report("update_bench", &args);
    let mut table = Table::new(&[
        "dataset",
        "workload",
        "batch",
        "|delta|",
        "threads",
        "applied",
        "touched",
        "recomputed",
        "incr (ms)",
        "scratch (ms)",
        "speedup",
    ]);
    let mut worst: Option<f64> = None;

    for (wi, &(workload, draw)) in workloads.iter().enumerate() {
        for (bi, spec) in batches.iter().enumerate() {
            let size = spec.resolve(graph.num_edges());
            let delta = draw(&graph, size, DELTA_SEED + (wi * batches.len() + bi) as u64);
            for &threads in &args.threads {
                let pool = WorkerPool::new(threads);

                // Incremental: repair the prebuilt index under the batch
                // (CSR splice + localized index recomputation).
                let (incr, (_updated, stats)) = best_of_n(args.runs, || {
                    base.apply_delta_with(&delta, &pool).expect("valid delta")
                });

                // From-scratch: splice the same batch, rebuild the index
                // over the edited graph. Paying the splice on both sides
                // keeps the comparison about the index work.
                let (scratch, _) = best_of_n(args.runs, || {
                    let applied = delta.apply_to(&graph).expect("valid delta");
                    GsIndex::build(Arc::new(applied.graph), threads)
                });

                // Phase capture: one more apply of the same batch, traced.
                let collector = Collector::new();
                let guard = collector.activate();
                let (_, traced) = base.apply_delta_with(&delta, &pool).expect("valid delta");
                drop(guard);
                assert_eq!(traced, stats, "traced apply saw the same update");

                let speedup = scratch.as_secs_f64() / incr.as_secs_f64().max(1e-12);
                if workload == "hot" {
                    worst = Some(worst.map_or(speedup, |w: f64| w.min(speedup)));
                }

                let mut run = RunReport::new("update")
                    .with_dataset(name.as_str())
                    .with_threads(threads)
                    .with_strategy("parallel")
                    .with_graph(graph.num_vertices() as u64, graph.num_edges() as u64);
                run.wall_nanos = incr.as_nanos() as u64;
                run.phases = normalize_phases(RunReport::phases_from(&collector.snapshot()));
                run.push_extra(
                    "config",
                    Json::Str(format!(
                        "workload={workload},batch={},size={size},applied={},touched={},recomputed={}",
                        spec.label(),
                        stats.applied_edges,
                        stats.touched_vertices,
                        stats.recomputed_edges,
                    )),
                );
                run.push_extra("speedup", Json::Num(speedup));
                run.push_extra("scratch_nanos", Json::from_u64(scratch.as_nanos() as u64));
                report.runs.push(run);

                table.row(vec![
                    name.clone(),
                    workload.to_string(),
                    spec.label(),
                    size.to_string(),
                    threads.to_string(),
                    stats.applied_edges.to_string(),
                    stats.touched_vertices.to_string(),
                    stats.recomputed_edges.to_string(),
                    format!("{:.3}", incr.as_secs_f64() * 1e3),
                    format!("{:.3}", scratch.as_secs_f64() * 1e3),
                    format!("{speedup:.1}x"),
                ]);
            }
        }
    }

    println!(
        "\nIncremental index maintenance vs from-scratch rebuild on {name} \
         (best of {} runs per cell, batches {{1, 16, 1% of |E|}}, \
         hot + uniform workloads)",
        args.runs
    );
    table.print(args.csv);
    emit_report(&args, report, &table);

    if min_speedup > 0.0 {
        let worst = worst.expect("at least one hot cell");
        if worst < min_speedup {
            eprintln!(
                "FAIL: worst hot-cell speedup {worst:.2}x below the \
                 --min-speedup {min_speedup}x gate"
            );
            std::process::exit(1);
        }
        eprintln!("speedup gate ok: worst hot cell {worst:.2}x >= {min_speedup}x");
    }
}
