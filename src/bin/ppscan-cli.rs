//! Command-line interface for the ppscan library: cluster a graph file,
//! inspect statistics, generate synthetic datasets, convert formats.
//!
//! ```text
//! ppscan-cli stats    <graph>
//! ppscan-cli cluster  <graph> --eps 0.5 --mu 5 [--threads N] [--kernel K]
//!                     [--output FILE] [--classify]
//! ppscan-cli generate <roll|rmat|er|sbm> --out FILE [generator options]
//! ppscan-cli convert  <in> <out>      # .txt ↔ .bin by extension
//! ```
//!
//! Graph files ending in `.bin` use the compact binary CSR format;
//! anything else is parsed as a SNAP-style edge list.
//!
//! `--threads` sets ppSCAN's thread count only. Reading a text graph,
//! building its CSR and `--classify` split their work over every core
//! the process may run on (`std::thread::available_parallelism()`), so
//! `taskset` is what confines them; their output is the same either way.

use ppscan::prelude::*;
use ppscan_core::ppscan::ppscan as run_ppscan;
use ppscan_graph::{gen, io, CsrGraph, GraphStats};
use std::io::Write as _;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!(
                "usage: ppscan-cli <stats|cluster|generate|convert> ...\n\
                 run `ppscan-cli <command> --help` for details"
            );
            if args.is_empty() {
                2
            } else {
                0
            }
        }
        Some(other) => {
            eprintln!("unknown command: {other}");
            2
        }
    };
    exit(code);
}

fn load(path: &str) -> CsrGraph {
    let result = if path.ends_with(".bin") {
        io::read_binary_file(path)
    } else {
        io::read_edge_list_file(path)
    };
    result.unwrap_or_else(|e| {
        eprintln!("failed to load {path}: {e}");
        exit(1);
    })
}

/// Writes `g` to `path` in the format its extension names, as [`load`]
/// reads it.
fn save(g: &CsrGraph, path: &str) -> std::io::Result<()> {
    if path.ends_with(".bin") {
        io::write_binary_file(g, path)
    } else {
        io::write_edge_list_file(g, path)
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Validates the complete argument list of a subcommand before any flag
/// is read: every `--flag` must be known to the command (value-taking
/// flags consume the following token), and at most `max_positional`
/// bare arguments are allowed. `flag_value` alone only *scans for*
/// known names, so a typo like `--epsilonn 0.5` used to run silently
/// with the default ε.
fn validate_args(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
    max_positional: usize,
    usage: &str,
) -> Result<(), i32> {
    let mut positionals = 0usize;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if value_flags.contains(&a) {
                if i + 1 >= args.len() {
                    eprintln!("missing value for {a}\n{usage}");
                    return Err(2);
                }
                i += 1; // skip the flag's value
            } else if !bool_flags.contains(&a) {
                eprintln!("unknown flag {a}\n{usage}");
                return Err(2);
            }
        } else {
            positionals += 1;
            if positionals > max_positional {
                eprintln!("unexpected argument {a:?}\n{usage}");
                return Err(2);
            }
        }
        i += 1;
    }
    Ok(())
}

fn parse_or_exit<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid {what}: {s}");
        exit(2)
    })
}

fn cmd_stats(args: &[String]) -> i32 {
    let usage = "usage: ppscan-cli stats <graph>";
    if let Err(code) = validate_args(args, &[], &[], 1, usage) {
        return code;
    }
    let Some(path) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    let g = load(path);
    let s = GraphStats::of(&g);
    println!("{}", GraphStats::table_header());
    println!("{}", s.table_row(path));
    println!("median degree : {}", s.median_degree);
    println!("degree skew   : {:.1}", s.skew);
    println!(
        "SCAN workload : {} (2 Σ d²)",
        ppscan_graph::stats::scan_workload(&g)
    );
    println!(
        "heap          : {:.1} MiB",
        g.heap_bytes() as f64 / (1 << 20) as f64
    );
    0
}

fn cmd_cluster(args: &[String]) -> i32 {
    let usage = "usage: ppscan-cli cluster <graph> --eps E --mu M \
                 [--threads N] [--kernel merge|pivot-avx512|block-avx512|...] \
                 [--output FILE] [--classify]\n\
                 --threads N sets ppSCAN's threads; reading the graph and \
                 --classify split over every core the process may use \
                 (confine them with taskset)";
    if args.is_empty() || args.iter().any(|a| a == "--help") {
        eprintln!("{usage}");
        return if args.is_empty() { 2 } else { 0 };
    }
    if let Err(code) = validate_args(
        args,
        &["--eps", "--mu", "--threads", "--kernel", "--output"],
        &["--classify"],
        1,
        usage,
    ) {
        return code;
    }
    let path = &args[0];
    let eps: f64 = parse_or_exit(flag_value(args, "--eps").unwrap_or("0.5"), "--eps");
    let mu: usize = parse_or_exit(flag_value(args, "--mu").unwrap_or("5"), "--mu");
    let params = match ScanParams::checked(eps, mu) {
        Ok(params) => params,
        Err(reason) => {
            eprintln!("{reason}\n{usage}");
            return 2;
        }
    };
    let mut config = PpScanConfig::default();
    if let Some(t) = flag_value(args, "--threads") {
        config.threads = parse_or_exit(t, "--threads");
        if config.threads == 0 {
            eprintln!("--threads must be at least 1\n{usage}");
            return 2;
        }
    }
    if let Some(k) = flag_value(args, "--kernel") {
        config.kernel = Kernel::parse(k).unwrap_or_else(|| {
            eprintln!("unknown kernel {k}");
            exit(2)
        });
        if !config.kernel.available() {
            eprintln!("kernel {} not supported on this CPU", config.kernel);
            return 1;
        }
    }

    let g = load(path);
    eprintln!(
        "loaded {}: {} vertices, {} edges",
        path,
        g.num_vertices(),
        g.num_edges()
    );
    let t0 = std::time::Instant::now();
    let out = run_ppscan(&g, params, &config);
    eprintln!(
        "ppSCAN(eps={eps}, mu={mu}, {} threads, {}) took {:?}",
        config.threads,
        config.kernel,
        t0.elapsed()
    );
    println!("{}", out.clustering.summary());

    if args.iter().any(|a| a == "--classify") {
        let classes = out.clustering.classify_unclustered(&g);
        let hubs = classes
            .iter()
            .filter(|c| matches!(c, UnclusteredClass::Hub))
            .count();
        let outliers = classes
            .iter()
            .filter(|c| matches!(c, UnclusteredClass::Outlier))
            .count();
        println!("hubs: {hubs}, outliers: {outliers}");
    }

    if let Some(path) = flag_value(args, "--output") {
        if let Err(e) = write_memberships(&out.clustering, path) {
            eprintln!("failed to write {path}: {e}");
            return 1;
        }
        eprintln!("memberships written to {path}");
    }
    0
}

/// Writes one `vertex cluster_id` line per membership, flushing the file
/// so that a failed final write is an error.
fn write_memberships(clustering: &Clustering, path: &str) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# vertex cluster_id (one line per membership)")?;
    for (cid, members) in clustering.clusters() {
        for v in members {
            writeln!(w, "{v} {cid}")?;
        }
    }
    w.flush()
}

fn cmd_generate(args: &[String]) -> i32 {
    let usage = "usage: ppscan-cli generate <roll|rmat|er|sbm> --out FILE \
                 [--n N] [--degree D] [--scale S] [--edges M] [--blocks B] \
                 [--block-size K] [--p-in P] [--p-out Q] [--seed S]";
    if let Err(code) = validate_args(
        args,
        &[
            "--out",
            "--n",
            "--degree",
            "--scale",
            "--edges",
            "--blocks",
            "--block-size",
            "--p-in",
            "--p-out",
            "--seed",
        ],
        &[],
        1,
        usage,
    ) {
        return code;
    }
    let Some(kind) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("{usage}");
        return 2;
    };
    let seed: u64 = parse_or_exit(flag_value(args, "--seed").unwrap_or("42"), "--seed");
    let n: usize = parse_or_exit(flag_value(args, "--n").unwrap_or("10000"), "--n");
    let g = match kind.as_str() {
        "roll" => {
            let d: usize = parse_or_exit(flag_value(args, "--degree").unwrap_or("16"), "--degree");
            gen::roll(n, d, seed)
        }
        "rmat" => {
            let scale: u32 = parse_or_exit(flag_value(args, "--scale").unwrap_or("14"), "--scale");
            let d: usize = parse_or_exit(flag_value(args, "--degree").unwrap_or("16"), "--degree");
            gen::rmat_social(scale, d, seed)
        }
        "er" => {
            let m: usize = parse_or_exit(flag_value(args, "--edges").unwrap_or("50000"), "--edges");
            gen::erdos_renyi(n, m, seed)
        }
        "sbm" => {
            let blocks: usize =
                parse_or_exit(flag_value(args, "--blocks").unwrap_or("8"), "--blocks");
            let k: usize = parse_or_exit(
                flag_value(args, "--block-size").unwrap_or("64"),
                "--block-size",
            );
            let p_in: f64 = parse_or_exit(flag_value(args, "--p-in").unwrap_or("0.3"), "--p-in");
            let p_out: f64 =
                parse_or_exit(flag_value(args, "--p-out").unwrap_or("0.005"), "--p-out");
            gen::planted_partition(blocks, k, p_in, p_out, seed)
        }
        other => {
            eprintln!("unknown generator {other}\n{usage}");
            return 2;
        }
    };
    if let Err(e) = save(&g, out) {
        eprintln!("failed to write {out}: {e}");
        return 1;
    }
    eprintln!(
        "wrote {out}: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    0
}

fn cmd_convert(args: &[String]) -> i32 {
    let usage = "usage: ppscan-cli convert <in> <out>";
    if let Err(code) = validate_args(args, &[], &[], 2, usage) {
        return code;
    }
    let (Some(input), Some(output)) = (args.first(), args.get(1)) else {
        eprintln!("{usage}");
        return 2;
    };
    let g = load(input);
    if let Err(e) = save(&g, output) {
        eprintln!("failed to write {output}: {e}");
        return 1;
    }
    eprintln!("converted {input} → {output}");
    0
}
