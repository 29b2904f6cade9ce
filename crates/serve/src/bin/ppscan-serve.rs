//! `ppscan-serve`: stand up a clustering server over a graph file and
//! answer `(ε, µ)` queries.
//!
//! ```text
//! ppscan-serve <graph> [--threads N] [--batch B]            # stdin REPL
//! ppscan-serve <graph> --demo [--clients C] [--queries Q]   # load demo
//! ```
//!
//! REPL mode reads one `EPS MU` pair per stdin line and prints the
//! cluster summary (or the validation error) per query; `/metrics`
//! prints a live [`MetricsSnapshot`](ppscan_obs::registry::MetricsSnapshot)
//! and `/flight` the recent-event ring. The graph itself is editable
//! live: `insert U V` / `delete U V` stage edge edits into a pending
//! batch and `flush` publishes it as one new index generation via the
//! incremental update path — malformed ids are an error line, never a
//! panic, and an invalid batch is reported and discarded. Demo mode runs `C` closed-loop
//! client threads issuing `Q` queries each and prints the latency
//! summary JSON the serve benchmark embeds in its reports (plus a final
//! metrics snapshot on stderr).
//!
//! `--threads` sets the workers each query and index build runs on;
//! reading a text graph splits over every core the process may run on,
//! so `taskset` is what confines it.
//!
//! Both modes run a stall watchdog (`--watchdog-secs`, 0 to disable)
//! and install a panic hook that dumps the flight recorder to stderr,
//! so a wedged or crashing server leaves its last moments behind.

use ppscan_graph::{io, CsrGraph, GraphDelta};
use ppscan_obs::events::{install_panic_dump, WatchdogConfig};
use ppscan_serve::{ServeConfig, Server};
use std::io::BufRead;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> &'static str {
    "usage: ppscan-serve <graph> [--threads N] [--batch B] \
     [--watchdog-secs S] [--demo [--clients C] [--queries Q]]"
}

fn parse_or_exit<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid {what}: {s}");
        exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{}", usage());
        exit(0);
    }

    // Full-list validation, same contract as ppscan-cli: unknown flags
    // are an error, not a silent default.
    let value_flags = [
        "--threads",
        "--batch",
        "--clients",
        "--queries",
        "--watchdog-secs",
    ];
    let bool_flags = ["--demo"];
    let mut positionals: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if value_flags.contains(&a) {
                if i + 1 >= args.len() {
                    eprintln!("missing value for {a}\n{}", usage());
                    exit(2);
                }
                i += 1;
            } else if !bool_flags.contains(&a) {
                eprintln!("unknown flag {a}\n{}", usage());
                exit(2);
            }
        } else {
            positionals.push(a);
        }
        i += 1;
    }
    if positionals.len() != 1 {
        eprintln!("{}", usage());
        exit(2);
    }

    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let path = positionals[0];
    let threads: usize = parse_or_exit(flag("--threads").unwrap_or("2"), "--threads");
    let batch: usize = parse_or_exit(flag("--batch").unwrap_or("64"), "--batch");
    let demo = args.iter().any(|a| a == "--demo");
    let clients: usize = parse_or_exit(flag("--clients").unwrap_or("4"), "--clients");
    let queries: usize = parse_or_exit(flag("--queries").unwrap_or("100"), "--queries");
    let watchdog_secs: u64 =
        parse_or_exit(flag("--watchdog-secs").unwrap_or("5"), "--watchdog-secs");
    for (name, value) in [("--threads", threads), ("--batch", batch)] {
        if value == 0 {
            eprintln!("{name} must be at least 1\n{}", usage());
            exit(2);
        }
    }

    let graph: CsrGraph = {
        let result = if path.ends_with(".bin") {
            io::read_binary_file(path)
        } else {
            io::read_edge_list_file(path)
        };
        result.unwrap_or_else(|e| {
            eprintln!("failed to load {path}: {e}");
            exit(1);
        })
    };
    eprintln!(
        "loaded {path}: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    // Updates edit edges over a fixed vertex set; remember its size for
    // stage-time validation once the graph has moved into the server.
    let num_vertices = graph.num_vertices();

    let t0 = std::time::Instant::now();
    let server = Server::start(
        Arc::new(graph),
        ServeConfig {
            threads,
            max_batch: batch,
            watchdog: (watchdog_secs > 0).then(|| WatchdogConfig {
                deadline: Duration::from_secs(watchdog_secs),
                ..WatchdogConfig::default()
            }),
            ..ServeConfig::default()
        },
    );
    // A crashing server should leave its recent event history behind.
    install_panic_dump(Arc::clone(server.flight_recorder()));
    eprintln!(
        "index built in {:?}; serving with {threads} threads, batch {batch}",
        t0.elapsed()
    );

    if demo {
        let t0 = std::time::Instant::now();
        std::thread::scope(|scope| {
            for c in 0..clients {
                let server = &server;
                scope.spawn(move || {
                    for q in 0..queries {
                        // A deterministic small sweep per client.
                        let eps = 0.2 + 0.15 * ((c + q) % 5) as f64;
                        let mu = 1 + (c + q) % 6;
                        let response = server.query(eps, mu);
                        assert!(response.result.is_ok(), "valid params must succeed");
                    }
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let total = server.queries_served();
        eprintln!(
            "{total} queries from {clients} clients in {wall:.3}s \
             ({:.0} q/s)",
            total as f64 / wall
        );
        println!("{}", server.latency().to_json().to_pretty_string());
        eprintln!("{}", server.metrics_snapshot().to_json().to_pretty_string());
        return;
    }

    eprintln!(
        "enter `EPS MU` per line, `insert U V` / `delete U V` / `flush` \
         to edit the graph, `/metrics` or `/flight` (EOF to quit):"
    );
    let stdin = std::io::stdin();
    let mut pending = GraphDelta::new();
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_default();
        match line.trim() {
            "/metrics" => {
                println!("{}", server.metrics_snapshot().to_json().to_pretty_string());
                continue;
            }
            "/flight" => {
                println!("{}", server.flight_recorder().to_json().to_pretty_string());
                continue;
            }
            "flush" => {
                if pending.is_empty() {
                    println!("nothing staged");
                    continue;
                }
                let staged = pending.len();
                match server.update(&std::mem::take(&mut pending)) {
                    Ok(generation) => {
                        println!("[gen {generation}] applied batch of {staged} staged edits")
                    }
                    // The batch is discarded either way: a rejected batch
                    // (duplicate edit, out-of-range id) shouldn't poison
                    // the next one.
                    Err(e) => println!("error: batch rejected ({e}); staged edits discarded"),
                }
                continue;
            }
            _ => {}
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if let ["insert" | "delete", u, v] = tokens.as_slice() {
            let op = tokens[0];
            let (Ok(u), Ok(v)) = (u.parse::<u32>(), v.parse::<u32>()) else {
                println!("error: expected `{op} U V` with numeric vertex ids");
                continue;
            };
            if (u as usize) >= num_vertices || (v as usize) >= num_vertices {
                println!("error: vertex id out of range (graph has {num_vertices} vertices)");
                continue;
            }
            let staged = if op == "insert" {
                pending.insert(u, v)
            } else {
                pending.delete(u, v)
            };
            match staged {
                Ok(()) => println!("staged {op} ({u}, {v}); {} pending", pending.len()),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(eps), Some(mu)) = (parts.next(), parts.next()) else {
            if !line.trim().is_empty() {
                eprintln!("expected: EPS MU");
            }
            continue;
        };
        let (Ok(eps), Ok(mu)) = (eps.parse::<f64>(), mu.parse::<usize>()) else {
            eprintln!("expected: EPS MU (numbers)");
            continue;
        };
        let response = server.query(eps, mu);
        match response.result {
            Ok(clustering) => println!("[gen {}] {}", response.generation, clustering.summary()),
            Err(e) => println!("[gen {}] error: {e}", response.generation),
        }
    }
}
