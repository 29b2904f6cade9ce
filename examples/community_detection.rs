//! Community detection on a synthetic social network — the use case the
//! paper's introduction motivates (advertising, epidemiology).
//!
//! Generates a planted-partition graph with known ground-truth
//! communities, recovers them with ppSCAN, and scores the recovery.
//! Also demonstrates loading/saving edge lists.
//!
//! ```sh
//! cargo run --release --example community_detection [blocks] [block_size]
//! ```

use ppscan::prelude::*;
use std::collections::HashMap;

fn main() {
    let mut args = std::env::args().skip(1);
    let blocks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let block_size: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);

    println!("generating {blocks} communities x {block_size} members …");
    let graph = ppscan::graph::gen::planted_partition(blocks, block_size, 0.4, 0.005, 7);
    let stats = ppscan::graph::GraphStats::of(&graph);
    println!("{}", ppscan::graph::GraphStats::table_header());
    println!("{}", stats.table_row("sbm"));

    // Round-trip through the on-disk edge-list format, as one would with
    // a real SNAP dataset.
    let path = std::env::temp_dir().join("ppscan_example_sbm.txt");
    ppscan::graph::io::write_edge_list_file(&graph, &path).expect("write edge list");
    let graph = ppscan::graph::io::read_edge_list_file(&path).expect("re-read edge list");
    std::fs::remove_file(&path).ok();

    let params = ScanParams::new(0.4, 4);
    let t0 = std::time::Instant::now();
    let output = ppscan::cluster(&graph, params);
    println!(
        "ppSCAN({}) took {:?}: {}",
        params.label(),
        t0.elapsed(),
        output.clustering.summary()
    );

    // Score recovery: every found cluster should be (near-)pure in one
    // ground-truth block.
    let truth = |v: u32| v as usize / block_size;
    let mut pure = 0usize;
    let clusters = output.clustering.clusters();
    for (cid, members) in &clusters {
        let mut votes: HashMap<usize, usize> = HashMap::new();
        for &v in members {
            *votes.entry(truth(v)).or_default() += 1;
        }
        let (&best_block, &best) = votes.iter().max_by_key(|(_, &c)| c).unwrap();
        let purity = best as f64 / members.len() as f64;
        if purity > 0.95 {
            pure += 1;
        }
        println!(
            "  cluster {cid:>5}: {:>4} members, {:.0}% from block {best_block}",
            members.len(),
            purity * 100.0
        );
    }
    println!(
        "{}/{} clusters are >95% pure (ground truth: {blocks} blocks)",
        pure,
        clusters.len()
    );
}
