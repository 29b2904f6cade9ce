//! End-to-end integration tests spanning every crate: generate → persist
//! → reload → cluster in parallel → verify against first principles →
//! classify hubs/outliers.

use ppscan::prelude::*;
use ppscan_core::verify;
use ppscan_graph::{gen, io, GraphStats};

#[test]
fn generate_persist_reload_cluster_verify() {
    let g = gen::planted_partition(5, 30, 0.5, 0.01, 123);

    // Persist and reload through both formats.
    let dir = std::env::temp_dir().join("ppscan_it");
    std::fs::create_dir_all(&dir).unwrap();
    let txt = dir.join("g.txt");
    let bin = dir.join("g.bin");
    io::write_edge_list_file(&g, &txt).unwrap();
    io::write_binary_file(&g, &bin).unwrap();
    let g_txt = io::read_edge_list_file(&txt).unwrap();
    let g_bin = io::read_binary_file(&bin).unwrap();
    assert_eq!(g, g_txt);
    assert_eq!(g, g_bin);
    std::fs::remove_file(&txt).ok();
    std::fs::remove_file(&bin).ok();

    // Cluster with the facade and verify from first principles.
    let params = ScanParams::new(0.5, 3);
    let out = ppscan::cluster(&g_bin, params);
    verify::check_clustering(&g, params, &out.clustering).unwrap();
    assert_eq!(out.clustering.num_clusters(), 5);
}

#[test]
fn all_algorithms_agree_across_crate_boundaries() {
    let g = gen::roll(400, 12, 99);
    let params = ScanParams::new(0.4, 4);
    let reference = verify::reference_clustering(&g, params);

    assert_eq!(ppscan_core::scan::scan(&g, params).clustering, reference);
    assert_eq!(ppscan_core::pscan::pscan(&g, params).clustering, reference);
    assert_eq!(ppscan_core::scanxp::scanxp(&g, params, 2), reference);
    assert_eq!(ppscan_core::anyscan::anyscan(&g, params, 2), reference);
    for threads in [1, 2, 4] {
        let cfg = PpScanConfig::with_threads(threads);
        assert_eq!(
            ppscan_core::ppscan::ppscan(&g, params, &cfg).clustering,
            reference
        );
    }
}

#[test]
fn kernels_are_interchangeable_end_to_end() {
    let g = gen::rmat_social(9, 10, 5);
    let params = ScanParams::new(0.3, 3);
    let reference = ppscan_core::pscan::pscan(&g, params).clustering;
    for kernel in Kernel::ALL.into_iter().filter(|k| k.available()) {
        let cfg = PpScanConfig::with_threads(2).kernel(kernel);
        assert_eq!(
            ppscan_core::ppscan::ppscan(&g, params, &cfg).clustering,
            reference,
            "kernel {kernel}"
        );
    }
}

#[test]
fn dataset_suite_is_clusterable() {
    use ppscan_graph::datasets::Dataset;
    // Tiny scale: every named stand-in must generate, validate and
    // cluster without error.
    for d in Dataset::ALL {
        let g = d.generate_scaled(0.02);
        g.validate().unwrap();
        let stats = GraphStats::of(&g);
        assert!(stats.num_edges > 0, "{} generated empty", d.name());
        let out = ppscan::cluster(&g, ScanParams::new(0.6, 5));
        assert_eq!(out.clustering.num_vertices(), g.num_vertices());
    }
}

#[test]
fn epsilon_monotonicity() {
    // Higher ε ⇒ fewer similar edges ⇒ (weakly) fewer cores.
    let g = gen::planted_partition(4, 25, 0.5, 0.02, 3);
    let mut last_cores = usize::MAX;
    for eps10 in 1..=9u32 {
        let params = ScanParams::new(eps10 as f64 / 10.0, 3);
        let out = ppscan::cluster(&g, params);
        assert!(
            out.clustering.num_cores() <= last_cores,
            "cores increased when eps rose to {}",
            eps10 as f64 / 10.0
        );
        last_cores = out.clustering.num_cores();
    }
}

#[test]
fn mu_monotonicity() {
    // Higher µ ⇒ fewer cores.
    let g = gen::roll(300, 14, 8);
    let mut last_cores = usize::MAX;
    for mu in [1usize, 2, 5, 10, 15] {
        let out = ppscan::cluster(&g, ScanParams::new(0.3, mu));
        assert!(out.clustering.num_cores() <= last_cores);
        last_cores = out.clustering.num_cores();
    }
}

#[test]
fn scheduler_threshold_is_behavior_invariant() {
    let g = gen::roll(300, 10, 4);
    let params = ScanParams::new(0.4, 3);
    let reference = ppscan_core::pscan::pscan(&g, params).clustering;
    for threshold in [1u64, 64, 32_768, u64::MAX] {
        let cfg = PpScanConfig::with_threads(3).degree_threshold(threshold);
        assert_eq!(
            ppscan_core::ppscan::ppscan(&g, params, &cfg).clustering,
            reference,
            "threshold {threshold}"
        );
    }
}

#[test]
fn streaming_updates_match_from_scratch_through_the_facade() {
    use ppscan::graph::delta::GraphDelta;
    use ppscan::gsindex::GsIndex;
    use std::sync::Arc;

    let graph = Arc::new(gen::planted_partition(4, 50, 0.5, 0.01, 42));
    let params = ScanParams::new(0.5, 4);
    let index = GsIndex::build(Arc::clone(&graph), 2);

    let mut delta = GraphDelta::new();
    delta.insert(0, 150).unwrap();
    delta.delete(1, 2).unwrap();
    let (updated, stats) = index.apply_delta(&delta, 2).unwrap();
    assert!(stats.touched_vertices > 0);

    let edited = delta.apply_to(&graph).unwrap().graph;
    let reference = ppscan::cluster(&edited, params);
    assert_eq!(updated.query(params), reference.clustering);
}
