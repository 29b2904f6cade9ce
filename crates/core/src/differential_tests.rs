//! Cross-algorithm differential tests: SCAN ≡ pSCAN ≡ ppSCAN ≡ SCAN-XP ≡
//! anySCAN on identical inputs, and every result validated against the
//! from-first-principles reference (`verify`). This is the strongest
//! correctness statement in the workspace: five independent
//! implementations (one of them lock-free parallel) must agree exactly.

use crate::params::ScanParams;
use crate::ppscan::{ppscan, PpScanConfig};
use crate::verify;
use ppscan_graph::rng::SplitMix64;
use ppscan_graph::{gen, CsrGraph};
use ppscan_intersect::Kernel;

fn all_algorithms_agree(g: &CsrGraph, eps: f64, mu: usize) {
    let p = ScanParams::new(eps, mu);
    let reference = verify::reference_clustering(g, p);

    let scan_out = crate::scan::scan(g, p).clustering;
    assert_eq!(scan_out, reference, "SCAN diverged at eps={eps} mu={mu}");

    let pscan_out = crate::pscan::pscan(g, p).clustering;
    assert_eq!(pscan_out, reference, "pSCAN diverged at eps={eps} mu={mu}");

    let xp = crate::scanxp::scanxp(g, p, 2);
    assert_eq!(xp, reference, "SCAN-XP diverged at eps={eps} mu={mu}");

    let any = crate::anyscan::anyscan(g, p, 2);
    assert_eq!(any, reference, "anySCAN diverged at eps={eps} mu={mu}");

    let spp = crate::scanpp::scanpp(g, p);
    assert_eq!(spp, reference, "SCAN++ diverged at eps={eps} mu={mu}");

    for threads in [1usize, 3] {
        let cfg = PpScanConfig::with_threads(threads);
        let pp = ppscan(g, p, &cfg).clustering;
        assert_eq!(
            pp, reference,
            "ppSCAN({threads} threads) diverged at eps={eps} mu={mu}"
        );
        verify::check_clustering(g, p, &pp).unwrap();
    }
}

#[test]
fn golden_example_full_grid() {
    let g = gen::scan_paper_example();
    for eps in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
        for mu in [1, 2, 3, 6] {
            all_algorithms_agree(&g, eps, mu);
        }
    }
}

#[test]
fn pathological_topologies() {
    for g in [
        CsrGraph::empty(0),
        CsrGraph::empty(5),
        gen::path(2),
        gen::star(20),
        gen::complete(10),
        gen::cycle(8),
        gen::grid(5, 5),
        gen::clique_chain(6, 3),
    ] {
        all_algorithms_agree(&g, 0.5, 2);
        all_algorithms_agree(&g, 0.9, 4);
        all_algorithms_agree(&g, 1.0, 1);
    }
}

#[test]
fn scale_free_and_blocky_graphs() {
    all_algorithms_agree(&gen::roll(250, 10, 7), 0.4, 4);
    all_algorithms_agree(&gen::rmat_social(8, 8, 9), 0.3, 3);
    all_algorithms_agree(&gen::planted_partition(4, 20, 0.65, 0.02, 5), 0.5, 3);
}

#[test]
fn mu_exceeding_max_degree_yields_no_cores() {
    let g = gen::roll(100, 6, 1);
    let p = ScanParams::new(0.2, g.max_degree() + 1);
    let out = ppscan(&g, p, &PpScanConfig::with_threads(2));
    assert_eq!(out.clustering.num_cores(), 0);
    assert_eq!(out.clustering.num_clusters(), 0);
    verify::check_clustering(&g, p, &out.clustering).unwrap();
}

#[test]
fn all_kernels_produce_identical_clusterings() {
    let g = gen::planted_partition(3, 25, 0.6, 0.03, 11);
    let p = ScanParams::new(0.5, 3);
    let reference = verify::reference_clustering(&g, p);
    for kernel in Kernel::ALL.into_iter().filter(|k| k.available()) {
        let cfg = PpScanConfig::with_threads(2).kernel(kernel);
        assert_eq!(
            ppscan(&g, p, &cfg).clustering,
            reference,
            "kernel {kernel} diverged"
        );
    }
}

/// Random small graphs × random parameters: the parallel algorithm must
/// match the naive reference exactly. (Formerly a `proptest!` block; now a
/// seeded loop — on failure the printed case parameters replay it.)
#[test]
fn ppscan_matches_reference_on_random_graphs() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::seed_from_u64(0x00d1_ff00 ^ case);
        let seed = rng.gen_index(1000) as u64;
        let n = rng.gen_range(10..60);
        let edge_factor = rng.gen_range(1..6);
        let eps_decile = rng.gen_range(1..10) as u64;
        let mu = rng.gen_range(1..6);
        let g = gen::erdos_renyi(n, n * edge_factor, seed);
        let p = ScanParams::new(eps_decile as f64 / 10.0, mu);
        let reference = verify::reference_clustering(&g, p);
        let cfg = PpScanConfig::with_threads(3).degree_threshold(8);
        let pp = ppscan(&g, p, &cfg).clustering;
        assert_eq!(
            pp,
            reference,
            "case {case}: er(n={n}, m={}, seed={seed}) eps=0.{eps_decile} mu={mu}",
            n * edge_factor
        );
    }
}

/// pSCAN (with and without the dynamic ed-order) matches the reference on
/// random scale-free graphs.
#[test]
fn pscan_matches_reference_on_scale_free() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::seed_from_u64(0x00d1_ee00 ^ case);
        let seed = rng.gen_index(1000) as u64;
        let eps_decile = rng.gen_range(1..10) as u64;
        let mu = rng.gen_range(1..5);
        let g = gen::roll(80, 6, seed);
        let p = ScanParams::new(eps_decile as f64 / 10.0, mu);
        let reference = verify::reference_clustering(&g, p);
        assert_eq!(
            crate::pscan::pscan(&g, p).clustering,
            reference,
            "case {case}: roll(80, 6, {seed}) eps=0.{eps_decile} mu={mu}"
        );
        assert_eq!(
            crate::pscan::pscan_with_order(&g, p, false).clustering,
            reference,
            "case {case}: static order, roll(80, 6, {seed}) eps=0.{eps_decile} mu={mu}"
        );
    }
}

/// Acceptance sweep: the stress driver runs algorithm × kernel × thread
/// count × schedule strategy × (ε, µ) on generated graphs — ≥3 thread
/// counts, all 3 strategies, ≥2 kernels — and every configuration agrees
/// with the reference. On failure the driver's banner carries the shrunk
/// graph and a replayable seed.
#[test]
fn stress_driver_sweep_is_green() {
    let cfg = crate::stress::StressConfig::default();
    assert!(cfg.thread_counts.len() >= 3);
    assert!(cfg.strategies.len() == 3);
    assert!(cfg.kernels.iter().filter(|k| k.available()).count() >= 2);
    let (result, report) = crate::stress::run_stress(&cfg);
    // Persist the seed log next to the stress corpus either way.
    if let Some(dir) = &cfg.corpus_dir {
        let _ = report.write_to_file(dir.join("last-sweep-report.json"));
    }
    let seeds = report
        .extra
        .iter()
        .find(|(k, _)| k == "seeds")
        .and_then(|(_, v)| v.as_arr())
        .expect("sweep report must log seeds");
    match result {
        Ok(stats) => {
            assert_eq!(stats.cases, cfg.cases);
            assert!(stats.checked > 0);
            assert_eq!(seeds.len(), cfg.cases as usize, "every seed logged");
        }
        Err(failure) => panic!("{failure}"),
    }
}

/// The deterministic reference schedule and the parallel schedule produce
/// identical clusterings — golden example and ROLL scale-free graphs.
#[test]
fn sequential_deterministic_matches_parallel() {
    use ppscan_sched::ExecutionStrategy;
    let graphs = [
        gen::scan_paper_example(),
        gen::roll(250, 10, 21),
        gen::roll(120, 6, 22),
    ];
    for (gi, g) in graphs.iter().enumerate() {
        for (eps, mu) in [(0.5, 3), (0.7, 2), (0.35, 4)] {
            let p = ScanParams::new(eps, mu);
            let seq = ppscan(
                g,
                p,
                &PpScanConfig::with_threads(1).strategy(ExecutionStrategy::SequentialDeterministic),
            )
            .clustering;
            for threads in [2usize, 4, 8] {
                let par = ppscan(
                    g,
                    p,
                    &PpScanConfig::with_threads(threads).strategy(ExecutionStrategy::Parallel),
                )
                .clustering;
                assert_eq!(
                    par, seq,
                    "graph {gi}: parallel({threads}) != sequential at eps={eps} mu={mu}"
                );
            }
        }
    }
}
