//! Integration tests for the GS*-Index crate against the rest of the
//! workspace: index queries must agree with every algorithm on every
//! parameter setting, including after an I/O round trip.

use ppscan::gsindex::GsIndex;
use ppscan::prelude::*;
use ppscan_core::verify;
use ppscan_graph::{gen, io};
use std::sync::Arc;

#[test]
fn index_agrees_with_all_algorithms() {
    let g = Arc::new(gen::planted_partition(4, 22, 0.55, 0.03, 17));
    let index = GsIndex::build(Arc::clone(&g), 2);
    for eps10 in [2u32, 5, 8] {
        for mu in [2usize, 4, 7] {
            let p = ScanParams::new(eps10 as f64 / 10.0, mu);
            let from_index = index.query(p);
            assert_eq!(from_index, ppscan_core::scan::scan(&g, p).clustering);
            assert_eq!(from_index, ppscan_core::scanpp::scanpp(&g, p));
            assert_eq!(
                from_index,
                ppscan_core::ppscan::ppscan(&g, p, &PpScanConfig::with_threads(2)).clustering
            );
            verify::check_clustering(&g, p, &from_index).unwrap();
        }
    }
}

#[test]
fn index_survives_io_roundtrip_of_graph() {
    let g = gen::roll(300, 10, 23);
    let mut buf = Vec::new();
    io::write_binary(&g, &mut buf).unwrap();
    let g2 = io::read_binary(&buf[..]).unwrap();
    // Index built on the reloaded graph answers identically.
    let a = GsIndex::build(Arc::new(g), 2);
    let b = GsIndex::build(Arc::new(g2), 2);
    let p = ScanParams::new(0.4, 3);
    assert_eq!(a.query(p), b.query(p));
}

#[test]
fn index_queries_are_monotone_in_epsilon() {
    let index = GsIndex::build(Arc::new(gen::roll(400, 12, 5)), 2);
    let mut last = usize::MAX;
    for eps10 in 1..=9u32 {
        let c = index.query(ScanParams::new(eps10 as f64 / 10.0, 4));
        assert!(c.num_cores() <= last);
        last = c.num_cores();
    }
}

/// Regression (non-core attachment): a border vertex that is ε-similar
/// to cores of *two* different clusters must get the same multi-cluster
/// attachment — and the same hub/outlier classification once it falls
/// below ε — from the index query and from pscan.
///
/// The graph: two K4s `{0,1,2,3}` and `{5,6,7,8}` bridged by vertex 4
/// (edges 3–4 and 4–5). σ(4,3) = σ(4,5) = 2/√15 ≈ 0.516, so at ε = 0.5
/// vertex 4 attaches to both clusters, and at ε = 0.6 it detaches and
/// becomes a hub between them.
#[test]
fn border_vertex_attachment_matches_pscan_in_both_clusters() {
    let mut b = GraphBuilder::new();
    for base in [0u32, 5] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b = b.add_edge(base + i, base + j);
            }
        }
    }
    let g = Arc::new(b.add_edge(3, 4).add_edge(4, 5).build());
    let index = GsIndex::build(Arc::clone(&g), 2);

    // ε = 0.5, µ = 3: vertex 4 is non-core (only 2 ε-similar
    // neighbors) but ε-similar to cores in two different clusters.
    let p = ScanParams::new(0.5, 3);
    let from_index = index.query(p);
    let from_pscan = ppscan_core::pscan::pscan(&g, p).clustering;
    assert_eq!(from_index, from_pscan);
    assert_eq!(from_index.num_clusters(), 2);
    assert_eq!(
        from_index.memberships(4).len(),
        2,
        "the bridge vertex belongs to both clusters"
    );
    assert_eq!(
        from_index.classify_unclustered(&g),
        from_pscan.classify_unclustered(&g)
    );
    assert_eq!(
        from_index.classify_unclustered(&g)[4],
        UnclusteredClass::Clustered
    );

    // ε = 0.6: σ(4, ·) < ε, so vertex 4 is unclustered — and a hub,
    // since its neighbors span two clusters. Index and pscan agree.
    let p = ScanParams::new(0.6, 3);
    let from_index = index.query(p);
    let from_pscan = ppscan_core::pscan::pscan(&g, p).clustering;
    assert_eq!(from_index, from_pscan);
    assert!(from_index.memberships(4).is_empty());
    assert_eq!(
        from_index.classify_unclustered(&g),
        from_pscan.classify_unclustered(&g)
    );
    assert_eq!(
        from_index.classify_unclustered(&g)[4],
        UnclusteredClass::Hub
    );

    // Attachment is deterministic: rebuilding and re-querying yields
    // byte-identical clusterings (noncore pairs are sorted + deduped).
    let again = GsIndex::build(g, 3).query(p);
    assert_eq!(again, from_index);
}

/// Differential property test: `GsIndex::query` must agree with `pscan`
/// on every generator-zoo graph over a seeded-random (ε, µ) grid that
/// always includes the ε = 1.0 and µ = 1 extremes.
#[test]
fn index_query_equals_pscan_over_generator_zoo() {
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    let zoo: Vec<(&str, ppscan_graph::CsrGraph)> = vec![
        ("roll", gen::roll(220, 8, 3)),
        ("rmat", gen::rmat_social(7, 6, 5)),
        ("erdos_renyi", gen::erdos_renyi(180, 900, 7)),
        (
            "planted_partition",
            gen::planted_partition(3, 18, 0.5, 0.05, 11),
        ),
        ("complete", gen::complete(12)),
        ("star", gen::star(24)),
        ("path", gen::path(40)),
        ("cycle", gen::cycle(36)),
        ("grid", gen::grid(7, 7)),
        ("clique_chain", gen::clique_chain(5, 4)),
        ("scan_paper_example", gen::scan_paper_example()),
    ];

    let mut rng = 0xDECAF_u64;
    for (name, g) in &zoo {
        let index = GsIndex::build(Arc::new(g.clone()), 2);
        let max_mu = index.max_mu();
        // Two seeded-random draws plus the boundary pairs.
        let mut grid = vec![(1.0f64, 1usize), (1.0, max_mu.max(1)), (0.5, 1)];
        for _ in 0..2 {
            let eps = 0.05 + (splitmix64(&mut rng) % 95) as f64 / 100.0;
            let mu = 1 + (splitmix64(&mut rng) as usize) % (max_mu + 2);
            grid.push((eps, mu));
        }
        for (eps, mu) in grid {
            let p = ScanParams::new(eps, mu);
            let from_index = index.query(p);
            let from_pscan = ppscan_core::pscan::pscan(g, p).clustering;
            assert_eq!(
                from_index, from_pscan,
                "{name}: query(ε={eps}, µ={mu}) diverged from pscan"
            );
            assert_eq!(
                from_index.classify_unclustered(g),
                from_pscan.classify_unclustered(g),
                "{name}: classification diverged at (ε={eps}, µ={mu})"
            );
        }
    }
}

#[test]
fn index_handles_every_mu_up_to_max_degree() {
    let g = Arc::new(gen::clique_chain(6, 2));
    let index = GsIndex::build(Arc::clone(&g), 1);
    for mu in 1..=index.max_mu() + 2 {
        let c = index.query(ScanParams::new(0.5, mu));
        let expect = ppscan_core::pscan::pscan(&g, ScanParams::new(0.5, mu)).clustering;
        assert_eq!(c, expect, "mu = {mu}");
    }
}
