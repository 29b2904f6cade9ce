//! Differential stress driver for the incremental update path:
//! `incremental(G, ΔE) ≡ from_scratch(G + ΔE)` swept over the generator
//! zoo × execution strategies × batch sizes × seeds. Both layers are
//! checked per case: the maintained [`GsIndex`] must answer every
//! `(ε, µ)` in the grid exactly like an index built from scratch on the
//! edited graph, and [`IncrementalClustering`]'s union-find surgery must
//! materialize the same clustering as a fresh query.
//!
//! The driver is the second client of [`ppscan_core::spine`], which owns
//! the sweep loop, the ddmin pass, the corpus and the seed log; this
//! module keeps the generator zoo, the oracle ([`divergence`]) and
//! [`UpdateCase`]. A divergence is **shrunk** before it is reported:
//! first the op list (ddmin over insert/delete ops), then the base edge
//! list (ddmin with the surviving ops pinned), within a shared predicate
//! budget. The shrunk [`UpdateCase`] is persisted as JSON into the corpus
//! directory [`run_update_stress`] is given (normally
//! `target/update-corpus/`) and [`spine::replay_corpus`] re-runs
//! everything found there — the `replay_update_corpus_is_clean` test
//! keeps fixed bugs self-cleaning and unfixed ones loud, exactly like the
//! core stress corpus.

use crate::IncrementalClustering;
use ppscan_core::params::ScanParams;
use ppscan_core::spine::{self, Case, SweepStats, Unit};
use ppscan_graph::delta::GraphDelta;
use ppscan_graph::rng::SplitMix64;
use ppscan_graph::{gen, CsrGraph, GraphBuilder, VertexId};
use ppscan_gsindex::GsIndex;
use ppscan_obs::json::Json;
use ppscan_obs::RunReport;
use ppscan_sched::{ExecutionStrategy, WorkerPool};
use std::collections::HashSet;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// The generator zoo the sweep covers, by family index.
pub const ZOO: [&str; 11] = [
    "roll",
    "rmat",
    "rmat-social",
    "erdos-renyi",
    "planted-partition",
    "complete",
    "star",
    "path",
    "cycle",
    "grid",
    "clique-chain",
];

/// One insert (`true`) or delete (`false`) op, normalized `u < v`.
pub type Op = (bool, VertexId, VertexId);

/// Deterministically generates a zoo graph for `(family, seed)`, sized
/// so a from-scratch rebuild stays cheap but every structural shape
/// (hubs, bridges, grids, cliques) is represented.
pub fn zoo_graph(family: usize, seed: u64) -> CsrGraph {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_2000);
    match family % ZOO.len() {
        0 => gen::roll(60 + rng.gen_index(60), 6, rng.next_u64()),
        1 => gen::rmat(6, 6, 0.45, 0.22, 0.22, rng.next_u64()),
        2 => gen::rmat_social(6, 6, rng.next_u64()),
        3 => {
            let n = 30 + rng.gen_index(40);
            gen::erdos_renyi(n, n * 3, rng.next_u64())
        }
        4 => gen::planted_partition(3, 10 + rng.gen_index(8), 0.6, 0.06, rng.next_u64()),
        5 => gen::complete(8 + rng.gen_index(6)),
        6 => gen::star(12 + rng.gen_index(20)),
        7 => gen::path(16 + rng.gen_index(30)),
        8 => gen::cycle(16 + rng.gen_index(30)),
        9 => gen::grid(4 + rng.gen_index(4), 4 + rng.gen_index(4)),
        _ => gen::clique_chain(4 + rng.gen_index(3), 2 + rng.gen_index(3)),
    }
}

/// How large an update batch to draw, resolved against the current edge
/// count (never below one op).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchSpec {
    /// Exactly this many ops.
    Fixed(usize),
    /// This fraction of `|E|` ops (the acceptance envelope's "1% of
    /// |E|" point).
    EdgeFraction(f64),
}

impl BatchSpec {
    /// Number of ops to draw for a graph with `num_edges` edges.
    pub fn resolve(&self, num_edges: usize) -> usize {
        match *self {
            BatchSpec::Fixed(k) => k.max(1),
            BatchSpec::EdgeFraction(f) => ((num_edges as f64 * f).round() as usize).max(1),
        }
    }

    /// Stable label for banners and corpus file names.
    pub fn label(&self) -> String {
        match *self {
            BatchSpec::Fixed(k) => format!("fixed-{k}"),
            BatchSpec::EdgeFraction(f) => format!("frac-{f}"),
        }
    }
}

/// Draws a mixed insert/delete batch of (up to) `size` distinct ops
/// against `g`: deletes of existing edges, inserts of random pairs
/// (which may already exist — exercising the no-op path is deliberate).
pub fn random_delta(g: &CsrGraph, size: usize, seed: u64) -> GraphDelta {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut delta = GraphDelta::new();
    let n = g.num_vertices();
    if n < 2 {
        return delta;
    }
    let edges: Vec<(VertexId, VertexId)> = g.undirected_edges().collect();
    let mut used: HashSet<(VertexId, VertexId)> = HashSet::new();
    let mut attempts = 0usize;
    while delta.len() < size && attempts < size * 20 + 50 {
        attempts += 1;
        if !edges.is_empty() && rng.gen_bool(0.5) {
            let (u, v) = edges[rng.gen_index(edges.len())];
            if used.insert((u, v)) {
                delta.delete(u, v).expect("normalized edge");
            }
        } else {
            let u = rng.gen_index(n) as VertexId;
            let v = rng.gen_index(n) as VertexId;
            if u == v {
                continue;
            }
            let (lo, hi) = (u.min(v), u.max(v));
            if used.insert((lo, hi)) {
                delta.insert(lo, hi).expect("no self-loop");
            }
        }
    }
    delta
}

/// Draws a batch like [`random_delta`] but with every endpoint confined
/// to one contiguous vertex window — the locality profile of a real
/// update stream (edits cluster around active entities rather than
/// sampling the whole graph uniformly). The window is centered by the
/// seed and sized `Θ(√size)` so it always offers far more distinct pairs
/// than the batch needs, yet stays a vanishing fraction of the graph:
/// this is the regime where localized recomputation wins.
pub fn hot_delta(g: &CsrGraph, size: usize, seed: u64) -> GraphDelta {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x407_5307);
    let mut delta = GraphDelta::new();
    let n = g.num_vertices();
    if n < 2 {
        return delta;
    }
    // ~4√size vertices ⇒ ≥ 8·size candidate pairs inside the window.
    let window = ((size as f64).sqrt() as usize * 4).clamp(16, n);
    let w0 = rng.gen_index(n - window + 1);
    let mut used: HashSet<(VertexId, VertexId)> = HashSet::new();
    let mut attempts = 0usize;
    while delta.len() < size && attempts < size * 20 + 50 {
        attempts += 1;
        let u = (w0 + rng.gen_index(window)) as VertexId;
        let v = (w0 + rng.gen_index(window)) as VertexId;
        if u == v {
            continue;
        }
        let (lo, hi) = (u.min(v), u.max(v));
        if !used.insert((lo, hi)) {
            continue;
        }
        // Deleting present edges and inserting absent ones keeps every
        // draw an effective edit, so batch size ≈ applied size.
        if g.has_edge(lo, hi) {
            delta.delete(lo, hi).expect("normalized edge");
        } else {
            delta.insert(lo, hi).expect("no self-loop");
        }
    }
    delta
}

/// Base seed every (family, seed index) graph seed derives from.
const MASTER_SEED: u64 = 0x00ed_1700;
/// Seeds swept per generator family.
const SEEDS_PER_GENERATOR: u64 = 5;
/// Execution strategies driven through the repair path's pool.
const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Parallel,
    ExecutionStrategy::SequentialDeterministic,
    ExecutionStrategy::AdversarialSeeded { seed: 0xdead_beef },
];
/// Batch sizes: the acceptance envelope's {1, 16, 1% of |E|}.
const BATCHES: [BatchSpec; 3] = [
    BatchSpec::Fixed(1),
    BatchSpec::Fixed(16),
    BatchSpec::EdgeFraction(0.01),
];
/// (ε, µ) grid checked per batch.
const PARAMS: [(f64, usize); 2] = [(0.4, 2), (0.65, 3)];
/// Worker threads for both incremental and from-scratch sides.
const THREADS: usize = 2;
/// Reruns when probing a schedule-dependent failure while shrinking.
const REPEATS: usize = 3;
/// Maximum predicate evaluations the shrinker may spend.
const SHRINK_BUDGET: usize = 80;

/// A shrunk, replayable divergence between the incremental and
/// from-scratch paths.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateCase {
    /// Zoo family index (into [`ZOO`]).
    pub family: usize,
    /// Seed the base graph derived from.
    pub graph_seed: u64,
    /// Execution strategy of the incremental side's pool.
    pub strategy: ExecutionStrategy,
    /// Worker threads.
    pub threads: usize,
    /// Batch label ([`BatchSpec::label`]).
    pub batch: String,
    /// Vertex count of the base graph (kept explicit: ops may reference
    /// vertices the shrunk edge list no longer mentions).
    pub num_vertices: usize,
    /// Shrunk base graph (the graph the failing delta applied *to*).
    pub edges: Vec<(VertexId, VertexId)>,
    /// Shrunk op list.
    pub ops: Vec<Op>,
    /// (ε, µ) grid the divergence was detected under.
    pub params: Vec<(f64, usize)>,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl UpdateCase {
    /// Rebuilds the embedded base graph.
    pub fn graph(&self) -> CsrGraph {
        GraphBuilder::new()
            .ensure_vertices(self.num_vertices)
            .extend_edges(self.edges.iter().copied())
            .build()
    }

    /// Rebuilds the embedded delta. Ill-formed ops (possible only in a
    /// hand-edited corpus entry) are dropped rather than panicking.
    pub fn delta(&self) -> GraphDelta {
        let mut delta = GraphDelta::new();
        for &(ins, u, v) in &self.ops {
            let _ = if ins {
                delta.insert(u, v)
            } else {
                delta.delete(u, v)
            };
        }
        delta
    }

    /// Family name (defensive against out-of-range indices in edited
    /// corpus files).
    pub fn family_name(&self) -> &'static str {
        ZOO[self.family % ZOO.len()]
    }
}

impl Case for UpdateCase {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("family".to_string(), Json::from_u64(self.family as u64)),
            (
                "family_name".to_string(),
                Json::Str(self.family_name().to_string()),
            ),
            ("graph_seed".to_string(), Json::from_u64(self.graph_seed)),
            ("strategy".to_string(), Json::Str(self.strategy.to_string())),
            ("threads".to_string(), Json::from_u64(self.threads as u64)),
            ("batch".to_string(), Json::Str(self.batch.clone())),
            (
                "num_vertices".to_string(),
                Json::from_u64(self.num_vertices as u64),
            ),
            ("edges".to_string(), spine::edges_to_json(&self.edges)),
            (
                "ops".to_string(),
                Json::Arr(
                    self.ops
                        .iter()
                        .map(|&(ins, u, v)| {
                            Json::Arr(vec![
                                Json::Str(if ins { "insert" } else { "delete" }.to_string()),
                                Json::from_u64(u as u64),
                                Json::from_u64(v as u64),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "params".to_string(),
                Json::Arr(
                    self.params
                        .iter()
                        .map(|&(eps, mu)| {
                            Json::Arr(vec![Json::Num(eps), Json::from_u64(mu as u64)])
                        })
                        .collect(),
                ),
            ),
            ("detail".to_string(), Json::Str(self.detail.clone())),
        ])
    }

    /// Also `None` on `threads: 0` or on a (ε, µ) entry that
    /// [`ScanParams::checked`] rejects — each would panic inside the
    /// replayed run. A `step` field (written by earlier versions) is
    /// ignored.
    fn from_json(json: &Json) -> Option<UpdateCase> {
        let mut ops = Vec::new();
        for o in json.get("ops")?.as_arr()? {
            let trip = o.as_arr()?;
            if trip.len() != 3 {
                return None;
            }
            let ins = match trip[0].as_str()? {
                "insert" => true,
                "delete" => false,
                _ => return None,
            };
            ops.push((
                ins,
                u32::try_from(trip[1].as_u64()?).ok()?,
                u32::try_from(trip[2].as_u64()?).ok()?,
            ));
        }
        let mut params = Vec::new();
        for p in json.get("params")?.as_arr()? {
            let pair = p.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            let (eps, mu) = (pair[0].as_f64()?, usize::try_from(pair[1].as_u64()?).ok()?);
            ScanParams::checked(eps, mu).ok()?;
            params.push((eps, mu));
        }
        Some(UpdateCase {
            family: usize::try_from(json.get("family")?.as_u64()?).ok()?,
            graph_seed: json.get("graph_seed")?.as_u64()?,
            strategy: ExecutionStrategy::parse(json.get("strategy")?.as_str()?)?,
            threads: usize::try_from(json.get("threads")?.as_u64()?)
                .ok()
                .filter(|&t| t >= 1)?,
            batch: json.get("batch")?.as_str()?.to_string(),
            num_vertices: usize::try_from(json.get("num_vertices")?.as_u64()?).ok()?,
            edges: spine::edges_from_json(json.get("edges")?)?,
            ops,
            params,
            detail: json.get("detail")?.as_str()?.to_string(),
        })
    }

    fn corpus_file_name(&self) -> String {
        let strategy = self.strategy.to_string().replace(['(', ')'], "-");
        format!(
            "case-{:016x}-{}-{}-{}-t{}.json",
            self.graph_seed,
            self.family_name(),
            strategy,
            self.batch,
            self.threads,
        )
    }

    fn reproduces(&self, repeats: usize) -> bool {
        let g = self.graph();
        let delta = self.delta();
        (0..repeats.max(1))
            .any(|_| divergence(&g, &delta, self.strategy, self.threads, &self.params).is_some())
    }
}

impl fmt::Display for UpdateCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "update-stress failure: family={} graph_seed={:#x} strategy={} threads={} batch={}",
            self.family_name(),
            self.graph_seed,
            self.strategy,
            self.threads,
            self.batch,
        )?;
        writeln!(f, "detail: {}", self.detail)?;
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|&(ins, u, v)| format!("{}({u},{v})", if ins { "+" } else { "-" }))
            .collect();
        writeln!(f, "shrunk ops: [{}]", ops.join(", "))?;
        writeln!(
            f,
            "shrunk base graph ({} vertices): {:?}",
            self.num_vertices, self.edges
        )?;
        write!(f, "corpus file: {}", self.corpus_file_name())
    }
}

/// The differential check itself: applies `delta` to `g` incrementally
/// (index maintenance under `strategy`'s pool, then cluster surgery per
/// parameter point) and compares every layer against a from-scratch
/// rebuild on the edited graph. `Some(detail)` on the first divergence.
pub fn divergence(
    g: &CsrGraph,
    delta: &GraphDelta,
    strategy: ExecutionStrategy,
    threads: usize,
    params: &[(f64, usize)],
) -> Option<String> {
    let graph = Arc::new(g.clone());
    let pool = WorkerPool::with_strategy(threads, strategy);
    let base = GsIndex::build(Arc::clone(&graph), threads);
    let (updated, stats) = match base.apply_delta_with(delta, &pool) {
        Ok(x) => x,
        Err(e) => return Some(format!("apply_delta failed: {e}")),
    };
    if stats.applied_edges > delta.len() {
        return Some(format!(
            "applied_edges {} exceeds batch size {}",
            stats.applied_edges,
            delta.len()
        ));
    }
    let fresh = GsIndex::build(Arc::clone(updated.graph()), threads);
    for &(eps, mu) in params {
        let p = ScanParams::new(eps, mu);
        if updated.query(p) != fresh.query(p) {
            return Some(format!(
                "index query diverged from from-scratch rebuild at {}",
                p.label()
            ));
        }
        let mut ic = IncrementalClustering::with_pool(
            Arc::clone(&graph),
            p,
            WorkerPool::with_strategy(threads, strategy),
        );
        if let Err(e) = ic.apply(delta) {
            return Some(format!("cluster repair failed at {}: {e}", p.label()));
        }
        if ic.clustering() != fresh.query(p) {
            return Some(format!(
                "incremental clustering diverged from from-scratch query at {}",
                p.label()
            ));
        }
    }
    None
}

/// Runs the full sweep through [`spine::sweep`]: every generator family ×
/// 5 seeds, each unit checking every strategy × batch spec. `Ok` carries coverage statistics; `Err` carries the first
/// divergence, already shrunk and persisted into `corpus_dir` (`None`
/// disables persistence). The [`RunReport`] logs every (family, seed)
/// unit under `extra["seeds"]` and comes back even on failure.
pub fn run_update_stress(
    corpus_dir: Option<&Path>,
) -> (Result<SweepStats, Box<UpdateCase>>, RunReport) {
    let mut report = RunReport::new("update-stress");
    report.push_extra("master_seed", Json::from_u64(MASTER_SEED));
    report.push_extra("seeds_per_generator", Json::from_u64(SEEDS_PER_GENERATOR));
    report.push_extra("generators", Json::from_u64(ZOO.len() as u64));
    report.push_extra("threads", Json::from_u64(THREADS as u64));
    let units = ZOO.iter().enumerate().flat_map(|(family, &name)| {
        (0..SEEDS_PER_GENERATOR).map(move |si| {
            let seed = graph_seed(family, si);
            Unit {
                seed,
                fields: vec![("family".to_string(), Json::Str(name.to_string()))],
                check: move |checked: &mut u64| check_unit(family, seed, checked),
            }
        })
    });
    spine::sweep(report, units, corpus_dir, false)
}

/// Derives the graph seed for `(family, seed index)` — the unit a
/// failure banner pins.
fn graph_seed(family: usize, si: u64) -> u64 {
    MASTER_SEED ^ ((family as u64) << 32) ^ si.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Checks one (family, seed) unit: every strategy × batch spec, each
/// delta against a from-scratch rebuild of the edited graph, counting
/// each delta into `checked`.
fn check_unit(family: usize, seed: u64, checked: &mut u64) -> Result<(), Box<UpdateCase>> {
    let g = zoo_graph(family, seed);
    for strategy in STRATEGIES {
        for (bi, batch) in BATCHES.iter().enumerate() {
            // The delta seed is independent of the strategy, so every
            // strategy faces the same batches.
            let delta_seed = seed ^ ((bi as u64) << 16) ^ 0xd17a;
            let delta = random_delta(&g, batch.resolve(g.num_edges()), delta_seed);
            if delta.is_empty() {
                continue;
            }
            *checked += 1;
            if let Some(detail) = divergence(&g, &delta, strategy, THREADS, &PARAMS) {
                let ops = delta
                    .inserts()
                    .iter()
                    .map(|&(u, v)| (true, u, v))
                    .chain(delta.deletes().iter().map(|&(u, v)| (false, u, v)))
                    .collect();
                return Err(shrunk(UpdateCase {
                    family,
                    graph_seed: seed,
                    strategy,
                    threads: THREADS,
                    batch: batch.label(),
                    num_vertices: g.num_vertices(),
                    edges: g.undirected_edges().collect(),
                    ops,
                    params: PARAMS.to_vec(),
                    detail,
                }));
            }
        }
    }
    Ok(())
}

/// Shrinks a divergence: ddmin over the op list first, then over the
/// base edge list with the surviving ops pinned, within one budget.
fn shrunk(mut case: UpdateCase) -> Box<UpdateCase> {
    let mut budget = SHRINK_BUDGET;
    // An empty batch is not a failing update.
    case.ops = spine::shrink(case.ops.clone(), &mut budget, &|ops| {
        let candidate = UpdateCase {
            ops: ops.to_vec(),
            ..case.clone()
        };
        !ops.is_empty() && candidate.reproduces(REPEATS)
    });
    case.edges = spine::shrink(case.edges.clone(), &mut budget, &|edges| {
        let candidate = UpdateCase {
            edges: edges.to_vec(),
            ..case.clone()
        };
        candidate.reproduces(REPEATS)
    });
    Box::new(case)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance sweep: every strategy × batch sizes
    /// {1, 16, 1% of |E|} × 5 seeds per generator family, incremental
    /// against from-scratch at every layer.
    #[test]
    fn differential_sweep_is_clean() {
        let (result, report) = run_update_stress(None);
        let stats = result.unwrap_or_else(|case| panic!("{case}"));
        // 11 families × 5 seeds, each checking 3 strategies × 3 batches
        // (no batch comes out empty).
        assert_eq!(
            stats,
            SweepStats {
                cases: 55,
                checked: 495
            }
        );
        let extra = |k: &str| report.extra.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let seeds = extra("seeds").unwrap().as_arr().unwrap();
        assert_eq!(seeds.len(), 55);
        assert_eq!(seeds[0].get("family").unwrap().as_str(), Some(ZOO[0]));
        assert_eq!(seeds[0].get("checked").unwrap().as_u64(), Some(9));
        assert_eq!(extra("checked").unwrap().as_u64(), Some(495));
    }

    #[test]
    fn replay_update_corpus_is_clean() {
        let dir = spine::corpus_dir("update-corpus");
        let replayed = spine::replay_corpus::<UpdateCase>(&dir, 3).expect("corpus must parse");
        let failing: Vec<String> = replayed
            .iter()
            .filter(|(_, still)| *still)
            .map(|(c, _)| c.to_string())
            .collect();
        assert!(
            failing.is_empty(),
            "update corpus entries still reproduce:\n{}",
            failing.join("\n\n")
        );
    }

    fn sample_case() -> UpdateCase {
        UpdateCase {
            family: 4,
            graph_seed: 0xfeed_beef,
            strategy: ExecutionStrategy::AdversarialSeeded { seed: 7 },
            threads: 3,
            batch: "fixed-16".to_string(),
            num_vertices: 9,
            edges: vec![(0, 1), (1, 2), (2, 8)],
            ops: vec![(true, 0, 8), (false, 1, 2)],
            params: vec![(0.4, 2), (0.65, 3)],
            detail: "synthetic".to_string(),
        }
    }

    #[test]
    fn case_json_roundtrips() {
        let case = sample_case();
        let text = case.to_json().to_pretty_string();
        let parsed = ppscan_obs::json::parse(&text).expect("valid json");
        assert_eq!(UpdateCase::from_json(&parsed), Some(case.clone()));
        // Entries written while the sweep still chained batches carry a
        // `step` field; it is ignored.
        let Json::Obj(mut fields) = parsed else {
            unreachable!("a case serializes to an object")
        };
        fields.push(("step".to_string(), Json::from_u64(0)));
        assert_eq!(UpdateCase::from_json(&Json::Obj(fields)), Some(case));
    }

    #[test]
    fn healthy_case_replays_clean() {
        // A persisted case whose delta no longer diverges loads back and
        // reads as not reproducing.
        let dir = spine::corpus_dir("update-corpus-test");
        let _ = std::fs::remove_dir_all(&dir);
        let case = sample_case();
        spine::persist(&dir, &case);
        let replayed = spine::replay_corpus::<UpdateCase>(&dir, 2).unwrap();
        assert_eq!(replayed, vec![(case, false)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_rejects_out_of_range_entries() {
        // `threads: 0`, µ = 0 and ε = 1.5 would each panic inside the
        // replayed run; replay reports the entry as malformed.
        let dir = spine::corpus_dir("update-corpus-bad-test");
        let grid = |eps, mu| Json::Arr(vec![Json::Arr(vec![Json::Num(eps), Json::from_u64(mu)])]);
        for (key, value) in [
            ("threads", Json::from_u64(0)),
            ("params", grid(0.4, 0)),
            ("params", grid(1.5, 2)),
        ] {
            let Json::Obj(fields) = sample_case().to_json() else {
                unreachable!("a case serializes to an object")
            };
            let edited: Vec<(String, Json)> = fields
                .into_iter()
                .map(|(k, v)| if k == key { (k, value.clone()) } else { (k, v) })
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("case-edited.json");
            std::fs::write(&path, Json::Obj(edited).to_pretty_string()).unwrap();
            let err = spine::replay_corpus::<UpdateCase>(&dir, 1).unwrap_err();
            assert_eq!(
                err,
                format!("malformed corpus entry {}", path.display()),
                "{key}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_spec_resolution() {
        assert_eq!(BatchSpec::Fixed(16).resolve(4), 16);
        assert_eq!(BatchSpec::EdgeFraction(0.01).resolve(5000), 50);
        assert_eq!(BatchSpec::EdgeFraction(0.01).resolve(10), 1, "never zero");
        assert_eq!(BatchSpec::EdgeFraction(0.01).label(), "frac-0.01");
    }

    #[test]
    fn random_delta_is_valid_and_mixed() {
        let g = zoo_graph(4, 99);
        let delta = random_delta(&g, 32, 1234);
        assert!(!delta.is_empty());
        assert!(delta.validate(&g).is_ok());
        assert!(!delta.deletes().is_empty(), "should draw deletions");
        assert!(!delta.inserts().is_empty(), "should draw insertions");
    }

    #[test]
    fn hot_delta_stays_in_a_small_window_and_is_effective() {
        let g = zoo_graph(0, 7); // roll family — the bench's workload
        let delta = hot_delta(&g, 24, 42);
        assert!(!delta.is_empty());
        assert!(delta.validate(&g).is_ok());
        let endpoints: Vec<VertexId> = delta
            .inserts()
            .iter()
            .chain(delta.deletes().iter())
            .flat_map(|&(u, v)| [u, v])
            .collect();
        let lo = *endpoints.iter().min().unwrap();
        let hi = *endpoints.iter().max().unwrap();
        assert!(
            (hi - lo) as usize <= ((24f64.sqrt() as usize) * 4).max(16),
            "window [{lo}, {hi}] wider than the documented bound"
        );
        // Every draw targets a present edge (delete) or an absent one
        // (insert), so the whole batch is effective.
        for &(u, v) in delta.deletes() {
            assert!(g.has_edge(u, v));
        }
        for &(u, v) in delta.inserts() {
            assert!(!g.has_edge(u, v));
        }
    }

    #[test]
    fn hot_delta_differential_across_strategies() {
        // The localized-workload analogue of the main sweep, kept small:
        // the rev-index splice and positional core-order diff both take
        // their fast paths here, so a bug in either diverges loudly.
        for family in [0usize, 3, 9] {
            let g = zoo_graph(family, 11);
            for batch in [4usize, 24] {
                let delta = hot_delta(&g, batch, 0x407 + batch as u64);
                for strategy in [
                    ExecutionStrategy::Parallel,
                    ExecutionStrategy::AdversarialSeeded { seed: 3 },
                ] {
                    if let Some(detail) =
                        divergence(&g, &delta, strategy, 2, &[(0.4, 2), (0.65, 3)])
                    {
                        panic!(
                            "hot delta diverged ({}, batch {batch}): {detail}",
                            ZOO[family]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zoo_covers_every_family_with_nontrivial_graphs() {
        for (family, &name) in ZOO.iter().enumerate() {
            let g = zoo_graph(family, 5);
            assert!(g.num_vertices() >= 8, "{name} too small");
            assert!(g.num_edges() >= 7, "{name} too sparse");
        }
    }
}
