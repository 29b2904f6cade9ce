//! Differential stress driver: sweeps algorithm × kernel × thread count ×
//! schedule strategy × (ε, µ) over seeded random graphs, validating every
//! result against the from-first-principles reference (`verify`). On a
//! mismatch it **shrinks** the failing graph — first to a (locally)
//! minimal edge list, then to a minimal vertex subset with ids remapped
//! dense — and reports a replayable case — schedule bugs become
//! one-command reproductions instead of once-in-a-hundred CI flakes.
//! With [`StressConfig::race_detection`] the sweep additionally runs
//! every case under the FastTrack happens-before detector and embeds
//! any detected race in the run report.
//!
//! The driver is a client of [`crate::spine`], which owns the sweep
//! loop, the ddmin pass, the corpus and the seed log; this module keeps
//! the generator ([`case_graph`]), the oracle and [`FailingCase`].
//!
//! # Replaying a failure
//!
//! A failure prints a banner like
//!
//! ```text
//! stress failure: case_seed=0xd1ab0003 algorithm=ppscan kernel=merge-early
//! threads=4 strategy=adversarial(3735928559) eps=0.5 mu=3
//! shrunk graph (7 vertices): [(0, 1), (0, 2), ...]
//! replay: ppscan_core::stress::replay_case(0xd1ab0003, &config)
//! ```
//!
//! and the shrunk edge list is embedded in the [`FailingCase`], so the
//! exact graph is available even without the generator. `replay_case`
//! re-runs every configuration of one case under the same `StressConfig`;
//! the failing configuration is fully pinned by the banner fields.
//!
//! # Failure corpus
//!
//! Beyond the banner, every shrunk failure is persisted as JSON into
//! [`StressConfig::corpus_dir`] (default `target/stress-corpus/`).
//! [`spine::replay_corpus`] reloads everything found there and re-runs
//! each case's pinned configuration — the `replay_corpus_is_clean` test
//! turns any lingering corpus entry that still reproduces into a hard
//! test failure, so fixed bugs clean themselves out of CI while unfixed
//! ones stay loud.
//!
//! [`run_stress`] returns the sweep's [`RunReport`] next to its result:
//! one `seeds` entry per case (accepted or failing) plus the failure
//! payload, for the machine-readable run reports the bench harness
//! aggregates.

use crate::params::ScanParams;
use crate::ppscan::{ppscan, PpScanConfig};
use crate::result::Clustering;
use crate::spine::{self, Case, SweepStats, Unit};
use crate::verify;
use ppscan_graph::builder::from_edges;
use ppscan_graph::rng::SplitMix64;
use ppscan_graph::{gen, CsrGraph, VertexId};
use ppscan_intersect::Kernel;
use ppscan_obs::json::Json;
use ppscan_obs::RunReport;
use ppscan_sched::ExecutionStrategy;
use std::path::PathBuf;

/// Runs one algorithm under a pinned configuration. The sequential
/// baselines ignore the config; the parallel ones read its thread count.
type RunFn = fn(&CsrGraph, ScanParams, &PpScanConfig) -> Clustering;
/// Edge-list failure predicate used by the shrinker.
type FailsFn<'a> = &'a dyn Fn(&[(VertexId, VertexId)]) -> bool;

/// The one mapping from algorithm name to runner, in sweep order: the
/// sweep, the shrinker and replay all run an algorithm through it. The
/// flag marks the algorithms that take a thread count.
static ALGORITHMS: [(&str, bool, RunFn); 6] = [
    ("scan", false, |g, p, _| crate::scan::scan(g, p).clustering),
    ("pscan", false, |g, p, _| {
        crate::pscan::pscan(g, p).clustering
    }),
    ("scanpp", false, |g, p, _| crate::scanpp::scanpp(g, p)),
    ("scanxp", true, |g, p, c| {
        crate::scanxp::scanxp(g, p, c.threads)
    }),
    ("anyscan", true, |g, p, c| {
        crate::anyscan::anyscan(g, p, c.threads)
    }),
    ("ppscan", true, |g, p, c| ppscan(g, p, c).clustering),
];

/// Scheduler degree threshold of every ppSCAN run the driver makes —
/// sweep, shrinker and replay alike. Deliberately tiny so every few
/// vertices form a task and the schedule space is rich.
const DEGREE_THRESHOLD: u64 = 8;
/// Reruns per configuration when probing a schedule-dependent failure
/// during shrinking (a racy mismatch may need several attempts to
/// re-manifest).
const REPEATS: usize = 3;
/// Maximum predicate evaluations the shrinker may spend.
const SHRINK_BUDGET: usize = 120;

/// What the stress driver sweeps. The defaults satisfy the harness's
/// acceptance envelope: 3 thread counts × all 3 strategies × 3 kernels.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Base seed; case `i` uses `master_seed + i`.
    pub master_seed: u64,
    /// Number of random graphs to sweep.
    pub cases: u64,
    /// Thread counts for the parallel algorithms.
    pub thread_counts: Vec<usize>,
    /// Schedule strategies for ppSCAN.
    pub strategies: Vec<ExecutionStrategy>,
    /// `CompSim` kernels for ppSCAN.
    pub kernels: Vec<Kernel>,
    /// (ε, µ) grid.
    pub params: Vec<(f64, usize)>,
    /// Also differential-test the sequential baselines (SCAN, pSCAN,
    /// SCAN++) and the parallel non-ppSCAN baselines per case.
    pub check_baselines: bool,
    /// Where shrunk failing cases are persisted as JSON (`None` disables
    /// persistence, e.g. for tests that provoke failures on purpose).
    pub corpus_dir: Option<PathBuf>,
    /// Run each case inside a [`ppscan_obs::race::DetectionSession`]:
    /// the scheduler's fork/join/steal edges (and any traced atomics in
    /// the code under test) feed the FastTrack happens-before detector,
    /// and every detected race is embedded in the sweep's
    /// [`RunReport::races`]. A clean sweep must stay at zero races —
    /// the nightly full sweep and the `race_axis_sweep_is_clean` smoke
    /// test assert exactly that. Off by default: detection serializes
    /// concurrent sessions process-wide and adds per-dispatch clock
    /// work.
    pub race_detection: bool,
}

impl Default for StressConfig {
    fn default() -> Self {
        Self {
            master_seed: 0xd1ab_0000,
            cases: 6,
            thread_counts: vec![1, 2, 4],
            strategies: vec![
                ExecutionStrategy::Parallel,
                ExecutionStrategy::SequentialDeterministic,
                ExecutionStrategy::AdversarialSeeded { seed: 0xdead_beef },
            ],
            kernels: vec![Kernel::MergeEarly, Kernel::auto(), Kernel::Adaptive],
            params: vec![(0.3, 2), (0.5, 3), (0.8, 4)],
            check_baselines: true,
            corpus_dir: Some(spine::corpus_dir("stress-corpus")),
            race_detection: false,
        }
    }
}

/// A reproduced-and-shrunk differential failure.
#[derive(Clone, Debug)]
pub struct FailingCase {
    /// Seed regenerating the original (pre-shrink) graph via
    /// [`case_graph`].
    pub case_seed: u64,
    /// Which algorithm diverged from the reference.
    pub algorithm: &'static str,
    /// ppSCAN kernel (ppSCAN failures only).
    pub kernel: Option<Kernel>,
    /// Thread count (parallel algorithms only).
    pub threads: Option<usize>,
    /// Schedule strategy (ppSCAN failures only).
    pub strategy: Option<ExecutionStrategy>,
    /// Failing ε.
    pub eps: f64,
    /// Failing µ.
    pub mu: usize,
    /// Shrunk failing graph as an undirected edge list. Both passes have
    /// run: edge-level ddmin, then vertex-subset dropping with ids
    /// remapped dense — so these ids generally differ from the original
    /// graph's.
    pub edges: Vec<(VertexId, VertexId)>,
    /// First divergence detail from the verifier.
    pub detail: String,
}

impl std::fmt::Display for FailingCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stress failure: case_seed={:#x} algorithm={}",
            self.case_seed, self.algorithm
        )?;
        if let Some(k) = self.kernel {
            write!(f, " kernel={k}")?;
        }
        if let Some(t) = self.threads {
            write!(f, " threads={t}")?;
        }
        if let Some(s) = self.strategy {
            write!(f, " strategy={s}")?;
        }
        writeln!(f, " eps={} mu={}", self.eps, self.mu)?;
        writeln!(f, "shrunk graph: {:?}", self.edges)?;
        writeln!(f, "detail: {}", self.detail)?;
        writeln!(
            f,
            "replay: ppscan_core::stress::replay_case({:#x}, &config)",
            self.case_seed
        )?;
        writeln!(f, "ready-to-paste regression test:")?;
        write!(f, "{}", self.regression_test_body())
    }
}

impl FailingCase {
    /// Renders a ready-to-paste `#[test]` function pinning this failing
    /// configuration. Pasted into any module of a crate depending on
    /// `ppscan-core` (the stress test module is the natural home), it
    /// turns the shrunk reproduction into a permanent regression test:
    /// the test re-runs the pinned configuration on the embedded graph
    /// and fails while the divergence still manifests. The same snippet
    /// is embedded in the failure banner and in the corpus JSON entry.
    pub fn regression_test_body(&self) -> String {
        let kernel = match self.kernel {
            Some(k) => format!("Some(ppscan_intersect::Kernel::{k:?})"),
            None => "None".to_string(),
        };
        let strategy = match self.strategy {
            Some(s) => format!("Some(ppscan_sched::ExecutionStrategy::{s:?})"),
            None => "None".to_string(),
        };
        format!(
            "#[test]\n\
             fn regression_case_{seed:016x}_{algo}() {{\n\
             \x20   // Auto-generated by the stress shrinker (stress::FailingCase).\n\
             \x20   use ppscan_core::spine::Case as _;\n\
             \x20   let case = ppscan_core::stress::FailingCase {{\n\
             \x20       case_seed: {seed:#x},\n\
             \x20       algorithm: {algo:?},\n\
             \x20       kernel: {kernel},\n\
             \x20       threads: {threads:?},\n\
             \x20       strategy: {strategy},\n\
             \x20       eps: {eps:?},\n\
             \x20       mu: {mu},\n\
             \x20       edges: vec!{edges:?},\n\
             \x20       detail: {detail:?}.to_string(),\n\
             \x20   }};\n\
             \x20   assert!(\n\
             \x20       !case.reproduces(5),\n\
             \x20       \"shrunk stress case reproduces again:\\n{{case}}\"\n\
             \x20   );\n\
             }}\n",
            seed = self.case_seed,
            algo = self.algorithm,
            kernel = kernel,
            threads = self.threads,
            strategy = strategy,
            eps = self.eps,
            mu = self.mu,
            edges = self.edges,
            detail = self.detail,
        )
    }

    /// The ppSCAN configuration this case pins: the one place the driver
    /// builds one, so the sweep, the shrinker and replay all run at
    /// [`DEGREE_THRESHOLD`]. The baselines read only its thread count.
    fn run_config(&self) -> PpScanConfig {
        PpScanConfig::with_threads(self.threads.unwrap_or(1))
            .kernel(self.kernel.unwrap_or_default())
            .strategy(self.strategy.unwrap_or_default())
            .degree_threshold(DEGREE_THRESHOLD)
    }

    /// Runs the pinned configuration once on `g`.
    fn run(&self, g: &CsrGraph) -> Clustering {
        let (_, _, run) = ALGORITHMS
            .iter()
            .find(|a| a.0 == self.algorithm)
            .expect("FailingCase::algorithm names an entry of ALGORITHMS");
        run(g, ScanParams::new(self.eps, self.mu), &self.run_config())
    }

    /// Whether the pinned configuration diverges from the reference
    /// clustering of `edges`' graph in any of `repeats` attempts.
    fn fails_on(&self, edges: &[(VertexId, VertexId)], repeats: usize) -> bool {
        let g = from_edges(edges);
        let reference = verify::reference_clustering(&g, ScanParams::new(self.eps, self.mu));
        (0..repeats.max(1)).any(|_| self.run(&g) != reference)
    }
}

impl Case for FailingCase {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("case_seed".to_string(), Json::from_u64(self.case_seed)),
            (
                "algorithm".to_string(),
                Json::Str(self.algorithm.to_string()),
            ),
        ];
        if let Some(k) = self.kernel {
            fields.push(("kernel".to_string(), Json::Str(k.name().to_string())));
        }
        if let Some(t) = self.threads {
            fields.push(("threads".to_string(), Json::from_u64(t as u64)));
        }
        if let Some(s) = self.strategy {
            fields.push(("strategy".to_string(), Json::Str(s.to_string())));
        }
        fields.push(("eps".to_string(), Json::Num(self.eps)));
        fields.push(("mu".to_string(), Json::from_u64(self.mu as u64)));
        fields.push(("edges".to_string(), spine::edges_to_json(&self.edges)));
        fields.push(("detail".to_string(), Json::Str(self.detail.clone())));
        // Informational only — `from_json` ignores it; regenerate with
        // `regression_test_body()` after editing a corpus entry.
        fields.push((
            "regression_test".to_string(),
            Json::Str(self.regression_test_body()),
        ));
        Json::Obj(fields)
    }

    /// Also `None` on an unknown algorithm/kernel/strategy name, and on
    /// `threads: 0` or an (ε, µ) that [`ScanParams::checked`] rejects —
    /// each would panic inside the replayed run.
    fn from_json(json: &Json) -> Option<FailingCase> {
        let name = json.get("algorithm")?.as_str()?;
        let algorithm = ALGORITHMS.iter().find(|a| a.0 == name)?.0;
        let kernel = match json.get("kernel") {
            Some(k) => Some(Kernel::parse(k.as_str()?)?),
            None => None,
        };
        let threads = match json.get("threads") {
            Some(t) => Some(usize::try_from(t.as_u64()?).ok().filter(|&t| t >= 1)?),
            None => None,
        };
        let strategy = match json.get("strategy") {
            Some(s) => Some(ExecutionStrategy::parse(s.as_str()?)?),
            None => None,
        };
        let eps = json.get("eps")?.as_f64()?;
        let mu = usize::try_from(json.get("mu")?.as_u64()?).ok()?;
        ScanParams::checked(eps, mu).ok()?;
        Some(FailingCase {
            case_seed: json.get("case_seed")?.as_u64()?,
            algorithm,
            kernel,
            threads,
            strategy,
            eps,
            mu,
            edges: spine::edges_from_json(json.get("edges")?)?,
            detail: json.get("detail")?.as_str()?.to_string(),
        })
    }

    fn corpus_file_name(&self) -> String {
        let kernel = self.kernel.map_or("none".into(), |k| k.name().to_string());
        let strategy = self
            .strategy
            .map_or("none".into(), |s| s.to_string())
            .replace(['(', ')'], "-");
        format!(
            "case-{:016x}-{}-{}-{}-t{}.json",
            self.case_seed,
            self.algorithm,
            kernel,
            strategy,
            self.threads.unwrap_or(0),
        )
    }

    fn reproduces(&self, repeats: usize) -> bool {
        self.fails_on(&self.edges, repeats)
    }
}

/// Deterministically generates case `case_seed`'s graph: a seeded pick
/// among Erdős–Rényi, ROLL scale-free and planted-partition families,
/// sized small enough that the naive reference stays fast but large
/// enough that consolidation has real work.
pub fn case_graph(case_seed: u64) -> CsrGraph {
    let mut rng = SplitMix64::seed_from_u64(case_seed);
    match rng.gen_index(3) {
        0 => {
            let n = rng.gen_range(12..60);
            let m = n * rng.gen_range(1..5);
            gen::erdos_renyi(n, m, rng.next_u64())
        }
        1 => {
            let n = rng.gen_range(40..120);
            let d = 4 + 2 * rng.gen_index(4);
            gen::roll(n, d, rng.next_u64())
        }
        _ => {
            let blocks = rng.gen_range(2..5);
            let size = rng.gen_range(8..20);
            let p_in = 0.45 + 0.3 * rng.gen_f64();
            gen::planted_partition(blocks, size, p_in, 0.05, rng.next_u64())
        }
    }
}

/// Runs the full sweep through [`spine::sweep`]. `Ok` carries coverage
/// statistics; `Err` carries the first failing configuration, already
/// shrunk, replayable and persisted into [`StressConfig::corpus_dir`].
/// The [`RunReport`] records **every** case seed (accepted and failing)
/// under `extra["seeds"]` and comes back even on failure, so the stress
/// binary can persist it either way.
pub fn run_stress(cfg: &StressConfig) -> (Result<SweepStats, Box<FailingCase>>, RunReport) {
    let mut report = RunReport::new("stress");
    report.push_extra("master_seed", Json::from_u64(cfg.master_seed));
    report.push_extra("cases", Json::from_u64(cfg.cases));
    report.push_extra("race_detection", Json::Bool(cfg.race_detection));
    let units = (0..cfg.cases).map(|i| {
        let seed = cfg.master_seed.wrapping_add(i);
        Unit {
            seed,
            fields: Vec::new(),
            check: move |checked: &mut u64| check_case(seed, cfg, checked),
        }
    });
    spine::sweep(report, units, cfg.corpus_dir.as_deref(), cfg.race_detection)
}

/// Re-runs every configuration of one case (the unit a failure banner
/// points back at). Returns the number of configurations checked.
pub fn replay_case(case_seed: u64, cfg: &StressConfig) -> Result<u64, Box<FailingCase>> {
    let mut checked = 0;
    check_case(case_seed, cfg, &mut checked).map(|()| checked)
}

/// [`replay_case`], counting each configuration into `checked` as it
/// runs, so the seed log can report a failing case's count too.
fn check_case(
    case_seed: u64,
    cfg: &StressConfig,
    checked: &mut u64,
) -> Result<(), Box<FailingCase>> {
    let g = case_graph(case_seed);
    for &(eps, mu) in &cfg.params {
        let reference = verify::reference_clustering(&g, ScanParams::new(eps, mu));
        for pinned in pinned_configs(case_seed, eps, mu, cfg) {
            *checked += 1;
            let got = pinned.run(&g);
            if got != reference {
                return Err(shrunk(pinned, &g, &got));
            }
        }
    }
    Ok(())
}

/// Every configuration one (ε, µ) point of a case runs, in sweep order:
/// the baselines (when enabled), then ppSCAN over kernel × threads ×
/// strategy. Each is a [`FailingCase`] without a graph yet, the shape a
/// failure is reported in.
fn pinned_configs(case_seed: u64, eps: f64, mu: usize, cfg: &StressConfig) -> Vec<FailingCase> {
    let pin = |algorithm, kernel, threads, strategy| FailingCase {
        case_seed,
        algorithm,
        kernel,
        threads,
        strategy,
        eps,
        mu,
        edges: Vec::new(),
        detail: String::new(),
    };
    let mut pins = Vec::new();
    if cfg.check_baselines {
        let threads = cfg.thread_counts.last().copied().unwrap_or(2);
        for &(name, parallel, _) in ALGORITHMS.iter().filter(|a| a.0 != "ppscan") {
            pins.push(pin(name, None, parallel.then_some(threads), None));
        }
    }
    for &kernel in cfg.kernels.iter().filter(|k| k.available()) {
        for &threads in &cfg.thread_counts {
            for &strategy in &cfg.strategies {
                pins.push(pin("ppscan", Some(kernel), Some(threads), Some(strategy)));
            }
        }
    }
    pins
}

/// Builds the failure report: records the verifier's detail, then
/// shrinks the graph under the failing configuration.
fn shrunk(mut case: FailingCase, g: &CsrGraph, got: &Clustering) -> Box<FailingCase> {
    case.detail = verify::check_clustering(g, ScanParams::new(case.eps, case.mu), got)
        .err()
        .unwrap_or_else(|| "clustering differs from reference".into());
    let mut budget = SHRINK_BUDGET;
    // A graph without edges is never kept as the reproduction.
    let fails = |edges: &[(VertexId, VertexId)]| !edges.is_empty() && case.fails_on(edges, REPEATS);
    let edges = spine::shrink(g.undirected_edges().collect(), &mut budget, &fails);
    case.edges = shrink_vertices(edges, &mut budget, &fails);
    Box::new(case)
}

/// Induces the subgraph on `kept` (sorted) and remaps surviving vertex
/// ids to the dense range `0..kept.len()`, order-preserving. Edges with
/// either endpoint outside `kept` are dropped.
fn induce_and_remap(
    edges: &[(VertexId, VertexId)],
    kept: &[VertexId],
) -> Vec<(VertexId, VertexId)> {
    edges
        .iter()
        .filter_map(|&(u, v)| {
            let nu = kept.binary_search(&u).ok()?;
            let nv = kept.binary_search(&v).ok()?;
            Some((nu as VertexId, nv as VertexId))
        })
        .collect()
}

/// Vertex-subset minimization, composed after [`spine::shrink`]: drops
/// chunks of *vertices* (removing every incident edge) and remaps the
/// survivors to dense ids `0..k`, while the failure still reproduces on
/// the remapped graph. Edge-level ddmin cannot shed high-id spectator
/// vertices that keep the CSR arrays large — a failure on vertices
/// `{98, 99}` still replays as a 100-vertex graph; this pass renames it
/// to a 2-vertex one. The predicate always sees the remapped edge list,
/// so acceptance means the failure survives the renaming too.
fn shrink_vertices(
    mut edges: Vec<(VertexId, VertexId)>,
    budget: &mut usize,
    fails: FailsFn<'_>,
) -> Vec<(VertexId, VertexId)> {
    let distinct = |edges: &[(VertexId, VertexId)]| {
        let mut vs: Vec<VertexId> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    };
    let mut vertices = distinct(&edges);
    let mut chunk = (vertices.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < vertices.len() && *budget > 0 {
            let end = (i + chunk).min(vertices.len());
            let kept: Vec<VertexId> = vertices[..i]
                .iter()
                .chain(&vertices[end..])
                .copied()
                .collect();
            let candidate = induce_and_remap(&edges, &kept);
            *budget -= 1;
            if !candidate.is_empty() && fails(&candidate) {
                // Chunk dropped; ids are dense again, so recompute the
                // vertex list and rescan from the same position.
                edges = candidate;
                vertices = distinct(&edges);
            } else {
                i = end;
            }
        }
        if chunk == 1 || *budget == 0 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_graphs_are_deterministic() {
        for seed in [0u64, 1, 0xd1ab_0000] {
            assert_eq!(case_graph(seed), case_graph(seed));
        }
    }

    #[test]
    fn vertex_shrinker_drops_spectators_and_remaps_dense() {
        // Predicate: fails whenever the graph contains a triangle. The
        // triangle lives on high ids 10-20-30; the tail 0-1-2 and the
        // id gaps must both disappear, leaving the triangle renamed to
        // dense vertices {0, 1, 2}.
        let has_triangle = |e: &[(VertexId, VertexId)]| {
            let adj = |a: VertexId, b: VertexId| e.contains(&(a, b)) || e.contains(&(b, a));
            let mut vs: Vec<VertexId> = e.iter().flat_map(|&(u, v)| [u, v]).collect();
            vs.sort_unstable();
            vs.dedup();
            vs.iter().enumerate().any(|(i, &a)| {
                vs[i + 1..].iter().enumerate().any(|(j, &b)| {
                    adj(a, b) && vs[i + j + 2..].iter().any(|&c| adj(b, c) && adj(a, c))
                })
            })
        };
        let edges: Vec<(VertexId, VertexId)> = vec![(0, 1), (1, 2), (10, 20), (20, 30), (10, 30)];
        assert!(has_triangle(&edges));
        let mut budget = 200;
        let shrunk = shrink_vertices(edges, &mut budget, &has_triangle);
        assert_eq!(shrunk, vec![(0, 1), (1, 2), (0, 2)]);
    }

    #[test]
    fn vertex_shrinker_respects_budget() {
        let edges: Vec<(VertexId, VertexId)> = (0..50).map(|i| (i, i + 1)).collect();
        let mut budget = 4;
        let _ = shrink_vertices(edges, &mut budget, &|_| true);
        assert_eq!(budget, 0);
    }

    /// The race-detection axis on a clean sweep: real `Parallel` and
    /// adversarial runs of the real pipeline inside a detection session
    /// must produce zero races (the scheduler's fork/join edges order
    /// every cross-task access the pipeline actually makes), and the
    /// sweep's report must carry the (empty) race array plus a per-seed
    /// race count.
    #[test]
    fn race_axis_sweep_is_clean() {
        let cfg = StressConfig {
            cases: 1,
            thread_counts: vec![2],
            strategies: vec![
                ExecutionStrategy::Parallel,
                ExecutionStrategy::AdversarialSeeded { seed: 0xbeef },
            ],
            kernels: vec![Kernel::MergeEarly],
            params: vec![(0.5, 2)],
            check_baselines: false,
            corpus_dir: None,
            race_detection: true,
            ..StressConfig::default()
        };
        let (result, report) = run_stress(&cfg);
        result.expect("clean sweep");
        assert!(
            report.races.is_empty(),
            "pipeline sweep reported races: {:?}",
            report.races
        );
        let extra = |k: &str| report.extra.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        assert_eq!(extra("race_detection").unwrap().as_bool(), Some(true));
        let seeds = extra("seeds").unwrap().as_arr().unwrap();
        assert_eq!(seeds[0].get("races").unwrap().as_u64(), Some(0));
    }

    fn sample_case() -> FailingCase {
        FailingCase {
            case_seed: 0xd1ab_0003,
            algorithm: "ppscan",
            kernel: Some(Kernel::MergeEarly),
            threads: Some(4),
            strategy: Some(ExecutionStrategy::AdversarialSeeded { seed: 7 }),
            eps: 0.5,
            mu: 3,
            edges: vec![(0, 1), (1, 2)],
            detail: "role mismatch at vertex 0".into(),
        }
    }

    /// Tiny sweep configuration so tests stay fast; no corpus writes.
    fn tiny_config() -> StressConfig {
        StressConfig {
            cases: 2,
            thread_counts: vec![2],
            strategies: vec![ExecutionStrategy::SequentialDeterministic],
            kernels: vec![Kernel::MergeEarly],
            params: vec![(0.5, 2)],
            check_baselines: false,
            corpus_dir: None,
            ..StressConfig::default()
        }
    }

    #[test]
    fn failing_case_json_roundtrip() {
        let case = sample_case();
        let text = case.to_json().to_pretty_string();
        let back = FailingCase::from_json(&ppscan_obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.case_seed, case.case_seed);
        assert_eq!(back.algorithm, case.algorithm);
        assert_eq!(back.kernel, case.kernel);
        assert_eq!(back.threads, case.threads);
        assert_eq!(back.strategy, case.strategy);
        assert_eq!(back.eps, case.eps);
        assert_eq!(back.mu, case.mu);
        assert_eq!(back.edges, case.edges);
        assert_eq!(back.detail, case.detail);
    }

    #[test]
    fn failing_case_roundtrips_every_kernel() {
        // Record/replay must survive every kernel (serialized by name,
        // parsed back, and emitted replayably in the generated
        // regression body).
        for kernel in Kernel::ALL {
            let case = FailingCase {
                kernel: Some(kernel),
                ..sample_case()
            };
            let back = FailingCase::from_json(&case.to_json()).unwrap();
            assert_eq!(back.kernel, Some(kernel), "{kernel}");
            assert!(
                case.regression_test_body()
                    .contains(&format!("Kernel::{kernel:?}")),
                "{kernel} missing from regression body"
            );
        }
    }

    #[test]
    fn sequential_baseline_case_roundtrips_without_optionals() {
        let case = FailingCase {
            kernel: None,
            threads: None,
            strategy: None,
            algorithm: "pscan",
            ..sample_case()
        };
        let back = FailingCase::from_json(&case.to_json()).unwrap();
        assert_eq!(back.kernel, None);
        assert_eq!(back.threads, None);
        assert_eq!(back.strategy, None);
        assert_eq!(back.algorithm, "pscan");
    }

    #[test]
    fn from_json_rejects_unknown_algorithm() {
        let mut json = sample_case().to_json();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "algorithm" {
                    *v = Json::Str("quickscan".into());
                }
            }
        }
        assert!(FailingCase::from_json(&json).is_none());
    }

    #[test]
    fn healthy_case_does_not_reproduce() {
        // A correct configuration on a well-formed graph is not a failure:
        // `reproduces` must come back false, so replaying a corpus entry
        // for a since-fixed bug reads as clean.
        let case = FailingCase {
            edges: gen::complete(5).undirected_edges().collect(),
            strategy: Some(ExecutionStrategy::SequentialDeterministic),
            ..sample_case()
        };
        assert!(!case.reproduces(2));
    }

    #[test]
    fn replay_runs_at_the_sweep_degree_threshold() {
        // Replay must run the configuration the sweep and the shrinker
        // ran: at the scheduler's default threshold a small graph is one
        // task per phase, and a schedule-dependent failure could not
        // come back.
        let case = sample_case();
        let g = from_edges(&case.edges);
        let run = ppscan(&g, ScanParams::new(case.eps, case.mu), &case.run_config());
        assert_eq!(run.report.degree_threshold, Some(8));
        assert_eq!(DEGREE_THRESHOLD, 8);
    }

    #[test]
    fn replay_rejects_out_of_range_entries() {
        // `threads: 0`, `mu: 0` and `eps: 1.5` would each panic inside
        // the replayed run; replay reports the entry as malformed.
        let dir = spine::corpus_dir("stress-corpus-bad-test");
        for (key, value) in [
            ("threads", Json::from_u64(0)),
            ("mu", Json::from_u64(0)),
            ("eps", Json::Num(1.5)),
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
            let err = spine::replay_corpus::<FailingCase>(&dir, 1).unwrap_err();
            assert_eq!(
                err,
                format!("malformed corpus entry {}", path.display()),
                "{key}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_corpus_is_clean() {
        // The real corpus directory: anything a previous stress run left
        // behind must no longer reproduce. An empty/missing directory is
        // trivially clean.
        let replayed =
            spine::replay_corpus::<FailingCase>(&spine::corpus_dir("stress-corpus"), 3).unwrap();
        let failing: Vec<_> = replayed
            .iter()
            .filter(|(_, still)| *still)
            .map(|(c, _)| c.to_string())
            .collect();
        assert!(
            failing.is_empty(),
            "stress corpus contains still-failing cases:\n{}",
            failing.join("\n")
        );
    }

    #[test]
    fn stress_report_logs_every_seed() {
        let cfg = tiny_config();
        let (result, report) = run_stress(&cfg);
        let stats = result.expect("tiny sweep must be green");
        assert_eq!(stats.cases, cfg.cases);
        assert_eq!(report.algorithm, "stress");
        assert!(report.wall_nanos > 0);
        let extra = |k: &str| report.extra.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let seeds = extra("seeds").unwrap().as_arr().unwrap();
        assert_eq!(seeds.len(), cfg.cases as usize);
        for (i, entry) in seeds.iter().enumerate() {
            assert_eq!(
                entry.get("seed").unwrap().as_u64().unwrap(),
                cfg.master_seed + i as u64
            );
            assert_eq!(entry.get("status").unwrap().as_str().unwrap(), "ok");
            assert!(entry.get("checked").unwrap().as_u64().unwrap() > 0);
        }
        assert_eq!(extra("checked").unwrap().as_u64().unwrap(), stats.checked);
        // The report round-trips like any other.
        let parsed = RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn failing_case_banner_is_replayable() {
        let case = FailingCase {
            case_seed: 0xd1ab_0003,
            algorithm: "ppscan",
            kernel: Some(Kernel::MergeEarly),
            threads: Some(4),
            strategy: Some(ExecutionStrategy::AdversarialSeeded { seed: 7 }),
            eps: 0.5,
            mu: 3,
            edges: vec![(0, 1)],
            detail: "role mismatch at vertex 0".into(),
        };
        let banner = case.to_string();
        assert!(banner.contains("case_seed=0xd1ab0003"), "{banner}");
        assert!(banner.contains("strategy=adversarial(7)"), "{banner}");
        assert!(banner.contains("replay_case(0xd1ab0003"), "{banner}");
    }

    #[test]
    fn regression_test_body_is_pasteable() {
        let case = sample_case();
        let body = case.regression_test_body();
        assert!(body.contains("#[test]"), "{body}");
        assert!(
            body.contains("fn regression_case_00000000d1ab0003_ppscan()"),
            "{body}"
        );
        assert!(body.contains("case_seed: 0xd1ab0003"), "{body}");
        assert!(
            body.contains("kernel: Some(ppscan_intersect::Kernel::MergeEarly)"),
            "{body}"
        );
        assert!(
            body.contains(
                "strategy: Some(ppscan_sched::ExecutionStrategy::AdversarialSeeded { seed: 7 })"
            ),
            "{body}"
        );
        assert!(body.contains("edges: vec![(0, 1), (1, 2)]"), "{body}");
        assert!(body.contains("!case.reproduces(5)"), "{body}");
        // The snippet travels with the failure banner and the corpus
        // entry, so it is at hand wherever the failure is first seen.
        assert!(case.to_string().contains("ready-to-paste regression test:"));
        assert!(case.to_string().contains("#[test]"));
        let json = case.to_json();
        assert!(json
            .get("regression_test")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("#[test]"));
        // The informational field does not disturb the roundtrip.
        assert!(FailingCase::from_json(&json).is_some());
    }

    #[test]
    fn regression_test_body_handles_sequential_baselines() {
        // Baseline failures carry no kernel/threads/strategy; the
        // emitted literal must still be valid Rust.
        let case = FailingCase {
            kernel: None,
            threads: None,
            strategy: None,
            algorithm: "pscan",
            ..sample_case()
        };
        let body = case.regression_test_body();
        assert!(body.contains("kernel: None,"), "{body}");
        assert!(body.contains("threads: None,"), "{body}");
        assert!(body.contains("strategy: None,"), "{body}");
        assert!(
            body.contains("fn regression_case_00000000d1ab0003_pscan()"),
            "{body}"
        );
    }
}
