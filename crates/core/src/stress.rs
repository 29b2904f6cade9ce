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
//! [`replay_corpus`] reloads everything found there and re-runs each
//! case's pinned configuration — the `replay_corpus_is_clean` test turns
//! any lingering corpus entry that still reproduces into a hard test
//! failure, so fixed bugs clean themselves out of CI while unfixed ones
//! stay loud.
//!
//! [`run_stress_report`] wraps the sweep in a [`RunReport`]: one `seeds`
//! entry per case (accepted or failing) plus the failure payload, for the
//! machine-readable run reports the bench harness aggregates.

use crate::params::ScanParams;
use crate::ppscan::{ppscan, PpScanConfig};
use crate::result::Clustering;
use crate::verify;
use ppscan_graph::builder::from_edges;
use ppscan_graph::rng::SplitMix64;
use ppscan_graph::{gen, CsrGraph, VertexId};
use ppscan_intersect::Kernel;
use ppscan_obs::json::Json;
use ppscan_obs::RunReport;
use ppscan_sched::ExecutionStrategy;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A boxed algorithm runner used by the baseline differential checks.
type RunFn = Box<dyn Fn(&CsrGraph) -> Clustering>;
/// Edge-list failure predicate used by the shrinker.
type FailsFn<'a> = &'a dyn Fn(&[(VertexId, VertexId)]) -> bool;

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
    /// Scheduler degree threshold — deliberately tiny so every few
    /// vertices form a task and the schedule space is rich.
    pub degree_threshold: u64,
    /// Reruns per configuration when probing a schedule-dependent
    /// failure during shrinking (a racy mismatch may need several
    /// attempts to re-manifest).
    pub repeats: usize,
    /// Maximum predicate evaluations the shrinker may spend.
    pub shrink_budget: usize,
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

/// The default failure-corpus directory: `stress-corpus/` under the
/// cargo target directory (honoring `CARGO_TARGET_DIR`).
pub fn default_corpus_dir() -> PathBuf {
    let target = option_env!("CARGO_TARGET_DIR").map_or_else(
        || {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        },
        PathBuf::from,
    );
    target.join("stress-corpus")
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
            degree_threshold: 8,
            repeats: 3,
            shrink_budget: 120,
            corpus_dir: Some(default_corpus_dir()),
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

/// Maps an algorithm name back to the `'static` string the drivers use.
fn algorithm_static(name: &str) -> Option<&'static str> {
    ["scan", "pscan", "scanpp", "scanxp", "anyscan", "ppscan"]
        .into_iter()
        .find(|a| *a == name)
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

    /// Serializes the case (corpus file format).
    pub fn to_json(&self) -> Json {
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
        fields.push((
            "edges".to_string(),
            Json::Arr(
                self.edges
                    .iter()
                    .map(|&(u, v)| {
                        Json::Arr(vec![Json::from_u64(u as u64), Json::from_u64(v as u64)])
                    })
                    .collect(),
            ),
        ));
        fields.push(("detail".to_string(), Json::Str(self.detail.clone())));
        // Informational only — `from_json` ignores it; regenerate with
        // `regression_test_body()` after editing a corpus entry.
        fields.push((
            "regression_test".to_string(),
            Json::Str(self.regression_test_body()),
        ));
        Json::Obj(fields)
    }

    /// Deserializes a corpus entry written by [`FailingCase::to_json`].
    /// Returns `None` on any missing/ill-typed field or unknown
    /// algorithm/kernel/strategy name.
    pub fn from_json(json: &Json) -> Option<FailingCase> {
        let algorithm = algorithm_static(json.get("algorithm")?.as_str()?)?;
        let kernel = match json.get("kernel") {
            Some(k) => Some(Kernel::parse(k.as_str()?)?),
            None => None,
        };
        let threads = match json.get("threads") {
            Some(t) => Some(usize::try_from(t.as_u64()?).ok()?),
            None => None,
        };
        let strategy = match json.get("strategy") {
            Some(s) => Some(ExecutionStrategy::parse(s.as_str()?)?),
            None => None,
        };
        let mut edges = Vec::new();
        for e in json.get("edges")?.as_arr()? {
            let pair = e.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            let u = u32::try_from(pair[0].as_u64()?).ok()?;
            let v = u32::try_from(pair[1].as_u64()?).ok()?;
            edges.push((u, v));
        }
        Some(FailingCase {
            case_seed: json.get("case_seed")?.as_u64()?,
            algorithm,
            kernel,
            threads,
            strategy,
            eps: json.get("eps")?.as_f64()?,
            mu: usize::try_from(json.get("mu")?.as_u64()?).ok()?,
            edges,
            detail: json.get("detail")?.as_str()?.to_string(),
        })
    }

    /// Corpus file name for this case, unique per (seed, configuration).
    pub fn corpus_file_name(&self) -> String {
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

    /// Re-runs exactly this case's pinned configuration on the embedded
    /// (shrunk) graph, `repeats` times. Returns `true` if the divergence
    /// from the reference clustering still manifests.
    pub fn reproduces(&self, repeats: usize) -> bool {
        let g = from_edges(&self.edges);
        let p = ScanParams::new(self.eps, self.mu);
        let reference = verify::reference_clustering(&g, p);
        let threads = self.threads.unwrap_or(1);
        let run: RunFn = match self.algorithm {
            "scan" => Box::new(move |g| crate::scan::scan(g, p).clustering),
            "pscan" => Box::new(move |g| crate::pscan::pscan(g, p).clustering),
            "scanpp" => Box::new(move |g| crate::scanpp::scanpp(g, p)),
            "scanxp" => Box::new(move |g| crate::scanxp::scanxp(g, p, threads)),
            "anyscan" => Box::new(move |g| crate::anyscan::anyscan(g, p, threads)),
            _ => {
                let cfg = PpScanConfig::with_threads(threads)
                    .kernel(self.kernel.unwrap_or_default())
                    .strategy(self.strategy.unwrap_or_default());
                Box::new(move |g| ppscan(g, p, &cfg).clustering)
            }
        };
        (0..repeats.max(1)).any(|_| run(&g) != reference)
    }
}

/// Loads every corpus entry under `dir` and re-runs it ([`FailingCase::
/// reproduces`] with `repeats` attempts). Returns `(case, still_failing)`
/// pairs; a missing directory is an empty (clean) corpus. Unparseable
/// files are an error — a corrupt corpus should be loud, not skipped.
pub fn replay_corpus(dir: &Path, repeats: usize) -> Result<Vec<(FailingCase, bool)>, String> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading corpus dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            // Only `case-*.json` entries are corpus cases; the directory
            // also holds the sweep's seed-log report.
            p.extension().is_some_and(|x| x == "json")
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("case-"))
        })
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let json = ppscan_obs::json::parse(&text)
            .map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let case = FailingCase::from_json(&json)
            .ok_or_else(|| format!("malformed corpus entry {}", path.display()))?;
        let still_failing = case.reproduces(repeats);
        out.push((case, still_failing));
    }
    Ok(out)
}

/// Aggregate statistics of a green sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct StressStats {
    /// Graphs swept.
    pub cases: u64,
    /// Individual (algorithm, kernel, threads, strategy, ε, µ) runs
    /// compared against the reference.
    pub configs_checked: u64,
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

/// Runs the full sweep. `Ok` carries coverage statistics; `Err` carries
/// the first failing configuration, already shrunk and replayable.
pub fn run_stress(cfg: &StressConfig) -> Result<StressStats, Box<FailingCase>> {
    let mut stats = StressStats::default();
    for i in 0..cfg.cases {
        stats.configs_checked += replay_case(cfg.master_seed.wrapping_add(i), cfg)?;
        stats.cases += 1;
    }
    Ok(stats)
}

/// Runs the full sweep like [`run_stress`], additionally producing a
/// [`RunReport`] that records **every** case seed (accepted and failing)
/// under `extra["seeds"]`, with the shrunk failure payload inline when a
/// case diverges. The report is returned even on failure, so the stress
/// binary can persist it either way.
pub fn run_stress_report(cfg: &StressConfig) -> (Result<StressStats, Box<FailingCase>>, RunReport) {
    let wall = Instant::now();
    let mut report = RunReport::new("stress");
    report.push_extra("master_seed", Json::from_u64(cfg.master_seed));
    report.push_extra("cases", Json::from_u64(cfg.cases));
    report.push_extra("race_detection", Json::Bool(cfg.race_detection));
    let mut seeds = Vec::new();
    let mut stats = StressStats::default();
    let mut failure = None;
    for i in 0..cfg.cases {
        let seed = cfg.master_seed.wrapping_add(i);
        // One detection session per case keeps the vector clocks small
        // and tags any detected race with the case it came from.
        let session = cfg
            .race_detection
            .then(ppscan_obs::race::DetectionSession::begin);
        let outcome = replay_case(seed, cfg);
        let case_races = session.map_or_else(Vec::new, |s| s.finish());
        match outcome {
            Ok(checked) => {
                stats.cases += 1;
                stats.configs_checked += checked;
                seeds.push(Json::Obj(vec![
                    ("seed".to_string(), Json::from_u64(seed)),
                    ("status".to_string(), Json::Str("ok".to_string())),
                    ("configs_checked".to_string(), Json::from_u64(checked)),
                    ("races".to_string(), Json::from_u64(case_races.len() as u64)),
                ]));
                report.races.extend(case_races);
            }
            Err(case) => {
                seeds.push(Json::Obj(vec![
                    ("seed".to_string(), Json::from_u64(seed)),
                    ("status".to_string(), Json::Str("failed".to_string())),
                    ("case".to_string(), case.to_json()),
                ]));
                report.races.extend(case_races);
                failure = Some(case);
                break;
            }
        }
    }
    report.push_extra("seeds", Json::Arr(seeds));
    report.push_extra("configs_checked", Json::from_u64(stats.configs_checked));
    report.wall_nanos = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (failure.map_or(Ok(stats), Err), report)
}

/// Re-runs every configuration of one case (the unit a failure banner
/// points back at). Returns the number of configurations checked.
pub fn replay_case(case_seed: u64, cfg: &StressConfig) -> Result<u64, Box<FailingCase>> {
    let g = case_graph(case_seed);
    let mut checked = 0u64;
    for &(eps, mu) in &cfg.params {
        let p = ScanParams::new(eps, mu);
        let reference = verify::reference_clustering(&g, p);

        if cfg.check_baselines {
            checked += check_baselines(case_seed, &g, p, &reference, cfg)?;
        }

        for &kernel in &cfg.kernels {
            if !kernel.available() {
                continue;
            }
            for &threads in &cfg.thread_counts {
                for &strategy in &cfg.strategies {
                    checked += 1;
                    let run_cfg = PpScanConfig::with_threads(threads)
                        .kernel(kernel)
                        .strategy(strategy)
                        .degree_threshold(cfg.degree_threshold);
                    let got = ppscan(&g, p, &run_cfg).clustering;
                    if got != reference {
                        return Err(report(
                            case_seed,
                            &g,
                            "ppscan",
                            Some(kernel),
                            Some(threads),
                            Some(strategy),
                            eps,
                            mu,
                            &got,
                            cfg,
                            &|g| ppscan(g, p, &run_cfg).clustering,
                        ));
                    }
                }
            }
        }
    }
    Ok(checked)
}

/// Differential checks of the non-ppSCAN implementations for one
/// parameter point.
fn check_baselines(
    case_seed: u64,
    g: &CsrGraph,
    p: ScanParams,
    reference: &Clustering,
    cfg: &StressConfig,
) -> Result<u64, Box<FailingCase>> {
    let threads = cfg.thread_counts.last().copied().unwrap_or(2);
    let runs: [(&'static str, Option<usize>, RunFn); 5] = [
        (
            "scan",
            None,
            Box::new(move |g| crate::scan::scan(g, p).clustering),
        ),
        (
            "pscan",
            None,
            Box::new(move |g| crate::pscan::pscan(g, p).clustering),
        ),
        (
            "scanpp",
            None,
            Box::new(move |g| crate::scanpp::scanpp(g, p)),
        ),
        (
            "scanxp",
            Some(threads),
            Box::new(move |g| crate::scanxp::scanxp(g, p, threads)),
        ),
        (
            "anyscan",
            Some(threads),
            Box::new(move |g| crate::anyscan::anyscan(g, p, threads)),
        ),
    ];
    for (name, t, run) in &runs {
        let got = run(g);
        if got != *reference {
            return Err(report(
                case_seed,
                g,
                name,
                None,
                *t,
                None,
                p.epsilon.as_f64(),
                p.mu,
                &got,
                cfg,
                run.as_ref(),
            ));
        }
    }
    Ok(runs.len() as u64)
}

/// Builds the failure report: shrinks the graph under the failing
/// configuration, then packages the banner fields.
#[allow(clippy::too_many_arguments)]
fn report(
    case_seed: u64,
    g: &CsrGraph,
    algorithm: &'static str,
    kernel: Option<Kernel>,
    threads: Option<usize>,
    strategy: Option<ExecutionStrategy>,
    eps: f64,
    mu: usize,
    got: &Clustering,
    cfg: &StressConfig,
    run: &dyn Fn(&CsrGraph) -> Clustering,
) -> Box<FailingCase> {
    let p = ScanParams::new(eps, mu);
    let detail = verify::check_clustering(g, p, got)
        .err()
        .unwrap_or_else(|| "clustering differs from reference".into());

    let edges: Vec<(VertexId, VertexId)> = g.undirected_edges().collect();
    let mut budget = cfg.shrink_budget;
    let fails = |edges: &[(VertexId, VertexId)]| {
        let g = from_edges(edges);
        let reference = verify::reference_clustering(&g, p);
        (0..cfg.repeats.max(1)).any(|_| run(&g) != reference)
    };
    let edges = shrink_edges(edges, &mut budget, &fails);
    let edges = shrink_vertices(edges, &mut budget, &fails);

    let case = Box::new(FailingCase {
        case_seed,
        algorithm,
        kernel,
        threads,
        strategy,
        eps,
        mu,
        edges,
        detail,
    });
    if let Some(dir) = &cfg.corpus_dir {
        persist_case(dir, &case);
    }
    case
}

/// Writes one shrunk failure into the corpus directory. Best-effort:
/// persistence failing must not mask the differential failure itself.
fn persist_case(dir: &Path, case: &FailingCase) {
    let path = dir.join(case.corpus_file_name());
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(&path, case.to_json().to_pretty_string())
    };
    match write() {
        Ok(()) => eprintln!("stress: failing case persisted to {}", path.display()),
        Err(e) => eprintln!("stress: could not persist {}: {e}", path.display()),
    }
}

/// ddmin-style greedy edge minimization: repeatedly drop chunks of edges
/// (halving the chunk size down to single edges) while the failure still
/// reproduces, within `budget` predicate evaluations. The result is
/// 1-minimal w.r.t. the chunks tried, not globally minimal — good enough
/// to turn a 500-edge reproduction into a screenful.
fn shrink_edges(
    mut edges: Vec<(VertexId, VertexId)>,
    budget: &mut usize,
    fails: FailsFn<'_>,
) -> Vec<(VertexId, VertexId)> {
    let mut chunk = (edges.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < edges.len() && *budget > 0 {
            let mut candidate = edges.clone();
            let end = (i + chunk).min(candidate.len());
            candidate.drain(i..end);
            *budget -= 1;
            if !candidate.is_empty() && fails(&candidate) {
                edges = candidate;
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

/// Vertex-subset minimization, composed after [`shrink_edges`]: drops
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
    fn shrinker_minimizes_against_a_simple_predicate() {
        // Predicate: fails whenever edge (2, 3) is present. The shrinker
        // must reduce any superset to exactly that edge.
        let edges: Vec<(VertexId, VertexId)> = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)];
        let fails = |e: &[(VertexId, VertexId)]| e.contains(&(2, 3));
        let mut budget = 100;
        let shrunk = shrink_edges(edges, &mut budget, &fails);
        assert_eq!(shrunk, vec![(2, 3)]);
    }

    #[test]
    fn shrinker_respects_budget() {
        let edges: Vec<(VertexId, VertexId)> = (0..100).map(|i| (i, i + 1)).collect();
        let mut budget = 3;
        let _ = shrink_edges(edges, &mut budget, &|_| true);
        assert_eq!(budget, 0);
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
        let (result, report) = run_stress_report(&cfg);
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
    fn corpus_files_roundtrip_through_replay() {
        // Persist a (healthy) case, then replay the directory: the entry
        // must load and report itself as no-longer-failing.
        let dir = default_corpus_dir()
            .parent()
            .unwrap()
            .join("stress-corpus-test");
        let _ = std::fs::remove_dir_all(&dir);
        let case = FailingCase {
            edges: gen::complete(4).undirected_edges().collect(),
            strategy: Some(ExecutionStrategy::SequentialDeterministic),
            ..sample_case()
        };
        persist_case(&dir, &case);
        let replayed = replay_corpus(&dir, 2).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].0.case_seed, case.case_seed);
        assert!(!replayed[0].1, "healthy case must not reproduce");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_corpus_is_clean() {
        // The real corpus directory: anything a previous stress run left
        // behind must no longer reproduce. An empty/missing directory is
        // trivially clean.
        let replayed = replay_corpus(&default_corpus_dir(), 3).unwrap();
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
        let (result, report) = run_stress_report(&cfg);
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
            assert!(entry.get("configs_checked").unwrap().as_u64().unwrap() > 0);
        }
        assert_eq!(
            extra("configs_checked").unwrap().as_u64().unwrap(),
            stats.configs_checked
        );
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
