//! Machine-readable run reports.
//!
//! A [`RunReport`] is the unified record of one algorithm run: the
//! configuration it ran under, the shape of the input graph, per-phase
//! timings (sourced from the span layer), kernel counters, and
//! free-form extras. A [`FigureReport`] wraps the runs behind one bench
//! figure together with the rendered table, so baseline diffs can work
//! off the same file the harness emits.
//!
//! Serialization is the hand-rolled [`crate::json`] layer; the schema
//! is versioned via the `schema` field (currently 2) and documented in
//! DESIGN.md. Schema 2 adds the optional `timeline` array of
//! [`MetricsSnapshot`]s (live-metrics samples from long-running serve
//! benches); schema-1 files still parse, and a parsed report keeps the
//! schema it was written with so old baselines round-trip exactly.

use crate::json::{self, Json, JsonError};
use crate::registry::{self, MetricsSnapshot};
use crate::span::StageAgg;
use std::io;
use std::path::Path;

/// Report schema version written by this crate.
pub const SCHEMA_VERSION: u32 = 2;

/// Oldest report schema this crate still parses.
pub const MIN_SCHEMA_VERSION: u32 = 1;

fn check_schema(schema: u32) -> Result<(), String> {
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema) {
        return Err(format!(
            "unsupported report schema {schema} (accepted {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
        ));
    }
    Ok(())
}

/// Vertex/edge counts of the input graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphShape {
    /// Number of vertices.
    pub vertices: u64,
    /// Number of undirected edges.
    pub edges: u64,
}

/// Aggregated kernel counters (see `ppscan_intersect::counters`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Similarity-kernel invocations.
    pub compsim_invocations: u64,
    /// Adjacency-list elements scanned by the kernels.
    pub elements_scanned: u64,
    /// Retired: invocations the adaptive kernel's old degree-ratio rule
    /// routed to galloping. Reports written before the rule was deleted
    /// carry it; new runs leave it 0, so it is left out of their JSON.
    /// Serialized only when nonzero and parsed with a default of 0, so
    /// both kinds of file stay round-trip exact.
    pub adaptive_gallop: u64,
    /// Retired: invocations that rule routed to the block kernel (see
    /// `adaptive_gallop`).
    pub adaptive_block: u64,
}

/// Per-worker totals within one phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Worker id.
    pub worker: u64,
    /// Nanoseconds this worker spent in tasks of this phase.
    pub busy_nanos: u64,
    /// Tasks this worker executed in this phase.
    pub tasks: u64,
    /// Injected scheduler yields attributed to this worker.
    pub yields: u64,
    /// Tasks this worker stole from other workers' deques (serialized
    /// only when nonzero; defaults to 0 on parse).
    pub steals: u64,
}

/// One algorithm phase: wall time plus per-worker breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// Phase name (kebab-case, e.g. `"similarity-pruning"`).
    pub name: String,
    /// Wall-clock nanoseconds of the phase (orchestrator span).
    pub wall_nanos: u64,
    /// Total tasks executed in the phase, across workers.
    pub tasks: u64,
    /// Per-worker totals (empty for sequential or uninstrumented runs).
    pub workers: Vec<WorkerMetrics>,
}

/// The unified machine-readable record of one algorithm run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Algorithm name (`"ppscan"`, `"pscan"`, `"scan"`, ...).
    pub algorithm: String,
    /// Dataset name, when known.
    pub dataset: Option<String>,
    /// Worker-thread count, when known.
    pub threads: Option<u64>,
    /// Similarity-kernel name, when known.
    pub kernel: Option<String>,
    /// Execution strategy (`"parallel"`, `"sequential"`,
    /// `"adversarial(N)"`), when known.
    pub strategy: Option<String>,
    /// Degree threshold for kernel dispatch, when known.
    pub degree_threshold: Option<u64>,
    /// ε parameter.
    pub eps: Option<f64>,
    /// µ parameter.
    pub mu: Option<u64>,
    /// Input graph shape.
    pub graph: Option<GraphShape>,
    /// End-to-end wall time of the run, in nanoseconds.
    pub wall_nanos: u64,
    /// Per-phase metrics, in execution order.
    pub phases: Vec<PhaseMetrics>,
    /// Kernel counters observed during the run.
    pub counters: KernelCounters,
    /// Live-metrics timeline sampled during the run (schema 2; empty
    /// for ordinary one-shot runs and serialized only when non-empty,
    /// so schema-1 files stay round-trip exact).
    pub timeline: Vec<MetricsSnapshot>,
    /// Data races found by the [`crate::race`] detector during the run.
    /// Empty for ordinary runs; serialized only when non-empty (each
    /// entry carries its own `version`), so older files stay
    /// round-trip exact. `report_check` fails on any embedded race.
    pub races: Vec<crate::race::RaceReport>,
    /// Free-form extras (insertion-ordered key/value pairs).
    pub extra: Vec<(String, Json)>,
}

impl RunReport {
    /// A fresh report for `algorithm` with the current schema version.
    pub fn new(algorithm: impl Into<String>) -> RunReport {
        RunReport {
            schema: SCHEMA_VERSION,
            algorithm: algorithm.into(),
            ..RunReport::default()
        }
    }

    /// Sets the dataset name.
    pub fn with_dataset(mut self, dataset: impl Into<String>) -> Self {
        self.dataset = Some(dataset.into());
        self
    }

    /// Sets the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads as u64);
        self
    }

    /// Sets the kernel name.
    pub fn with_kernel(mut self, kernel: impl Into<String>) -> Self {
        self.kernel = Some(kernel.into());
        self
    }

    /// Sets the execution strategy.
    pub fn with_strategy(mut self, strategy: impl Into<String>) -> Self {
        self.strategy = Some(strategy.into());
        self
    }

    /// Sets the degree threshold.
    pub fn with_degree_threshold(mut self, t: u64) -> Self {
        self.degree_threshold = Some(t);
        self
    }

    /// Sets ε and µ.
    pub fn with_params(mut self, eps: f64, mu: u64) -> Self {
        self.eps = Some(eps);
        self.mu = Some(mu);
        self
    }

    /// Sets the graph shape.
    pub fn with_graph(mut self, vertices: u64, edges: u64) -> Self {
        self.graph = Some(GraphShape { vertices, edges });
        self
    }

    /// Appends a free-form extra.
    pub fn push_extra(&mut self, key: impl Into<String>, value: Json) {
        self.extra.push((key.into(), value));
    }

    /// Converts span-layer aggregates into phase metrics, preserving
    /// stage order.
    pub fn phases_from(stages: &[StageAgg]) -> Vec<PhaseMetrics> {
        stages
            .iter()
            .map(|s| PhaseMetrics {
                name: s.stage.to_string(),
                wall_nanos: s.wall_nanos,
                tasks: s.worker_tasks(),
                workers: s
                    .workers
                    .iter()
                    .map(|w| WorkerMetrics {
                        worker: w.worker as u64,
                        busy_nanos: w.busy_nanos,
                        tasks: w.tasks,
                        yields: w.yields,
                        steals: w.steals,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Looks up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseMetrics> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Serializes to a [`Json`] value.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".into(), Json::Int(self.schema as i128)),
            ("algorithm".into(), Json::Str(self.algorithm.clone())),
        ];
        push_opt_str(&mut fields, "dataset", &self.dataset);
        push_opt_u64(&mut fields, "threads", self.threads);
        push_opt_str(&mut fields, "kernel", &self.kernel);
        push_opt_str(&mut fields, "strategy", &self.strategy);
        push_opt_u64(&mut fields, "degree_threshold", self.degree_threshold);
        if let Some(eps) = self.eps {
            fields.push(("eps".into(), Json::Num(eps)));
        }
        push_opt_u64(&mut fields, "mu", self.mu);
        if let Some(g) = self.graph {
            fields.push((
                "graph".into(),
                Json::Obj(vec![
                    ("vertices".into(), Json::from_u64(g.vertices)),
                    ("edges".into(), Json::from_u64(g.edges)),
                ]),
            ));
        }
        fields.push(("wall_nanos".into(), Json::from_u64(self.wall_nanos)));
        fields.push((
            "phases".into(),
            Json::Arr(self.phases.iter().map(phase_to_json).collect()),
        ));
        let mut counters = vec![
            (
                "compsim_invocations".into(),
                Json::from_u64(self.counters.compsim_invocations),
            ),
            (
                "elements_scanned".into(),
                Json::from_u64(self.counters.elements_scanned),
            ),
        ];
        if self.counters.adaptive_gallop != 0 {
            counters.push((
                "adaptive_gallop".into(),
                Json::from_u64(self.counters.adaptive_gallop),
            ));
        }
        if self.counters.adaptive_block != 0 {
            counters.push((
                "adaptive_block".into(),
                Json::from_u64(self.counters.adaptive_block),
            ));
        }
        fields.push(("counters".into(), Json::Obj(counters)));
        if !self.timeline.is_empty() {
            fields.push((
                "timeline".into(),
                registry::timeline_to_json(&self.timeline),
            ));
        }
        if !self.races.is_empty() {
            fields.push((
                "races".into(),
                Json::Arr(self.races.iter().map(|r| r.to_json()).collect()),
            ));
        }
        if !self.extra.is_empty() {
            fields.push(("extra".into(), Json::Obj(self.extra.clone())));
        }
        Json::Obj(fields)
    }

    /// Deserializes from a [`Json`] value. The parsed report keeps the
    /// schema version it was written with, so re-serializing an old
    /// baseline reproduces it byte-identically.
    pub fn from_json(v: &Json) -> Result<RunReport, String> {
        let schema = req_u64(v, "schema")? as u32;
        check_schema(schema)?;
        let mut report = RunReport::new(req_str(v, "algorithm")?);
        report.schema = schema;
        report.dataset = opt_str(v, "dataset");
        report.threads = opt_u64(v, "threads");
        report.kernel = opt_str(v, "kernel");
        report.strategy = opt_str(v, "strategy");
        report.degree_threshold = opt_u64(v, "degree_threshold");
        report.eps = v.get("eps").and_then(Json::as_f64);
        report.mu = opt_u64(v, "mu");
        if let Some(g) = v.get("graph") {
            report.graph = Some(GraphShape {
                vertices: req_u64(g, "vertices")?,
                edges: req_u64(g, "edges")?,
            });
        }
        report.wall_nanos = req_u64(v, "wall_nanos")?;
        for p in v
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("missing phases array")?
        {
            report.phases.push(phase_from_json(p)?);
        }
        let counters = v.get("counters").ok_or("missing counters object")?;
        report.counters = KernelCounters {
            compsim_invocations: req_u64(counters, "compsim_invocations")?,
            elements_scanned: req_u64(counters, "elements_scanned")?,
            adaptive_gallop: opt_u64(counters, "adaptive_gallop").unwrap_or(0),
            adaptive_block: opt_u64(counters, "adaptive_block").unwrap_or(0),
        };
        if let Some(timeline) = v.get("timeline") {
            report.timeline = registry::timeline_from_json(timeline)?;
        }
        if let Some(races) = v.get("races").and_then(Json::as_arr) {
            for r in races {
                report.races.push(crate::race::RaceReport::from_json(r)?);
            }
        }
        if let Some(Json::Obj(extra)) = v.get("extra") {
            report.extra = extra.clone();
        }
        Ok(report)
    }

    /// Parses a report from JSON text.
    pub fn parse(text: &str) -> Result<RunReport, String> {
        let v = json::parse(text).map_err(|e: JsonError| e.to_string())?;
        RunReport::from_json(&v)
    }

    /// Serializes to pretty JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Writes the report to `path`, creating parent directories.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_json_file(path.as_ref(), &self.to_json())
    }
}

fn phase_to_json(p: &PhaseMetrics) -> Json {
    let mut fields = vec![
        ("name".into(), Json::Str(p.name.clone())),
        ("wall_nanos".into(), Json::from_u64(p.wall_nanos)),
        ("tasks".into(), Json::from_u64(p.tasks)),
    ];
    if !p.workers.is_empty() {
        fields.push((
            "workers".into(),
            Json::Arr(
                p.workers
                    .iter()
                    .map(|w| {
                        let mut fields = vec![
                            ("worker".into(), Json::from_u64(w.worker)),
                            ("busy_nanos".into(), Json::from_u64(w.busy_nanos)),
                            ("tasks".into(), Json::from_u64(w.tasks)),
                            ("yields".into(), Json::from_u64(w.yields)),
                        ];
                        if w.steals != 0 {
                            fields.push(("steals".into(), Json::from_u64(w.steals)));
                        }
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(fields)
}

fn phase_from_json(v: &Json) -> Result<PhaseMetrics, String> {
    let mut phase = PhaseMetrics {
        name: req_str(v, "name")?,
        wall_nanos: req_u64(v, "wall_nanos")?,
        tasks: req_u64(v, "tasks")?,
        workers: Vec::new(),
    };
    if let Some(workers) = v.get("workers").and_then(Json::as_arr) {
        for w in workers {
            phase.workers.push(WorkerMetrics {
                worker: req_u64(w, "worker")?,
                busy_nanos: req_u64(w, "busy_nanos")?,
                tasks: req_u64(w, "tasks")?,
                yields: req_u64(w, "yields")?,
                steals: opt_u64(w, "steals").unwrap_or(0),
            });
        }
    }
    Ok(phase)
}

/// A figure-level report: shared context, the rendered table, and the
/// individual [`RunReport`]s behind it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FigureReport {
    /// Figure name (bench binary name, e.g. `"fig1_breakdown"`).
    pub figure: String,
    /// Figure-level context (scale, flag values, ...).
    pub context: Vec<(String, Json)>,
    /// The rendered results table, when the figure prints one.
    pub table: Option<TableData>,
    /// The runs behind the figure.
    pub runs: Vec<RunReport>,
}

/// A rendered results table, as printed by the bench harness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableData {
    /// Column headers.
    pub header: Vec<String>,
    /// Row cells (stringly typed, exactly as printed).
    pub rows: Vec<Vec<String>>,
}

impl FigureReport {
    /// A fresh figure report.
    pub fn new(figure: impl Into<String>) -> FigureReport {
        FigureReport {
            figure: figure.into(),
            ..FigureReport::default()
        }
    }

    /// Serializes to a [`Json`] value.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".into(), Json::Int(SCHEMA_VERSION as i128)),
            ("figure".into(), Json::Str(self.figure.clone())),
        ];
        if !self.context.is_empty() {
            fields.push(("context".into(), Json::Obj(self.context.clone())));
        }
        if let Some(t) = &self.table {
            fields.push((
                "table".into(),
                Json::Obj(vec![
                    (
                        "header".into(),
                        Json::Arr(t.header.iter().cloned().map(Json::Str).collect()),
                    ),
                    (
                        "rows".into(),
                        Json::Arr(
                            t.rows
                                .iter()
                                .map(|r| Json::Arr(r.iter().cloned().map(Json::Str).collect()))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        fields.push((
            "runs".into(),
            Json::Arr(self.runs.iter().map(RunReport::to_json).collect()),
        ));
        Json::Obj(fields)
    }

    /// Deserializes from a [`Json`] value.
    pub fn from_json(v: &Json) -> Result<FigureReport, String> {
        check_schema(req_u64(v, "schema")? as u32)?;
        let mut report = FigureReport::new(req_str(v, "figure")?);
        if let Some(Json::Obj(ctx)) = v.get("context") {
            report.context = ctx.clone();
        }
        if let Some(t) = v.get("table") {
            let header = str_arr(t.get("header").ok_or("table missing header")?)?;
            let mut rows = Vec::new();
            for r in t
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or("table missing rows")?
            {
                rows.push(str_arr(r)?);
            }
            report.table = Some(TableData { header, rows });
        }
        for r in v
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("missing runs array")?
        {
            report.runs.push(RunReport::from_json(r)?);
        }
        Ok(report)
    }

    /// Parses a figure report from JSON text.
    pub fn parse(text: &str) -> Result<FigureReport, String> {
        let v = json::parse(text).map_err(|e: JsonError| e.to_string())?;
        FigureReport::from_json(&v)
    }

    /// Serializes to pretty JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Writes the report to `path`, creating parent directories.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_json_file(path.as_ref(), &self.to_json())
    }
}

fn write_json_file(path: &Path, v: &Json) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, v.to_pretty_string())
}

fn push_opt_str(fields: &mut Vec<(String, Json)>, key: &str, v: &Option<String>) {
    if let Some(s) = v {
        fields.push((key.into(), Json::Str(s.clone())));
    }
}

fn push_opt_u64(fields: &mut Vec<(String, Json)>, key: &str, v: Option<u64>) {
    if let Some(n) = v {
        fields.push((key.into(), Json::from_u64(n)));
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn opt_str(v: &Json, key: &str) -> Option<String> {
    v.get(key).and_then(Json::as_str).map(str::to_string)
}

fn opt_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

fn str_arr(v: &Json) -> Result<Vec<String>, String> {
    v.as_arr()
        .ok_or("expected string array")?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| "expected string array".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64 — the same seeded generator the stress driver uses.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, pct: u64) -> bool {
            self.below(100) < pct
        }
    }

    fn arbitrary_report(rng: &mut Rng) -> RunReport {
        let algorithms = ["ppscan", "pscan", "scan", "scanpp", "scanxp", "anyscan"];
        let mut r = RunReport::new(algorithms[rng.below(algorithms.len() as u64) as usize]);
        if rng.chance(70) {
            r.dataset = Some(format!("dataset-{}", rng.below(5)));
        }
        if rng.chance(70) {
            r.threads = Some(1 + rng.below(64));
        }
        if rng.chance(70) {
            r.kernel = Some("pivot-avx2".into());
        }
        if rng.chance(50) {
            r.strategy = Some(format!("adversarial({})", rng.next()));
        }
        if rng.chance(50) {
            r.degree_threshold = Some(rng.next());
        }
        if rng.chance(80) {
            // Round-trippable f64 from bits of the generator.
            r.eps = Some((rng.below(1000) as f64) / 1000.0);
            r.mu = Some(2 + rng.below(20));
        }
        if rng.chance(80) {
            r.graph = Some(GraphShape {
                vertices: rng.below(1 << 40),
                edges: rng.below(1 << 40),
            });
        }
        r.wall_nanos = rng.next() >> 1;
        for p in 0..rng.below(6) {
            let mut phase = PhaseMetrics {
                name: format!("phase-{p}"),
                wall_nanos: rng.below(1 << 40),
                tasks: rng.below(1 << 30),
                workers: Vec::new(),
            };
            for w in 0..rng.below(5) {
                phase.workers.push(WorkerMetrics {
                    worker: w,
                    busy_nanos: rng.below(1 << 40),
                    tasks: rng.below(1 << 20),
                    yields: rng.below(1 << 10),
                    // Often zero, so the emit-iff-nonzero path is covered.
                    steals: rng.below(3),
                });
            }
            r.phases.push(phase);
        }
        r.counters = KernelCounters {
            compsim_invocations: rng.next() >> 1,
            elements_scanned: rng.next() >> 1,
            adaptive_gallop: rng.below(3) * rng.below(1 << 20),
            adaptive_block: rng.below(3) * rng.below(1 << 20),
        };
        if rng.chance(30) {
            // Schema-2 live-metrics timeline.
            for _ in 0..1 + rng.below(4) {
                r.timeline
                    .push(crate::registry::arbitrary_snapshot(rng.next()));
            }
        }
        if rng.chance(40) {
            r.push_extra("seed", Json::from_u64(rng.next()));
            r.push_extra(
                "note",
                Json::Str("weird \"chars\" \\ \n\t and ☃ unicode".into()),
            );
            r.push_extra(
                "list",
                Json::Arr(vec![Json::Int(1), Json::Num(0.5), Json::Null]),
            );
        }
        r
    }

    #[test]
    fn run_report_roundtrip_property() {
        let mut rng = Rng(0x0b5e_cafe);
        for case in 0..200 {
            let report = arbitrary_report(&mut rng);
            let text = report.to_json_string();
            let parsed = RunReport::parse(&text)
                .unwrap_or_else(|e| panic!("case {case}: parse failed: {e}\n{text}"));
            assert_eq!(parsed, report, "case {case} round-trip mismatch");
        }
    }

    #[test]
    fn figure_report_roundtrip_property() {
        let mut rng = Rng(0xfee1_600d);
        for case in 0..50 {
            let mut fig = FigureReport::new(format!("fig{}", rng.below(9)));
            fig.context.push(("scale".into(), Json::Num(0.1)));
            fig.context
                .push(("quick".into(), Json::Bool(rng.chance(50))));
            if rng.chance(80) {
                fig.table = Some(TableData {
                    header: vec!["dataset".into(), "time (s)".into()],
                    rows: (0..rng.below(4))
                        .map(|i| vec![format!("d{i}"), format!("{}.{:03}", i, i * 7)])
                        .collect(),
                });
            }
            for _ in 0..rng.below(4) {
                fig.runs.push(arbitrary_report(&mut rng));
            }
            let text = fig.to_json_string();
            let parsed = FigureReport::parse(&text)
                .unwrap_or_else(|e| panic!("case {case}: parse failed: {e}\n{text}"));
            assert_eq!(parsed, fig, "case {case} round-trip mismatch");
        }
    }

    #[test]
    fn phases_from_stage_aggregates() {
        use crate::span::{enter_worker, Collector, Span};
        let collector = Collector::new();
        let guard = collector.activate();
        {
            let _phase = Span::enter("alpha");
            let _w = enter_worker(2);
            let _t1 = Span::enter("alpha");
        }
        drop(guard);
        let phases = RunReport::phases_from(&collector.snapshot());
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "alpha");
        assert_eq!(phases[0].tasks, 1);
        assert_eq!(phases[0].workers.len(), 1);
        assert_eq!(phases[0].workers[0].worker, 2);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut r = RunReport::new("ppscan");
        r.schema = 99;
        let text = r.to_json_string();
        assert!(RunReport::parse(&text).is_err());
    }

    /// A schema-1 file (pre-timeline baseline) still parses, keeps its
    /// schema, and re-serializes byte-identically.
    #[test]
    fn schema_1_reports_stay_roundtrip_exact() {
        let mut r = RunReport::new("ppscan").with_threads(4);
        r.wall_nanos = 1234;
        r.schema = 1;
        let text = r.to_json_string();
        assert!(text.contains("\"schema\": 1"));
        let parsed = RunReport::parse(&text).unwrap();
        assert_eq!(parsed.schema, 1);
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn timeline_serializes_iff_nonempty() {
        let mut r = RunReport::new("soak");
        assert!(!r.to_json_string().contains("timeline"));
        r.timeline.push(crate::registry::arbitrary_snapshot(42));
        let text = r.to_json_string();
        assert!(text.contains("timeline"));
        let parsed = RunReport::parse(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.schema, SCHEMA_VERSION);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ppscan-obs-test");
        let path = dir.join("nested").join("report.json");
        let report = RunReport::new("scan").with_params(0.5, 5).with_threads(4);
        report.write_to_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(RunReport::parse(&text).unwrap(), report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
