//! The stress spine: the one copy of the harness mechanics both
//! differential drivers share — `case → oracle → shrink → persist →
//! replay`. A driver ([`crate::stress`] for the clustering algorithms,
//! `ppscan_update::stress` for incremental updates) supplies only its
//! generator, its oracle and its [`Case`] type; the spine supplies the
//! rest:
//!
//! - [`sweep`] runs seeded [`Unit`]s in order, persists the first
//!   failure into the driver's corpus and logs every unit into the
//!   sweep's [`RunReport`];
//! - [`shrink`] is the ddmin pass a driver runs over any list (edges,
//!   ops) before it reports a failure;
//! - [`persist`] and [`replay_corpus`] write and re-run the corpus under
//!   [`corpus_dir`], so a fixed bug cleans itself out of CI while an
//!   unfixed one stays loud.
//!
//! # Seed log
//!
//! `report.extra["seeds"]` holds one object per unit swept: `seed`, the
//! driver's own fields (the update driver's `family`), `status` (`ok` or
//! `failed`), `checked` (oracle checks the unit ran) and `races` (races
//! the detector reported for the unit; 0 with detection off), plus `case`
//! (the shrunk failure as corpus JSON) on the failing unit.
//! `report.extra["checked"]` holds the total.

use ppscan_graph::VertexId;
use ppscan_obs::json::Json;
use ppscan_obs::race::DetectionSession;
use ppscan_obs::RunReport;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A shrunk, replayable failure of one differential driver.
pub trait Case: Sized {
    /// Serializes the case (corpus file format).
    fn to_json(&self) -> Json;
    /// Deserializes a corpus entry written by [`Case::to_json`]. Returns
    /// `None` on any missing, ill-typed or out-of-range field, so replay
    /// reports a bad entry instead of panicking on it.
    fn from_json(json: &Json) -> Option<Self>;
    /// Corpus file name, unique per (seed, configuration), of the form
    /// `case-*.json`.
    fn corpus_file_name(&self) -> String;
    /// Re-runs exactly this case's pinned configuration on its embedded
    /// (shrunk) input, `repeats` times. Returns `true` if the divergence
    /// from the oracle still manifests.
    fn reproduces(&self, repeats: usize) -> bool;
}

/// `<target>/<name>`: a directory under the cargo target directory
/// (honoring `CARGO_TARGET_DIR`). The core driver's corpus is
/// `corpus_dir("stress-corpus")`, the update driver's
/// `corpus_dir("update-corpus")`, so replays stay per subsystem.
pub fn corpus_dir(name: &str) -> PathBuf {
    let target = option_env!("CARGO_TARGET_DIR").map_or_else(
        || {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        },
        PathBuf::from,
    );
    target.join(name)
}

/// ddmin-style greedy minimization over any item list (edges, ops):
/// repeatedly drop chunks of items (halving the chunk size down to
/// single items) while `fails` still holds, within `budget` predicate
/// evaluations. The result is 1-minimal w.r.t. the chunks tried, not
/// globally minimal — good enough to turn a 500-edge reproduction into a
/// screenful. Every candidate, the empty one included, goes to `fails`.
pub fn shrink<T: Clone>(
    mut items: Vec<T>,
    budget: &mut usize,
    fails: &dyn Fn(&[T]) -> bool,
) -> Vec<T> {
    let mut chunk = (items.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < items.len() && *budget > 0 {
            let mut candidate = items.clone();
            let end = (i + chunk).min(candidate.len());
            candidate.drain(i..end);
            *budget -= 1;
            if fails(&candidate) {
                items = candidate;
            } else {
                i = end;
            }
        }
        if chunk == 1 || *budget == 0 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    items
}

/// Writes one shrunk failure into the corpus directory. Best-effort:
/// persistence failing must not mask the differential failure itself.
pub fn persist<C: Case>(dir: &Path, case: &C) {
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

/// Loads every corpus entry under `dir` and re-runs it ([`Case::
/// reproduces`] with `repeats` attempts). Returns `(case, still_failing)`
/// pairs in file-name order; a missing directory is an empty (clean)
/// corpus. Unparseable files are an error — a corrupt corpus should be
/// loud, not skipped.
pub fn replay_corpus<C: Case>(dir: &Path, repeats: usize) -> Result<Vec<(C, bool)>, String> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
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
    let mut out = Vec::new();
    for path in entries {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let json = ppscan_obs::json::parse(&text)
            .map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let case = C::from_json(&json)
            .ok_or_else(|| format!("malformed corpus entry {}", path.display()))?;
        let still_failing = case.reproduces(repeats);
        out.push((case, still_failing));
    }
    Ok(out)
}

/// Aggregate statistics of a green sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Units swept.
    pub cases: u64,
    /// Oracle checks run: (algorithm, kernel, threads, strategy, ε, µ)
    /// configurations for the core driver, deltas for the update driver.
    pub checked: u64,
}

/// One seeded unit of a [`sweep`].
pub struct Unit<F> {
    /// The seed the unit's input derives from.
    pub seed: u64,
    /// Driver-specific seed-log fields, logged after `seed`.
    pub fields: Vec<(String, Json)>,
    /// Runs the unit's checks, counting each into its argument; `Err`
    /// carries the first failure, already shrunk.
    pub check: F,
}

/// Runs `units` in order and stops at the first failure, which is
/// persisted into `corpus_dir` (`None` disables persistence, e.g. for
/// tests that provoke failures on purpose). Every unit swept, the failing
/// one included, is logged into `report` (see the module docs for the
/// schema). With `race_detection` each unit runs inside its own
/// [`DetectionSession`] — one per unit keeps the vector clocks small and
/// tags any detected race with the unit it came from — and the races land
/// in [`RunReport::races`]. The report is returned even on failure, so a
/// caller can persist it either way.
pub fn sweep<C, F>(
    mut report: RunReport,
    units: impl IntoIterator<Item = Unit<F>>,
    corpus_dir: Option<&Path>,
    race_detection: bool,
) -> (Result<SweepStats, Box<C>>, RunReport)
where
    C: Case,
    F: FnOnce(&mut u64) -> Result<(), Box<C>>,
{
    let wall = Instant::now();
    let mut seeds = Vec::new();
    let mut stats = SweepStats::default();
    let mut failure = None;
    for unit in units {
        let session = race_detection.then(DetectionSession::begin);
        let mut checked = 0;
        let outcome = (unit.check)(&mut checked);
        let races = session.map_or_else(Vec::new, |s| s.finish());
        stats.checked += checked;
        let mut entry = vec![("seed".to_string(), Json::from_u64(unit.seed))];
        entry.extend(unit.fields);
        let status = if outcome.is_ok() { "ok" } else { "failed" };
        entry.push(("status".to_string(), Json::Str(status.to_string())));
        entry.push(("checked".to_string(), Json::from_u64(checked)));
        entry.push(("races".to_string(), Json::from_u64(races.len() as u64)));
        report.races.extend(races);
        match outcome {
            Ok(()) => stats.cases += 1,
            Err(case) => {
                if let Some(dir) = corpus_dir {
                    persist(dir, case.as_ref());
                }
                entry.push(("case".to_string(), case.to_json()));
                failure = Some(case);
            }
        }
        seeds.push(Json::Obj(entry));
        if failure.is_some() {
            break;
        }
    }
    report.push_extra("seeds", Json::Arr(seeds));
    report.push_extra("checked", Json::from_u64(stats.checked));
    report.wall_nanos = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (failure.map_or(Ok(stats), Err), report)
}

/// Serializes an edge list as `[[u, v], …]`, the form both corpus
/// formats use.
pub fn edges_to_json(edges: &[(VertexId, VertexId)]) -> Json {
    Json::Arr(
        edges
            .iter()
            .map(|&(u, v)| Json::Arr(vec![Json::from_u64(u as u64), Json::from_u64(v as u64)]))
            .collect(),
    )
}

/// Parses an edge list written by [`edges_to_json`]; `None` on any
/// ill-typed entry or id beyond `u32`.
pub fn edges_from_json(json: &Json) -> Option<Vec<(VertexId, VertexId)>> {
    json.as_arr()?
        .iter()
        .map(|e| match e.as_arr()? {
            [u, v] => Some((
                u32::try_from(u.as_u64()?).ok()?,
                u32::try_from(v.as_u64()?).ok()?,
            )),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stress::FailingCase;
    use ppscan_graph::gen;
    use ppscan_intersect::Kernel;
    use ppscan_sched::ExecutionStrategy;

    #[test]
    fn shrinker_minimizes_and_respects_budget() {
        // Fails whenever edge (2, 3) is present: any superset shrinks to
        // exactly that edge.
        let edges: Vec<(VertexId, VertexId)> = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)];
        let mut budget = 100;
        let shrunk = shrink(edges, &mut budget, &|e| e.contains(&(2, 3)));
        assert_eq!(shrunk, vec![(2, 3)]);

        // Fails iff the op (+, 0, 5) is present: the culprit op survives
        // alone.
        let ops: Vec<(bool, u32, u32)> = (0..12).map(|i| (i % 2 == 0, i, i + 5)).collect();
        let mut budget = 200;
        let shrunk = shrink(ops, &mut budget, &|ops| ops.contains(&(true, 0, 5)));
        assert_eq!(shrunk, vec![(true, 0, 5)]);

        // A predicate that fails on every non-empty list (the core
        // driver's predicates reject the empty graph) spends exactly the
        // budget.
        let edges: Vec<(VertexId, VertexId)> = (0..100).map(|i| (i, i + 1)).collect();
        let mut budget = 3;
        let _ = shrink(edges, &mut budget, &|e| !e.is_empty());
        assert_eq!(budget, 0);
    }

    /// A stand-in case: its seed, reproducing on every replay.
    #[derive(Debug)]
    struct Probe(u64);

    impl Case for Probe {
        fn to_json(&self) -> Json {
            Json::from_u64(self.0)
        }
        fn from_json(json: &Json) -> Option<Probe> {
            json.as_u64().map(Probe)
        }
        fn corpus_file_name(&self) -> String {
            format!("case-{}.json", self.0)
        }
        fn reproduces(&self, _repeats: usize) -> bool {
            true
        }
    }

    #[test]
    fn sweep_stops_at_the_first_failure_and_persists_it() {
        let dir = corpus_dir("spine-sweep-test");
        let _ = std::fs::remove_dir_all(&dir);
        let units = (0..4).map(|seed| Unit {
            seed,
            fields: Vec::new(),
            check: move |checked: &mut u64| {
                *checked += 2;
                if seed == 2 {
                    Err(Box::new(Probe(seed)))
                } else {
                    Ok(())
                }
            },
        });
        let (result, report) = sweep(RunReport::new("probe"), units, Some(&dir), false);
        assert_eq!(result.unwrap_err().0, 2);
        let extra = |k: &str| report.extra.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let seeds = extra("seeds").unwrap().as_arr().unwrap();
        assert_eq!(seeds.len(), 3, "unit 3 must not run");
        assert_eq!(seeds[2].get("status").unwrap().as_str(), Some("failed"));
        assert_eq!(seeds[2].get("case").unwrap().as_u64(), Some(2));
        assert_eq!(extra("checked").unwrap().as_u64(), Some(6));
        let replayed = replay_corpus::<Probe>(&dir, 1).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].0 .0, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_files_roundtrip_through_replay() {
        // Persist a (healthy) case, then replay the directory: the entry
        // must load and report itself as no-longer-failing.
        let dir = corpus_dir("stress-corpus-test");
        let _ = std::fs::remove_dir_all(&dir);
        let case = FailingCase {
            case_seed: 0xd1ab_0003,
            algorithm: "ppscan",
            kernel: Some(Kernel::MergeEarly),
            threads: Some(4),
            strategy: Some(ExecutionStrategy::SequentialDeterministic),
            eps: 0.5,
            mu: 3,
            edges: gen::complete(4).undirected_edges().collect(),
            detail: "role mismatch at vertex 0".into(),
        };
        persist(&dir, &case);
        let replayed = replay_corpus::<FailingCase>(&dir, 2).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].0.case_seed, case.case_seed);
        assert!(!replayed[0].1, "healthy case must not reproduce");

        // An unparseable `case-*.json` is an error, not a skipped entry.
        let bad = dir.join("case-garbage.json");
        std::fs::write(&bad, "{ not json").unwrap();
        let err = replay_corpus::<FailingCase>(&dir, 2).unwrap_err();
        assert!(err.contains("case-garbage.json"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
