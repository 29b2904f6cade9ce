//! Workspace concurrency-policy lint (std-only, no syntax tree): scans
//! `crates/*/src/**.rs` line by line and enforces three policies that
//! encode lessons from earlier PRs.
//!
//! 1. **ordering-audit** — `Ordering::` call sites must be covered by
//!    the DESIGN §9.3 memory-ordering audit. The audit table is the
//!    contract: for every file it names, *each* non-test `Ordering::`
//!    site must sit in a function the table lists. Files the table does
//!    not name may use atomics only when they appear in
//!    [`ORDERING_ALLOW`] with a recorded reason — so introducing
//!    atomics into a new file is an explicit, reviewed act (extend the
//!    audit table or the allowlist), never an accident.
//! 2. **safety-comment** — every `unsafe` keyword must be preceded (or
//!    accompanied) by a `// SAFETY:` comment or a `# Safety` doc
//!    section explaining why the contract holds.
//! 3. **global-static-atomic** — no new module-scope `static` atomics:
//!    process-global mutable state is how the PR 1 counter cross-talk
//!    bug happened. Function-local statics and `#[cfg(test)]` items are
//!    exempt; deliberate globals live in [`STATIC_ATOMIC_ALLOW`] with a
//!    reason.
//!
//! The scanner is a deliberately simple line-based pass (comment and
//! string stripping, brace-depth tracking, nearest-enclosing-`fn`
//! attribution). It is tuned to this workspace's idiom — rustfmt'd
//! code, test modules as trailing `#[cfg(test)] mod tests` blocks — and
//! prefers a clear false positive (fix: annotate or allowlist) over a
//! silent miss.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Files with `Ordering::` call sites outside the DESIGN §9.3 audit
/// table's scope, each with the reason the policy tolerates them.
/// Paths are workspace-relative. Extend this list (with a reason) or
/// the audit table itself when introducing atomics into a new file.
pub const ORDERING_ALLOW: &[(&str, &str)] = &[
    (
        "crates/unionfind/src/substrate.rs",
        "substrate shim forwards caller-chosen orderings to std/model atomics verbatim",
    ),
    (
        "crates/unionfind/src/traced.rs",
        "traced substrate forwards orderings and mirrors them into the race detector",
    ),
    (
        "crates/unionfind/src/seq.rs",
        "Cell-based sequential baseline; Ordering appears only in substrate trait impls",
    ),
    (
        "crates/obs/src/race.rs",
        "the race detector itself: orderings classify recorded edges, they are not protocol sites",
    ),
    (
        "crates/obs/src/hist.rs",
        "lock-free histogram: monotone counter buckets, Relaxed by design",
    ),
    (
        "crates/obs/src/registry.rs",
        "metrics registry: sharded monotone counters and last-write-wins gauges",
    ),
    (
        "crates/obs/src/events.rs",
        "flight recorder ring: seqlock-style slots audited in DESIGN §12",
    ),
    (
        "crates/obs/src/propagate.rs",
        "ambient-context handoff: SeqCst publication, no lock-free protocol",
    ),
    (
        "crates/intersect/src/counters.rs",
        "kernel invocation counters: monotone telemetry, Relaxed by design",
    ),
    (
        "crates/gsindex/src/build.rs",
        "parallel index build: fetch_add work claiming behind a pool join barrier",
    ),
    (
        "crates/gsindex/src/simvalue.rs",
        "packed similarity cells: idempotent at-most-once publication, same argument as simstore.rs",
    ),
    (
        "crates/sched/src/lib.rs",
        "the worker pool: deque/condvar protocol audited in DESIGN §8, exercised under the detector",
    ),
    (
        "crates/serve/src/server.rs",
        "serving loop lifecycle flags behind mutex/condvar; run under the detector in tests",
    ),
    (
        "crates/core/src/scanxp.rs",
        "scan-xp shared frontier cursor: fetch_add claiming behind a join barrier",
    ),
    (
        "crates/core/src/ppscan/cluster.rs",
        "cluster-core stage: fetch_add claiming plus unionfind calls audited in §9.3",
    ),
    (
        "crates/core/src/ppscan/shared.rs",
        "pipeline shared state: fetch_add claiming behind phase barriers",
    ),
    (
        "crates/core/src/ppscan/roles.rs",
        "role assignment: idempotent same-value stores behind phase barriers",
    ),
    (
        "crates/core/src/race_fixtures.rs",
        "deliberately mis-ordered detector fixtures; the weak orderings are the point",
    ),
    (
        "crates/check/src/scenarios.rs",
        "model-checker scenarios drive the substrate with the orderings under test",
    ),
    (
        "crates/bench/src/bin/soak.rs",
        "soak harness stop flag: single bool, Relaxed poll",
    ),
];

/// Module-scope static atomics the policy tolerates, as
/// `(file, static name, reason)`.
pub const STATIC_ATOMIC_ALLOW: &[(&str, &str, &str)] = &[
    (
        "crates/obs/src/race.rs",
        "ACTIVE",
        "the detector's own is-a-session-active latch; sessions are serialized by the GATE mutex",
    ),
    (
        "crates/obs/src/registry.rs",
        "NEXT_SHARD",
        "round-robin shard hint for counter striping; value is a pure performance hint",
    ),
];

/// One policy violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Policy id: `ordering-audit`, `safety-comment`, or
    /// `global-static-atomic`.
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The parsed §9.3 audit table: for each file it names (by basename,
/// e.g. `concurrent.rs`), the set of backticked identifiers its rows
/// mention — function names (and incidentally method names), matched
/// against the enclosing function of each `Ordering::` site.
#[derive(Debug, Default, Clone)]
pub struct AuditTable {
    pub audited: BTreeMap<String, BTreeSet<String>>,
}

impl AuditTable {
    /// True when the table claims exhaustive coverage of `basename`.
    pub fn covers_file(&self, basename: &str) -> bool {
        self.audited.contains_key(basename)
    }

    /// True when `func` in `basename` appears in some row.
    pub fn covers_site(&self, basename: &str, func: &str) -> bool {
        self.audited
            .get(basename)
            .is_some_and(|funcs| funcs.contains(func))
    }
}

/// Extracts the §9.3 audit table from DESIGN.md: rows are the `|`-lines
/// between the `### 9.3` heading and the next heading; the first
/// backticked token of a row's Site cell ending in `.rs` names the
/// file, every other ident-like backticked token in that cell is taken
/// as an audited function name.
pub fn parse_audit(design: &str) -> AuditTable {
    let mut table = AuditTable::default();
    let mut in_section = false;
    for line in design.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("###") {
            in_section = trimmed.contains("9.3");
            continue;
        }
        if !in_section || !trimmed.starts_with('|') {
            continue;
        }
        let site_cell = match trimmed.trim_start_matches('|').split('|').next() {
            Some(c) => c,
            None => continue,
        };
        let mut file: Option<String> = None;
        let mut rest = site_cell;
        while let Some(start) = rest.find('`') {
            let after = &rest[start + 1..];
            let Some(len) = after.find('`') else { break };
            let token = &after[..len];
            rest = &after[len + 1..];
            if token.ends_with(".rs") {
                file.get_or_insert_with(|| token.to_string());
            } else if let Some(f) = &file {
                // Keep the leading identifier of tokens like
                // `find_root`: or `parent[x]`.
                let ident: String = token
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !ident.is_empty() && !ident.chars().next().unwrap().is_numeric() {
                    table.audited.entry(f.clone()).or_default().insert(ident);
                }
            }
        }
        // A file named with no identifier tokens still marks the file
        // as audited (header rows contribute nothing: no `.rs` token).
        if let Some(f) = file {
            table.audited.entry(f).or_default();
        }
    }
    table
}

/// Strips comments and the contents of string/char literals from the
/// whole file, preserving line structure (output line i corresponds to
/// source line i), so brace counting and keyword scans don't trip on
/// them. A small state machine, not a full lexer: it tracks line and
/// block comments, plain and raw strings (including multi-line and
/// `\`-continued ones), char literals, and lifetimes.
fn strip_lines(source: &str) -> Vec<String> {
    enum S {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
    }
    let b = source.as_bytes();
    let mut lines = Vec::new();
    let mut cur = String::new();
    let mut s = S::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            lines.push(std::mem::take(&mut cur));
            if matches!(s, S::LineComment) {
                s = S::Code;
            }
            i += 1;
            continue;
        }
        match s {
            S::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    s = S::LineComment;
                    i += 2;
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    s = S::BlockComment(1);
                    i += 2;
                } else if c == b'"' {
                    cur.push('"');
                    s = S::Str;
                    i += 1;
                } else if c == b'r'
                    && (i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_'))
                {
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') {
                        cur.push('"');
                        s = S::RawStr(hashes);
                        i = j + 1;
                    } else {
                        cur.push('r');
                        i += 1;
                    }
                } else if c == b'\'' {
                    if b.get(i + 1) == Some(&b'\\') {
                        // Escaped char literal: skip to the close quote.
                        let mut j = i + 2;
                        while j < b.len() && b[j] != b'\'' {
                            j += 1;
                        }
                        cur.push_str("' '");
                        i = j + 1;
                    } else if b.get(i + 2) == Some(&b'\'') {
                        cur.push_str("' '");
                        i += 3;
                    } else {
                        // Lifetime.
                        cur.push('\'');
                        i += 1;
                    }
                } else {
                    cur.push(c as char);
                    i += 1;
                }
            }
            S::LineComment => i += 1,
            S::BlockComment(d) => {
                if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    s = if d == 1 {
                        S::Code
                    } else {
                        S::BlockComment(d - 1)
                    };
                    i += 2;
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    s = S::BlockComment(d + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            S::Str => {
                if c == b'\\' {
                    // Keep \-before-newline visible to the outer line
                    // splitter so line numbers stay aligned.
                    i += if b.get(i + 1) == Some(&b'\n') { 1 } else { 2 };
                } else if c == b'"' {
                    cur.push('"');
                    s = S::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            S::RawStr(h) => {
                if c == b'"' {
                    let mut j = i + 1;
                    let mut k = 0;
                    while k < h && b.get(j) == Some(&b'#') {
                        k += 1;
                        j += 1;
                    }
                    if k == h {
                        cur.push('"');
                        s = S::Code;
                        i = j;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    lines
}

/// First identifier after `pat` in `code`, if any.
fn ident_after<'a>(code: &'a str, pat: &str) -> Option<&'a str> {
    let at = code.find(pat)? + pat.len();
    let rest = code[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    (end > 0).then_some(&rest[..end])
}

/// Lints one file's source. `rel_path` is the workspace-relative path
/// used in messages and allowlist matching.
pub fn lint_source(rel_path: &str, source: &str, audit: &AuditTable) -> Vec<Violation> {
    let basename = rel_path.rsplit('/').next().unwrap_or(rel_path);
    let ordering_allowed = ORDERING_ALLOW.iter().any(|(f, _)| *f == rel_path);
    let lines: Vec<&str> = source.lines().collect();
    let mut code = strip_lines(source);
    code.truncate(lines.len());
    let mut violations = Vec::new();

    // Pass 1: region tracking. depth[i] = brace depth at the START of
    // line i; test_region[i] = line i sits inside a #[cfg(test)] item;
    // enclosing_fn[i] = name of the innermost function open at line i.
    let mut depth = 0i32;
    let mut depths = Vec::with_capacity(lines.len());
    let mut test_region = vec![false; lines.len()];
    let mut enclosing_fn: Vec<Option<String>> = vec![None; lines.len()];
    let mut fn_stack: Vec<(String, i32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut test_until: Option<i32> = None;
    let mut pending_test = false;
    for (i, c) in code.iter().enumerate() {
        depths.push(depth);
        if test_until.is_some() {
            test_region[i] = true;
        }
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            pending_test = true;
            test_region[i] = true;
        }
        if let Some(name) = ident_after(c, "fn ") {
            pending_fn = Some(name.to_string());
        }
        enclosing_fn[i] = fn_stack.last().map(|(n, _)| n.clone()).or_else(|| {
            // A one-line `fn f() { ... }` or the declaration line
            // itself attributes to the declared function.
            pending_fn.clone()
        });
        for ch in c.chars() {
            match ch {
                '{' => {
                    if pending_test {
                        test_until = Some(depth);
                        pending_test = false;
                    }
                    if let Some(name) = pending_fn.take() {
                        fn_stack.push((name, depth));
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if fn_stack.last().is_some_and(|(_, d)| *d == depth) {
                        fn_stack.pop();
                    }
                    if test_until == Some(depth) {
                        test_until = None;
                    }
                }
                ';' => {
                    // A declaration ended without a body.
                    pending_fn = None;
                    pending_test = false;
                }
                _ => {}
            }
        }
    }

    // Pass 2: the three policies.
    for (i, c) in code.iter().enumerate() {
        let lineno = i + 1;

        if c.contains("Ordering::") && !test_region[i] {
            if audit.covers_file(basename) {
                let func = enclosing_fn[i].as_deref().unwrap_or("");
                if !audit.covers_site(basename, func) {
                    violations.push(Violation {
                        file: rel_path.to_string(),
                        line: lineno,
                        rule: "ordering-audit",
                        message: format!(
                            "Ordering:: site in `{}` of audited file {basename} has no \
                             DESIGN §9.3 audit row — add one",
                            if func.is_empty() {
                                "<module scope>"
                            } else {
                                func
                            },
                        ),
                    });
                }
            } else if !ordering_allowed {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: lineno,
                    rule: "ordering-audit",
                    message: format!(
                        "{basename} uses Ordering:: but is neither audited in DESIGN §9.3 \
                         nor allowlisted in ppscan-lint's ORDERING_ALLOW — do one or the other",
                    ),
                });
            }
        }

        if let Some(col) = find_unsafe(c) {
            let _ = col;
            if !has_safety_comment(&lines, i) {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: lineno,
                    rule: "safety-comment",
                    message: "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc \
                              section) justifying it"
                        .to_string(),
                });
            }
        }

        if depths[i] == 0 && !test_region[i] && is_static_atomic(c) {
            let name = ident_after(c, "static ").unwrap_or("?");
            let allowed = STATIC_ATOMIC_ALLOW
                .iter()
                .any(|(f, n, _)| *f == rel_path && *n == name);
            if !allowed {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: lineno,
                    rule: "global-static-atomic",
                    message: format!(
                        "process-global static atomic `{name}` (the PR 1 counter-cross-talk \
                         class) — pass state explicitly, or allowlist it with a reason in \
                         ppscan-lint's STATIC_ATOMIC_ALLOW",
                    ),
                });
            }
        }
    }
    violations
}

/// Position of an `unsafe` keyword token in stripped code, if any.
fn find_unsafe(code: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = code[from..].find("unsafe") {
        let at = from + at;
        let before_ok = code[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after = code[at + 6..].chars().next();
        let after_ok = after.is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 6;
    }
    None
}

/// True when line `i` (containing `unsafe`) carries or is preceded by a
/// SAFETY justification: a `// SAFETY:` on the same line, or a
/// contiguous run of comment/attribute/doc lines directly above that
/// mentions `SAFETY:` or `# Safety`.
fn has_safety_comment(lines: &[&str], i: usize) -> bool {
    let marker = |l: &str| l.contains("SAFETY:") || l.contains("# Safety");
    if marker(lines[i]) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![") {
            if marker(t) {
                return true;
            }
            continue;
        }
        // A contiguous run of `unsafe impl`s (Send + Sync for the same
        // type) shares one justification block above the run.
        if t.starts_with("unsafe impl") || t.starts_with("pub unsafe impl") {
            continue;
        }
        break;
    }
    false
}

/// True when stripped code declares a static of an atomic type.
fn is_static_atomic(code: &str) -> bool {
    let t = code.trim_start();
    let after = if let Some(r) = t.strip_prefix("pub static ") {
        r
    } else if let Some(r) = t.strip_prefix("static ") {
        r
    } else if let Some(r) = t.strip_prefix("pub(crate) static ") {
        r
    } else {
        return None::<()>.is_some();
    };
    // `NAME: Type` — atomic iff the type path mentions an Atomic* type.
    after
        .split_once(':')
        .is_some_and(|(_, ty)| ty.contains("Atomic"))
}

/// Recursively collects `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**.rs` file under the workspace `root`
/// against the audit table parsed from `root/DESIGN.md`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let design = std::fs::read_to_string(root.join("DESIGN.md"))?;
    let audit = parse_audit(&design);
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut violations = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        violations.extend(lint_source(&rel, &source, &audit));
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESIGN_FIXTURE: &str = r#"
### 9.3 Memory-ordering audit (per call site)

| Site | Ordering | Verdict | Why safe (or not) | Covered by |
|---|---|---|---|---|
| `proto.rs` `find_root`: load `parent[x]` | `Relaxed` | sound | because | `scenario-a` |
| `proto.rs` `union`: link `compare_exchange` | `AcqRel`/`Relaxed` | sound | because | `scenario-a` |

### 9.4 Something else

| `other.rs` `not_in_scope` | `Relaxed` | - | - | - |
"#;

    fn audit() -> AuditTable {
        parse_audit(DESIGN_FIXTURE)
    }

    #[test]
    fn audit_table_parses_files_and_functions() {
        let a = audit();
        assert!(a.covers_file("proto.rs"));
        assert!(a.covers_site("proto.rs", "find_root"));
        assert!(a.covers_site("proto.rs", "union"));
        assert!(!a.covers_site("proto.rs", "unaudited_fn"));
        // Rows outside the 9.3 section don't count.
        assert!(!a.covers_file("other.rs"));
    }

    #[test]
    fn audited_file_with_unaudited_site_fails() {
        let src = "impl U {\n    fn find_root(&self) {\n        \
                   self.p.load(Ordering::Relaxed);\n    }\n    \
                   fn rogue(&self) {\n        self.p.load(Ordering::Relaxed);\n    }\n}\n";
        let v = lint_source("crates/x/src/proto.rs", src, &audit());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ordering-audit");
        assert_eq!(v[0].line, 6);
        assert!(v[0].message.contains("rogue"));
    }

    #[test]
    fn unaudited_unallowlisted_file_with_ordering_fails() {
        let src = "fn f(a: &AtomicU32) {\n    a.load(Ordering::Relaxed);\n}\n";
        let v = lint_source("crates/x/src/newfile.rs", src, &audit());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ordering-audit");
        assert!(v[0].message.contains("neither audited"));
        // The same site inside #[cfg(test)] is exempt.
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source("crates/x/src/newfile.rs", &test_src, &audit()).is_empty());
        // And an allowlisted file passes.
        assert!(lint_source(ORDERING_ALLOW[0].0, src, &audit()).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_fails() {
        let bad = "fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
        let v = lint_source("crates/x/src/a.rs", bad, &audit());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "safety-comment");

        let good = "fn f(p: *const u32) -> u32 {\n    \
                    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(lint_source("crates/x/src/a.rs", good, &audit()).is_empty());

        let doc = "/// # Safety\n/// p must be valid.\npub unsafe fn f(p: *const u32) {}\n";
        assert!(lint_source("crates/x/src/a.rs", doc, &audit()).is_empty());

        // The word inside a string or comment is not an unsafe token.
        let quoted = "fn f() { let _ = \"unsafe\"; } // unsafe mentioned\n";
        assert!(lint_source("crates/x/src/a.rs", quoted, &audit()).is_empty());
    }

    #[test]
    fn module_scope_static_atomic_fails() {
        let bad = "static COUNT: AtomicU64 = AtomicU64::new(0);\n";
        let v = lint_source("crates/x/src/a.rs", bad, &audit());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "global-static-atomic");
        assert!(v[0].message.contains("COUNT"));

        // Function-local statics, non-atomic statics, and cfg(test)
        // statics are all exempt.
        let local = "fn f() {\n    static HITS: AtomicU64 = AtomicU64::new(0);\n}\n";
        assert!(lint_source("crates/x/src/a.rs", local, &audit()).is_empty());
        let nonatomic = "static NAME: &str = \"x\";\n";
        assert!(lint_source("crates/x/src/a.rs", nonatomic, &audit()).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    \
                    static HITS: AtomicU64 = AtomicU64::new(0);\n}\n";
        assert!(lint_source("crates/x/src/a.rs", test, &audit()).is_empty());

        // Allowlisted globals pass.
        let (file, name, _) = STATIC_ATOMIC_ALLOW[0];
        let allowed = format!("static {name}: AtomicBool = AtomicBool::new(false);\n");
        assert!(lint_source(file, &allowed, &audit()).is_empty());
    }

    #[test]
    fn workspace_is_clean() {
        // The real repo must pass its own lint (same invocation as CI).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = lint_workspace(&root).expect("walk workspace");
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
