//! Randomized property tests for the graph substrate: builder
//! normalization, CSR invariants, I/O round trips and analysis invariants
//! on arbitrary edge lists.
//!
//! Formerly `proptest`-based; now driven by seeded [`SplitMix64`] loops so
//! the workspace builds with no external dependencies. Every case prints
//! its seed on failure, so a red test is replayed by running the same
//! binary — the streams are platform-independent.

use crate::builder::from_edges;
use crate::csr::{CsrGraph, VertexId};
use crate::rng::SplitMix64;
use crate::{analysis, io, GraphBuilder};
use std::io::{BufRead, Read};

/// Random edge list over `n` vertices with up to `max_edges` entries
/// (self loops and duplicates included on purpose — the builder must
/// normalize them away).
fn edge_list(rng: &mut SplitMix64, n: VertexId, max_edges: usize) -> Vec<(VertexId, VertexId)> {
    let len = rng.gen_index(max_edges + 1);
    (0..len)
        .map(|_| {
            (
                rng.gen_index(n as usize) as VertexId,
                rng.gen_index(n as usize) as VertexId,
            )
        })
        .collect()
}

/// Runs `case` over `cases` seeded random edge lists, reporting the seed
/// of the first failure.
fn for_random_edge_lists(
    cases: u64,
    n: VertexId,
    max_edges: usize,
    case: impl Fn(&[(VertexId, VertexId)]),
) {
    for seed in 0..cases {
        let mut rng = SplitMix64::seed_from_u64(0x9a7e_0000 ^ seed);
        let edges = edge_list(&mut rng, n, max_edges);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&edges)));
        if let Err(e) = result {
            eprintln!("failing case seed={seed} edges={edges:?}");
            std::panic::resume_unwind(e);
        }
    }
}

#[test]
fn builder_always_produces_valid_csr() {
    for_random_edge_lists(64, 40, 200, |edges| {
        let g = from_edges(edges);
        assert!(g.validate().is_ok());
    });
}

/// The same pairs sorted by (min, max) without duplicates, as
/// [`io::write_edge_list`] writes them; reversed; and shuffled.
fn reorderings(edges: &[(VertexId, VertexId)]) -> [Vec<(VertexId, VertexId)>; 3] {
    let mut sorted: Vec<_> = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let reversed = edges.iter().rev().copied().collect();
    let mut shuffled = edges.to_vec();
    let mut rng = SplitMix64::seed_from_u64(edges.len() as u64);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_index(i + 1));
    }
    [sorted, reversed, shuffled]
}

#[test]
fn builder_is_idempotent_under_duplication() {
    for_random_edge_lists(64, 30, 100, |edges| {
        let g1 = from_edges(edges);
        // Duplicated input edges change nothing, in any order.
        for pairs in std::iter::once(edges.to_vec()).chain(reorderings(edges)) {
            let doubled: Vec<_> = pairs.iter().chain(pairs.iter()).copied().collect();
            assert_eq!(from_edges(&doubled), g1);
            let adjacent: Vec<_> = pairs.iter().flat_map(|&e| [e, e]).collect();
            assert_eq!(from_edges(&adjacent), g1);
        }
    });
}

#[test]
fn builder_is_direction_insensitive() {
    for_random_edge_lists(64, 30, 100, |edges| {
        let g1 = from_edges(edges);
        for pairs in std::iter::once(edges.to_vec()).chain(reorderings(edges)) {
            assert_eq!(from_edges(&pairs), g1);
            let flipped: Vec<_> = pairs.iter().map(|&(u, v)| (v, u)).collect();
            assert_eq!(from_edges(&flipped), g1);
        }
    });
}

#[test]
fn edge_list_roundtrip() {
    for_random_edge_lists(64, 30, 150, |edges| {
        let g = from_edges(edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(io::read_edge_list(&buf[..]).unwrap(), g);
    });
}

/// An edge-list parser over `BufRead::lines`, one `String` per line: the
/// reference whose verdicts [`io::read_edge_list`] must match.
fn read_edge_list_by_lines<R: BufRead>(reader: R) -> std::io::Result<CsrGraph> {
    use std::io::{Error, ErrorKind};
    fn header_vertices(line: &str) -> Option<usize> {
        let rest = line.strip_prefix("# undirected graph: ")?;
        rest.split_once(" vertices, ")?.0.parse().ok()
    }
    fn bad_line(lineno: usize) -> Error {
        Error::new(
            ErrorKind::InvalidData,
            format!("malformed edge on line {}", lineno + 1),
        )
    }
    let mut builder = GraphBuilder::new();
    let mut bytes_read = 0usize;
    let mut header: Option<usize> = None;
    let (mut id_end, mut max_line) = (0usize, 0usize);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        bytes_read += line.len() + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            if lineno == 0 {
                header = header_vertices(trimmed);
            }
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> std::io::Result<VertexId> {
            tok.ok_or_else(|| bad_line(lineno))?
                .parse::<VertexId>()
                .map_err(|_| bad_line(lineno))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        for id in [u, v] {
            if id as usize >= id_end {
                (id_end, max_line) = (id as usize + 1, lineno);
            }
        }
        builder.push_edge(u, v);
    }
    let invalid = |msg: String| Err(Error::new(ErrorKind::InvalidData, msg));
    if id_end > io::MAX_RESERVE + bytes_read {
        return invalid(format!(
            "vertex id {} on line {} is out of proportion to a {bytes_read}-byte edge list",
            id_end - 1,
            max_line + 1,
        ));
    }
    if let Some(n) = header {
        if n > io::MAX_RESERVE + bytes_read {
            return invalid(format!(
                "header of {n} vertices is out of proportion to a {bytes_read}-byte edge list"
            ));
        }
        if n < id_end {
            return invalid(format!(
                "vertex id {} on line {} is out of range for the header's {n} vertices",
                id_end - 1,
                max_line + 1,
            ));
        }
        builder = builder.ensure_vertices(n);
    }
    Ok(builder.build())
}

/// A parser's verdict with the parts the two parsers may word
/// differently blanked: the byte count (the reference counts one byte per
/// newline it strips, and adds one for a missing final newline) and the
/// wording of a UTF-8 error.
fn verdict(r: std::io::Result<CsrGraph>) -> Verdict {
    blank(exact(r))
}

/// A parser's verdict: the graph, whose equality covers the offsets, the
/// neighbors and the reverse-edge index, or the error's kind and message.
type Verdict = Result<CsrGraph, (std::io::ErrorKind, String)>;

/// The verdict kept whole.
fn exact(r: std::io::Result<CsrGraph>) -> Verdict {
    r.map_err(|e| (e.kind(), e.to_string()))
}

/// [`verdict`]'s blanking applied to a whole verdict.
fn blank(v: Verdict) -> Verdict {
    v.map_err(|(kind, msg)| {
        let msg = if msg.contains("UTF-8") {
            "UTF-8".to_string()
        } else if let Some((head, _)) = msg
            .split_once(" a ")
            .filter(|_| msg.ends_with("-byte edge list"))
        {
            format!("{head} a B-byte edge list")
        } else {
            msg
        };
        (kind, msg)
    })
}

/// Hands out 1 to 5 bytes per call and fails every third call with
/// `Interrupted`.
struct Trickle<'a> {
    data: &'a [u8],
    calls: usize,
    rng: SplitMix64,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(3) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let k = (1 + self.rng.gen_index(5))
            .min(buf.len())
            .min(self.data.len());
        buf[..k].copy_from_slice(&self.data[..k]);
        self.data = &self.data[k..];
        Ok(k)
    }
}

/// Pieces the mutations insert: separators `str::split_whitespace` does
/// and does not split on, signs, ids past `u32` and past 10 digits,
/// invalid UTF-8, comments, headers and trailing tokens.
const PIECES: &[&[u8]] = &[
    b"\r",
    b"\r\n",
    b"\n",
    b"\x0b",
    b"\x0c",
    b"\t",
    b" ",
    "\u{3000}".as_bytes(),
    "\u{a0}".as_bytes(),
    "\u{85}".as_bytes(),
    b"\x1c",
    b"+",
    b"-",
    b"4294967295",
    b"4294967296",
    b"00000000000007",
    b"12345678901234",
    b"\xff",
    b"# c",
    b"%",
    b"# undirected graph: 60 vertices, 3 edges\n",
    b"# undirected graph: 4294967296 vertices, 3 edges\n",
    b" 9 x",
    b" 1.5",
    b"x",
];

/// A generated edge list: `write_edge_list` output of a random graph,
/// sometimes with CRLF line ends or without its final newline, then up
/// to four [`PIECES`] inserted at random byte offsets.
fn mutated_edge_list(rng: &mut SplitMix64) -> Vec<u8> {
    let g = from_edges(&edge_list(rng, 40, 30));
    let mut text = Vec::new();
    io::write_edge_list(&g, &mut text).unwrap();
    if rng.gen_bool(0.2) {
        text = String::from_utf8(text)
            .unwrap()
            .replace('\n', "\r\n")
            .into_bytes();
    }
    if rng.gen_bool(0.2) {
        text.pop();
    }
    for _ in 0..rng.gen_index(5) {
        let at = rng.gen_index(text.len() + 1);
        let piece = PIECES[rng.gen_index(PIECES.len())];
        text.splice(at..at, piece.iter().copied());
    }
    text
}

/// The blocked byte parser gives every input the reference's verdict:
/// the same graph, or an error of the same kind and message. Covers
/// mutated edge lists read at once and through a trickling reader, at 1,
/// 2, 3 and 7 parts with blocks of a few bytes, which split lines and
/// cut parts short of a line, and lines longer than the read block. Every
/// part count gives exactly the one-part verdict, byte counts and UTF-8
/// wording included.
#[test]
fn edge_list_parser_matches_line_reference() {
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for seed in 0..3000u64 {
        let mut rng = SplitMix64::seed_from_u64(0xed6e_0000 ^ seed);
        let text = mutated_edge_list(&mut rng);
        let want = verdict(read_edge_list_by_lines(&text[..]));
        let got = verdict(io::read_edge_list(&text[..]));
        assert_eq!(
            got,
            want,
            "seed {seed}: {:?}",
            String::from_utf8_lossy(&text)
        );
        let block = 1 + rng.gen_index(40);
        let one = exact(io::read_edge_list_in(&text[..], 1, block));
        assert_eq!(blank(one.clone()), want, "seed {seed}, block {block}");
        let parts = [2, 3, 7][seed as usize % 3];
        let many = exact(io::read_edge_list_in(&text[..], parts, block));
        assert_eq!(many, one, "seed {seed}: {parts} parts, {block}-byte blocks");
        if seed % 4 == 0 {
            for (parts, block) in [(1, crate::par::TEXT_UNIT), (parts, block)] {
                let trickle = Trickle {
                    data: &text,
                    calls: 0,
                    rng: SplitMix64::seed_from_u64(seed),
                };
                let got = exact(io::read_edge_list_in(trickle, parts, block));
                assert_eq!(
                    got, one,
                    "trickled seed {seed}: {parts} parts, {block}-byte blocks"
                );
            }
        }
        if want.is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    // Both verdicts are common, so neither side of the parity goes untested.
    assert!(accepted > 300 && rejected > 300, "{accepted} / {rejected}");

    // Lines longer than the read buffer: a comment, and a run of blanks
    // inside an edge line.
    for (parts, block) in [(1, crate::par::TEXT_UNIT), (2, 4096), (3, 1000), (7, 64)] {
        let long = block * 5 / 2;
        let mut text = b"# ".to_vec();
        text.extend(std::iter::repeat_n(b'c', long));
        text.extend_from_slice(b"\n0 1\n2");
        text.extend(std::iter::repeat_n(b' ', long / 2));
        text.extend_from_slice(b"3\n\n4 5");
        let want = verdict(read_edge_list_by_lines(&text[..]));
        assert_eq!(want.as_ref().map(CsrGraph::num_edges), Ok(3));
        let got = io::read_edge_list_in(&text[..], parts, block);
        assert_eq!(verdict(got), want, "{parts} parts, {block}-byte blocks");
    }
}

/// Every part count reports the first bad line of the file, on its line
/// in the file, even when later parts hold bad lines too, and the first
/// line naming the largest id.
#[test]
fn edge_list_parts_report_the_first_line_in_file_order() {
    let mut text = String::new();
    for i in 0..400 {
        text.push_str(&format!("{i} {}\n", i + 1));
    }
    let bad = |lines: &[usize]| {
        let mut t: Vec<String> = text.lines().map(str::to_string).collect();
        for &l in lines {
            t[l] = "7 x".to_string();
        }
        t.join("\n")
    };
    for parts in [1, 2, 3, 7] {
        for block in [8, 64, 500, 5000] {
            let read = |t: &str| exact(io::read_edge_list_in(t.as_bytes(), parts, block));
            for lines in [&[0][..], &[399], &[250, 3, 399], &[17, 18]] {
                let first = lines.iter().min().unwrap() + 1;
                let msg = format!("malformed edge on line {first}");
                assert_eq!(
                    read(&bad(lines)),
                    Err((std::io::ErrorKind::InvalidData, msg)),
                    "{parts} parts, {block}-byte blocks, bad lines {lines:?}"
                );
            }
            let far = format!("{text}5 2000000\n1 2000000\n");
            let msg = "vertex id 2000000 on line 401 is out of proportion";
            let err = read(&far).unwrap_err();
            assert!(
                err.1.starts_with(msg),
                "{parts} parts, {block}-byte blocks: {}",
                err.1
            );
        }
    }
}

#[test]
fn binary_roundtrip() {
    for_random_edge_lists(64, 30, 150, |edges| {
        let g = from_edges(edges);
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        assert_eq!(io::read_binary(&buf[..]).unwrap(), g);
    });
}

/// The precomputed reverse-edge index agrees with the binary-search
/// lookup on every directed edge of the golden example and seeded
/// ROLL/RMAT graphs, and survives a binary I/O round trip (the index is
/// rebuilt on load, not serialized).
#[test]
fn rev_index_agrees_with_binary_search_everywhere() {
    let mut graphs = vec![crate::gen::scan_paper_example()];
    for seed in 0..4u64 {
        graphs.push(crate::gen::roll(300, 8, 0xA0 + seed));
        graphs.push(crate::gen::rmat_social(7, 6, 0xB0 + seed));
    }
    for g in graphs {
        for (u, v, eo) in g.directed_edges() {
            let expect = g
                .edge_offset(v, u)
                .expect("undirected graph must contain the reverse edge");
            assert_eq!(g.rev_offset(eo), expect, "edge ({u}, {v}) slot {eo}");
            assert_eq!(g.rev_offset_search(eo), expect);
        }
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        let back = io::read_binary(&buf[..]).unwrap();
        assert_eq!(back, g);
        for (_, _, eo) in back.directed_edges() {
            assert_eq!(back.rev_offset(eo), g.rev_offset(eo));
        }
    }
}

#[test]
fn degree_sum_equals_directed_edges() {
    for_random_edge_lists(64, 40, 200, |edges| {
        let g = from_edges(edges);
        let sum: usize = g.vertices().map(|u| g.degree(u)).sum();
        assert_eq!(sum, g.num_directed_edges());
    });
}

#[test]
fn components_partition_vertices() {
    for_random_edge_lists(64, 30, 80, |edges| {
        let g = from_edges(edges);
        let (labels, count) = analysis::connected_components(&g);
        // Every vertex labeled by its component minimum.
        let mut distinct: Vec<_> = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), count);
        // Adjacent vertices share a label.
        for (u, v) in g.undirected_edges() {
            assert_eq!(labels[u as usize], labels[v as usize]);
        }
        // Labels are component minima: label[v] <= v.
        for v in g.vertices() {
            assert!(labels[v as usize] <= v);
        }
    });
}

#[test]
fn triangle_count_matches_naive() {
    for_random_edge_lists(48, 20, 60, |edges| {
        let g = from_edges(edges);
        // Naive O(n³) triangle enumeration.
        let n = g.num_vertices() as VertexId;
        let mut naive = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                if !g.has_edge(a, b) {
                    continue;
                }
                for c in (b + 1)..n {
                    if g.has_edge(b, c) && g.has_edge(a, c) {
                        naive += 1;
                    }
                }
            }
        }
        assert_eq!(analysis::triangle_count(&g), naive);
    });
}
