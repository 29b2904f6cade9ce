//! Graph I/O: SNAP-style edge-list text and a compact binary CSR format.
//!
//! The paper loads SNAP and WebGraph datasets; this module provides the
//! equivalent ingestion path so that users with the real datasets
//! (orkut, twitter, …) can run every harness binary on them unchanged.

use crate::builder::build_csr;
use crate::csr::{CsrGraph, VertexId};
use crate::par;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Parses a SNAP-style edge list: one `u v` pair per line, `#` or `%`
/// comment lines ignored, arbitrary whitespace separators, tokens after
/// the second ignored. Self loops and duplicate edges are normalized away
/// by the builder.
///
/// Lines end at `\n`, as `BufRead::lines` splits them, and a final line
/// needs none. A line of ASCII digits and spaces is parsed in place; any
/// other line is decoded as UTF-8 and split by `str::split_whitespace`, so
/// every line gets the verdict a `str` parser gives it. The input is read
/// in blocks of 1 MiB, each cut at newlines into parts parsed on scoped
/// threads ([`crate::par`]), so memory stays O(input) and an error names
/// the first bad line of the file.
///
/// The graph is sized by its largest vertex id, or by the vertex count
/// `N` of a first line `# undirected graph: N vertices, M edges` (what
/// [`write_edge_list`] writes), so trailing isolated vertices survive a
/// round trip. Other comments, SNAP's `# Nodes:` among them, carry no
/// size. An id or `N` the input's length cannot account for is
/// `InvalidData` rather than an allocation of that size: either may
/// exceed the bytes read by at most 2²⁰ (`MAX_RESERVE`). A file with
/// dense ids always passes, since each line of at least 4 bytes names at
/// most 2 ids. An `N` that does not cover every id is `InvalidData` too.
pub fn read_edge_list<R: Read>(reader: R) -> io::Result<CsrGraph> {
    read_edge_list_in(reader, par::threads(), par::TEXT_UNIT)
}

/// [`read_edge_list`] reading blocks of `block` bytes, each cut into at
/// most `parts` parts of at least `block / parts` bytes.
pub(crate) fn read_edge_list_in<R: Read>(
    reader: R,
    parts: usize,
    block: usize,
) -> io::Result<CsrGraph> {
    let (pairs, n) = read_pairs(reader, parts, block)?;
    let m = pairs.len();
    Ok(build_csr(pairs, n, par::parts_of(m, par::ITEM_UNIT, parts)))
}

/// The pairs of an edge list, in file order in one list, and its vertex
/// count. The list keeps room for at most twice its pairs.
fn read_pairs<R: Read>(
    mut reader: R,
    parts: usize,
    block: usize,
) -> io::Result<(Vec<(VertexId, VertexId)>, usize)> {
    let parts = parts.max(1);
    let mut pairs = Vec::new();
    let mut lists = vec![Vec::new(); parts - 1];
    let mut tally = Part::default();
    let mut header: Option<usize> = None;
    let mut buf = vec![0u8; block.max(1)];
    let (mut filled, mut bytes_read) = (0usize, 0usize);
    loop {
        let (mut eof, mut failed) = (false, None);
        while filled < buf.len() {
            match reader.read(&mut buf[filled..]) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(got) => {
                    filled += got;
                    bytes_read += got;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        // Whole lines, and the unfinished last one at the end of input.
        // The carried tail holds no newline, so the search stops in the
        // block's last line unless one line fills the buffer.
        let end = if eof {
            filled
        } else {
            buf[..filled]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1)
        };
        if end > 0 {
            parse_block(
                &buf[..end],
                (parts, block),
                &mut pairs,
                &mut lists,
                &mut tally,
                &mut header,
            )?;
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if eof {
            break;
        }
        buf.copy_within(end..filled, 0);
        filled -= end;
        if filled == buf.len() {
            // One line fills the buffer.
            buf.resize(2 * buf.len(), 0);
        }
    }
    drop(buf);
    drop(lists);
    // Comment, blank and self-loop lines leave reserved room unused.
    if pairs.len() < pairs.capacity() / 2 {
        pairs.shrink_to_fit();
    }
    let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    let (id_end, max_line) = (tally.id_end, tally.max_line);
    if id_end > MAX_RESERVE + bytes_read {
        return invalid(format!(
            "vertex id {} on line {} is out of proportion to a {bytes_read}-byte edge list",
            id_end - 1,
            max_line + 1,
        ));
    }
    let mut n = tally.vertices;
    if let Some(h) = header {
        if h > MAX_RESERVE + bytes_read {
            return invalid(format!(
                "header of {h} vertices is out of proportion to a {bytes_read}-byte edge list"
            ));
        }
        if h < id_end {
            return invalid(format!(
                "vertex id {} on line {} is out of range for the header's {h} vertices",
                id_end - 1,
                max_line + 1,
            ));
        }
        n = n.max(h);
    }
    Ok((pairs, n))
}

/// What parsing a run of lines found.
#[derive(Default)]
struct Part {
    /// Lines parsed.
    lines: usize,
    /// The largest id named plus one, and the first line naming it.
    id_end: usize,
    max_line: usize,
    /// The largest id of an edge that is not a self loop, plus one.
    vertices: usize,
    /// The first bad line and what is wrong with it.
    fault: Option<(usize, Fault)>,
}

/// What is wrong with a rejected line.
#[derive(Clone, Copy, Debug)]
enum Fault {
    Utf8,
    Malformed,
}

impl Fault {
    fn on_line(self, lineno: usize) -> io::Error {
        let what = match self {
            Fault::Utf8 => "invalid UTF-8",
            Fault::Malformed => "malformed edge",
        };
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{what} on line {}", lineno + 1),
        )
    }
}

/// Parses `text`, whole lines of which only the last may lack its `\n`,
/// appends its pairs to `pairs` in file order and folds what its parts
/// found into `tally` in file order. The text is cut at line starts into
/// at most `parts` parts of at least `block / parts` bytes. The first
/// part parses straight onto `pairs` on the calling thread; each other
/// part fills one of `lists` on a scoped thread, and the lists are then
/// appended to `pairs`. Room for every line of a part is reserved here,
/// on the calling thread, so no part grows its list.
fn parse_block(
    text: &[u8],
    (parts, block): (usize, usize),
    pairs: &mut Vec<(VertexId, VertexId)>,
    lists: &mut [Vec<(VertexId, VertexId)>],
    tally: &mut Part,
    header: &mut Option<usize>,
) -> io::Result<()> {
    let k = par::parts_of(text.len().saturating_mul(parts), block, parts);
    let mut cuts = vec![0];
    for i in 1..k {
        let prev = *cuts.last().expect("cuts start at 0");
        let target = text.len() / k * i;
        cuts.push(if target <= prev {
            prev
        } else {
            text[target - 1..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |p| target + p)
        });
    }
    cuts.push(text.len());
    let at_start = tally.lines == 0;
    let texts: Vec<&[u8]> = cuts.windows(2).map(|w| &text[w[0]..w[1]]).collect();
    let lines: Vec<usize> = texts.iter().map(|part| count_lines(part)).collect();
    pairs.reserve(lines.iter().sum());
    // Each list moves to its part's thread and back: lists written from
    // two threads through adjacent headers share a cache line.
    let items: Vec<_> = texts
        .into_iter()
        .zip(lines)
        .enumerate()
        .map(|(i, (part, lines))| {
            let list = match i {
                0 => std::mem::take(pairs),
                _ => {
                    let mut list = std::mem::take(&mut lists[i - 1]);
                    list.clear();
                    list.reserve(lines);
                    list
                }
            };
            (i, part, list)
        })
        .collect();
    let found = par::run(items, |(i, part, mut list)| {
        let mut head = None;
        let found = parse_part(part, (i == 0 && at_start).then_some(&mut head), &mut list);
        (found, head, list)
    });
    for (i, (part, head, list)) in found.into_iter().enumerate() {
        if i == 0 {
            *pairs = list;
        } else {
            pairs.extend_from_slice(&list);
            lists[i - 1] = list;
        }
        if let Some((line, fault)) = part.fault {
            return Err(fault.on_line(tally.lines + line));
        }
        if part.id_end > tally.id_end {
            (tally.id_end, tally.max_line) = (part.id_end, tally.lines + part.max_line);
        }
        tally.vertices = tally.vertices.max(part.vertices);
        tally.lines += part.lines;
        if head.is_some() {
            *header = head;
        }
    }
    Ok(())
}

/// The lines of `text`, its newlines plus one, which bounds the pairs it
/// holds. Counts in byte lanes over runs of at most 255 bytes, which the
/// compiler vectorizes.
fn count_lines(text: &[u8]) -> usize {
    let newlines: usize = text
        .chunks(255)
        .map(|run| usize::from(run.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum();
    newlines + 1
}

/// Parses the lines of `text` onto `list` as `(min, max)` pairs, self
/// loops dropped, stopping at the first bad line. `header`, given when
/// `text` starts the file, receives the `N` of a header on its first
/// line.
///
/// Each line is first tried as the canonical `u v\n` (1 to 10 digits,
/// one space, 1 to 10 digits, a newline, both ids within `u32`), read in
/// one pass over its bytes. Every other line is found by its newline and
/// judged by [`ascii_edge`], then [`str_edge`].
fn parse_part(
    text: &[u8],
    mut header: Option<&mut Option<usize>>,
    list: &mut Vec<(VertexId, VertexId)>,
) -> Part {
    let mut part = Part::default();
    let mut i = 0;
    while i < text.len() {
        let edge = match canonical_edge(text, &mut i) {
            Some(edge) => Some(edge),
            None => {
                let end = text[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(text.len(), |p| i + p);
                let line = &text[i..end];
                i = end + 1;
                match ascii_edge(line) {
                    Some(edge) => Some(edge),
                    None => {
                        let first = header.take().filter(|_| part.lines == 0);
                        match str_edge(line, first) {
                            Ok(edge) => edge,
                            Err(fault) => {
                                part.fault = Some((part.lines, fault));
                                return part;
                            }
                        }
                    }
                }
            }
        };
        if let Some((u, v)) = edge {
            let top = u.max(v) as usize + 1;
            if top > part.id_end {
                (part.id_end, part.max_line) = (top, part.lines);
            }
            if u != v {
                list.push((u.min(v), u.max(v)));
                part.vertices = part.vertices.max(top);
            }
        }
        part.lines += 1;
    }
    part
}

/// The edge of a canonical line at `text[*i..]`, leaving `*i` after its
/// newline; `None`, with `*i` unchanged, for any other line.
#[inline]
fn canonical_edge(text: &[u8], i: &mut usize) -> Option<(VertexId, VertexId)> {
    let (u, j) = canonical_id(text, *i, b' ')?;
    let (v, k) = canonical_id(text, j, b'\n')?;
    *i = k;
    Some((u, v))
}

/// Reads 1 to 10 digits from `text[i..]` that `stop` follows. Returns
/// the id, if it fits `u32`, and the index after `stop`.
#[inline]
fn canonical_id(text: &[u8], mut i: usize, stop: u8) -> Option<(VertexId, usize)> {
    let start = i;
    let mut id = 0u64;
    while let Some(&b) = text.get(i) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        id = id.wrapping_mul(10).wrapping_add(u64::from(digit));
        i += 1;
    }
    if i == start || i - start > 10 || text.get(i) != Some(&stop) {
        return None;
    }
    Some((VertexId::try_from(id).ok()?, i + 1))
}

/// The ASCII bytes `str::split_whitespace` splits on: tab, line feed,
/// vertical tab, form feed, carriage return and space.
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// The edge of a line that starts with two ids of at most 10 ASCII digits
/// each, separated by [`is_space`] bytes and followed by a space or the
/// end of the line, with only ASCII after them. `None` for every other
/// line, which [`str_edge`] then judges.
fn ascii_edge(line: &[u8]) -> Option<(VertexId, VertexId)> {
    let mut i = 0;
    let u = ascii_id(line, &mut i)?;
    let v = ascii_id(line, &mut i)?;
    line[i..].is_ascii().then_some((u, v))
}

/// Skips spaces from `line[*i]`, then parses one id of 1 to 10 digits
/// that a space or the line's end follows, leaving `*i` after it.
fn ascii_id(line: &[u8], i: &mut usize) -> Option<VertexId> {
    while line.get(*i).is_some_and(|&b| is_space(b)) {
        *i += 1;
    }
    let start = *i;
    let mut id = 0u64;
    while *i - start < 10 {
        match line.get(*i) {
            Some(&b) if b.is_ascii_digit() => id = 10 * id + u64::from(b - b'0'),
            _ => break,
        }
        *i += 1;
    }
    if *i == start || line.get(*i).is_some_and(|&b| !is_space(b)) {
        return None;
    }
    VertexId::try_from(id).ok()
}

/// The verdict `str` parsing gives a line: its edge, `None` for a blank
/// or comment line, or the fault. `header`, given for the file's first
/// line, receives the `N` of a header there.
fn str_edge(
    line: &[u8],
    header: Option<&mut Option<usize>>,
) -> Result<Option<(VertexId, VertexId)>, Fault> {
    let line = std::str::from_utf8(line).map_err(|_| Fault::Utf8)?;
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        if let Some(header) = header {
            *header = header_vertices(trimmed);
        }
        return Ok(None);
    }
    let mut it = trimmed.split_whitespace();
    let mut id = || -> Result<VertexId, Fault> {
        it.next()
            .and_then(|tok| tok.parse().ok())
            .ok_or(Fault::Malformed)
    };
    Ok(Some((id()?, id()?)))
}

/// The `N` of a `# undirected graph: N vertices, M edges` line.
fn header_vertices(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("# undirected graph: ")?;
    rest.split_once(" vertices, ")?.0.parse().ok()
}

/// Reads an edge-list file from disk (see [`read_edge_list`]).
pub fn read_edge_list_file(path: impl AsRef<Path>) -> io::Result<CsrGraph> {
    read_edge_list(File::open(path)?)
}

/// Writes the graph as an edge list, each undirected edge once.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "# undirected graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (u, v) in graph.undirected_edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Writes an edge-list file (see [`write_edge_list`]), flushing it so
/// that a failed final write is an error.
pub fn write_edge_list_file(graph: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_edge_list(graph, &mut w)?;
    w.flush()
}

const BINARY_MAGIC: &[u8; 8] = b"PPSCANG1";

/// Most elements [`read_binary`] reserves for an array before reading
/// it, and reads with one call. The header's counts are untrusted, so
/// longer arrays grow one such chunk at a time as their data arrives: a
/// header that overstates them ends in an `UnexpectedEof` error, not in
/// an allocation of the claimed size. Also the slack [`read_edge_list`]
/// allows between its largest vertex id and the bytes it read.
pub(crate) const MAX_RESERVE: usize = 1 << 20;

/// Writes the compact binary CSR format, all little-endian: the magic,
/// `n` as u64, the `n + 1` CSR offsets as u64, then the neighbors as
/// u32.
pub fn write_binary<W: Write>(graph: &CsrGraph, mut w: W) -> io::Result<()> {
    w.write_all(BINARY_MAGIC)?;
    let n = graph.num_vertices() as u64;
    w.write_all(&n.to_le_bytes())?;
    for &off in graph.raw_offsets() {
        w.write_all(&(off as u64).to_le_bytes())?;
    }
    for &v in graph.raw_neighbors() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads the binary CSR format written by [`write_binary`].
pub fn read_binary<R: Read>(mut r: R) -> io::Result<CsrGraph> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a ppscan binary graph (bad magic)",
        ));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n = u64::from_le_bytes(buf8) as usize;
    let offsets = read_array(&mut r, n.saturating_add(1), |b| {
        u64::from_le_bytes(b) as usize
    })?;
    let m = *offsets
        .last()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty offsets array"))?;
    let neighbors = read_array(&mut r, m, VertexId::from_le_bytes)?;
    let g = CsrGraph::from_sorted_parts_unchecked(offsets, neighbors);
    g.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(g)
}

/// Reads `len` little-endian `W`-byte elements with one `read_exact` per
/// chunk of at most [`MAX_RESERVE`] elements, so that a `len` the input
/// overstates ends in `UnexpectedEof` after one bounded buffer.
fn read_array<T, const W: usize>(
    r: &mut impl Read,
    len: usize,
    decode: fn([u8; W]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(len.min(MAX_RESERVE));
    let mut bytes = vec![0u8; len.min(MAX_RESERVE) * W];
    while out.len() < len {
        let chunk = &mut bytes[..(len - out.len()).min(MAX_RESERVE) * W];
        r.read_exact(chunk)?;
        out.extend(
            chunk
                .chunks_exact(W)
                .map(|c| decode(c.try_into().expect("chunks_exact yields W bytes"))),
        );
    }
    Ok(out)
}

/// Writes the binary CSR format to a file, flushing it so that a failed
/// final write is an error.
pub fn write_binary_file(graph: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_binary(graph, &mut w)?;
    w.flush()
}

/// Reads the binary CSR format from a file.
pub fn read_binary_file(path: impl AsRef<Path>) -> io::Result<CsrGraph> {
    read_binary(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::GraphBuilder;

    #[test]
    fn edge_list_roundtrip() {
        // The last two graphs end in isolated vertices, which only the
        // header's vertex count can carry.
        let trailing = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .ensure_vertices(6)
            .build();
        for g in [gen::scan_paper_example(), trailing, CsrGraph::empty(5)] {
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            let g2 = read_edge_list(&buf[..]).unwrap();
            assert_eq!(g, g2);
        }
    }

    #[test]
    fn edge_list_rejects_headers_that_lie() {
        let huge = "# undirected graph: 4294967296 vertices, 1 edges\n0 1\n";
        let err = read_edge_list(huge.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("header of 4294967296"), "{err}");
        let short = "# undirected graph: 3 vertices, 2 edges\n0 1\n2 7\n";
        let err = read_edge_list(short.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("id 7 on line 3"), "{err}");
        // The header counts only on the first line; SNAP's is a comment.
        let late = "# SNAP\n# undirected graph: 9 vertices, 1 edges\n0 1\n";
        assert_eq!(read_edge_list(late.as_bytes()).unwrap().num_vertices(), 2);
        let snap = "# Nodes: 9 Edges: 1\n0 1\n";
        assert_eq!(read_edge_list(snap.as_bytes()).unwrap().num_vertices(), 2);
    }

    #[test]
    fn edge_list_tolerates_comments_and_blank_lines() {
        let text = "# comment\n\n% another\n0 1\n1\t2\n  2   0  \n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        assert!(read_edge_list("42\n".as_bytes()).is_err());
    }

    #[test]
    fn edge_list_rejects_ids_out_of_proportion_to_its_size() {
        // One line naming id 2^32 - 2 would size the graph to 2^32
        // vertices (four 32 GiB arrays in the builder).
        let err = read_edge_list("0 4294967294\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("4294967294 on line 1"), "{err}");
        // Ids up to the 2^20 slack still load.
        let g = read_edge_list("0 1048576\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), (1 << 20) + 1);
    }

    /// The canonical parser reads every id width `str::parse` reads, at
    /// every offset from the text's end, and refuses everything else for
    /// the line parsers to judge.
    #[test]
    fn canonical_ids_of_every_width_parse_exactly() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0x1d5);
        for width in 1..=12 {
            for case in 0..300 {
                let digits: String = (0..width)
                    .map(|_| char::from(b'0' + rng.gen_index(10) as u8))
                    .collect();
                let tail = [" ", " 1\n", "\n", "x ", "  ", "5", ""][case % 7];
                let pad = ["", "0 1\n22 3\n"][case % 2];
                let text = format!("{digits}{tail}{pad}");
                let run = text.bytes().take_while(u8::is_ascii_digit).count();
                let want = (run <= 10 && text.as_bytes().get(run) == Some(&b' '))
                    .then(|| text[..run].parse::<VertexId>().ok())
                    .flatten()
                    .map(|id| (id, run + 1));
                assert_eq!(canonical_id(text.as_bytes(), 0, b' '), want, "{text:?}");
                let line = format!("7 {digits}\n");
                let want = digits
                    .parse::<VertexId>()
                    .ok()
                    .filter(|_| width <= 10)
                    .map(|id| (7, id));
                let mut i = 0;
                assert_eq!(canonical_edge(line.as_bytes(), &mut i), want, "{line:?}");
                assert_eq!(i, if want.is_some() { line.len() } else { 0 });
            }
        }
    }

    /// Comment, blank and self-loop lines reserve room that their pairs do
    /// not fill. The pairs handed to the build keep room for at most twice
    /// their count, at every part count, and the graph is unchanged.
    #[test]
    fn pairs_keep_no_room_for_lines_without_edges() {
        let mut text = String::new();
        for i in 0..4000 {
            text.push_str(match i % 50 {
                0 => "1 2\n",
                1 => "3 3\n",
                2..=20 => "\n",
                _ => "# comment\n",
            });
        }
        text.push_str(&"\n".repeat(5000));
        let text = text.as_bytes();
        let want = read_edge_list_in(text, 1, par::TEXT_UNIT).unwrap();
        assert_eq!(want, GraphBuilder::new().add_edge(1, 2).build());
        for (parts, block) in [(1, 64), (2, 64), (3, 64), (7, 64), (2, 1 << 16)] {
            let (pairs, n) = read_pairs(text, parts, block).unwrap();
            assert_eq!((pairs.len(), n), (80, 3), "{parts} parts");
            assert!(
                pairs.capacity() <= 2 * pairs.len(),
                "{parts} parts: {} pairs in room for {}",
                pairs.len(),
                pairs.capacity()
            );
            let got = read_edge_list_in(text, parts, block).unwrap();
            assert_eq!(got, want, "{parts} parts");
        }
    }

    /// Files of ids 1 to 6 digits wide, zero-padded up to 12, parse as the
    /// line reference parses them at every part count.
    #[test]
    fn wide_and_padded_ids_read_alike_in_every_part_count() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0x9ad);
        let mut text = String::new();
        let mut builder = GraphBuilder::new();
        for _ in 0..3000 {
            let id = |rng: &mut crate::rng::SplitMix64| {
                let digits = 1 + rng.gen_index(6) as u32;
                let v = rng.gen_index(10usize.pow(digits));
                (v as VertexId, format!("{v:0w$}", w = 1 + rng.gen_index(12)))
            };
            let ((u, a), (v, b)) = (id(&mut rng), id(&mut rng));
            text.push_str(&format!("{a} {b}\n"));
            builder.push_edge(u, v);
        }
        let want = builder.build();
        for (parts, block) in [(1, par::TEXT_UNIT), (1, 333), (2, 1000), (3, 77), (7, 4096)] {
            let got = read_edge_list_in(text.as_bytes(), parts, block).unwrap();
            assert_eq!(got, want, "{parts} parts of {block}-byte blocks");
        }
    }

    #[test]
    fn binary_roundtrip() {
        let g = gen::roll(300, 8, 5);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTMAGIC\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = gen::complete(4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_lying_headers() {
        // 2^40 vertices with no offsets behind them, and a valid
        // two-vertex header whose last offset claims 2^40 slots: each
        // must end in an error, not in an abort on a terabyte allocation.
        let headers: [(u64, &[u64]); 2] = [(1 << 40, &[]), (2, &[0, 1, 1 << 40])];
        for (n, offsets) in headers {
            let mut buf = BINARY_MAGIC.to_vec();
            buf.extend_from_slice(&n.to_le_bytes());
            for off in offsets {
                buf.extend_from_slice(&off.to_le_bytes());
            }
            let err = read_binary(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "n = {n}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ppscan_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = gen::clique_chain(5, 4);
        write_binary_file(&g, &path).unwrap();
        assert_eq!(read_binary_file(&path).unwrap(), g);
        std::fs::remove_file(&path).unwrap();
    }
}
