//! Graph I/O: SNAP-style edge-list text and a compact binary CSR format.
//!
//! The paper loads SNAP and WebGraph datasets; this module provides the
//! equivalent ingestion path so that users with the real datasets
//! (orkut, twitter, …) can run every harness binary on them unchanged.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Bytes [`read_edge_list`] asks its reader for at a time. Its buffer
/// grows past this only to hold a single longer line.
pub(crate) const READ_CHUNK: usize = 256 << 10;

/// Parses a SNAP-style edge list: one `u v` pair per line, `#` or `%`
/// comment lines ignored, arbitrary whitespace separators, tokens after
/// the second ignored. Self loops and duplicate edges are normalized away
/// by the builder.
///
/// Lines end at `\n`, as `BufRead::lines` splits them, and a final line
/// needs none. A line of ASCII digits and spaces is parsed in place; any
/// other line is decoded as UTF-8 and split by `str::split_whitespace`, so
/// every line gets the verdict a `str` parser gives it. The input is read
/// in chunks of 256 KiB, so memory stays O(input).
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
    let mut builder = GraphBuilder::new();
    let mut header: Option<usize> = None;
    // The largest id seen plus one, and the (0-based) line naming it first.
    let (mut id_end, mut max_line) = (0usize, 0usize);
    let mut lineno = 0usize;
    let bytes_read = for_each_line(reader, |line| {
        let edge = match ascii_edge(line) {
            Some(edge) => Some(edge),
            None => str_edge(line, lineno, &mut header)?,
        };
        if let Some((u, v)) = edge {
            for id in [u, v] {
                if id as usize >= id_end {
                    (id_end, max_line) = (id as usize + 1, lineno);
                }
            }
            builder.push_edge(u, v);
        }
        lineno += 1;
        Ok(())
    })?;
    let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    if id_end > MAX_RESERVE + bytes_read {
        return invalid(format!(
            "vertex id {} on line {} is out of proportion to a {bytes_read}-byte edge list",
            id_end - 1,
            max_line + 1,
        ));
    }
    if let Some(n) = header {
        if n > MAX_RESERVE + bytes_read {
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

/// Calls `f` on each line of `reader`, without its `\n`, and returns the
/// bytes read. Reads [`READ_CHUNK`] bytes at a time into one buffer and
/// carries an unfinished line to its front for the next read to extend.
fn for_each_line<R: Read>(
    mut reader: R,
    mut f: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<usize> {
    let mut buf = vec![0u8; READ_CHUNK];
    let (mut filled, mut bytes_read) = (0usize, 0usize);
    loop {
        if filled == buf.len() {
            // One line fills the buffer.
            buf.resize(2 * buf.len(), 0);
        }
        let got = match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(got) => got,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        bytes_read += got;
        let fresh = filled;
        filled += got;
        // The carried tail holds no newline, so only the fresh bytes can
        // end a line.
        let Some(last) = buf[fresh..filled].iter().rposition(|&b| b == b'\n') else {
            continue;
        };
        let end = fresh + last;
        for line in buf[..end].split(|&b| b == b'\n') {
            f(line)?;
        }
        buf.copy_within(end + 1..filled, 0);
        filled -= end + 1;
    }
    if filled > 0 {
        f(&buf[..filled])?;
    }
    Ok(bytes_read)
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

/// The verdict `str` parsing gives line `lineno`: its edge, `None` for a
/// blank or comment line, or the error. Reads the header from line 0.
fn str_edge(
    line: &[u8],
    lineno: usize,
    header: &mut Option<usize>,
) -> io::Result<Option<(VertexId, VertexId)>> {
    let line = std::str::from_utf8(line).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid UTF-8 on line {}", lineno + 1),
        )
    })?;
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        if lineno == 0 {
            *header = header_vertices(trimmed);
        }
        return Ok(None);
    }
    let mut it = trimmed.split_whitespace();
    let mut id = || -> io::Result<VertexId> {
        it.next()
            .and_then(|tok| tok.parse().ok())
            .ok_or_else(|| bad_line(lineno))
    };
    Ok(Some((id()?, id()?)))
}

/// The `N` of a `# undirected graph: N vertices, M edges` line.
fn header_vertices(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("# undirected graph: ")?;
    rest.split_once(" vertices, ")?.0.parse().ok()
}

fn bad_line(lineno: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed edge on line {}", lineno + 1),
    )
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
