//! Graph I/O: SNAP-style edge-list text and a compact binary CSR format.
//!
//! The paper loads SNAP and WebGraph datasets; this module provides the
//! equivalent ingestion path so that users with the real datasets
//! (orkut, twitter, …) can run every harness binary on them unchanged.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parses a SNAP-style edge list: one `u v` pair per line, `#` or `%`
/// comment lines ignored, arbitrary whitespace separators. Self loops and
/// duplicate edges are normalized away by the builder.
///
/// The graph is sized by its largest vertex id, so an id the input's
/// length cannot account for is `InvalidData` rather than an allocation
/// of that size: the largest id plus one may exceed the bytes read by at
/// most 2²⁰ (`MAX_RESERVE`). A file with dense ids always passes, since
/// each line of at least 4 bytes names at most 2 ids.
pub fn read_edge_list<R: BufRead>(reader: R) -> io::Result<CsrGraph> {
    let mut builder = GraphBuilder::new();
    let mut bytes_read = 0usize;
    // The largest id seen and the (0-based) line naming it first.
    let (mut max_id, mut max_line) = (0 as VertexId, 0usize);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        // `+ 1` for the newline `lines()` strips.
        bytes_read += line.len() + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<VertexId> {
            tok.ok_or_else(|| bad_line(lineno))?
                .parse::<VertexId>()
                .map_err(|_| bad_line(lineno))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        if u > max_id {
            (max_id, max_line) = (u, lineno);
        }
        if v > max_id {
            (max_id, max_line) = (v, lineno);
        }
        builder.push_edge(u, v);
    }
    if max_id as usize + 1 > MAX_RESERVE + bytes_read {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "vertex id {max_id} on line {} is out of proportion to a {}-byte edge list",
                max_line + 1,
                bytes_read
            ),
        ));
    }
    Ok(builder.build())
}

fn bad_line(lineno: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed edge on line {}", lineno + 1),
    )
}

/// Reads an edge-list file from disk (see [`read_edge_list`]).
pub fn read_edge_list_file(path: impl AsRef<Path>) -> io::Result<CsrGraph> {
    read_edge_list(BufReader::new(File::open(path)?))
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

const BINARY_MAGIC: &[u8; 8] = b"PPSCANG1";

/// Most elements [`read_binary`] reserves for an array before reading
/// it. The header's counts are untrusted, so longer arrays grow as their
/// data arrives: a header that overstates them ends in an
/// `UnexpectedEof` error, not in an allocation of the claimed size. Also
/// the slack [`read_edge_list`] allows between its largest vertex id and
/// the bytes it read.
const MAX_RESERVE: usize = 1 << 20;

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
    let mut offsets = Vec::with_capacity(n.saturating_add(1).min(MAX_RESERVE));
    for _ in 0..=n {
        r.read_exact(&mut buf8)?;
        offsets.push(u64::from_le_bytes(buf8) as usize);
    }
    let m = *offsets
        .last()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty offsets array"))?;
    let mut neighbors: Vec<VertexId> = Vec::with_capacity(m.min(MAX_RESERVE));
    let mut buf4 = [0u8; 4];
    for _ in 0..m {
        r.read_exact(&mut buf4)?;
        neighbors.push(u32::from_le_bytes(buf4));
    }
    let g = CsrGraph::from_sorted_parts_unchecked(offsets, neighbors);
    g.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(g)
}

/// Writes the binary CSR format to a file.
pub fn write_binary_file(graph: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    write_binary(graph, BufWriter::new(File::create(path)?))
}

/// Reads the binary CSR format from a file.
pub fn read_binary_file(path: impl AsRef<Path>) -> io::Result<CsrGraph> {
    read_binary(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn edge_list_roundtrip() {
        let g = gen::scan_paper_example();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
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
