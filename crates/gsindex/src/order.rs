//! The neighbor order's one comparison: a vertex's entries by descending
//! σ, then ascending id. Ids are unique within a slice, so the order is
//! total, and the build and [`GsIndex::apply_delta`](crate::GsIndex::apply_delta)
//! produce the same slice entry for entry.
//!
//! Within `u`'s slice, σ(u, v)² = cn² / ((d[u] + 1)(d[v] + 1)) and the
//! factor `d[u] + 1` is common, so each entry is keyed once by `(cn²,
//! d[v] + 1)` and two keys compare by one cross product: σ_a ≥ σ_b ⟺
//! cn_a²·(d[b] + 1) ≥ cn_b²·(d[a] + 1). Both products are below 2¹²⁸
//! (`cn² < 2⁶⁴`, `d + 1 ≤ 2³²`), so the comparison is exact, and it
//! agrees with [`SimValue`](crate::SimValue)'s order on every pair.

use ppscan_graph::{CsrGraph, VertexId};
use std::cmp::Ordering;

/// One neighbor-order entry with its precomputed sort key.
#[derive(Clone, Copy)]
struct Keyed {
    cn_sq: u64,
    d_plus_one: u64,
    entry: (VertexId, u32),
}

impl Keyed {
    fn new(graph: &CsrGraph, entry: (VertexId, u32)) -> Keyed {
        Keyed {
            cn_sq: entry.1 as u64 * entry.1 as u64,
            d_plus_one: graph.degree(entry.0) as u64 + 1,
            entry,
        }
    }

    /// `Less` when `self` goes first: higher σ, or equal σ and smaller id.
    #[inline]
    fn order(&self, other: &Keyed) -> Ordering {
        let mine = self.cn_sq as u128 * other.d_plus_one as u128;
        let theirs = other.cn_sq as u128 * self.d_plus_one as u128;
        theirs.cmp(&mine).then(self.entry.0.cmp(&other.entry.0))
    }
}

/// Sorts whole vertex slices into the neighbor order, reusing one key
/// buffer across the slices of a task.
pub(crate) struct Sorter<'g> {
    graph: &'g CsrGraph,
    keys: Vec<Keyed>,
}

impl<'g> Sorter<'g> {
    pub(crate) fn new(graph: &'g CsrGraph) -> Sorter<'g> {
        Sorter {
            graph,
            keys: Vec::new(),
        }
    }

    /// Sorts `entries`, all of one vertex's `(neighbor, cn)` entries in
    /// any order, into the neighbor order.
    pub(crate) fn sort(&mut self, entries: &mut [(VertexId, u32)]) {
        self.keys.clear();
        self.keys
            .extend(entries.iter().map(|&e| Keyed::new(self.graph, e)));
        self.keys.sort_unstable_by(Keyed::order);
        for (slot, k) in entries.iter_mut().zip(&self.keys) {
            *slot = k.entry;
        }
    }
}

/// Where `entry` goes in `run`, a run of one vertex's entries already in
/// the neighbor order that does not hold `entry`'s id.
pub(crate) fn insert_position(
    graph: &CsrGraph,
    run: &[(VertexId, u32)],
    entry: (VertexId, u32),
) -> usize {
    let key = Keyed::new(graph, entry);
    // Never `Ok`: the id is absent, and the order breaks every σ tie by id.
    run.binary_search_by(|&probe| Keyed::new(graph, probe).order(&key))
        .unwrap_or_else(|i| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimValue;
    use ppscan_graph::gen;

    #[test]
    fn keyed_order_equals_sim_value_order_then_id() {
        // Every pair of entries over a few slices, with cn values that
        // make σ ties (equal ratios across different degrees) common.
        let g = gen::roll(300, 6, 5);
        for u in g.vertices().take(60) {
            let d_u = g.degree(u);
            let entries: Vec<(VertexId, u32)> = g
                .neighbors(u)
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, 2 + (i as u32 % 4)))
                .collect();
            for &a in &entries {
                for &b in &entries {
                    let sa = SimValue::new(a.1, d_u, g.degree(a.0));
                    let sb = SimValue::new(b.1, d_u, g.degree(b.0));
                    let expect = sb.cmp(&sa).then(a.0.cmp(&b.0));
                    assert_eq!(
                        Keyed::new(&g, a).order(&Keyed::new(&g, b)),
                        expect,
                        "u={u} a={a:?} b={b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn insert_position_keeps_the_run_sorted() {
        let g = gen::clique_chain(6, 3);
        let mut sorter = Sorter::new(&g);
        for u in g.vertices() {
            let mut all: Vec<(VertexId, u32)> =
                g.neighbors(u).iter().map(|&v| (v, 2 + v % 3)).collect();
            sorter.sort(&mut all);
            for i in 0..all.len() {
                let mut run = all.clone();
                let e = run.remove(i);
                assert_eq!(insert_position(&g, &run, e), i, "u={u} entry {e:?}");
            }
        }
    }
}
