//! Scoped-thread splitting shared by the edge-list reader, the CSR build
//! and classification: how many parts a stage splits into, where to cut
//! a vertex range so that its parts carry equal work, and one call that
//! runs the parts on scoped threads.
//!
//! The reader cuts each 1 MiB block of text into up to T parts of
//! at least 1/T of a block; the build and classification take one part
//! per started [`ITEM_UNIT`] items, so up to 2¹⁶ items stay on the
//! calling thread, and the reverse-edge index takes at most one part per
//! vertex count of slots ([`vertex_cap`]). T is
//! `std::thread::available_parallelism()`, which honours `taskset`.
//! Neither is a setting; tests reach explicit part counts through each
//! stage's crate-internal entry point.
//!
//! This is the part count of the offline path's own stages only. ppSCAN
//! and the GS*-Index run on `ppscan-sched`'s pool, whose thread count the
//! caller passes (the CLI's `--threads`).

/// Bytes of edge-list text the reader reads and parses at a time.
pub(crate) const TEXT_UNIT: usize = 1 << 20;

/// Pairs, slots or vertices per part of the CSR build and classification.
pub const ITEM_UNIT: usize = 1 << 16;

/// The threads this process may run on.
pub(crate) fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One part per started `unit` of `work`, at least 1 and at most `max`.
pub(crate) fn parts_of(work: usize, unit: usize, max: usize) -> usize {
    work.div_ceil(unit).clamp(1, max.max(1))
}

/// [`parts_of`] with [`threads`] as the most parts.
pub fn parts(work: usize, unit: usize) -> usize {
    if work <= unit {
        1
    } else {
        parts_of(work, unit, threads())
    }
}

/// The most parts the reverse-edge index of `items` slots over `n`
/// vertices takes: one per `n + 1` slots, and at least 1. Each part holds
/// a cursor per vertex, so capped here the cursors together hold fewer
/// entries than the index itself.
pub(crate) fn vertex_cap(items: usize, n: usize) -> usize {
    (items / n.saturating_add(1)).max(1)
}

/// Cuts the vertices of a CSR `offsets` array (length n + 1) into `parts`
/// ranges of about equal slots plus vertices. Returns the `parts + 1`
/// boundaries, from 0 to n; a range may be empty.
pub fn balanced_cuts(offsets: &[usize], parts: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let total = offsets[n] + n;
    let mut cuts: Vec<usize> = (0..parts)
        .map(|t| {
            // The first vertex whose weight prefix reaches t/parts of it.
            let target = total / parts * t;
            let (mut lo, mut hi) = (0, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if offsets[mid] + mid < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .collect();
    cuts.push(n);
    cuts
}

/// Splits `slice` into consecutive disjoint parts, the i-th spanning
/// `cuts[i]..cuts[i + 1]` relative to `cuts[0]`, which is the slice's
/// start.
pub fn split_mut<'a, T>(mut slice: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    cuts.windows(2)
        .map(|w| {
            let (head, tail) = std::mem::take(&mut slice).split_at_mut(w[1] - w[0]);
            slice = tail;
            head
        })
        .collect()
}

/// Runs `f` on every item and returns the results in order: the first on
/// the calling thread, each other on a scoped thread of its own, so one
/// item spawns nothing. A panic in any item resumes on the calling
/// thread.
pub fn run<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let f = &f;
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let spawned: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let mut out = Vec::with_capacity(spawned.len() + 1);
        out.push(f(first));
        out.extend(
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_stay_on_one_thread_up_to_one_unit() {
        assert_eq!(parts(0, ITEM_UNIT), 1);
        assert_eq!(parts(ITEM_UNIT, ITEM_UNIT), 1);
        assert_eq!(parts_of(5, 2, 7), 3);
        assert_eq!(parts_of(100, 2, 7), 7);
        assert_eq!(parts_of(1, 2, 0), 1);
        assert!((1..=threads()).contains(&parts(usize::MAX / 2, 1)));
    }

    #[test]
    fn vertex_cap_keeps_per_vertex_arrays_within_the_items() {
        assert_eq!(vertex_cap(0, 0), 1);
        assert_eq!(vertex_cap(5, 9), 1);
        assert_eq!(vertex_cap(30, 9), 3);
        assert_eq!(vertex_cap(7, usize::MAX), 1);
        for (items, n) in [(1 << 20, 1000), (1 << 20, 65_535), (999_999, 3)] {
            let cap = vertex_cap(items, n);
            assert!(cap * (n + 1) <= items && (cap + 1) * (n + 1) > items);
        }
    }

    #[test]
    fn cuts_cover_every_vertex_in_order() {
        // A hub at vertex 2 and a tail of isolated vertices.
        let offsets = [0, 1, 2, 40, 41, 42, 42, 42, 42];
        for parts in 1..=9 {
            let cuts = balanced_cuts(&offsets, parts);
            assert_eq!(cuts.len(), parts + 1);
            assert_eq!((cuts[0], cuts[parts]), (0, 8));
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
        }
        assert_eq!(balanced_cuts(&[0], 3), vec![0, 0, 0, 0]);
        assert_eq!(balanced_cuts(&[0, 0, 0, 0, 0], 2), vec![0, 2, 4]);
    }

    #[test]
    fn split_and_run_keep_order() {
        let mut data: Vec<usize> = (0..10).collect();
        let parts = split_mut(&mut data, &[0, 3, 3, 10]);
        assert_eq!(parts.iter().map(|p| p.len()).collect::<Vec<_>>(), [3, 0, 7]);
        let sums = run(parts, |p| {
            p.iter_mut().for_each(|x| *x *= 2);
            p.iter().sum::<usize>()
        });
        assert_eq!(sums, [6, 0, 84]);
        assert_eq!(data, (0..10).map(|x| 2 * x).collect::<Vec<_>>());
        assert!(run(Vec::<u8>::new(), |x| x).is_empty());
    }
}
