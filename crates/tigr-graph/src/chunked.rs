//! Contiguous chunks of work for scoped threads: how many to cut, where
//! to cut rows so each chunk holds about as many edges, and running one
//! job per chunk with the first on the calling thread.
//!
//! Every output array is allocated by the caller and handed to the jobs
//! as disjoint `&mut` slices: a spawned thread that allocates a large
//! array gets it from its own malloc arena, which keeps the pages after
//! the array is freed and raises the process's peak resident set.

/// The fewest edges a chunk is cut to: below this, a thread's start-up
/// costs more than the work it takes off the calling thread.
pub(crate) const MIN_CHUNK_EDGES: usize = 1 << 15;

/// How many chunks to cut `edges` edges of work into: one per core, at
/// least [`MIN_CHUNK_EDGES`] each, and never fewer than one — so a small
/// graph, or a one-core host, runs on the calling thread alone.
pub(crate) fn edge_chunks(edges: usize) -> usize {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads.min(edges / MIN_CHUNK_EDGES).max(1)
}

/// Cuts the rows of `row_ptr` (`n + 1` offsets) into at most `chunks`
/// contiguous, non-empty ranges holding about as many edges each.
/// Returns the `k + 1` row boundaries of `k` ranges, `0` first and `n`
/// last (`[0, 0]`, one empty range, for `n == 0`).
pub(crate) fn row_bounds(row_ptr: &[usize], chunks: usize) -> Vec<usize> {
    let n = row_ptr.len() - 1;
    let m = row_ptr[n];
    let mut bounds = vec![0];
    for i in 1..chunks {
        let target = (m as u128 * i as u128 / chunks as u128) as usize;
        let row = row_ptr.partition_point(|&offset| offset < target);
        if row > bounds[bounds.len() - 1] && row < n {
            bounds.push(row);
        }
    }
    bounds.push(n);
    bounds
}

/// `slice` cut at the ascending offsets `bounds` (first `0`, last
/// `slice.len()`) into `bounds.len() - 1` disjoint pieces.
pub(crate) fn split_at_bounds<'a, T>(mut slice: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut pieces = Vec::with_capacity(bounds.len().saturating_sub(1));
    for w in bounds.windows(2) {
        let (piece, rest) = std::mem::take(&mut slice).split_at_mut(w[1] - w[0]);
        pieces.push(piece);
        slice = rest;
    }
    pieces
}

/// Runs `work` on every job: the first on the calling thread, each other
/// on a scoped thread of its own. Returns once all have finished.
pub(crate) fn run<J: Send>(jobs: Vec<J>, work: impl Fn(J) + Sync) {
    let mut jobs = jobs.into_iter();
    let first = jobs.next();
    std::thread::scope(|scope| {
        for job in jobs {
            let work = &work;
            scope.spawn(move || work(job));
        }
        if let Some(job) = first {
            work(job);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_bounds_balance_edges_and_skip_empty_ranges() {
        // Rows of degree 4, 0, 0, 4, 4, 4: 16 edges.
        let row_ptr = [0, 4, 4, 4, 8, 12, 16];
        assert_eq!(row_bounds(&row_ptr, 1), vec![0, 6]);
        assert_eq!(row_bounds(&row_ptr, 2), vec![0, 4, 6]);
        assert_eq!(row_bounds(&row_ptr, 4), vec![0, 1, 4, 5, 6]);
        // More chunks than rows: every range still holds a row.
        let bounds = row_bounds(&row_ptr, 50);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        assert_eq!(row_bounds(&[0], 3), vec![0, 0]);
    }

    #[test]
    fn split_at_bounds_cuts_disjoint_pieces() {
        let mut data = [1, 2, 3, 4, 5];
        let pieces = split_at_bounds(&mut data, &[0, 2, 2, 5]);
        assert_eq!(pieces.len(), 3);
        assert_eq!(&*pieces[0], &[1, 2]);
        assert!(pieces[1].is_empty());
        assert_eq!(&*pieces[2], &[3, 4, 5]);
    }
}
