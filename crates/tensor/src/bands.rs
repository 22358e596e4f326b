//! Row bands: the one way a stage splits its independent rows across the
//! process's cores.
//!
//! Three stages of a cold evaluation are row work with no dependency
//! between rows: the term-plane build (each padded row of the planes
//! reads only its own imap rows), the storage-scheme footprints (Diffy
//! encodes each `(c, y)` activation row on its own, with deltas anchored
//! at the row start, §III-F) and the window walk (the tiles take windows
//! in output-row order, §III-D). Each stage cuts its rows into
//! contiguous bands and runs them through [`run`] or [`run_rows`].
//!
//! There is one split rule, [`count`]: a stage that reads at least
//! [`PAR_THRESHOLD`] values runs in [`parallelism`] bands, and a smaller
//! one runs as one band on the calling thread. Each stage states what it
//! counts. A band's result depends only on its rows, and every stage
//! merges its bands' results exactly, so any band count gives identical
//! numbers.

use std::ops::Range;
use std::sync::OnceLock;

/// Values a stage reads from which it splits into [`parallelism`] bands.
/// Smaller stages run as one band: a thread spawn costs more than their
/// work.
pub const PAR_THRESHOLD: usize = 1 << 20;

/// The process's core count: available parallelism, or 1 when the
/// platform cannot report it. Asked of the OS exactly once, because
/// `available_parallelism` reads cgroup and affinity state on every
/// call.
pub fn parallelism() -> usize {
    static PAR: OnceLock<usize> = OnceLock::new();
    *PAR.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The band count of a stage that reads `values` values: [`parallelism`]
/// from [`PAR_THRESHOLD`] on, and 1 below it.
pub fn count(values: usize) -> usize {
    if values >= PAR_THRESHOLD {
        parallelism()
    } else {
        1
    }
}

/// Rows per band when `rows` rows split into `bands` bands:
/// `⌈rows / bands⌉`, and at least 1. Every band but the last holds this
/// many rows, so more bands than rows leave one row per band.
pub fn rows_per(rows: usize, bands: usize) -> usize {
    rows.div_ceil(bands.max(1)).max(1)
}

/// Runs `band` once per part and returns the results in part order. The
/// first part runs on the calling thread and every other part on a
/// scoped thread of its own. A panic inside a band reaches the caller
/// with its own payload once every band has stopped.
pub fn run<P, R, F>(parts: impl IntoIterator<Item = P>, band: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    let band = &band;
    std::thread::scope(|scope| {
        let others: Vec<_> = parts.map(|part| scope.spawn(move || band(part))).collect();
        let mut out = Vec::with_capacity(others.len() + 1);
        out.push(band(first));
        for handle in others {
            out.push(handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        out
    })
}

/// [`run`] over the rows `0..rows` cut into contiguous ranges of
/// [`rows_per`]`(rows, bands)` rows; no band when `rows` is 0.
pub fn run_rows<R, F>(rows: usize, bands: usize, band: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let per = rows_per(rows, bands);
    run((0..rows).step_by(per).map(|r0| r0..rows.min(r0 + per)), band)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_band_below_the_threshold() {
        assert_eq!(count(0), 1);
        assert_eq!(count(PAR_THRESHOLD - 1), 1);
        assert_eq!(count(PAR_THRESHOLD), parallelism());
        assert!(parallelism() >= 1);
    }

    #[test]
    fn results_come_back_in_band_order() {
        let parts: Vec<usize> = (0..7).collect();
        assert_eq!(run(parts, |i| i * 10), [0, 10, 20, 30, 40, 50, 60]);
        // The bands really run beside the caller: each sees its own thread.
        let ids = run(0..3, |_| std::thread::current().id());
        assert_eq!(ids[0], std::thread::current().id());
        assert!(ids[1] != ids[0] && ids[2] != ids[0] && ids[1] != ids[2]);
    }

    #[test]
    fn zero_parts_give_no_results() {
        assert!(run(std::iter::empty::<u8>(), |_| unreachable!()).is_empty());
        assert!(run_rows(0, 4, |_: Range<usize>| unreachable!()).is_empty());
    }

    #[test]
    fn row_bands_cover_every_row_once_in_order() {
        for rows in [1, 2, 5, 16, 17] {
            for bands in [1, 2, 3, rows, rows + 1, 4 * rows] {
                let got = run_rows(rows, bands, |r| r);
                let per = rows_per(rows, bands);
                assert!(got.len() <= bands.max(1), "{rows} rows, {bands} bands");
                assert!(got.iter().all(|r| !r.is_empty() && r.len() <= per));
                let flat: Vec<usize> = got.into_iter().flatten().collect();
                assert_eq!(flat, (0..rows).collect::<Vec<_>>(), "{rows} rows, {bands} bands");
            }
        }
        assert_eq!(run_rows(10, 3, |r| r), [0..4, 4..8, 8..10]);
        assert_eq!(rows_per(0, 3), 1);
        assert_eq!(rows_per(5, 0), 5);
    }

    #[test]
    #[should_panic(expected = "band 2 failed")]
    fn a_panic_in_a_spawned_band_reaches_the_caller() {
        run(0..4, |i| assert!(i != 2, "band {i} failed"));
    }

    #[test]
    #[should_panic(expected = "band 0 failed")]
    fn a_panic_in_the_calling_band_reaches_the_caller() {
        run(0..3, |i| assert!(i != 0, "band {i} failed"));
    }
}
