//! Order statistics for latency samples.

/// The nearest-rank `q`-th percentile of `sorted` (ascending): the
/// sample at 1-based rank `ceil(q / 100 * n)`, clamped to `[1, n]`.
/// Every value it returns is a measured sample, never an interpolation.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 100.0, "percentile {q} outside (0, 100]");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`: the sample at rank `n - 10`, reported as the
/// percentile `100 * (n - 10) / n` that rank answers. `None` below
/// eleven samples, where no percentile has ten samples above it.
pub fn highest_supported(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= 10 {
        return None;
    }
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Median of `values` (any order): the nearest-rank 50th percentile,
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// One window of a measured phase: the nearest-rank p50 and p90 of the
/// latencies of the ops that started in it, and those ops per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Median latency.
    pub p50: f64,
    /// 90th-percentile latency.
    pub p90: f64,
    /// Ops started in the window per second.
    pub rate: f64,
}

/// Splits a measured phase of `measured_s` seconds into whole windows of
/// `window_s` seconds (one window of the whole phase if it is shorter)
/// and summarizes the ops that started in each (`starts_s[i]`, ascending,
/// and `latencies[i]` describe op `i`). A window no op started in lies
/// inside a long op or a stall: its rate is 0 and its one latency is
/// that of the last op started before it, so a stall reads as slow
/// windows instead of being left out.
pub fn windows(starts_s: &[f64], latencies: &[f64], measured_s: f64, window_s: f64) -> Vec<Window> {
    let width = window_s.min(measured_s);
    let n = ((measured_s / width).floor() as usize).max(1);
    let mut buckets = vec![Vec::new(); n];
    for (&start, &latency) in starts_s.iter().zip(latencies) {
        if let Some(b) = buckets.get_mut((start / width) as usize) {
            b.push(latency);
        }
    }
    let mut in_flight = latencies.first().copied().unwrap_or(0.0);
    buckets
        .into_iter()
        .map(|mut b| {
            let rate = b.len() as f64 / width;
            match b.last() {
                Some(&last) => in_flight = last,
                None => b.push(in_flight),
            }
            b.sort_by(f64::total_cmp);
            Window {
                p50: nearest_rank(&b, 50.0),
                p90: nearest_rank(&b, 90.0),
                rate,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_the_ceil_rank_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.1), 1.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
        // 15 samples: p50 is rank 8, p90 is rank 14.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 8.0);
        assert_eq!(nearest_rank(&v, 90.0), 14.0);
    }

    #[test]
    fn highest_supported_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, value) = highest_supported(&v).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!(value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(highest_supported(&v).unwrap().1, 1.0);
        assert!(highest_supported(&[1.0; 10]).is_none());
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(highest_supported(&v), Some((75.0, 30.0)));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_summarize_each_whole_window() {
        // 3.5 s of ops, one every 10 ms; latency 1 ms in the first
        // second, 2 ms after. The last half window is left out.
        let starts: Vec<f64> = (0..350).map(|i| i as f64 * 0.01).collect();
        let lat: Vec<f64> = starts
            .iter()
            .map(|&s| if s < 1.0 { 1.0 } else { 2.0 })
            .collect();
        let w = windows(&starts, &lat, 3.5, 1.0);
        assert_eq!(w.len(), 3);
        assert_eq!(
            w[0],
            Window {
                p50: 1.0,
                p90: 1.0,
                rate: 100.0
            }
        );
        assert_eq!(w[2].p90, 2.0);
        // A phase shorter than a window is one window of its length.
        let w = windows(&starts[..50], &lat[..50], 0.5, 1.0);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].rate, 100.0);
    }

    #[test]
    fn a_stall_keeps_its_windows_as_slow_ones() {
        // Ops every 10 ms, but the op started at 0.99 s takes 2 s: the
        // two windows inside it hold no op start.
        let mut starts: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        let mut lat = vec![1.0; 100];
        lat[99] = 2000.0;
        starts.extend((0..100).map(|i| 2.99 + i as f64 * 0.01));
        lat.extend([1.0; 100]);
        let w = windows(&starts, &lat, 3.99, 1.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].rate, 100.0);
        assert_eq!(w[0].p90, 1.0);
        assert_eq!(
            w[1],
            Window {
                p50: 2000.0,
                p90: 2000.0,
                rate: 0.0
            }
        );
        assert_eq!(w[2].p50, 1.0);
        assert_eq!(w[2].rate, 1.0);
    }
}
