//! Value statistics: magnitude percentiles and histograms.
//!
//! These feed two parts of the reproduction: profiled per-layer precisions
//! (Table III — derived from the magnitude distribution of each layer's
//! activations) and the entropy measurements of Fig. 1 (which need value
//! histograms).

/// Histogram over the absolute magnitude of `i16` samples, bucketed exactly
/// (one bucket per magnitude 0..=32768).
///
/// Used to answer "what is the smallest precision that covers quantile `q`
/// of the values?" — the profiled-precision question.
#[derive(Debug, Clone)]
pub struct MagnitudeHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl MagnitudeHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { counts: vec![0; 1 << 15 | 1], total: 0 }
    }

    /// Adds one sample's magnitude.
    pub fn push(&mut self, v: i16) {
        let mag = (v as i32).unsigned_abs() as usize;
        self.counts[mag] += 1;
        self.total += 1;
    }

    /// Adds every sample in a slice.
    pub fn extend_from_slice(&mut self, vs: &[i16]) {
        for &v in vs {
            self.push(v);
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &MagnitudeHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest magnitude `m` such that at least `q` (0..=1) of the samples
    /// have `|v| <= m`. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn magnitude_quantile(&self, q: f64) -> u32 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return 0;
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut cum = 0u64;
        for (mag, &cnt) in self.counts.iter().enumerate() {
            cum += cnt;
            if cum >= target {
                return mag as u32;
            }
        }
        (self.counts.len() - 1) as u32
    }

    /// Maximum magnitude seen (0 if empty).
    pub fn max_magnitude(&self) -> u32 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|m| m as u32)
            .unwrap_or(0)
    }
}

impl Default for MagnitudeHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Cumulative distribution helper: given per-bucket counts, returns the
/// cumulative fraction at each bucket (the form plotted in the paper's
/// Fig. 3).
///
/// Returns an empty vector when every count is zero.
pub fn cumulative_fractions(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let mut cum = 0u64;
    counts
        .iter()
        .map(|&c| {
            cum += c;
            cum as f64 / total as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = MagnitudeHistogram::new();
        h.extend_from_slice(&[0, 1, -1, 2, -2, 100]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.magnitude_quantile(0.5), 1);
        assert_eq!(h.magnitude_quantile(1.0), 100);
        assert_eq!(h.max_magnitude(), 100);
    }

    #[test]
    fn histogram_handles_i16_min() {
        let mut h = MagnitudeHistogram::new();
        h.push(i16::MIN);
        assert_eq!(h.max_magnitude(), 32768);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = MagnitudeHistogram::new();
        assert_eq!(h.magnitude_quantile(0.999), 0);
        assert_eq!(h.max_magnitude(), 0);
    }

    #[test]
    fn histogram_merge_matches_union() {
        let mut a = MagnitudeHistogram::new();
        let mut b = MagnitudeHistogram::new();
        a.extend_from_slice(&[1, 2, 3]);
        b.extend_from_slice(&[4, 5]);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max_magnitude(), 5);
    }

    #[test]
    fn cumulative_fractions_end_at_one() {
        let cdf = cumulative_fractions(&[1, 1, 2]);
        assert_eq!(cdf.len(), 3);
        assert!((cdf[0] - 0.25).abs() < 1e-12);
        assert!((cdf[2] - 1.0).abs() < 1e-12);
        assert!(cumulative_fractions(&[0, 0]).is_empty());
    }
}
