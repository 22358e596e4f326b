//! Per-tensor effectual-term statistics (Fig. 2c and Fig. 3 of the paper).

use crate::booth::{booth_terms, MAX_TERMS_I32};
use diffy_tensor::stats::cumulative_fractions;
use diffy_tensor::Tensor3;

/// Histogram of effectual-term counts over a value population, with the
/// derived statistics the paper reports: average terms per value, sparsity
/// (fraction of zero values — exactly the zero-term fraction) and the
/// cumulative distribution of Fig. 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermStats {
    counts: Vec<u64>,
    total: u64,
    term_sum: u64,
}

impl TermStats {
    /// Creates an empty statistics accumulator.
    pub fn new() -> Self {
        Self { counts: vec![0; MAX_TERMS_I32 as usize + 1], total: 0, term_sum: 0 }
    }

    /// Records one value with `terms` effectual terms.
    pub fn push_terms(&mut self, terms: u32) {
        self.counts[terms as usize] += 1;
        self.total += 1;
        self.term_sum += terms as u64;
    }

    /// Records a 16-bit activation.
    pub fn push_act(&mut self, v: i16) {
        self.push_terms(booth_terms(v));
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &TermStats) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.term_sum += other.term_sum;
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Total effectual terms across all recorded values.
    pub fn term_total(&self) -> u64 {
        self.term_sum
    }

    /// Average effectual terms per value (0 if empty).
    pub fn mean_terms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.term_sum as f64 / self.total as f64
        }
    }

    /// Fraction of values that are exactly zero (zero Booth terms) — the
    /// paper's activation sparsity.
    pub fn sparsity(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[0] as f64 / self.total as f64
        }
    }

    /// Cumulative fraction of values with at most `i` terms, for
    /// `i = 0..=MAX_TERMS_I32` (the curve of Fig. 3). Empty if no values
    /// were recorded.
    pub fn cdf(&self) -> Vec<f64> {
        cumulative_fractions(&self.counts)
    }

    /// Raw per-term-count histogram.
    pub fn histogram(&self) -> &[u64] {
        &self.counts
    }
}

impl Default for TermStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Term statistics of a raw activation tensor.
pub fn stats_of_acts(t: &Tensor3<i16>) -> TermStats {
    let mut s = TermStats::new();
    for &v in t.iter() {
        s.push_act(v);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::delta_rows_wrapping;

    #[test]
    fn mean_and_sparsity_on_known_values() {
        let t = Tensor3::from_vec(1, 1, 4, vec![0i16, 0, 1, 7]);
        let s = stats_of_acts(&t);
        assert_eq!(s.count(), 4);
        assert_eq!(s.sparsity(), 0.5);
        // terms: 0, 0, 1, 2 -> mean 0.75
        assert!((s.mean_terms() - 0.75).abs() < 1e-12);
        assert_eq!(s.term_total(), 3);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let t = Tensor3::from_vec(1, 1, 5, vec![0i16, 1, 3, 0x5555u16 as i16, -1]);
        let s = stats_of_acts(&t);
        let cdf = s.cdf();
        assert!(cdf.windows(2).all(|w| w[0] <= w[1] + 1e-15));
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_union() {
        let a = stats_of_acts(&Tensor3::from_vec(1, 1, 2, vec![1i16, 2]));
        let mut b = stats_of_acts(&Tensor3::from_vec(1, 1, 2, vec![0i16, 7]));
        b.merge(&a);
        let all = stats_of_acts(&Tensor3::from_vec(1, 1, 4, vec![1i16, 2, 0, 7]));
        assert_eq!(b.count(), all.count());
        assert_eq!(b.term_total(), all.term_total());
        assert_eq!(b.histogram(), all.histogram());
    }

    #[test]
    fn correlated_data_has_fewer_delta_terms() {
        // A smooth ramp: deltas are tiny, raw values are large.
        let vals: Vec<i16> = (0..64).map(|x| 1000 + 3 * x as i16).collect();
        let t = Tensor3::from_vec(1, 1, 64, vals);
        let raw = stats_of_acts(&t);
        let del = stats_of_acts(&delta_rows_wrapping(&t, 1));
        assert!(
            del.mean_terms() < raw.mean_terms(),
            "delta {} !< raw {}",
            del.mean_terms(),
            raw.mean_terms()
        );
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = TermStats::new();
        assert_eq!(s.mean_terms(), 0.0);
        assert_eq!(s.sparsity(), 0.0);
        assert!(s.cdf().is_empty());
    }
}
