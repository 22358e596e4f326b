//! Entropy estimators for Fig. 1 of the paper: the per-network entropy
//! `H(A)` of the activations, the conditional entropy `H(A|A')` given the
//! adjacent-along-X activation, and the entropy `H(Δ)` of the activation
//! deltas.

use diffy_tensor::Tensor3;
use std::collections::HashMap;

/// Accumulates the three entropy measurements of Fig. 1 over any number of
/// activation tensors.
///
/// `H(A)` measures the average information per activation; `H(A|A')` the
/// *new* information in an activation given its left neighbour; `H(Δ)` the
/// information in the delta stream. Spatially correlated imaps show
/// `H(A|A') ≈ H(Δ) < H(A)`.
#[derive(Debug, Clone, Default)]
pub struct EntropyAccumulator {
    value_counts: HashMap<i16, u64>,
    pair_counts: HashMap<(i16, i16), u64>,
    prev_counts: HashMap<i16, u64>,
    delta_counts: HashMap<i32, u64>,
    values: u64,
    pairs: u64,
}

impl EntropyAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one imap: every value feeds `H(A)`, every horizontally
    /// adjacent pair feeds `H(A|A')` and `H(Δ)`.
    pub fn push_tensor(&mut self, t: &Tensor3<i16>) {
        let s = t.shape();
        for c in 0..s.c {
            for y in 0..s.h {
                let row = t.row(c, y);
                for (x, &v) in row.iter().enumerate() {
                    *self.value_counts.entry(v).or_insert(0) += 1;
                    self.values += 1;
                    if x > 0 {
                        let prev = row[x - 1];
                        *self.pair_counts.entry((prev, v)).or_insert(0) += 1;
                        *self.prev_counts.entry(prev).or_insert(0) += 1;
                        *self.delta_counts.entry(v as i32 - prev as i32).or_insert(0) += 1;
                        self.pairs += 1;
                    }
                }
            }
        }
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.values
    }

    /// `H(A)` in bits (0 if empty).
    pub fn h_a(&self) -> f64 {
        entropy_of_counts(self.value_counts.values().copied(), self.values)
    }

    /// `H(A | A')` in bits: `H(A', A) - H(A')` over adjacent pairs.
    pub fn h_a_given_prev(&self) -> f64 {
        if self.pairs == 0 {
            return 0.0;
        }
        let joint = entropy_of_counts(self.pair_counts.values().copied(), self.pairs);
        let prev = entropy_of_counts(self.prev_counts.values().copied(), self.pairs);
        (joint - prev).max(0.0)
    }

    /// `H(Δ)` in bits over adjacent-along-X deltas.
    pub fn h_delta(&self) -> f64 {
        entropy_of_counts(self.delta_counts.values().copied(), self.pairs)
    }
}

fn entropy_of_counts(counts: impl Iterator<Item = u64>, total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let mut h = 0.0;
    for c in counts {
        if c == 0 {
            continue;
        }
        let p = c as f64 / n;
        h -= p * p.log2();
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_values_have_log2_entropy() {
        let h = entropy_of_counts(std::iter::repeat_n(1, 256), 256);
        assert!((h - 8.0).abs() < 1e-9, "h={h}");
    }

    #[test]
    fn constant_values_have_zero_entropy() {
        assert_eq!(entropy_of_counts(std::iter::once(100), 100), 0.0);
    }

    #[test]
    fn conditional_entropy_of_deterministic_sequence_is_zero() {
        // A ramp: the next value is fully determined by the previous one.
        let t = Tensor3::from_vec(1, 1, 64, (0..64).collect::<Vec<i16>>());
        let mut acc = EntropyAccumulator::new();
        acc.push_tensor(&t);
        assert!(acc.h_a() > 0.0);
        assert!(acc.h_a_given_prev() < 1e-9);
        assert!(acc.h_delta() < 1e-9);
    }

    #[test]
    fn conditional_entropy_bounded_by_marginal() {
        // Pseudo-random row: H(A|A') <= H(A) must still hold.
        let vs: Vec<i16> = (0..512).map(|i| ((i * 2654435761u64 as usize) % 97) as i16).collect();
        let t = Tensor3::from_vec(1, 2, 256, vs);
        let mut acc = EntropyAccumulator::new();
        acc.push_tensor(&t);
        assert!(acc.h_a_given_prev() <= acc.h_a() + 1e-9);
    }

    #[test]
    fn correlated_rows_compress_under_delta_entropy() {
        // A slow ramp with small steps: H(Δ) well below H(A).
        let vs: Vec<i16> = (0..1024).map(|i| (i / 4) as i16).collect();
        let t = Tensor3::from_vec(1, 4, 256, vs);
        let mut acc = EntropyAccumulator::new();
        acc.push_tensor(&t);
        assert!(acc.h_delta() < acc.h_a() / 2.0);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let acc = EntropyAccumulator::new();
        assert_eq!(acc.h_a(), 0.0);
        assert_eq!(acc.h_a_given_prev(), 0.0);
        assert_eq!(acc.h_delta(), 0.0);
        assert_eq!(acc.count(), 0);
    }

    #[test]
    fn multiple_tensors_accumulate() {
        let a = Tensor3::from_vec(1, 1, 2, vec![0i16, 1]);
        let b = Tensor3::from_vec(1, 1, 2, vec![2i16, 3]);
        let mut acc = EntropyAccumulator::new();
        acc.push_tensor(&a);
        acc.push_tensor(&b);
        assert_eq!(acc.count(), 4);
        assert!((acc.h_a() - 2.0).abs() < 1e-9);
    }
}
