//! Per-element and pooling layer operations.
//!
//! The CI-DNNs of the paper are fully convolutional with ReLU activations
//! (Table I lists only Conv and ReLU layers); the classification models of
//! Fig. 19 additionally use max pooling. Everything operates on the 16-bit
//! fixed-point domain.

use crate::tensor::Tensor3;

/// In-place ReLU: clamps every element to `max(v, 0)`.
///
/// # Example
///
/// ```
/// use diffy_tensor::{Tensor3, ops::relu_inplace};
/// let mut t = Tensor3::from_vec(1, 1, 3, vec![-2i16, 0, 5]);
/// relu_inplace(&mut t);
/// assert_eq!(t.as_slice(), &[0, 0, 5]);
/// ```
pub fn relu_inplace(t: &mut Tensor3<i16>) {
    for v in t.as_mut_slice() {
        if *v < 0 {
            *v = 0;
        }
    }
}

/// Returns a ReLU'd copy of the tensor.
pub fn relu(t: &Tensor3<i16>) -> Tensor3<i16> {
    t.map(|v| v.max(0))
}

/// Fraction of elements that are exactly zero (the paper's activation
/// *sparsity*, Fig. 3).
///
/// Returns 0 for an empty tensor.
pub fn sparsity(t: &Tensor3<i16>) -> f64 {
    if t.is_empty() {
        return 0.0;
    }
    let zeros = t.iter().filter(|&&v| v == 0).count();
    zeros as f64 / t.len() as f64
}

/// Non-overlapping max pooling with a square `window` and stride equal to
/// the window size (the form used by the classification models).
///
/// Trailing rows/columns that do not fill a complete window are dropped,
/// matching common framework semantics with floor division.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn max_pool(t: &Tensor3<i16>, window: usize) -> Tensor3<i16> {
    assert!(window > 0, "pooling window must be positive");
    let s = t.shape();
    let oh = s.h / window;
    let ow = s.w / window;
    let mut out = Tensor3::<i16>::new(s.c, oh, ow);
    for c in 0..s.c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut m = i16::MIN;
                for j in 0..window {
                    for i in 0..window {
                        m = m.max(*t.at(c, oy * window + j, ox * window + i));
                    }
                }
                *out.at_mut(c, oy, ox) = m;
            }
        }
    }
    out
}

/// 2× nearest-neighbour spatial upsampling (used by the decoder halves of
/// SegNet-style models and by FFDNet's final re-assembly).
pub fn upsample2x(t: &Tensor3<i16>) -> Tensor3<i16> {
    let s = t.shape();
    let mut out = Tensor3::<i16>::new(s.c, s.h * 2, s.w * 2);
    for c in 0..s.c {
        for y in 0..s.h {
            for x in 0..s.w {
                let v = *t.at(c, y, x);
                *out.at_mut(c, 2 * y, 2 * x) = v;
                *out.at_mut(c, 2 * y, 2 * x + 1) = v;
                *out.at_mut(c, 2 * y + 1, 2 * x) = v;
                *out.at_mut(c, 2 * y + 1, 2 * x + 1) = v;
            }
        }
    }
    out
}

/// Space-to-depth: rearranges each non-overlapping `factor × factor` spatial
/// block into `factor²` channels (FFDNet's input pre-split of the image into
/// 4 tiles stacked along the channel dimension is `factor = 2`).
///
/// # Panics
///
/// Panics if the spatial dimensions are not divisible by `factor`.
pub fn space_to_depth(t: &Tensor3<i16>, factor: usize) -> Tensor3<i16> {
    let s = t.shape();
    assert!(factor > 0 && s.h.is_multiple_of(factor) && s.w.is_multiple_of(factor),
        "spatial dims {}x{} not divisible by factor {}", s.h, s.w, factor);
    let oh = s.h / factor;
    let ow = s.w / factor;
    let mut out = Tensor3::<i16>::new(s.c * factor * factor, oh, ow);
    for c in 0..s.c {
        for dy in 0..factor {
            for dx in 0..factor {
                let oc = c * factor * factor + dy * factor + dx;
                for y in 0..oh {
                    for x in 0..ow {
                        *out.at_mut(oc, y, x) = *t.at(c, y * factor + dy, x * factor + dx);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives_only() {
        let t = Tensor3::from_vec(1, 1, 4, vec![-3i16, -1, 0, 7]);
        assert_eq!(relu(&t).as_slice(), &[0, 0, 0, 7]);
        let mut m = t.clone();
        relu_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0, 0, 0, 7]);
    }

    #[test]
    fn sparsity_counts_zero_fraction() {
        let t = Tensor3::from_vec(1, 1, 4, vec![0i16, 1, 0, 2]);
        assert_eq!(sparsity(&t), 0.5);
        let empty = Tensor3::from_vec(1, 0, 0, Vec::<i16>::new());
        assert_eq!(sparsity(&empty), 0.0);
    }

    #[test]
    fn max_pool_takes_block_maxima() {
        let t = Tensor3::from_vec(1, 2, 4, vec![1i16, 5, 2, 2, 3, 4, 9, 1]);
        let p = max_pool(&t, 2);
        assert_eq!(p.shape().as_tuple(), (1, 1, 2));
        assert_eq!(p.as_slice(), &[5, 9]);
    }

    #[test]
    fn max_pool_drops_partial_windows() {
        let t = Tensor3::from_vec(1, 3, 3, (1..=9).collect::<Vec<i16>>());
        let p = max_pool(&t, 2);
        assert_eq!(p.shape().as_tuple(), (1, 1, 1));
        assert_eq!(p.as_slice(), &[5]);
    }

    #[test]
    fn upsample2x_replicates_pixels() {
        let t = Tensor3::from_vec(1, 1, 2, vec![1i16, 2]);
        let u = upsample2x(&t);
        assert_eq!(u.shape().as_tuple(), (1, 2, 4));
        assert_eq!(u.as_slice(), &[1, 1, 2, 2, 1, 1, 2, 2]);
    }

    #[test]
    fn space_to_depth_roundtrips_pixel_count() {
        let t = Tensor3::from_vec(1, 2, 2, vec![1i16, 2, 3, 4]);
        let s = space_to_depth(&t, 2);
        assert_eq!(s.shape().as_tuple(), (4, 1, 1));
        assert_eq!(s.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn space_to_depth_orders_channels_by_offset() {
        let t = Tensor3::from_vec(2, 2, 2, vec![1i16, 2, 3, 4, 5, 6, 7, 8]);
        let s = space_to_depth(&t, 2);
        assert_eq!(s.shape().as_tuple(), (8, 1, 1));
        // Channel-major: c0 offsets (0,0),(0,1),(1,0),(1,1), then c1.
        assert_eq!(s.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn space_to_depth_checks_divisibility() {
        let t = Tensor3::<i16>::new(1, 3, 4);
        let _ = space_to_depth(&t, 2);
    }
}
