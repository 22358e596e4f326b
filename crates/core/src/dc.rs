//! Differential convolution (§III-C, Eqs. 3 and 4).
//!
//! Given an output computed directly,
//!
//! ```text
//! o(n, y, x+1) = o(n, y, x) + ⟨wⁿ, Δ⟩
//! Δ(k, j, i)   = a(k, j + yS, i + (x+1)S) − a(k, j + yS, i + xS)
//! ```
//!
//! — multiplication distributes over the difference, so computing each
//! output from its left neighbour plus an inner product with the window
//! deltas is *bit-exact* relative to direct convolution when the
//! arithmetic is exact (64-bit accumulators here; the property tests in
//! this module and in `tests/` enforce equality against
//! [`diffy_tensor::conv2d`] over arbitrary tensors and geometries).
//!
//! This module is the functional ground truth for what the Diffy hardware
//! computes; the cycle model in `diffy-sim` prices the same dataflow.

use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};

/// Computes a convolutional layer differentially: the leftmost output of
/// each row directly (Eq. 1), every subsequent output from its left
/// neighbour plus the delta inner product (Eq. 4) — exactly Diffy's
/// dataflow (§III-D).
///
/// Returns the raw accumulator omap, bit-identical to
/// [`diffy_tensor::conv2d`].
///
/// # Panics
///
/// Panics if the channel counts of `imap` and `fmaps` disagree, or if
/// `bias` is present with a length other than `K`.
///
/// # Example
///
/// ```
/// use diffy_core::dc::differential_conv2d;
/// use diffy_tensor::{conv2d, ConvGeometry, Tensor3, Tensor4};
/// let imap = Tensor3::from_vec(1, 1, 3, vec![10i16, 11, 11]);
/// let fmaps = Tensor4::from_vec(1, 1, 1, 1, vec![3i16]);
/// let o = differential_conv2d(&imap, &fmaps, None, ConvGeometry::unit());
/// assert_eq!(o.as_slice(), &[30, 33, 33]);
/// ```
pub fn differential_conv2d(
    imap: &Tensor3<i16>,
    fmaps: &Tensor4<i16>,
    bias: Option<&[i64]>,
    geom: ConvGeometry,
) -> Tensor3<i64> {
    let ishape = imap.shape();
    let fshape = fmaps.shape();
    assert_eq!(ishape.c, fshape.c, "channel mismatch: imap {} vs fmaps {}", ishape.c, fshape.c);
    if let Some(b) = bias {
        assert_eq!(b.len(), fshape.k, "bias length {} != filters {}", b.len(), fshape.k);
    }
    let oshape = geom.out_shape(ishape, fshape);
    let mut omap = Tensor3::<i64>::new(oshape.c, oshape.h, oshape.w);
    if oshape.is_empty() {
        return omap;
    }

    let pad = geom.pad as isize;
    let s = geom.stride as isize;
    let d = geom.dilation as isize;

    // Padded activation fetch (zero outside), in imap coordinates.
    let fetch = |c: usize, iy: isize, ix: isize| -> i64 {
        if iy < 0 || ix < 0 || iy as usize >= ishape.h || ix as usize >= ishape.w {
            0
        } else {
            *imap.at(c, iy as usize, ix as usize) as i64
        }
    };

    for n in 0..fshape.k {
        let b = bias.map(|b| b[n]).unwrap_or(0);
        for oy in 0..oshape.h {
            let base_y = oy as isize * s - pad;
            // Leftmost output of the row: direct (Eq. 1).
            let mut prev: i64 = b;
            for c in 0..fshape.c {
                for j in 0..fshape.h {
                    let iy = base_y + j as isize * d;
                    for i in 0..fshape.w {
                        let ix = -pad + i as isize * d;
                        prev += *fmaps.at(n, c, j, i) as i64 * fetch(c, iy, ix);
                    }
                }
            }
            *omap.at_mut(n, oy, 0) = prev;

            // Remaining outputs: differential (Eq. 4).
            for ox in 1..oshape.w {
                let base_x = ox as isize * s - pad;
                let mut delta_ip: i64 = 0;
                for c in 0..fshape.c {
                    for j in 0..fshape.h {
                        let iy = base_y + j as isize * d;
                        for i in 0..fshape.w {
                            let ix = base_x + i as isize * d;
                            let delta = fetch(c, iy, ix) - fetch(c, iy, ix - s);
                            delta_ip += *fmaps.at(n, c, j, i) as i64 * delta;
                        }
                    }
                }
                prev += delta_ip;
                *omap.at_mut(n, oy, ox) = prev;
            }
        }
    }
    omap
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_tensor::conv2d;

    fn pseudo_tensor(c: usize, h: usize, w: usize, seed: u64) -> Tensor3<i16> {
        let data: Vec<i16> = (0..c * h * w)
            .map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
                (x >> 48) as i16
            })
            .collect();
        Tensor3::from_vec(c, h, w, data)
    }

    fn pseudo_filters(k: usize, c: usize, f: usize, seed: u64) -> Tensor4<i16> {
        let data: Vec<i16> = (0..k * c * f * f)
            .map(|i| {
                let x = (i as u64).wrapping_mul(2862933555777941757).wrapping_add(seed);
                (x >> 50) as i16
            })
            .collect();
        Tensor4::from_vec(k, c, f, f, data)
    }

    #[test]
    fn matches_direct_on_same_padded_conv() {
        let imap = pseudo_tensor(3, 7, 9, 1);
        let fmaps = pseudo_filters(4, 3, 3, 2);
        let geom = ConvGeometry::same(3, 3);
        assert_eq!(
            differential_conv2d(&imap, &fmaps, None, geom),
            conv2d(&imap, &fmaps, None, geom)
        );
    }

    #[test]
    fn matches_direct_across_geometries() {
        let imap = pseudo_tensor(2, 8, 11, 3);
        let fmaps = pseudo_filters(3, 2, 3, 4);
        for stride in 1..=3usize {
            for pad in 0..=2usize {
                for dilation in 1..=2usize {
                    let geom = ConvGeometry { stride, pad, dilation };
                    if geom.out_dim(8, 3) == 0 || geom.out_dim(11, 3) == 0 {
                        continue;
                    }
                    assert_eq!(
                        differential_conv2d(&imap, &fmaps, None, geom),
                        conv2d(&imap, &fmaps, None, geom),
                        "geom {geom:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_direct_with_bias() {
        let imap = pseudo_tensor(2, 4, 6, 9);
        let fmaps = pseudo_filters(2, 2, 1, 10);
        let bias = vec![1234, -987];
        let geom = ConvGeometry::unit();
        assert_eq!(
            differential_conv2d(&imap, &fmaps, Some(&bias), geom),
            conv2d(&imap, &fmaps, Some(&bias), geom)
        );
    }

    #[test]
    fn matches_direct_on_extreme_values() {
        let imap = Tensor3::from_vec(
            1,
            2,
            4,
            vec![i16::MAX, i16::MIN, i16::MAX, i16::MIN, 0, -1, 1, i16::MAX],
        );
        let fmaps = Tensor4::from_vec(1, 1, 2, 2, vec![i16::MAX, i16::MIN, -1, 1]);
        let geom = ConvGeometry::unit();
        assert_eq!(
            differential_conv2d(&imap, &fmaps, None, geom),
            conv2d(&imap, &fmaps, None, geom)
        );
    }

    #[test]
    fn single_column_output_is_all_direct() {
        let imap = pseudo_tensor(2, 5, 3, 7);
        let fmaps = pseudo_filters(2, 2, 3, 8);
        let geom = ConvGeometry::unit(); // out width 1
        assert_eq!(
            differential_conv2d(&imap, &fmaps, None, geom),
            conv2d(&imap, &fmaps, None, geom)
        );
    }
}
