//! The delta transform: representing activations as differences of
//! spatially adjacent values.
//!
//! Diffy's dataflow (§III-D) computes the leftmost output of each row
//! directly and every other output along the row differentially; the
//! Delta_out engine (§III-E, Fig. 10) writes each omap brick back to the
//! activation memory as the element-wise difference from the brick
//! `s_next` columns to its left, where `s_next` is the *next* layer's
//! stride. This module implements that transform and its exact inverse.
//!
//! Deltas of 16-bit values need 17 bits in the worst case, so the delta
//! domain is `i32`.

use diffy_tensor::Tensor3;

/// Transforms an imap into its delta representation along the W axis.
///
/// For every channel and row, columns `x < stride` hold the raw value
/// (the row anchors) and columns `x >= stride` hold
/// `a(c, y, x) - a(c, y, x - stride)`.
///
/// # Panics
///
/// Panics if `stride == 0`.
///
/// # Example
///
/// ```
/// use diffy_tensor::Tensor3;
/// use diffy_encoding::{delta_rows, undelta_rows};
/// let t = Tensor3::from_vec(1, 1, 4, vec![10i16, 12, 11, 11]);
/// let d = delta_rows(&t, 1);
/// assert_eq!(d.as_slice(), &[10, 2, -1, 0]);
/// assert_eq!(undelta_rows(&d, 1).as_slice(), t.as_slice());
/// ```
pub fn delta_rows(t: &Tensor3<i16>, stride: usize) -> Tensor3<i32> {
    assert!(stride > 0, "stride must be positive");
    let s = t.shape();
    let mut out = Tensor3::<i32>::new(s.c, s.h, s.w);
    let k = stride.min(s.w);
    for c in 0..s.c {
        for y in 0..s.h {
            let src = t.row(c, y);
            let dst = out.row_mut(c, y);
            // Single fused streaming pass per row: anchor prefix, then a
            // branch-free zipped subtraction the compiler vectorizes
            // (src[x] - src[x - stride] expressed as two staggered views).
            for (d, &v) in dst[..k].iter_mut().zip(&src[..k]) {
                *d = v as i32;
            }
            for (d, (&cur, &prev)) in dst[k..].iter_mut().zip(src[k..].iter().zip(src.iter())) {
                *d = cur as i32 - prev as i32;
            }
        }
    }
    out
}

/// Inverse of [`delta_rows`]: reconstructs the raw imap exactly.
///
/// # Panics
///
/// Panics if `stride == 0` or if a reconstructed value falls outside the
/// 16-bit range (which cannot happen for tensors produced by
/// [`delta_rows`]).
pub fn undelta_rows(d: &Tensor3<i32>, stride: usize) -> Tensor3<i16> {
    assert!(stride > 0, "stride must be positive");
    let s = d.shape();
    let mut out = Tensor3::<i16>::new(s.c, s.h, s.w);
    let k = stride.min(s.w);
    for c in 0..s.c {
        for y in 0..s.h {
            let src = d.row(c, y);
            let dst = out.row_mut(c, y);
            // One streaming pass per row; the prefix-sum dependency is
            // loop-carried per stride lane but all accesses are
            // slice-local (no per-element shape math).
            for x in 0..k {
                let v = src[x];
                assert!(
                    (i16::MIN as i32..=i16::MAX as i32).contains(&v),
                    "reconstructed value {v} out of 16-bit range"
                );
                dst[x] = v as i16;
            }
            for x in k..s.w {
                let v = src[x] + dst[x - stride] as i32;
                assert!(
                    (i16::MIN as i32..=i16::MAX as i32).contains(&v),
                    "reconstructed value {v} out of 16-bit range"
                );
                dst[x] = v as i16;
            }
        }
    }
    out
}

/// Wrapping 16-bit delta transform along the W axis.
///
/// This is exactly what the Delta_out engine's element-wise 16-bit
/// subtractors produce in hardware: `a.wrapping_sub(prev)`. Reconstruction
/// adds modulo 2^16, so the roundtrip is exact for *all* 16-bit inputs.
/// For post-ReLU activations (the only values Diffy ever re-reads as
/// deltas) no wrap can occur, so the wrapped delta equals the true
/// arithmetic difference and Booth-term counts are faithful.
///
/// # Panics
///
/// Panics if `stride == 0`.
pub fn delta_rows_wrapping(t: &Tensor3<i16>, stride: usize) -> Tensor3<i16> {
    assert!(stride > 0, "stride must be positive");
    let s = t.shape();
    let mut out = Tensor3::<i16>::new(s.c, s.h, s.w);
    for c in 0..s.c {
        for y in 0..s.h {
            delta_row_wrapping_into(t.row(c, y), stride, out.row_mut(c, y));
        }
    }
    out
}

/// Wrapping strided delta of one row into a caller-provided buffer — the
/// slice kernel behind [`delta_rows_wrapping`], also used by the
/// term-plane builders to delta a padded row without allocating.
///
/// Columns `x < stride` hold the raw value; columns `x >= stride` hold
/// `src[x].wrapping_sub(src[x - stride])`. A single branch-free streaming
/// pass the compiler auto-vectorizes.
///
/// # Panics
///
/// Panics if `stride == 0` or `dst.len() != src.len()`.
pub fn delta_row_wrapping_into(src: &[i16], stride: usize, dst: &mut [i16]) {
    assert!(stride > 0, "stride must be positive");
    assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
    let k = stride.min(src.len());
    dst[..k].copy_from_slice(&src[..k]);
    for (d, (&cur, &prev)) in dst[k..].iter_mut().zip(src[k..].iter().zip(src.iter())) {
        *d = cur.wrapping_sub(prev);
    }
}

/// Inverse of [`delta_rows_wrapping`].
pub fn undelta_rows_wrapping(d: &Tensor3<i16>, stride: usize) -> Tensor3<i16> {
    assert!(stride > 0, "stride must be positive");
    let s = d.shape();
    let mut out = Tensor3::<i16>::new(s.c, s.h, s.w);
    let k = stride.min(s.w);
    for c in 0..s.c {
        for y in 0..s.h {
            let src = d.row(c, y);
            let dst = out.row_mut(c, y);
            dst[..k].copy_from_slice(&src[..k]);
            for x in k..s.w {
                dst[x] = src[x].wrapping_add(dst[x - stride]);
            }
        }
    }
    out
}

/// Wrapping delta transform of a flat slice with the first element as the
/// anchor (one on-chip row segment).
pub fn delta_slice_wrapping(vs: &[i16]) -> Vec<i16> {
    vs.iter()
        .enumerate()
        .map(|(i, &v)| if i == 0 { v } else { v.wrapping_sub(vs[i - 1]) })
        .collect()
}

/// Inverse of [`delta_slice_wrapping`].
pub fn undelta_slice_wrapping(ds: &[i16]) -> Vec<i16> {
    let mut out: Vec<i16> = Vec::with_capacity(ds.len());
    for (i, &d) in ds.iter().enumerate() {
        let v = if i == 0 { d } else { d.wrapping_add(out[i - 1]) };
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_then_undelta_is_identity() {
        let t = Tensor3::from_vec(2, 2, 5, (0..20).map(|v| (v * v - 30) as i16).collect());
        for stride in 1..=3 {
            let d = delta_rows(&t, stride);
            let back = undelta_rows(&d, stride);
            assert_eq!(back.as_slice(), t.as_slice(), "stride={stride}");
        }
    }

    #[test]
    fn stride_one_keeps_first_column_raw() {
        let t = Tensor3::from_vec(1, 2, 3, vec![5i16, 6, 4, -3, -3, -3]);
        let d = delta_rows(&t, 1);
        assert_eq!(d.as_slice(), &[5, 1, -2, -3, 0, 0]);
    }

    #[test]
    fn stride_two_differences_values_two_apart() {
        let t = Tensor3::from_vec(1, 1, 5, vec![1i16, 2, 3, 4, 5]);
        let d = delta_rows(&t, 2);
        assert_eq!(d.as_slice(), &[1, 2, 2, 2, 2]);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let t = Tensor3::from_vec(1, 1, 4, vec![i16::MAX, i16::MIN, i16::MAX, 0]);
        let d = delta_rows(&t, 1);
        // Deltas exceed 16 bits — that is why the delta domain is i32.
        assert_eq!(d.as_slice()[1], i16::MIN as i32 - i16::MAX as i32);
        assert_eq!(undelta_rows(&d, 1).as_slice(), t.as_slice());
    }

    #[test]
    fn constant_rows_become_all_zero_after_anchor() {
        let t = Tensor3::from_vec(1, 1, 6, vec![7i16; 6]);
        let d = delta_rows(&t, 1);
        assert_eq!(d.as_slice(), &[7, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_rejected() {
        let t = Tensor3::<i16>::new(1, 1, 1);
        let _ = delta_rows(&t, 0);
    }

    #[test]
    fn wrapping_roundtrip_on_extreme_values() {
        let t = Tensor3::from_vec(1, 1, 5, vec![i16::MAX, i16::MIN, 0, -1, i16::MAX]);
        for stride in 1..=2 {
            let d = delta_rows_wrapping(&t, stride);
            assert_eq!(
                undelta_rows_wrapping(&d, stride).as_slice(),
                t.as_slice(),
                "stride={stride}"
            );
        }
    }

    #[test]
    fn wrapping_equals_exact_for_post_relu_data() {
        // Non-negative values never wrap, so both transforms agree.
        let t = Tensor3::from_vec(1, 2, 4, vec![0i16, 100, 32767, 5, 9, 9, 0, 32000]);
        let wrapped = delta_rows_wrapping(&t, 1);
        let exact = delta_rows(&t, 1);
        for (w, e) in wrapped.iter().zip(exact.iter()) {
            assert_eq!(*w as i32, *e);
        }
    }

    #[test]
    fn row_kernel_matches_naive_definition() {
        let vs: Vec<i16> = (0..37)
            .map(|v| (v * v * 7 - 300) as i16)
            .chain([i16::MIN, i16::MAX, 0, -1])
            .collect();
        for stride in [1usize, 2, 3, 5, 41] {
            let mut got = vec![0i16; vs.len()];
            delta_row_wrapping_into(&vs, stride, &mut got);
            let want: Vec<i16> = (0..vs.len())
                .map(|x| {
                    if x < stride {
                        vs[x]
                    } else {
                        vs[x].wrapping_sub(vs[x - stride])
                    }
                })
                .collect();
            assert_eq!(got, want, "stride={stride}");
        }
    }

    #[test]
    fn wrapping_slice_roundtrip() {
        let vs = vec![i16::MIN, i16::MAX, 0, 17, -17];
        assert_eq!(undelta_slice_wrapping(&delta_slice_wrapping(&vs)), vs);
        assert!(delta_slice_wrapping(&[]).is_empty());
    }
}
