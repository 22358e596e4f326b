//! Shapes and convolution output geometry.
//!
//! The paper's notation (§II-A): an *imap* is `C × H × W`, a set of `K`
//! *fmaps* is `K × C × Fh × Fw`, and the convolution slides the filters with
//! stride `S`, producing an omap of `K × Ho × Wo`. CI-DNNs additionally use
//! *dilated* filters (e.g. IRCNN expands a 3×3 filter to an effective 9×9 by
//! inserting zeros — §IV "may be dilated"), so the geometry here carries a
//! dilation factor as well.

use std::fmt;

/// Shape of a 3D activation array (`channels × height × width`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape3 {
    /// Number of channels `C`.
    pub c: usize,
    /// Height `H`.
    pub h: usize,
    /// Width `W`.
    pub w: usize,
}

impl Shape3 {
    /// Creates a new shape.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Self { c, h, w }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Whether the shape contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of `(c, y, x)` in channels-outer row-major layout.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any coordinate is out of range.
    #[inline]
    pub fn index(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.c && y < self.h && x < self.w);
        (c * self.h + y) * self.w + x
    }

    /// The shape as a `(c, h, w)` tuple.
    pub fn as_tuple(&self) -> (usize, usize, usize) {
        (self.c, self.h, self.w)
    }
}

impl fmt::Display for Shape3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

/// Shape of a 4D filter bank (`filters × channels × height × width`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape4 {
    /// Number of filters `K`.
    pub k: usize,
    /// Channels per filter `C`.
    pub c: usize,
    /// Filter height `Fh`.
    pub h: usize,
    /// Filter width `Fw`.
    pub w: usize,
}

impl Shape4 {
    /// Creates a new filter-bank shape.
    pub fn new(k: usize, c: usize, h: usize, w: usize) -> Self {
        Self { k, c, h, w }
    }

    /// Total number of weights.
    pub fn len(&self) -> usize {
        self.k * self.c * self.h * self.w
    }

    /// Whether the shape contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of `(k, c, j, i)`.
    #[inline]
    pub fn index(&self, k: usize, c: usize, j: usize, i: usize) -> usize {
        debug_assert!(k < self.k && c < self.c && j < self.h && i < self.w);
        ((k * self.c + c) * self.h + j) * self.w + i
    }

    /// The shape as a `(k, c, h, w)` tuple.
    pub fn as_tuple(&self) -> (usize, usize, usize, usize) {
        (self.k, self.c, self.h, self.w)
    }
}

impl fmt::Display for Shape4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.k, self.c, self.h, self.w)
    }
}

/// Convolution geometry: stride, symmetric zero padding and dilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Stride `S` along both spatial dimensions.
    pub stride: usize,
    /// Zero padding added on every spatial border.
    pub pad: usize,
    /// Dilation factor (1 = dense filter).
    pub dilation: usize,
}

impl ConvGeometry {
    /// Unit geometry: stride 1, no padding, no dilation.
    pub fn unit() -> Self {
        Self { stride: 1, pad: 0, dilation: 1 }
    }

    /// Geometry preserving spatial size for an odd `fh × fw` filter at
    /// stride 1 ("same" padding), the common case for CI-DNNs.
    ///
    /// # Panics
    ///
    /// Panics if the filter has an even dimension (no symmetric same-pad
    /// exists).
    pub fn same(fh: usize, fw: usize) -> Self {
        assert!(fh % 2 == 1 && fw % 2 == 1, "same padding needs odd filters");
        assert_eq!(fh, fw, "same padding helper expects square filters");
        Self { stride: 1, pad: fh / 2, dilation: 1 }
    }

    /// Same-padding geometry for a dilated odd square filter.
    pub fn same_dilated(f: usize, dilation: usize) -> Self {
        assert!(f % 2 == 1, "same padding needs odd filters");
        assert!(dilation >= 1);
        Self { stride: 1, pad: dilation * (f / 2), dilation }
    }

    /// Geometry with an explicit stride and padding.
    pub fn strided(stride: usize, pad: usize) -> Self {
        assert!(stride >= 1);
        Self { stride, pad, dilation: 1 }
    }

    /// Effective spatial extent of a filter dimension of size `f` under this
    /// dilation: `(f - 1) * dilation + 1`.
    pub fn effective_extent(&self, f: usize) -> usize {
        if f == 0 {
            0
        } else {
            (f - 1) * self.dilation + 1
        }
    }

    /// Output size along one spatial dimension for input size `n` and filter
    /// size `f`: `(n + 2*pad - extent)/stride + 1`.
    ///
    /// Returns 0 if the (padded) input is smaller than the filter extent.
    pub fn out_dim(&self, n: usize, f: usize) -> usize {
        let ext = self.effective_extent(f);
        let padded = n + 2 * self.pad;
        if padded < ext {
            0
        } else {
            (padded - ext) / self.stride + 1
        }
    }

    /// Output shape for an input of shape `imap` convolved with `fmaps`.
    ///
    /// # Panics
    ///
    /// Panics if the channel counts disagree.
    pub fn out_shape(&self, imap: Shape3, fmaps: Shape4) -> Shape3 {
        assert_eq!(
            imap.c, fmaps.c,
            "imap channels {} != filter channels {}",
            imap.c, fmaps.c
        );
        Shape3::new(self.k_out(fmaps), self.out_dim(imap.h, fmaps.h), self.out_dim(imap.w, fmaps.w))
    }

    fn k_out(&self, fmaps: Shape4) -> usize {
        fmaps.k
    }
}

impl Default for ConvGeometry {
    fn default() -> Self {
        Self::unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape3_index_is_row_major_channels_outer() {
        let s = Shape3::new(2, 3, 4);
        assert_eq!(s.index(0, 0, 0), 0);
        assert_eq!(s.index(0, 0, 3), 3);
        assert_eq!(s.index(0, 1, 0), 4);
        assert_eq!(s.index(1, 0, 0), 12);
        assert_eq!(s.index(1, 2, 3), 23);
        assert_eq!(s.len(), 24);
    }

    #[test]
    fn shape4_index_covers_all_elements_once() {
        let s = Shape4::new(2, 3, 2, 2);
        let mut seen = vec![false; s.len()];
        for k in 0..2 {
            for c in 0..3 {
                for j in 0..2 {
                    for i in 0..2 {
                        let idx = s.index(k, c, j, i);
                        assert!(!seen[idx]);
                        seen[idx] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn same_padding_preserves_size() {
        let g = ConvGeometry::same(3, 3);
        assert_eq!(g.out_dim(17, 3), 17);
        let g5 = ConvGeometry::same(5, 5);
        assert_eq!(g5.out_dim(64, 5), 64);
    }

    #[test]
    fn dilated_same_padding_preserves_size() {
        // IRCNN-style: 3x3 filter, dilation 4 => effective 9x9, pad 4.
        let g = ConvGeometry::same_dilated(3, 4);
        assert_eq!(g.effective_extent(3), 9);
        assert_eq!(g.out_dim(50, 3), 50);
    }

    #[test]
    fn strided_out_dim_matches_paper_formula() {
        // Ho = (H - Fh)/S + 1 with no padding.
        let g = ConvGeometry::strided(2, 0);
        assert_eq!(g.out_dim(11, 3), 5);
        assert_eq!(g.out_dim(3, 3), 1);
    }

    #[test]
    fn out_dim_zero_when_filter_larger_than_input() {
        let g = ConvGeometry::unit();
        assert_eq!(g.out_dim(2, 3), 0);
    }

    #[test]
    fn out_shape_checks_channels() {
        let g = ConvGeometry::same(3, 3);
        let o = g.out_shape(Shape3::new(8, 10, 12), Shape4::new(5, 8, 3, 3));
        assert_eq!(o.as_tuple(), (5, 10, 12));
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn out_shape_panics_on_channel_mismatch() {
        let g = ConvGeometry::unit();
        let _ = g.out_shape(Shape3::new(8, 10, 12), Shape4::new(5, 7, 3, 3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape3::new(1, 2, 3).to_string(), "1x2x3");
        assert_eq!(Shape4::new(1, 2, 3, 4).to_string(), "1x2x3x4");
    }
}
