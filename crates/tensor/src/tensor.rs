//! Dense 3D/4D tensors in channels-outer row-major layout.

use crate::shape::{Shape3, Shape4};

/// A dense 3D tensor (`C × H × W`), the in-memory form of an imap/omap.
///
/// Storage is channels-outer row-major: all of channel 0's rows first, then
/// channel 1, etc. This matches how the reproduction's dataflow walks
/// activations and makes per-channel slices contiguous.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tensor3<T> {
    shape: Shape3,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor3<T> {
    /// Creates a zero-initialized tensor.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        let shape = Shape3::new(c, h, w);
        Self { shape, data: vec![T::default(); shape.len()] }
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(c: usize, h: usize, w: usize, value: T) -> Self {
        let shape = Shape3::new(c, h, w);
        Self { shape, data: vec![value; shape.len()] }
    }
}

impl<T> Tensor3<T> {
    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != c*h*w`.
    pub fn from_vec(c: usize, h: usize, w: usize, data: Vec<T>) -> Self {
        let shape = Shape3::new(c, h, w);
        assert_eq!(data.len(), shape.len(), "buffer length != shape volume");
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape3 {
        self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    #[inline]
    pub fn at(&self, c: usize, y: usize, x: usize) -> &T {
        &self.data[self.shape.index(c, y, x)]
    }

    /// Mutable element at `(c, y, x)`.
    #[inline]
    pub fn at_mut(&mut self, c: usize, y: usize, x: usize) -> &mut T {
        let idx = self.shape.index(c, y, x);
        &mut self.data[idx]
    }

    /// Contiguous slice holding one channel plane.
    pub fn channel(&self, c: usize) -> &[T] {
        let plane = self.shape.h * self.shape.w;
        &self.data[c * plane..(c + 1) * plane]
    }

    /// Contiguous slice holding one row of one channel.
    pub fn row(&self, c: usize, y: usize) -> &[T] {
        let start = self.shape.index(c, y, 0);
        &self.data[start..start + self.shape.w]
    }

    /// Mutable contiguous slice holding one row of one channel.
    pub fn row_mut(&mut self, c: usize, y: usize) -> &mut [T] {
        let start = self.shape.index(c, y, 0);
        &mut self.data[start..start + self.shape.w]
    }

    /// Iterator over all elements in storage order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }
}

impl<T: Copy> Tensor3<T> {
    /// Elementwise map to a new tensor, preserving shape.
    pub fn map<U, F: FnMut(T) -> U>(&self, mut f: F) -> Tensor3<U> {
        Tensor3 {
            shape: self.shape,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element at `(c, y, x)` with zero padding semantics: coordinates are
    /// signed and out-of-range reads return `zero`.
    #[inline]
    pub fn at_padded(&self, c: usize, y: isize, x: isize, zero: T) -> T {
        if y < 0 || x < 0 || y as usize >= self.shape.h || x as usize >= self.shape.w {
            zero
        } else {
            self.data[self.shape.index(c, y as usize, x as usize)]
        }
    }
}

impl<T> std::ops::Index<(usize, usize, usize)> for Tensor3<T> {
    type Output = T;
    #[inline]
    fn index(&self, (c, y, x): (usize, usize, usize)) -> &T {
        self.at(c, y, x)
    }
}

impl<T> std::ops::IndexMut<(usize, usize, usize)> for Tensor3<T> {
    #[inline]
    fn index_mut(&mut self, (c, y, x): (usize, usize, usize)) -> &mut T {
        self.at_mut(c, y, x)
    }
}

/// A dense 4D tensor (`K × C × Fh × Fw`), the in-memory form of a filter
/// bank (the paper's fmaps).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tensor4<T> {
    shape: Shape4,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor4<T> {
    /// Creates a zero-initialized filter bank.
    pub fn new(k: usize, c: usize, h: usize, w: usize) -> Self {
        let shape = Shape4::new(k, c, h, w);
        Self { shape, data: vec![T::default(); shape.len()] }
    }

    /// Creates a filter bank filled with `value`.
    pub fn filled(k: usize, c: usize, h: usize, w: usize, value: T) -> Self {
        let shape = Shape4::new(k, c, h, w);
        Self { shape, data: vec![value; shape.len()] }
    }
}

impl<T> Tensor4<T> {
    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k*c*h*w`.
    pub fn from_vec(k: usize, c: usize, h: usize, w: usize, data: Vec<T>) -> Self {
        let shape = Shape4::new(k, c, h, w);
        assert_eq!(data.len(), shape.len(), "buffer length != shape volume");
        Self { shape, data }
    }

    /// The filter bank's shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the bank has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element at `(k, c, j, i)`.
    #[inline]
    pub fn at(&self, k: usize, c: usize, j: usize, i: usize) -> &T {
        &self.data[self.shape.index(k, c, j, i)]
    }

    /// Mutable element at `(k, c, j, i)`.
    #[inline]
    pub fn at_mut(&mut self, k: usize, c: usize, j: usize, i: usize) -> &mut T {
        let idx = self.shape.index(k, c, j, i);
        &mut self.data[idx]
    }

    /// Contiguous slice of one filter's weights (`C × Fh × Fw`).
    pub fn filter(&self, k: usize) -> &[T] {
        let vol = self.shape.c * self.shape.h * self.shape.w;
        &self.data[k * vol..(k + 1) * vol]
    }

    /// Iterator over all weights in storage order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }
}

impl<T> std::ops::Index<(usize, usize, usize, usize)> for Tensor4<T> {
    type Output = T;
    #[inline]
    fn index(&self, (k, c, j, i): (usize, usize, usize, usize)) -> &T {
        self.at(k, c, j, i)
    }
}

impl<T> std::ops::IndexMut<(usize, usize, usize, usize)> for Tensor4<T> {
    #[inline]
    fn index_mut(&mut self, (k, c, j, i): (usize, usize, usize, usize)) -> &mut T {
        self.at_mut(k, c, j, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor3_new_is_zeroed() {
        let t = Tensor3::<i16>::new(2, 3, 4);
        assert_eq!(t.len(), 24);
        assert!(t.iter().all(|&v| v == 0));
    }

    #[test]
    fn tensor3_index_set_get() {
        let mut t = Tensor3::<i16>::new(2, 3, 4);
        t[(1, 2, 3)] = 42;
        assert_eq!(t[(1, 2, 3)], 42);
        assert_eq!(*t.at(1, 2, 3), 42);
        assert_eq!(t.as_slice()[23], 42);
    }

    #[test]
    fn tensor3_channel_and_row_are_contiguous() {
        let data: Vec<i16> = (0..24).collect();
        let t = Tensor3::from_vec(2, 3, 4, data);
        assert_eq!(t.channel(1), &(12..24).collect::<Vec<i16>>()[..]);
        assert_eq!(t.row(1, 2), &[20, 21, 22, 23]);
    }

    #[test]
    fn tensor3_at_padded_returns_zero_outside() {
        let t = Tensor3::<i16>::filled(1, 2, 2, 7);
        assert_eq!(t.at_padded(0, -1, 0, 0), 0);
        assert_eq!(t.at_padded(0, 0, 2, 0), 0);
        assert_eq!(t.at_padded(0, 1, 1, 0), 7);
    }

    #[test]
    fn tensor3_map_preserves_shape() {
        let t = Tensor3::<i16>::filled(2, 2, 2, 3);
        let doubled = t.map(|v| v as i32 * 2);
        assert_eq!(doubled.shape(), t.shape());
        assert!(doubled.iter().all(|&v| v == 6));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn tensor3_from_vec_checks_length() {
        let _ = Tensor3::from_vec(2, 2, 2, vec![0i16; 7]);
    }

    #[test]
    fn tensor4_filter_slice() {
        let data: Vec<i16> = (0..2 * 3 * 2 * 2).collect();
        let t = Tensor4::from_vec(2, 3, 2, 2, data);
        assert_eq!(t.filter(1).len(), 12);
        assert_eq!(t.filter(1)[0], 12);
        assert_eq!(t[(1, 0, 0, 0)], 12);
    }

    #[test]
    fn tensor4_index_mut() {
        let mut t = Tensor4::<i16>::new(2, 2, 2, 2);
        t[(1, 1, 1, 1)] = -5;
        assert_eq!(t[(1, 1, 1, 1)], -5);
    }
}
