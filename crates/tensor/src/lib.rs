//! Fixed-point tensors and reference convolution kernels.
//!
//! This crate is the numerical substrate of the Diffy reproduction. The
//! accelerator studied in the paper processes 16-bit fixed-point activations
//! and weights, so everything here is built around [`fixed::Act`] (an `i16`)
//! together with a [`fixed::Quantizer`] that maps real-valued image data into
//! that representation.
//!
//! The main pieces are:
//!
//! * [`shape`] — 3D/4D shapes and the convolution output-geometry algebra
//!   (stride, zero padding, dilation) used by every layer of the model zoo.
//! * [`tensor`] — dense [`Tensor3`]/[`Tensor4`] containers in `C × H × W`
//!   (channels-outer) layout, matching the *imap*/*fmap* terminology of the
//!   paper.
//! * [`conv`] — a direct (sliding-window) reference convolution with exact
//!   64-bit accumulation, the functional oracle against which differential
//!   convolution is verified, and the bit-identical output-stationary
//!   SIMD kernel that inference runs.
//! * [`ops`] — ReLU, bias, pooling and the other per-element layer ops.
//! * [`stats`] — magnitude percentiles and histograms used for profiled
//!   precision detection and entropy measurements.
//! * [`bands`] — the process's core count and the one split of a stage's
//!   independent rows into bands on scoped threads, which the plane
//!   build, the storage-scheme footprints and the window walk share.
//! * [`isa`] — the one runtime choice of instruction set, [`Isa`], which
//!   every SIMD kernel (the inference conv's strip, the term-plane strip
//!   and the storage-scheme footprint kernel) matches on.
//!
//! # Example
//!
//! ```
//! use diffy_tensor::{Tensor3, Tensor4, ConvGeometry, conv::conv2d};
//!
//! // A 3-channel 8x8 imap and four 3x3x3 filters.
//! let imap = Tensor3::<i16>::filled(3, 8, 8, 1);
//! let fmaps = Tensor4::<i16>::filled(4, 3, 3, 3, 2);
//! let geom = ConvGeometry::same(3, 3);
//! let omap = conv2d(&imap, &fmaps, None, geom);
//! assert_eq!(omap.shape().as_tuple(), (4, 8, 8));
//! ```


#![warn(missing_docs)]

pub mod bands;
pub mod conv;
pub mod fixed;
pub mod isa;
pub mod ops;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use conv::{conv2d, conv2d_fast, conv2d_im2col, requantize};
pub use fixed::{sat16, Act, Quantizer, ACT_BITS};
pub use isa::Isa;
pub use shape::{ConvGeometry, Shape3, Shape4};
pub use tensor::{Tensor3, Tensor4};
