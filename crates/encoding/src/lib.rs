//! Value encodings at the heart of Diffy.
//!
//! The paper's central observation is that CI-DNN activations are spatially
//! correlated, so the *deltas* of adjacent activations (a) contain fewer
//! effectual modified-Booth terms — less compute for a term-serial
//! accelerator like PRA — and (b) need fewer bits — less storage and
//! traffic under dynamic per-group precision encoding. This crate implements
//! every encoding the paper measures:
//!
//! * [`booth`] — modified (radix-4) Booth recoding and effectual-term
//!   counting, the quantity PRA's and Diffy's execution time is proportional
//!   to (§II-B, Eq. 2).
//! * [`delta`] — the delta transform along the W axis with row anchoring
//!   and stride awareness (§III-C/D), plus its exact inverse.
//! * [`terms`] — per-tensor term statistics and cumulative distributions
//!   (Fig. 3).
//! * [`precision`] — the bits one value needs, profile-derived per-layer
//!   precisions (Table III) and the dynamic schemes' 4-bit group header.
//! * [`schemes`] — the six storage schemes of Fig. 5/14 (NoCompression,
//!   RLEz, RLE, Profiled, RawD·, DeltaD·) with bit-exact encode/decode and
//!   footprint accounting.
//! * [`bitstream`] — the MSB-first bit-level writer/reader the schemes
//!   serialize through.
//! * [`entropy`] — H(A), H(A|A') and H(Δ) estimators (Fig. 1).


#![warn(missing_docs)]

pub mod bitstream;
pub mod booth;
pub mod delta;
pub mod entropy;
pub mod precision;
pub mod schemes;
pub mod terms;

pub use booth::{booth_digits, booth_terms, booth_terms_i32, booth_terms_i32_reference};
pub use delta::{delta_rows, delta_row_wrapping_into, undelta_rows};
pub use schemes::StorageScheme;
