//! Synthetic computational-imaging workloads.
//!
//! The paper evaluates on seven image corpora (Table II: CBSD68, McMaster,
//! Kodak24, RNI15, LIVE1, Set5+Set14, HD33). Those images are not
//! redistributable, so this crate generates *procedural stand-ins* that
//! preserve the one property Diffy exploits: **spatial correlation** —
//! neighbouring pixels are close in value, with edges as localized
//! exceptions. Each generator is seeded, so every experiment is
//! reproducible bit-for-bit.
//!
//! * [`synth`] — primitive field generators: low-pass filtered noise
//!   (natural 1/f-like spectra), gradients, geometric shapes, oscillatory
//!   textures.
//! * [`scenes`] — composite scene presets for the HD33 categories
//!   (nature / city / texture).
//! * [`datasets`] — a registry mirroring Table II (names, sample counts,
//!   resolutions) with seeded generation.
//! * [`barbara`] — a procedural stand-in for the classic "Barbara" test
//!   image used in Fig. 2 (smooth regions + fine oriented stripes).
//! * [`video`] — panning frame sequences for the temporal-delta
//!   extension (§V of the paper).
//!
//! Images are `Tensor3<f32>` in `[0, 1]`; [`to_fixed`] quantizes them into
//! the accelerator's 16-bit fixed-point domain. The CI-DNN inputs are
//! degraded (noise, Bayer mosaic, packing) in `diffy-models`, which does
//! not depend on this crate.


#![warn(missing_docs)]

pub mod barbara;
pub mod datasets;
pub mod scenes;
pub mod synth;
pub mod video;

use diffy_tensor::{Quantizer, Tensor3};

/// Quantizes a real-valued image into the 16-bit fixed-point activation
/// domain.
///
/// # Example
///
/// ```
/// use diffy_tensor::{Tensor3, Quantizer};
/// use diffy_imaging::to_fixed;
/// let img = Tensor3::<f32>::filled(1, 2, 2, 0.5);
/// let q = Quantizer::new(8);
/// let fx = to_fixed(&img, q);
/// assert!(fx.iter().all(|&v| v == 128));
/// ```
pub fn to_fixed(img: &Tensor3<f32>, q: Quantizer) -> Tensor3<i16> {
    img.map(|v| q.quantize(v))
}
