//! Composite scene presets.
//!
//! The paper's HD33 dataset contains "HD frames depicting nature, city and
//! texture scenes" (Table II). Each [`SceneKind`] preset composes the
//! primitive generators of [`crate::synth`] into a 3-channel RGB image with
//! the corresponding statistics:
//!
//! * **Nature** — large smooth regions (sky, water) with soft transitions
//!   and moderate texture: the most spatially correlated case.
//! * **City** — smooth background broken by many hard rectangular edges.
//! * **Texture** — dominated by fine oriented gratings: the hardest case
//!   for differential processing (deltas peak at every oscillation).

use crate::synth::{
    add_rectangles, blend, grating, linear_gradient, smooth_noise, stack_channels,
};
use diffy_tensor::Tensor3;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Scene category of the HD33 stand-in corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneKind {
    /// Smooth, highly correlated content.
    Nature,
    /// Piecewise-constant regions with hard edges.
    City,
    /// Fine oscillatory texture.
    Texture,
}

impl SceneKind {
    /// All categories, in the cycling order used by the dataset registry.
    pub const ALL: [SceneKind; 3] = [SceneKind::Nature, SceneKind::City, SceneKind::Texture];

    /// The category's name, as streaming-session requests spell it.
    pub fn name(&self) -> &'static str {
        match self {
            SceneKind::Nature => "Nature",
            SceneKind::City => "City",
            SceneKind::Texture => "Texture",
        }
    }
}

/// Renders a seeded 3-channel scene of the given kind.
///
/// # Panics
///
/// Panics if `h == 0 || w == 0`.
///
/// # Example
///
/// ```
/// use diffy_imaging::scenes::{render_scene, SceneKind};
/// let img = render_scene(SceneKind::Nature, 32, 48, 42);
/// assert_eq!(img.shape().as_tuple(), (3, 32, 48));
/// ```
pub fn render_scene(kind: SceneKind, h: usize, w: usize, seed: u64) -> Tensor3<f32> {
    assert!(h > 0 && w > 0, "empty scene");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF_E57A_7E11_0000);
    let planes: Vec<Tensor3<f32>> = (0..3)
        .map(|ch| render_plane(kind, h, w, &mut rng, ch))
        .collect();
    stack_channels(&planes)
}

fn render_plane(
    kind: SceneKind,
    h: usize,
    w: usize,
    rng: &mut StdRng,
    channel: usize,
) -> Tensor3<f32> {
    // Channels share large-scale structure (same rng stream keeps them
    // loosely correlated, like real RGB planes) but differ in detail.
    match kind {
        SceneKind::Nature => {
            let base = smooth_noise(rng, h, w, (w / 16).max(1), 2);
            let detail = smooth_noise(rng, h, w, 1, 1);
            let sky = linear_gradient(h, w, std::f32::consts::FRAC_PI_2);
            let m1 = Tensor3::<f32>::filled(1, h, w, 0.3);
            let mixed = blend(&base, &detail, &m1);
            let m2 = Tensor3::<f32>::filled(1, h, w, 0.35 + 0.05 * channel as f32);
            blend(&mixed, &sky, &m2)
        }
        SceneKind::City => {
            let mut base = smooth_noise(rng, h, w, (w / 8).max(1), 1);
            let count = ((h * w) / 256).clamp(4, 64);
            add_rectangles(&mut base, rng, count);
            // A little sensor-level detail so the field is not exactly
            // piecewise constant.
            let detail = smooth_noise(rng, h, w, 1, 1);
            let m = Tensor3::<f32>::filled(1, h, w, 0.08);
            blend(&base, &detail, &m)
        }
        SceneKind::Texture => {
            let period = rng.random_range(3.0..9.0_f32);
            let angle = rng.random_range(0.0..std::f32::consts::PI);
            let tex = grating(h, w, period, angle, 0.8);
            let base = smooth_noise(rng, h, w, (w / 12).max(1), 2);
            let m = Tensor3::<f32>::filled(1, h, w, 0.55);
            blend(&base, &tex, &m)
        }
    }
}

/// Mean absolute difference between horizontally adjacent pixels — a
/// scalar measure of (inverse) spatial correlation used by tests and the
/// dataset documentation.
pub fn roughness(img: &Tensor3<f32>) -> f32 {
    let s = img.shape();
    if s.w < 2 {
        return 0.0;
    }
    let mut acc = 0.0f64;
    let mut n = 0u64;
    for c in 0..s.c {
        for y in 0..s.h {
            let row = img.row(c, y);
            for x in 1..s.w {
                acc += (row[x] - row[x - 1]).abs() as f64;
                n += 1;
            }
        }
    }
    (acc / n as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenes_have_three_channels_in_range() {
        for kind in SceneKind::ALL {
            let img = render_scene(kind, 24, 32, 1);
            assert_eq!(img.shape().as_tuple(), (3, 24, 32));
            assert!(
                img.iter().all(|&v| (-1e-5..=1.0 + 1e-5).contains(&v)),
                "{kind:?} out of range"
            );
        }
    }

    #[test]
    fn scenes_are_deterministic() {
        let a = render_scene(SceneKind::City, 16, 16, 9);
        let b = render_scene(SceneKind::City, 16, 16, 9);
        assert_eq!(a.as_slice(), b.as_slice());
        let c = render_scene(SceneKind::City, 16, 16, 10);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn texture_is_rougher_than_nature() {
        // The defining statistic of the categories: averaged over seeds,
        // texture scenes change faster pixel-to-pixel than nature scenes.
        let avg = |kind| {
            (0..4)
                .map(|s| roughness(&render_scene(kind, 48, 48, s)))
                .sum::<f32>()
                / 4.0
        };
        let nature = avg(SceneKind::Nature);
        let texture = avg(SceneKind::Texture);
        assert!(
            texture > nature * 2.0,
            "texture {texture} should be rougher than nature {nature}"
        );
    }

    #[test]
    fn all_scenes_are_spatially_correlated() {
        // Even the roughest category is far smoother than white noise
        // (whose expected |Δ| for U[0,1] pixels is 1/3).
        for kind in SceneKind::ALL {
            let r = roughness(&render_scene(kind, 48, 48, 3));
            assert!(r < 0.25, "{kind:?} roughness {r} too close to white noise");
        }
    }

    #[test]
    fn roughness_of_constant_image_is_zero() {
        let img = Tensor3::<f32>::filled(3, 4, 4, 0.7);
        assert_eq!(roughness(&img), 0.0);
    }
}
