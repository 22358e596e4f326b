//! Primitive synthetic field generators.
//!
//! Natural images are dominated by smooth regions separated by edges, with
//! occasional oscillatory texture — exactly the mix these generators
//! produce. All fields are single-channel `H × W` planes in `[0, 1]`;
//! `scenes` composes them into multi-channel images.

use diffy_tensor::Tensor3;
use rand::RngExt;

/// A single-channel field of spatially correlated values: white noise
/// passed `passes` times through a separable box blur of the given
/// `radius`. Repeated box blurs approximate a Gaussian, giving the
/// low-pass (1/f-like) spectrum of natural scenes.
///
/// # Panics
///
/// Panics if `h == 0 || w == 0`.
pub fn smooth_noise<R: RngExt>(
    rng: &mut R,
    h: usize,
    w: usize,
    radius: usize,
    passes: usize,
) -> Tensor3<f32> {
    assert!(h > 0 && w > 0, "empty field");
    let mut plane: Vec<f32> = (0..h * w).map(|_| rng.random::<f32>()).collect();
    for _ in 0..passes {
        plane = box_blur(&plane, h, w, radius);
    }
    normalize01(&mut plane);
    Tensor3::from_vec(1, h, w, plane)
}

/// A linear gradient along an arbitrary direction (`angle` in radians),
/// from 0 to 1 across the image diagonal.
pub fn linear_gradient(h: usize, w: usize, angle: f32) -> Tensor3<f32> {
    assert!(h > 0 && w > 0, "empty field");
    let (s, c) = angle.sin_cos();
    let mut data = Vec::with_capacity(h * w);
    let norm = (h as f32 * s.abs() + w as f32 * c.abs()).max(1.0);
    for y in 0..h {
        for x in 0..w {
            let t = (x as f32 * c + y as f32 * s) / norm;
            data.push(t.rem_euclid(1.0));
        }
    }
    Tensor3::from_vec(1, h, w, data)
}

/// Overlays `count` random axis-aligned rectangles of constant intensity —
/// the hard-edged geometry of man-made scenes.
pub fn add_rectangles<R: RngExt>(field: &mut Tensor3<f32>, rng: &mut R, count: usize) {
    let s = field.shape();
    for _ in 0..count {
        let rw = rng.random_range(1..=(s.w / 2).max(1));
        let rh = rng.random_range(1..=(s.h / 2).max(1));
        let x0 = rng.random_range(0..s.w.saturating_sub(rw).max(1));
        let y0 = rng.random_range(0..s.h.saturating_sub(rh).max(1));
        let v: f32 = rng.random();
        for y in y0..(y0 + rh).min(s.h) {
            for x in x0..(x0 + rw).min(s.w) {
                *field.at_mut(0, y, x) = v;
            }
        }
    }
}

/// An oriented sinusoidal grating — fine repetitive texture (fabric,
/// brick, foliage detail).
pub fn grating(h: usize, w: usize, period: f32, angle: f32, contrast: f32) -> Tensor3<f32> {
    assert!(h > 0 && w > 0, "empty field");
    assert!(period > 0.0, "period must be positive");
    let (s, c) = angle.sin_cos();
    let mut data = Vec::with_capacity(h * w);
    for y in 0..h {
        for x in 0..w {
            let phase = (x as f32 * c + y as f32 * s) * std::f32::consts::TAU / period;
            data.push(0.5 + 0.5 * contrast * phase.sin());
        }
    }
    Tensor3::from_vec(1, h, w, data)
}

/// Blends two single-channel fields: `a * (1 - t) + b * t` with a
/// per-pixel mask `t` (shapes gated by a smooth mask give soft-edged
/// regions).
///
/// # Panics
///
/// Panics if the shapes disagree.
pub fn blend(a: &Tensor3<f32>, b: &Tensor3<f32>, mask: &Tensor3<f32>) -> Tensor3<f32> {
    assert_eq!(a.shape(), b.shape(), "blend shape mismatch");
    assert_eq!(a.shape(), mask.shape(), "mask shape mismatch");
    let data = a
        .iter()
        .zip(b.iter())
        .zip(mask.iter())
        .map(|((&x, &y), &t)| x * (1.0 - t) + y * t)
        .collect();
    Tensor3::from_vec(a.shape().c, a.shape().h, a.shape().w, data)
}

/// Stacks single-channel planes into one multi-channel image.
///
/// # Panics
///
/// Panics if the planes disagree in spatial shape or the list is empty.
pub fn stack_channels(planes: &[Tensor3<f32>]) -> Tensor3<f32> {
    assert!(!planes.is_empty(), "no planes to stack");
    let s0 = planes[0].shape();
    let mut data = Vec::with_capacity(planes.len() * s0.h * s0.w);
    for p in planes {
        assert_eq!(p.shape().h, s0.h, "plane height mismatch");
        assert_eq!(p.shape().w, s0.w, "plane width mismatch");
        assert_eq!(p.shape().c, 1, "stack_channels expects single-channel planes");
        data.extend_from_slice(p.as_slice());
    }
    Tensor3::from_vec(planes.len(), s0.h, s0.w, data)
}

fn box_blur(plane: &[f32], h: usize, w: usize, radius: usize) -> Vec<f32> {
    if radius == 0 {
        return plane.to_vec();
    }
    // Horizontal then vertical pass with edge clamping.
    let mut tmp = vec![0.0f32; h * w];
    let k = (2 * radius + 1) as f32;
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for d in -(radius as isize)..=(radius as isize) {
                let xi = (x as isize + d).clamp(0, w as isize - 1) as usize;
                acc += plane[y * w + xi];
            }
            tmp[y * w + x] = acc / k;
        }
    }
    let mut out = vec![0.0f32; h * w];
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for d in -(radius as isize)..=(radius as isize) {
                let yi = (y as isize + d).clamp(0, h as isize - 1) as usize;
                acc += tmp[yi * w + x];
            }
            out[y * w + x] = acc / k;
        }
    }
    out
}

fn normalize01(plane: &mut [f32]) {
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in plane.iter() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(1e-12);
    for v in plane.iter_mut() {
        *v = (*v - lo) / span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_abs_neighbor_diff(t: &Tensor3<f32>) -> f32 {
        let s = t.shape();
        let mut acc = 0.0;
        let mut n = 0u32;
        for y in 0..s.h {
            for x in 1..s.w {
                acc += (t.at(0, y, x) - t.at(0, y, x - 1)).abs();
                n += 1;
            }
        }
        acc / n as f32
    }

    #[test]
    fn smooth_noise_is_in_range_and_correlated() {
        let mut rng = StdRng::seed_from_u64(7);
        let f = smooth_noise(&mut rng, 32, 32, 2, 2);
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Blurred noise must be much smoother than white noise.
        let mut rng2 = StdRng::seed_from_u64(8);
        let white = smooth_noise(&mut rng2, 32, 32, 0, 0);
        assert!(mean_abs_neighbor_diff(&f) < mean_abs_neighbor_diff(&white) / 2.0);
    }

    #[test]
    fn smooth_noise_is_deterministic_per_seed() {
        let a = smooth_noise(&mut StdRng::seed_from_u64(3), 16, 16, 1, 1);
        let b = smooth_noise(&mut StdRng::seed_from_u64(3), 16, 16, 1, 1);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn linear_gradient_monotone_along_x() {
        let g = linear_gradient(4, 32, 0.0);
        for y in 0..4 {
            for x in 1..32 {
                assert!(g.at(0, y, x) >= g.at(0, y, x - 1));
            }
        }
    }

    #[test]
    fn rectangles_create_constant_regions() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut f = Tensor3::<f32>::filled(1, 16, 16, 0.25);
        add_rectangles(&mut f, &mut rng, 4);
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn grating_oscillates_in_range() {
        let g = grating(8, 64, 8.0, 0.0, 1.0);
        assert!(g.iter().all(|&v| (-1e-6..=1.0 + 1e-6).contains(&v)));
        let row0: Vec<f32> = (0..64).map(|x| *g.at(0, 0, x)).collect();
        let maxv = row0.iter().cloned().fold(f32::MIN, f32::max);
        let minv = row0.iter().cloned().fold(f32::MAX, f32::min);
        assert!(maxv > 0.9 && minv < 0.1, "grating should span its contrast range");
    }

    #[test]
    fn blend_interpolates() {
        let a = Tensor3::<f32>::filled(1, 2, 2, 0.0);
        let b = Tensor3::<f32>::filled(1, 2, 2, 1.0);
        let m = Tensor3::<f32>::filled(1, 2, 2, 0.25);
        let out = blend(&a, &b, &m);
        assert!(out.iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn stack_channels_orders_planes() {
        let a = Tensor3::<f32>::filled(1, 2, 2, 0.1);
        let b = Tensor3::<f32>::filled(1, 2, 2, 0.9);
        let s = stack_channels(&[a, b]);
        assert_eq!(s.shape().as_tuple(), (2, 2, 2));
        assert!((s.at(0, 0, 0) - 0.1).abs() < 1e-6);
        assert!((s.at(1, 1, 1) - 0.9).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty field")]
    fn empty_field_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = smooth_noise(&mut rng, 0, 4, 1, 1);
    }
}
