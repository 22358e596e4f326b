//! Frame sequences for the temporal-delta extension.
//!
//! The paper's related work (§V) contrasts Diffy's *spatial* deltas with
//! CBInfer's *temporal* (cross-frame) deltas and notes "the two concepts
//! could potentially be combined". Studying that combination needs video:
//! this module renders a scene once at an extended width and pans a
//! crop window across it frame by frame — the dominant motion model of
//! handheld/vehicle footage — with optional per-frame sensor noise.

use crate::scenes::{render_scene, SceneKind};
use crate::synth::smooth_noise;
use diffy_tensor::Tensor3;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Renders `frames` consecutive frames of a panning scene.
///
/// Each frame is `h × w`; the camera pans `pan_px` pixels per frame
/// horizontally. `noise` adds independent per-frame sensor noise of the
/// given amplitude (0 = noiseless pan).
///
/// # Panics
///
/// Panics if `frames == 0` or `h == 0 || w == 0`.
pub fn pan_sequence(
    kind: SceneKind,
    h: usize,
    w: usize,
    frames: usize,
    pan_px: usize,
    noise: f32,
    seed: u64,
) -> Vec<Tensor3<f32>> {
    assert!(frames > 0, "need at least one frame");
    assert!(h > 0 && w > 0, "empty frame");
    let full_w = w + pan_px * (frames - 1);
    let wide = render_scene(kind, h, full_w, seed);
    (0..frames).map(|f| nth_frame(&wide, h, w, pan_px, noise, seed, f)).collect()
}

/// Renders frame `frame` of the sequence [`pan_sequence`] would produce
/// for the same parameters, without materializing the other frames.
///
/// Each frame is a pure function of the full parameter set — including
/// the total `frames` horizon, which fixes the width of the underlying
/// wide scene — so a streaming consumer can pull frames one at a time
/// and still land bit-identical to the batch path.
///
/// # Panics
///
/// Panics if `frame >= frames` or the sequence parameters are invalid
/// (see [`pan_sequence`]).
#[allow(clippy::too_many_arguments)] // pan_sequence's signature + the frame index
pub fn pan_frame(
    kind: SceneKind,
    h: usize,
    w: usize,
    frames: usize,
    pan_px: usize,
    noise: f32,
    seed: u64,
    frame: usize,
) -> Tensor3<f32> {
    assert!(frames > 0, "need at least one frame");
    assert!(frame < frames, "frame {frame} past the {frames}-frame horizon");
    assert!(h > 0 && w > 0, "empty frame");
    let full_w = w + pan_px * (frames - 1);
    let wide = render_scene(kind, h, full_w, seed);
    nth_frame(&wide, h, w, pan_px, noise, seed, frame)
}

/// Crops frame `f` out of the wide pan scene and applies its per-frame
/// sensor noise — the one definition both [`pan_sequence`] and
/// [`pan_frame`] share.
fn nth_frame(
    wide: &Tensor3<f32>,
    h: usize,
    w: usize,
    pan_px: usize,
    noise: f32,
    seed: u64,
    f: usize,
) -> Tensor3<f32> {
    let x0 = f * pan_px;
    let mut frame = Tensor3::<f32>::new(3, h, w);
    for c in 0..3 {
        for y in 0..h {
            for x in 0..w {
                *frame.at_mut(c, y, x) = *wide.at(c, y, x0 + x);
            }
        }
    }
    if noise > 0.0 {
        let mut rng = StdRng::seed_from_u64(seed ^ (f as u64) << 17 ^ 0x7E4);
        let n = smooth_noise(&mut rng, h, w, 0, 0);
        for c in 0..3 {
            for y in 0..h {
                for x in 0..w {
                    let v = frame.at_mut(c, y, x);
                    *v = (*v + noise * (n.at(0, y, x) - 0.5)).clamp(0.0, 1.0);
                }
            }
        }
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_has_requested_shape() {
        let seq = pan_sequence(SceneKind::Nature, 16, 24, 3, 2, 0.0, 1);
        assert_eq!(seq.len(), 3);
        for f in &seq {
            assert_eq!(f.shape().as_tuple(), (3, 16, 24));
        }
    }

    #[test]
    fn pan_shifts_content() {
        let seq = pan_sequence(SceneKind::City, 16, 24, 2, 3, 0.0, 2);
        // Frame 1 shifted left by 3 equals frame 0's columns 3..
        let a = &seq[0];
        let b = &seq[1];
        for c in 0..3 {
            for y in 0..16 {
                for x in 0..21 {
                    assert_eq!(a.at(c, y, x + 3), b.at(c, y, x));
                }
            }
        }
    }

    #[test]
    fn adjacent_frames_are_similar_but_not_identical() {
        let seq = pan_sequence(SceneKind::Nature, 24, 32, 2, 1, 0.01, 3);
        let (a, b) = (&seq[0], &seq[1]);
        let d = a.iter().zip(b.iter()).map(|(&x, &y)| ((x - y) as f64).powi(2)).sum::<f64>()
            / a.len() as f64;
        assert!(d > 0.0, "frames should differ");
        assert!(d < 0.05, "frames should be temporally correlated: mse {d}");
    }

    #[test]
    fn zero_pan_zero_noise_gives_static_video() {
        let seq = pan_sequence(SceneKind::Texture, 8, 8, 3, 0, 0.0, 4);
        assert_eq!(seq[0].as_slice(), seq[1].as_slice());
        assert_eq!(seq[1].as_slice(), seq[2].as_slice());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn rejects_empty_sequence() {
        let _ = pan_sequence(SceneKind::Nature, 8, 8, 0, 1, 0.0, 1);
    }

    #[test]
    fn single_frame_path_matches_batch_path_bitwise() {
        // pan_frame(f) must equal pan_sequence(..)[f] exactly, noise
        // included — the streaming serve layer relies on this identity.
        for kind in [SceneKind::Nature, SceneKind::City, SceneKind::Texture] {
            let seq = pan_sequence(kind, 12, 20, 4, 2, 0.03, 11);
            for (f, batch) in seq.iter().enumerate() {
                let one = pan_frame(kind, 12, 20, 4, 2, 0.03, 11, f);
                assert_eq!(one.as_slice(), batch.as_slice(), "{kind:?} frame {f}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn pan_frame_rejects_out_of_horizon_index() {
        let _ = pan_frame(SceneKind::City, 8, 8, 3, 1, 0.0, 1, 3);
    }
}
