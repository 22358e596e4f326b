//! `hd_eval`: one cold `evaluate_network` per op (Diffy, DeltaD16,
//! DDR4-3200) on a full-HD layer — 16 channels of 1080×1920 activations
//! and 16 3×3 filters — in-process, with no server and no cache.

use super::{set_up, Outcome, Summary, Work, TRACE_CAPACITY};
use crate::keys::Rng;
use crate::spans::{Op, Tracer};
use crate::{alloc, Args};
use diffy_core::accelerator::{
    evaluate_network, evaluate_network_with_artifacts, network_scheme_traffic, EvalOptions,
    SchemeChoice,
};
use diffy_encoding::StorageScheme;
use diffy_imaging::scenes::{render_scene, SceneKind};
use diffy_models::{LayerTrace, NetworkTrace};
use diffy_sim::{
    term_serial_layer_reference, AcceleratorConfig, Architecture, PaddedTerms, ValueMode,
};
use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};
use std::sync::Arc;
use std::time::Instant;

const H: usize = 1080;
const W: usize = 1920;
const CHANNELS: usize = 16;
const FILTERS: usize = 16;
/// The scene is rendered at 1/12 of HD and upsampled: rendering at full
/// HD takes tens of seconds.
const SCENE_SCALE: usize = 12;

/// Traced runs replay this many ops: each is hundreds of milliseconds.
const REPLAYED: usize = 5;

fn options() -> EvalOptions {
    EvalOptions::new(
        Architecture::Diffy,
        SchemeChoice::Scheme(StorageScheme::delta_d(16)),
    )
}

/// Bilinear upsample of one channel of `scene` (`SCENE_SCALE`× smaller)
/// to `H × W`.
fn upsample(scene: &Tensor3<f32>, c: usize) -> Vec<f32> {
    let (sh, sw) = (scene.shape().h, scene.shape().w);
    let axis = |n: usize, src: usize| -> Vec<(usize, usize, f32)> {
        (0..n)
            .map(|i| {
                let s = ((i as f32 + 0.5) / SCENE_SCALE as f32 - 0.5).clamp(0.0, (src - 1) as f32);
                let lo = s.floor() as usize;
                (lo, (lo + 1).min(src - 1), s - lo as f32)
            })
            .collect()
    };
    let (ys, xs) = (axis(H, sh), axis(W, sw));
    let mut out = Vec::with_capacity(H * W);
    for &(y0, y1, fy) in &ys {
        let (r0, r1) = (scene.row(c, y0), scene.row(c, y1));
        for &(x0, x1, fx) in &xs {
            let top = r0[x0] + (r0[x1] - r0[x0]) * fx;
            let bottom = r1[x0] + (r1[x1] - r1[x0]) * fx;
            out.push(top + (bottom - top) * fy);
        }
    }
    out
}

/// `CHANNELS` maps of post-ReLU 16-bit activations: per channel, a
/// seeded mix of the scene's colour planes plus a bias, with per-pixel
/// noise, scaled to the 2^11 working range of the traced models and
/// clipped at zero. Spatially correlated like the imaging content the
/// models consume, with a share of exact zeros like a ReLU output.
fn activations(rgb: &[Vec<f32>; 3], rng: &mut Rng) -> Tensor3<i16> {
    let mut data = Vec::with_capacity(CHANNELS * H * W);
    for _ in 0..CHANNELS {
        let [wr, wg, wb] = [(); 3].map(|_| 2048.0 * (2.0 * rng.unit() - 1.0));
        let bias = 2048.0 * (0.8 * rng.unit() - 0.6);
        // Noise from a 64-bit LCG: one multiply per pixel.
        let mut noise = rng.next_u64();
        let pixels = rgb[0].iter().zip(&rgb[1]).zip(&rgb[2]);
        data.extend(pixels.map(|((r, g), b)| {
            noise = noise
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            let n = (noise >> 61) as f32 - 3.0;
            // Truncating a value clamped to be non-negative rounds it.
            (r * wr + g * wg + b * wb + bias + n).clamp(0.0, i16::MAX as f32) as i16
        }));
    }
    Tensor3::from_vec(CHANNELS, H, W, data)
}

/// The seeded full-HD layer: its imap, its filters, and its omap as the
/// network output, so the traffic model encodes both.
pub fn hd_layer(seed: u64) -> NetworkTrace {
    let mut rng = Rng::new(seed, 0x4D);
    let scene = render_scene(
        SceneKind::City,
        H / SCENE_SCALE,
        W / SCENE_SCALE,
        rng.next_u64(),
    );
    let rgb = [0, 1, 2].map(|c| upsample(&scene, c));
    let imap = activations(&rgb, &mut rng);
    let output = activations(&rgb, &mut rng);
    let fmaps: Vec<i16> = (0..FILTERS * CHANNELS * 9)
        .map(|_| rng.below(65) as i16 - 32)
        .collect();
    let layer = LayerTrace {
        name: "hd_conv".into(),
        index: 0,
        imap,
        fmaps: Tensor4::from_vec(FILTERS, CHANNELS, 3, 3, fmaps),
        geom: ConvGeometry::same(3, 3),
        relu: true,
        requant_shift: 12,
        requant_bias: 0,
        next_stride: 1,
    };
    NetworkTrace {
        model: "hd_layer".into(),
        layers: vec![layer],
        output,
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let opts = options();
    let mut out = Outcome::for_run(args.seconds, Summary::Whole);
    // Set-up: generate the layer, then one untimed warm-up op.
    let ((trace, expected), setup_s) = set_up(|| {
        let trace = hd_layer(args.seed);
        let expected = evaluate_network(&trace, &opts);
        Ok((trace, expected))
    })?;

    out.setup_s = setup_s;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let result = evaluate_network(&trace, &opts);
        out.sample(start, t);
        if result != expected {
            out.failures.push(format!(
                "op {}: result differs from the warm-up op",
                out.ops
            ));
        }
        out.ops += 1;
    }
    out.measured_s = start.elapsed().as_secs_f64();
    out.peak_heap_bytes = alloc::peak_bytes();
    out.attempted = out.ops;

    // Once per run: the cycle model against the reference loop nest.
    let reference = term_serial_layer_reference(
        &trace.layers[0],
        &AcceleratorConfig::table4(),
        ValueMode::Differential,
    );
    if reference != expected.layers[0].compute {
        out.failures
            .push("cycles differ from term_serial_layer_reference".into());
    }

    if args.trace {
        let mut tracer = Tracer::new(true, TRACE_CAPACITY);
        let mut work = Work {
            cycles: expected.total_cycles(),
            traffic_bytes: expected.total_traffic_bytes(),
            ..Work::default()
        };
        let mut op = Op::start("input");
        op.span("imaging.input", || drop(hd_layer(args.seed)));
        op.end();
        tracer.record(&op);
        for n in 0..(out.ops as usize).min(REPLAYED) {
            let mut op = Op::start("evaluate");
            let planes: Vec<Arc<PaddedTerms>> = op.span("sim.plane_build", || {
                trace
                    .layers
                    .iter()
                    .map(|l| Arc::new(PaddedTerms::for_layer(l)))
                    .collect()
            });
            let traffic = op.span("encoding.traffic", || {
                Arc::new(network_scheme_traffic(&trace, opts.scheme))
            });
            let planes_of = |i: usize, _: &LayerTrace| planes[i].clone();
            let traffic_of = || traffic.clone();
            let result = op.span("sim.tile_sim", || {
                evaluate_network_with_artifacts(&trace, &opts, Some(&planes_of), Some(&traffic_of))
            });
            op.end();
            tracer.record(&op);
            work.encoded(&trace);
            if result != expected {
                out.failures
                    .push(format!("replayed op {n}: result differs"));
            }
        }
        out.traced(tracer, args, None, &work, 0.0)?;
    }
    Ok(out)
}
