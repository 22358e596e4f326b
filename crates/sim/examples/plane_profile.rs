//! Wall-time profile of the strip-pass term-plane build at full HD, at
//! T16 and T1, and of a cold evaluation that builds its own planes — a
//! developer tool for attributing the cold-path cost (run with
//! `cargo run --release -p diffy-sim --example plane_profile`). The build
//! and the walk run in one row band per core; run it again under
//! `taskset -c 0` to time them as one band.

use diffy_models::trace::LayerTrace;
use diffy_sim::term_serial::{term_serial_layer, PaddedTerms};
use diffy_sim::{AcceleratorConfig, ValueMode};
use diffy_tensor::{bands, ConvGeometry, Tensor3, Tensor4};
use std::hint::black_box;
use std::time::Instant;

fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    stat.split_whitespace().nth(9).and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn timeit<T>(name: &str, mut f: impl FnMut() -> T) -> T {
    let _ = f();
    let n = 5;
    let flt0 = minor_faults();
    let t = Instant::now();
    let mut out = None;
    for _ in 0..n {
        out = Some(black_box(f()));
    }
    let wall = t.elapsed().as_secs_f64() * 1e3 / n as f64;
    let flt = (minor_faults() - flt0) / n as u64;
    println!("{name:40} {wall:8.2} ms  ({flt} minor faults/iter)");
    out.unwrap()
}

fn main() {
    let c = 16;
    let imap = Tensor3::from_vec(
        c,
        1080,
        1920,
        (0..c * 1080 * 1920)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005) >> 48) as i16)
            .collect(),
    );
    let cores = bands::parallelism();
    println!("16x1080x1920 imap, {cores} band(s) per stage from 2^20 values read");

    timeit("PaddedTerms::build T16 1080p", || PaddedTerms::build(&imap, 1, 1, 16));
    timeit("PaddedTerms::build T1 1080p", || PaddedTerms::build(&imap, 1, 1, 1));

    // The full cold evaluation the bench's `planes_cold` record times.
    let trace = LayerTrace {
        name: "profile".into(),
        index: 0,
        imap,
        fmaps: Tensor4::<i16>::filled(16, c, 3, 3, 1),
        geom: ConvGeometry::same(3, 3),
        relu: true,
        requant_shift: 12,
        requant_bias: 0,
        next_stride: 1,
    };
    let cfg = AcceleratorConfig::default();
    timeit("term_serial_layer cold (raw)", || term_serial_layer(&trace, &cfg, ValueMode::Raw));
    timeit("term_serial_layer cold (diff)", || {
        term_serial_layer(&trace, &cfg, ValueMode::Differential)
    });
}
