//! Stage-by-stage wall-time profile of the one-pass term-plane build at
//! full HD — the row metric, the row staging, the row fold into the four
//! `u32` planes, then the real build and a cold evaluation — a developer
//! tool for attributing the cold-path cost (run with
//! `cargo run --release -p diffy-sim --example plane_profile`). Run it
//! under `taskset -c 0` to time the build as one band.

use diffy_encoding::{booth_terms_slice, delta_row_wrapping_into};
use diffy_models::trace::LayerTrace;
use diffy_sim::term_serial::{term_serial_layer, PaddedTerms};
use diffy_sim::{AcceleratorConfig, ValueMode};
use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};
use std::hint::black_box;
use std::time::Instant;

fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    stat.split_whitespace().nth(9).and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn timeit<T>(name: &str, mut f: impl FnMut() -> T) -> T {
    let _ = f();
    let n = 3;
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
    let (c, ph, pw) = (16usize, 1082usize, 1922usize);
    let plane_len = ph * pw;
    let vals: Vec<i16> = (0..c * plane_len)
        .map(|i| ((i as u64).wrapping_mul(6364136223846793005) >> 48) as i16)
        .collect();

    // Stage 1: metric kernel over both streams (raw + delta), one padded
    // row at a time into an L1-resident u8 row, as the build runs it.
    let mut terms = vec![0u8; pw];
    timeit("metric raw+delta (2x 33.3M, row-wise)", || {
        for row in vals.chunks_exact(pw) {
            booth_terms_slice(row, &mut terms);
            booth_terms_slice(row, &mut terms);
        }
        terms[pw - 1]
    });

    // Stage 2: per-row staging (copy + wrapped delta).
    let mut padded = vec![0i16; pw];
    let mut drow = vec![0i16; pw];
    timeit("row stage copy+delta (33.3M rows)", || {
        let mut acc = 0i16;
        for row in vals.chunks_exact(pw) {
            padded.copy_from_slice(row);
            delta_row_wrapping_into(&padded, 1, &mut drow);
            acc ^= drow[pw - 1];
        }
        acc
    });

    // Stage 3: the row fold of both streams — each channel's u8 terms
    // added into u16 row sums and maximized into the open T16 chunk,
    // the chunk closed into the row cost, and the four rows widened into
    // u32 planes.
    let row_terms: Vec<u8> = (0..c * pw).map(|i| (vals[i] & 7) as u8).collect();
    let mut planes = [(); 4].map(|_| vec![0u32; plane_len]);
    timeit("row fold T16 (2 streams, 4 planes)", || {
        let (mut sum, mut cost) = (vec![0u16; pw], vec![0u16; pw]);
        let mut max = vec![0u8; pw];
        for py in 0..ph {
            for _stream in 0..2 {
                sum.fill(0);
                cost.fill(0);
                for (ch, t) in row_terms.chunks_exact(pw).enumerate() {
                    for (a, &v) in sum.iter_mut().zip(t) {
                        *a += v as u16;
                    }
                    if ch == 0 {
                        max.copy_from_slice(t);
                    } else {
                        for (m, &v) in max.iter_mut().zip(t) {
                            *m = (*m).max(v);
                        }
                    }
                }
                for (a, &m) in cost.iter_mut().zip(&max) {
                    *a += m as u16;
                }
            }
            for (plane, row) in planes.iter_mut().zip([&sum, &sum, &cost, &cost]) {
                for (dst, &a) in plane[py * pw..][..pw].iter_mut().zip(row) {
                    *dst = a as u32;
                }
            }
        }
        planes[3][plane_len - 1]
    });

    // End-to-end: the real one-pass build at full HD, at T16 and T1.
    let imap = Tensor3::from_vec(
        c,
        1080,
        1920,
        (0..c * 1080 * 1920)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005) >> 48) as i16)
            .collect(),
    );
    timeit("PaddedTerms::build T16 1080p", || PaddedTerms::build(&imap, 1, 1, 16));
    timeit("PaddedTerms::build T1 1080p", || PaddedTerms::build(&imap, 1, 1, 1));
    timeit("PaddedTerms::build T16 1080p (again)", || PaddedTerms::build(&imap, 1, 1, 16));

    // The full cold evaluation the bench's `planes_cold` record times.
    let trace = LayerTrace {
        name: "profile".into(),
        index: 0,
        imap: imap.clone(),
        fmaps: Tensor4::<i16>::filled(16, c, 3, 3, 1),
        geom: ConvGeometry::same(3, 3),
        relu: true,
        requant_shift: 12,
        requant_bias: 0,
        next_stride: 1,
    };
    let cfg = AcceleratorConfig::default();
    timeit("term_serial_layer cold (raw)", || {
        term_serial_layer(&trace, &cfg, ValueMode::Raw)
    });
    timeit("term_serial_layer cold (diff)", || {
        term_serial_layer(&trace, &cfg, ValueMode::Differential)
    });

    // Same measurement with another full plane set held live, mimicking
    // a sweep that keeps shared planes alive across cold evaluations.
    let kept = PaddedTerms::build(&imap, 1, 1, 16);
    timeit("cold (raw), planes held live", || {
        term_serial_layer(&trace, &cfg, ValueMode::Raw)
    });
    drop(kept);

    // Stage 4: the allocation cost itself.
    timeit("alloc+zero 4x 2M u32", || [(); 4].map(|_| vec![0u32; plane_len]));
}
