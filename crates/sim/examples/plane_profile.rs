//! Stage-by-stage wall-time profile of the term-plane build at full HD —
//! a developer tool for attributing the cold-path cost (run with
//! `cargo run --release -p diffy-sim --example plane_profile`).

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

    // Stage 1: metric kernel over both streams (raw + delta).
    let mut u8planes = vec![0u8; c * plane_len];
    timeit("metric raw+delta (2x 33.3M)", || {
        booth_terms_slice(&vals, &mut u8planes);
        booth_terms_slice(&vals, &mut u8planes);
    });

    // Stage 2: per-row staging (copy + wrapped delta).
    let mut padded = vec![0i16; pw];
    let mut drow = vec![0i16; pw];
    timeit("row stage copy+delta (33.3M rows)", || {
        let mut acc = 0i16;
        for ch in 0..c {
            for y in 0..ph {
                let row = &vals[(ch * ph + y) * pw..(ch * ph + y + 1) * pw];
                padded.copy_from_slice(row);
                delta_row_wrapping_into(&padded, 1, &mut drow);
                acc ^= drow[pw - 1];
            }
        }
        acc
    });

    // Stage 3: channel sum, position-blocked (per stream).
    const POS_BLOCK: usize = 4096;
    timeit("channel_sum blocked (1 stream)", || {
        let mut sum = vec![0u32; plane_len];
        for (b, blk) in sum.chunks_mut(POS_BLOCK).enumerate() {
            let s0 = b * POS_BLOCK;
            let n = blk.len();
            for ch in 0..c {
                let base = ch * plane_len + s0;
                for (dst, &t) in blk.iter_mut().zip(&u8planes[base..base + n]) {
                    *dst += t as u32;
                }
            }
        }
        sum
    });

    // Stage 4: group cost g=16, position-blocked (per stream).
    timeit("group_cost g16 blocked (1 stream)", || {
        let mut cost = vec![0u32; plane_len];
        let mut chunk_max = [0u8; POS_BLOCK];
        for (b, blk) in cost.chunks_mut(POS_BLOCK).enumerate() {
            let s0 = b * POS_BLOCK;
            let n = blk.len();
            chunk_max[..n].fill(0);
            for ch in 0..c {
                let base = ch * plane_len + s0;
                for (m, &t) in chunk_max[..n].iter_mut().zip(&u8planes[base..base + n]) {
                    *m = (*m).max(t);
                }
            }
            for (dst, &m) in blk.iter_mut().zip(&chunk_max[..n]) {
                *dst += m as u32;
            }
        }
        cost
    });

    // Candidate: channel sum with u16 block accumulator, widened once.
    timeit("channel_sum u16-block (1 stream)", || {
        let mut sum = vec![0u32; plane_len];
        let mut acc16 = [0u16; POS_BLOCK];
        for (b, blk) in sum.chunks_mut(POS_BLOCK).enumerate() {
            let s0 = b * POS_BLOCK;
            let n = blk.len();
            acc16[..n].fill(0);
            for ch in 0..c {
                let base = ch * plane_len + s0;
                for (dst, &t) in acc16[..n].iter_mut().zip(&u8planes[base..base + n]) {
                    *dst += t as u16;
                }
            }
            for (dst, &t) in blk.iter_mut().zip(&acc16[..n]) {
                *dst = t as u32;
            }
        }
        sum
    });

    // End-to-end: the real build and group-reduce at full HD.
    let imap = Tensor3::from_vec(
        c,
        1080,
        1920,
        (0..c * 1080 * 1920)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005) >> 48) as i16)
            .collect(),
    );
    timeit("PaddedTerms::build 1080p", || PaddedTerms::build(&imap, 1, 1));
    timeit("build + grouped(16) 1080p", || {
        let t = PaddedTerms::build(&imap, 1, 1);
        t.grouped(16)
    });
    timeit("PaddedTerms::build 1080p (again)", || PaddedTerms::build(&imap, 1, 1));
    timeit("build + grouped(16) 1080p (again)", || {
        let t = PaddedTerms::build(&imap, 1, 1);
        t.grouped(16)
    });

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
    // the bench harness (which keeps the shared planes alive across the
    // cold-path records).
    let kept = PaddedTerms::build(&imap, 1, 1);
    let kept_group = kept.grouped(16);
    timeit("cold (raw), planes held live", || {
        term_serial_layer(&trace, &cfg, ValueMode::Raw)
    });
    drop(kept_group);
    drop(kept);

    // Stage 5: the allocation cost itself.
    timeit("alloc+zero 2x 33.3M u8", || {
        (vec![0u8; c * plane_len], vec![0u8; c * plane_len])
    });
    timeit("alloc+zero 2x 2M u32", || {
        (vec![0u32; plane_len], vec![0u32; plane_len])
    });
}
