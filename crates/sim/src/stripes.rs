//! A Dynamic-Stripes-style bit-serial cycle model — the related-work
//! extension the paper explicitly motivates (§V): "Another accelerator
//! that could potentially benefit from differential convolution is
//! Dynamic Stripes whose performance varies with the precision of the
//! activations. Since deltas are smaller values than the activations,
//! their precision requirements will be lower as well."
//!
//! Dynamic Stripes processes activations bit-serially: a brick step costs
//! as many cycles as the dynamically detected *precision* of its
//! activation group — the position of the highest significant bit — not
//! the number of effectual terms. It is simpler and cheaper than PRA but
//! slower; running it on deltas quantifies the paper's suggestion.
//!
//! # Precision planes
//!
//! The cost structure is the same shape as the term-serial model's — a
//! per-value metric, summed per position over channels and
//! group-max-reduced per synchronization group — so the fast path reuses
//! the [`PaddedTerms`] strip pass wholesale with [`stripes_bits`] as the
//! plane metric ([`Metric::Stripes`] through
//! [`PaddedTerms::build_with_metric`]; its AVX2 strip counts the
//! precisions of 16 lanes at once). Precision planes are built
//! **once per layer** at the configuration's group and priced a whole
//! output row of windows at a time, as the term-serial kernel prices its
//! planes, instead of the `Kh·Kw·C` per-window fetch walk the original
//! loop performed; the original survives as [`stripes_layer_reference`]
//! and the plane kernel is cross-validated against it for exact
//! equality. A large layer builds its planes and walks its output rows
//! in the term-serial kernel's row bands; Stripes closes every pallet
//! within its output row, so the bands' cycles and bits simply add up.

use crate::config::AcceleratorConfig;
use crate::report::{tile_partition, LayerCycles, NetworkCycles};
use crate::term_serial::{walk_bands, walk_rows, Metric, PaddedTerms, ValueMode};
use diffy_models::{LayerTrace, NetworkTrace};

/// Bits needed for a signed value in the Stripes datapath (sign +
/// magnitude of the two's-complement form; zero needs 0 cycles — zero
/// groups are skipped like zero bricks in PRA).
#[inline]
pub fn stripes_bits(v: i16) -> u32 {
    if v == 0 {
        0
    } else if v > 0 {
        17 - v.leading_zeros()
    } else {
        17 - v.leading_ones()
    }
}

/// [`stripes_bits`] of the 16 `i16` lanes of `v`, one precision per
/// 16-bit lane — the Stripes lane function of the AVX2 plane strip.
///
/// Folding `f = v ^ (v >> 15)` gives `v` for `v ≥ 0` and `!v` for
/// `v < 0`, below 2^15 either way, and `stripes_bits(v)` is the bit
/// length of `f` plus one for every `v ≠ 0`. Each byte's bit length is
/// the larger of two nibble-table lookups; a lane's is its high byte's
/// plus 8 when that byte is nonzero, else its low byte's.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
pub(crate) fn stripes_bits_lanes_avx2(v: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    // Bit length of a nibble `n`, and of `n << 4`.
    #[rustfmt::skip]
    let low = _mm256_setr_epi8(
        0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4,
        0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4,
    );
    #[rustfmt::skip]
    let high = _mm256_setr_epi8(
        0, 5, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8,
        0, 5, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8,
    );
    let m0f = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    let f = _mm256_xor_si256(v, _mm256_srai_epi16(v, 15));
    let bytes = _mm256_max_epu8(
        _mm256_shuffle_epi8(low, _mm256_and_si256(f, m0f)),
        _mm256_shuffle_epi8(high, _mm256_and_si256(_mm256_srli_epi16(f, 4), m0f)),
    );
    let lo = _mm256_and_si256(bytes, _mm256_set1_epi16(0xff));
    let hi = _mm256_srli_epi16(bytes, 8);
    let nonzero = _mm256_cmpgt_epi16(hi, zero);
    let hi = _mm256_add_epi16(hi, _mm256_and_si256(nonzero, _mm256_set1_epi16(8)));
    let len = _mm256_max_epi16(lo, hi);
    // `+ 1`, and `+ 1 − 1` where `v == 0` (whose fold has length 0).
    _mm256_add_epi16(_mm256_add_epi16(len, _mm256_set1_epi16(1)), _mm256_cmpeq_epi16(v, zero))
}

/// Builds the dynamic-precision planes of one layer at synchronization
/// group `g`: per-position raw/delta channel sums and group-max cost
/// planes — the Stripes analogue of the Booth term planes.
pub fn stripes_planes(trace: &LayerTrace, g: usize) -> PaddedTerms {
    PaddedTerms::build_with_metric(
        &trace.imap,
        trace.geom.pad,
        trace.geom.stride,
        g,
        Metric::Stripes,
    )
}

/// Simulates one layer on a Dynamic-Stripes-style accelerator.
///
/// The structure mirrors [`crate::term_serial::term_serial_layer`] — same
/// tiles, windows and synchronization groups — but a group's brick step
/// costs its maximum *precision* instead of its maximum term count.
/// Builds the layer's precision planes and delegates to
/// [`stripes_layer_with_planes`].
pub fn stripes_layer(trace: &LayerTrace, cfg: &AcceleratorConfig, mode: ValueMode) -> LayerCycles {
    let planes = stripes_planes(trace, cfg.terms_per_group);
    stripes_layer_with_planes(trace, cfg, mode, &planes)
}

/// The optimized Stripes kernel over prebuilt precision planes —
/// bit-identical to [`stripes_layer_reference`], but each window costs
/// `Kh + Kw` vectorized adds of a row walk instead of `Kh·Kw·C`
/// activation fetches. Note Stripes dispatches pallets per output row
/// (no packing across row boundaries), unlike the term-serial
/// dispatcher, so row bands of a large layer just add up.
///
/// # Panics
///
/// If `planes` was built at a group other than `cfg.terms_per_group`.
pub fn stripes_layer_with_planes(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
    planes: &PaddedTerms,
) -> LayerCycles {
    stripes_layer_in_bands(trace, cfg, mode, planes, walk_bands(trace, planes))
}

/// [`stripes_layer_with_planes`] with the output rows walked in `bands`
/// row bands, whose useful bits and cycles add up.
pub(crate) fn stripes_layer_in_bands(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
    planes: &PaddedTerms,
    bands: usize,
) -> LayerCycles {
    let fshape = trace.fmaps.shape();
    let out = trace.out_shape();
    planes.check_group(cfg);

    let (passes, spatial) = tile_partition(out.c, out.h, cfg.filters_per_tile, cfg.tiles);
    let delta = mode == ValueMode::Differential;
    let runs = walk_rows(trace, planes, bands, |rows, oys| {
        let (mut useful_bits, mut cycles) = (0u64, 0u64);
        for oy in oys {
            let row_sums = rows.row(oy, planes.sum_plane(delta), planes.sum_plane(false));
            useful_bits += row_sums.iter().map(|&b| b as u64).sum::<u64>();
            let row_costs = rows.row(oy, planes.cost_plane(delta), planes.cost_plane(false));
            for pallet in row_costs.chunks(cfg.windows) {
                cycles += pallet.iter().fold(0, |m, &c| m.max(c)) as u64;
            }
        }
        (useful_bits, cycles)
    });
    let useful_bits: u64 = runs.iter().map(|r| r.0).sum();
    let cycles_per_pass: u64 = runs.iter().map(|r| r.1).sum();

    let cycles = (cycles_per_pass * passes).div_ceil(spatial);
    let lane_capacity = (cfg.lanes * cfg.windows * cfg.filters_per_tile * cfg.tiles) as u64;
    let macs = (out.c * out.h * out.w) as u64 * (fshape.c * fshape.h * fshape.w) as u64;
    LayerCycles {
        cycles,
        useful_slots: useful_bits * out.c as u64,
        total_slots: cycles * lane_capacity,
        compute_events: useful_bits * out.c as u64,
        filter_passes: passes,
        macs,
    }
}

/// The original per-window fetch walk, kept verbatim as the
/// cross-validation oracle for the plane kernel. Semantically
/// authoritative; never used on the hot path.
pub fn stripes_layer_reference(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
) -> LayerCycles {
    let ishape = trace.imap.shape();
    let fshape = trace.fmaps.shape();
    let out = trace.out_shape();
    let g = cfg.terms_per_group;
    let s = trace.geom.stride;
    let d = trace.geom.dilation;
    let pad = trace.geom.pad;

    let fetch = |c: usize, py: usize, px: usize| -> i16 {
        let y = py as isize - pad as isize;
        let x = px as isize - pad as isize;
        if y < 0 || x < 0 || y as usize >= ishape.h || x as usize >= ishape.w {
            0
        } else {
            *trace.imap.at(c, y as usize, x as usize)
        }
    };
    let value = |c: usize, py: usize, px: usize, use_delta: bool| -> i16 {
        let v = fetch(c, py, px);
        if use_delta {
            let prev = if px >= s { fetch(c, py, px - s) } else { 0 };
            v.wrapping_sub(prev)
        } else {
            v
        }
    };

    let (passes, spatial) = tile_partition(out.c, out.h, cfg.filters_per_tile, cfg.tiles);
    let mut cycles_per_pass: u64 = 0;
    let mut useful_bits: u64 = 0;

    for oy in 0..out.h {
        let mut px0 = 0usize;
        while px0 < out.w {
            let pallet_end = (px0 + cfg.windows).min(out.w);
            let mut pallet_max: u64 = 0;
            for ox in px0..pallet_end {
                let use_delta = mode == ValueMode::Differential && ox != 0;
                let mut col: u64 = 0;
                for j in 0..fshape.h {
                    let py = oy * s + j * d;
                    for i in 0..fshape.w {
                        let px = ox * s + i * d;
                        let mut c0 = 0usize;
                        while c0 < ishape.c {
                            let c1 = (c0 + g).min(ishape.c);
                            let mut mx = 0u32;
                            let mut sum = 0u32;
                            for c in c0..c1 {
                                let b = stripes_bits(value(c, py, px, use_delta));
                                mx = mx.max(b);
                                sum += b;
                            }
                            col += mx as u64;
                            useful_bits += sum as u64;
                            c0 = c1;
                        }
                    }
                }
                pallet_max = pallet_max.max(col);
            }
            cycles_per_pass += pallet_max;
            px0 = pallet_end;
        }
    }

    let cycles = (cycles_per_pass * passes).div_ceil(spatial);
    let lane_capacity = (cfg.lanes * cfg.windows * cfg.filters_per_tile * cfg.tiles) as u64;
    let macs = (out.c * out.h * out.w) as u64 * (fshape.c * fshape.h * fshape.w) as u64;
    LayerCycles {
        cycles,
        useful_slots: useful_bits * out.c as u64,
        total_slots: cycles * lane_capacity,
        compute_events: useful_bits * out.c as u64,
        filter_passes: passes,
        macs,
    }
}

/// Simulates every layer of a network on the Stripes-style design.
pub fn stripes_network(
    trace: &NetworkTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
) -> NetworkCycles {
    NetworkCycles {
        arch: match mode {
            ValueMode::Raw => "DStripes",
            ValueMode::Differential => "DStripes+delta",
        },
        layers: trace.layers.iter().map(|l| stripes_layer(l, cfg, mode)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term_serial::term_serial_layer;
    use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};

    fn mk_trace(imap: Tensor3<i16>, k: usize, f: usize) -> LayerTrace {
        mk_trace_geom(imap, k, f, ConvGeometry::same(f, f))
    }

    fn mk_trace_geom(imap: Tensor3<i16>, k: usize, f: usize, geom: ConvGeometry) -> LayerTrace {
        let c = imap.shape().c;
        LayerTrace {
            name: "t".into(),
            index: 0,
            imap,
            fmaps: Tensor4::<i16>::filled(k, c, f, f, 1),
            geom,
            relu: true,
            requant_shift: 12,
            requant_bias: 0,
            next_stride: 1,
        }
    }

    fn pseudo_imap(c: usize, h: usize, w: usize, salt: u64) -> Tensor3<i16> {
        let data: Vec<i16> = (0..c * h * w)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(salt) >> 41) as i16)
            .collect();
        Tensor3::from_vec(c, h, w, data)
    }

    #[test]
    fn stripes_bits_matches_definition() {
        assert_eq!(stripes_bits(0), 0);
        assert_eq!(stripes_bits(1), 2);
        assert_eq!(stripes_bits(-1), 1);
        assert_eq!(stripes_bits(255), 9);
        assert_eq!(stripes_bits(i16::MAX), 16);
        assert_eq!(stripes_bits(i16::MIN), 16);
    }

    #[test]
    fn plane_kernel_matches_reference_across_geometries() {
        // Stride / pad / dilation / odd-C sweep, both value modes — the
        // precision-plane analogue of the term-serial cross-validation.
        for (c, h, w, k, f, geom, salt) in [
            (16, 8, 8, 16, 3, ConvGeometry::same(3, 3), 1u64),
            (3, 5, 17, 7, 3, ConvGeometry::same(3, 3), 2),
            (16, 6, 33, 16, 1, ConvGeometry::unit(), 3),
            (5, 9, 40, 8, 3, ConvGeometry::strided(2, 1), 4),
            (8, 11, 11, 8, 3, ConvGeometry::same_dilated(3, 2), 5),
            (1, 3, 24, 2, 1, ConvGeometry::unit(), 6),
            (5, 14, 23, 8, 3, ConvGeometry { stride: 2, pad: 2, dilation: 2 }, 7),
        ] {
            let t = mk_trace_geom(pseudo_imap(c, h, w, salt), k, f, geom);
            assert!(t.out_shape().h > 0 && t.out_shape().w > 0, "degenerate geometry");
            for g in [1usize, 3, 16] {
                let cfg = AcceleratorConfig::table4().with_terms_per_group(g);
                for mode in [ValueMode::Raw, ValueMode::Differential] {
                    let fast = stripes_layer(&t, &cfg, mode);
                    let reference = stripes_layer_reference(&t, &cfg, mode);
                    assert_eq!(fast, reference, "salt {salt} g {g} mode {mode:?}");
                }
            }
        }
    }

    #[test]
    fn banded_walk_matches_one_band() {
        use crate::term_serial::tests::{band_counts, banded_walk_layers};
        for t in banded_walk_layers() {
            for g in [1, 16] {
                let cfg = AcceleratorConfig::table4().with_terms_per_group(g);
                let planes = stripes_planes(&t, g);
                for mode in [ValueMode::Raw, ValueMode::Differential] {
                    let one = stripes_layer_in_bands(&t, &cfg, mode, &planes, 1);
                    assert_eq!(one, stripes_layer_reference(&t, &cfg, mode), "T{g} {mode:?}");
                    for bands in band_counts(&t) {
                        let banded = stripes_layer_in_bands(&t, &cfg, mode, &planes, bands);
                        assert_eq!(banded, one, "{:?} T{g} {mode:?} {bands} bands", t.geom);
                    }
                }
            }
        }
    }

    #[test]
    fn shared_planes_match_fresh_build() {
        let t = mk_trace(pseudo_imap(6, 7, 21, 11), 8, 3);
        let cfg = AcceleratorConfig::table4();
        let planes = stripes_planes(&t, cfg.terms_per_group);
        for mode in [ValueMode::Raw, ValueMode::Differential] {
            assert_eq!(
                stripes_layer_with_planes(&t, &cfg, mode, &planes),
                stripes_layer(&t, &cfg, mode)
            );
        }
    }

    #[test]
    fn stripes_never_beats_pragmatic_on_the_same_values() {
        // Terms <= bits for every value (NAF nonzero digits <= bit count),
        // so PRA is at least as fast per group.
        let data: Vec<i16> = (0..16 * 4 * 16).map(|i| ((i * 37) % 1021) as i16).collect();
        let t = mk_trace(Tensor3::from_vec(16, 4, 16, data), 16, 3);
        let cfg = AcceleratorConfig::table4();
        let stripes = stripes_layer(&t, &cfg, ValueMode::Raw);
        let pra = term_serial_layer(&t, &cfg, ValueMode::Raw);
        assert!(pra.cycles <= stripes.cycles);
    }

    #[test]
    fn deltas_help_stripes_on_smooth_data() {
        // The paper's §V claim, quantified: smaller deltas -> lower
        // dynamic precision -> fewer bit-serial cycles.
        let data: Vec<i16> = (0..4 * 4 * 64).map(|i| 4000 + (i % 64) as i16).collect();
        let t = mk_trace(Tensor3::from_vec(4, 4, 64, data), 8, 3);
        let cfg = AcceleratorConfig::table4();
        let raw = stripes_layer(&t, &cfg, ValueMode::Raw);
        let delta = stripes_layer(&t, &cfg, ValueMode::Differential);
        assert!(
            (delta.cycles as f64) < raw.cycles as f64 * 0.7,
            "delta {} vs raw {}",
            delta.cycles,
            raw.cycles
        );
    }

    #[test]
    fn zero_imap_is_free() {
        let t = mk_trace(Tensor3::<i16>::new(16, 4, 8), 16, 1);
        let r = stripes_layer(&t, &AcceleratorConfig::table4(), ValueMode::Raw);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn network_labels() {
        let t = NetworkTrace {
            model: "m".into(),
            layers: vec![mk_trace(Tensor3::<i16>::filled(4, 4, 4, 3), 4, 1)],
            output: Tensor3::<i16>::new(1, 1, 1),
        };
        let cfg = AcceleratorConfig::table4();
        assert_eq!(stripes_network(&t, &cfg, ValueMode::Raw).arch, "DStripes");
        assert_eq!(
            stripes_network(&t, &cfg, ValueMode::Differential).arch,
            "DStripes+delta"
        );
    }
}
