//! Work-reduction potential (Fig. 4): the idealized speedups of
//! processing only effectual terms, with no synchronization or
//! underutilization losses.
//!
//! Three computation approaches are compared over the convolution's
//! activation-fetch stream:
//!
//! * **ALL** — the value-agnostic baseline processes all 16 terms of
//!   every activation.
//! * **RawE** — only the effectual terms of the raw activations.
//! * **ΔE** — only the effectual terms of the deltas (leftmost window of
//!   each row raw, as in Diffy's dataflow).
//!
//! Both effectual counts are read from the term planes' per-position
//! channel sums, a whole output row of windows at a time, the way the
//! term-serial kernel prices them, in the same row bands on a large
//! layer; the potential only sums, so the bands add up. The sums do not
//! depend on the synchronization group, so planes built at any group
//! serve.

use crate::term_serial::{walk_bands, walk_rows, PaddedTerms};
use diffy_models::{LayerTrace, NetworkTrace};
use diffy_tensor::ACT_BITS;

/// Term totals over a convolution stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Potential {
    /// Terms the value-agnostic approach processes (16 per fetch).
    pub all_terms: u64,
    /// Effectual terms of the raw activations.
    pub raw_terms: u64,
    /// Effectual terms of the deltas (row-anchored).
    pub delta_terms: u64,
}

impl Potential {
    /// Merges another accumulation.
    pub fn merge(&mut self, other: &Potential) {
        self.all_terms += other.all_terms;
        self.raw_terms += other.raw_terms;
        self.delta_terms += other.delta_terms;
    }

    /// Idealized speedup of RawE over ALL.
    pub fn raw_speedup(&self) -> f64 {
        ratio(self.all_terms, self.raw_terms)
    }

    /// Idealized speedup of ΔE over ALL.
    pub fn delta_speedup(&self) -> f64 {
        ratio(self.all_terms, self.delta_terms)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::INFINITY
    } else {
        num as f64 / den as f64
    }
}

/// Accumulates the potential of one layer's convolution stream.
///
/// Builds the layer's [`PaddedTerms`] and delegates to
/// [`layer_potential_with_terms`]; callers that also run the cycle model
/// on the same trace should share one plane build per layer.
pub fn layer_potential(trace: &LayerTrace) -> Potential {
    let terms = PaddedTerms::for_layer(trace);
    layer_potential_with_terms(trace, &terms)
}

/// [`layer_potential`] over prebuilt term planes, at any
/// synchronization group.
///
/// Per window the three counters are whole-window integers the planes
/// already hold: `ALL` is the fetch count times [`ACT_BITS`], and the
/// effectual raw/delta totals come from row walks over the channel-sum
/// planes — identical integers to the element-wise accumulation, without
/// re-walking `Kh·Kw·C` term fetches per window. Large layers walk
/// their output rows in row bands, whose totals add up.
pub fn layer_potential_with_terms(trace: &LayerTrace, terms: &PaddedTerms) -> Potential {
    layer_potential_in_bands(trace, terms, walk_bands(trace, terms))
}

/// [`layer_potential_with_terms`] with the output rows walked in `bands`
/// row bands.
pub(crate) fn layer_potential_in_bands(
    trace: &LayerTrace,
    terms: &PaddedTerms,
    bands: usize,
) -> Potential {
    let ishape = trace.imap.shape();
    let fshape = trace.fmaps.shape();
    let out = trace.out_shape();
    let fetches = (out.h * out.w) as u64 * (fshape.h * fshape.w * ishape.c) as u64;
    let (raw_plane, delta_plane) = (terms.sum_plane(false), terms.sum_plane(true));
    let row_total = |row: &[u32]| row.iter().map(|&t| t as u64).sum::<u64>();

    let runs = walk_rows(trace, terms, bands, |rows, oys| {
        let mut run = Potential::default();
        for oy in oys {
            run.raw_terms += row_total(rows.row(oy, raw_plane, raw_plane));
            // The leftmost window of each row is processed raw.
            run.delta_terms += row_total(rows.row(oy, delta_plane, raw_plane));
        }
        run
    });
    let mut p = Potential { all_terms: fetches * ACT_BITS as u64, ..Potential::default() };
    for run in &runs {
        p.merge(run);
    }
    p
}

/// Accumulates the potential over a whole network trace.
pub fn network_potential(trace: &NetworkTrace) -> Potential {
    let mut p = Potential::default();
    for l in &trace.layers {
        p.merge(&layer_potential(l));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_encoding::booth_terms;
    use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};

    fn mk_trace(imap: Tensor3<i16>, f: usize) -> LayerTrace {
        let c = imap.shape().c;
        LayerTrace {
            name: "t".into(),
            index: 0,
            imap,
            fmaps: Tensor4::<i16>::filled(4, c, f, f, 1),
            geom: ConvGeometry::same(f, f),
            relu: true,
            requant_shift: 12,
            requant_bias: 0,
            next_stride: 1,
        }
    }

    #[test]
    fn all_terms_count_sixteen_per_fetch() {
        let t = mk_trace(Tensor3::<i16>::filled(2, 3, 4, 1), 1);
        let p = layer_potential(&t);
        // 12 windows x 1 filter pos x 2 channels x 16 bits.
        assert_eq!(p.all_terms, 12 * 2 * 16);
    }

    #[test]
    fn constant_image_has_huge_delta_potential() {
        let t = mk_trace(Tensor3::<i16>::filled(4, 4, 32, 85), 3);
        let p = layer_potential(&t);
        assert!(p.delta_speedup() > p.raw_speedup() * 2.0);
    }

    #[test]
    fn zero_image_is_infinitely_compressible() {
        let t = mk_trace(Tensor3::<i16>::new(2, 2, 4), 1);
        let p = layer_potential(&t);
        assert_eq!(p.raw_terms, 0);
        assert!(p.raw_speedup().is_infinite());
    }

    #[test]
    fn speedups_are_at_least_sixteen_over_max_terms() {
        // raw_speedup >= 16 / 9 always (NAF of 16-bit needs <= 9 terms).
        let data: Vec<i16> = (0..4 * 4 * 8).map(|i| (i * 7919) as i16).collect();
        let t = mk_trace(Tensor3::from_vec(4, 4, 8, data), 3);
        let p = layer_potential(&t);
        assert!(p.raw_speedup() >= 16.0 / 9.0);
        assert!(p.delta_speedup() >= 16.0 / 10.0); // 17-bit deltas, wrapped to 16
    }

    /// The original element-wise accumulation, kept as the oracle for the
    /// plane-based fast path: it counts each fetch's Booth terms from the
    /// zero-padded value and its stride-distant delta.
    fn layer_potential_reference(trace: &LayerTrace) -> Potential {
        let ishape = trace.imap.shape();
        let fshape = trace.fmaps.shape();
        let out = trace.out_shape();
        let s = trace.geom.stride;
        let d = trace.geom.dilation;
        let pad = trace.geom.pad;
        let fetch = |c: usize, py: usize, px: usize| -> i16 {
            let inside = (pad..pad + ishape.h).contains(&py) && (pad..pad + ishape.w).contains(&px);
            if inside {
                *trace.imap.at(c, py - pad, px - pad)
            } else {
                0
            }
        };
        let raw_at = |c, py, px| booth_terms(fetch(c, py, px)) as u64;
        let delta_at = |c, py, px: usize| {
            let prev = if px >= s { fetch(c, py, px - s) } else { 0 };
            booth_terms(fetch(c, py, px).wrapping_sub(prev)) as u64
        };
        let mut p = Potential::default();
        for oy in 0..out.h {
            for ox in 0..out.w {
                let use_delta = ox != 0;
                for j in 0..fshape.h {
                    let py = oy * s + j * d;
                    for i in 0..fshape.w {
                        let px = ox * s + i * d;
                        for c in 0..ishape.c {
                            p.all_terms += ACT_BITS as u64;
                            p.raw_terms += raw_at(c, py, px);
                            p.delta_terms +=
                                if use_delta { delta_at(c, py, px) } else { raw_at(c, py, px) };
                        }
                    }
                }
            }
        }
        p
    }

    #[test]
    fn plane_based_potential_matches_elementwise_reference() {
        use diffy_tensor::ConvGeometry;
        let mk = |c: usize, h: usize, w: usize, geom: ConvGeometry, salt: u64| {
            let data: Vec<i16> = (0..c * h * w)
                .map(|i| ((i as u64).wrapping_mul(2862933555777941757).wrapping_add(salt) >> 43) as i16)
                .collect();
            LayerTrace {
                name: "t".into(),
                index: 0,
                imap: Tensor3::from_vec(c, h, w, data),
                fmaps: Tensor4::<i16>::filled(4, c, 3, 3, 1),
                geom,
                relu: true,
                requant_shift: 12,
                requant_bias: 0,
                next_stride: 1,
            }
        };
        for (geom, salt) in [
            (ConvGeometry::same(3, 3), 1u64),
            (ConvGeometry::strided(2, 1), 2),
            (ConvGeometry::same_dilated(3, 2), 3),
            (ConvGeometry { stride: 2, pad: 2, dilation: 2 }, 4),
        ] {
            let t = mk(5, 12, 15, geom, salt);
            assert_eq!(layer_potential(&t), layer_potential_reference(&t), "{geom:?}");
        }
    }

    #[test]
    fn banded_walk_matches_one_band() {
        use crate::term_serial::tests::{band_counts, banded_walk_layers};
        for t in banded_walk_layers() {
            let terms = PaddedTerms::for_layer(&t);
            let one = layer_potential_in_bands(&t, &terms, 1);
            assert_eq!(one, layer_potential_reference(&t), "{:?}", t.geom);
            for bands in band_counts(&t) {
                let banded = layer_potential_in_bands(&t, &terms, bands);
                assert_eq!(banded, one, "{:?} {bands} bands", t.geom);
            }
        }
    }

    #[test]
    fn network_potential_merges_layers() {
        let l = mk_trace(Tensor3::<i16>::filled(2, 3, 4, 3), 1);
        let single = layer_potential(&l);
        let t = NetworkTrace {
            model: "m".into(),
            layers: vec![l.clone(), l],
            output: Tensor3::<i16>::new(1, 1, 1),
        };
        let p = network_potential(&t);
        assert_eq!(p.all_terms, 2 * single.all_terms);
        assert_eq!(p.raw_terms, 2 * single.raw_terms);
    }
}
