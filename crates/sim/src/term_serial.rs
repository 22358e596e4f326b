//! The term-serial cycle model shared by PRA and Diffy.
//!
//! A tile holds `filters_per_tile` SIP rows × `windows` SIP columns; each
//! SIP processes `lanes` activation lanes, one effectual Booth term per
//! lane per cycle. Execution advances in *brick steps* — one `(channel
//! chunk, j, i)` position of the sliding window — and a step costs the
//! **maximum** term count across each `terms_per_group` lane group
//! (cross-lane synchronization, the paper's `T_x`). A *pallet* of
//! `windows` consecutive windows completes when its slowest column does
//! (the weight brick is shared across columns).
//!
//! [`ValueMode::Differential`] is Diffy: every window except the leftmost
//! of each output row consumes the term counts of the *wrapped deltas*
//! between horizontally adjacent (stride-distant) activations; the
//! leftmost window is processed raw (§III-D). The DR reconstruction adds
//! and the Delta_out engine are fully overlapped with compute (§III-E:
//! "there is plenty of time to reconstruct") and add no cycles.
//!
//! # Term planes at the sync group
//!
//! Every window that touches a padded position `(py, px)` pays the same
//! per-position price: the sum over `⌈C/g⌉` channel chunks of each
//! chunk's maximum term count (its synchronization cost), and the plain
//! channel sum (its slot/energy accounting). Both are pure functions of
//! the imap and the group `g`, so [`PaddedTerms`] computes them **once per
//! layer and group** as four `u32` planes — raw and delta sums, raw and
//! delta costs — in one strip pass. A strip is 16 padded columns of one
//! padded row; it walks the channels, loads each channel's 16 values and
//! their stride-distant predecessors straight from the imap (padding
//! reads as zero), counts the metric of both in 16-bit lanes, and keeps
//! the sums, the open chunk's maxima and the costs in registers until it
//! writes its 16 columns of each plane once. The lanes run on the strip
//! of [`Isa::detect`]: an AVX2 strip where the CPU has it and a portable
//! strip of the same algorithm elsewhere; the metric is one of a closed
//! set ([`Metric`]: Booth terms, or Stripes precisions). Each imap
//! crosses DRAM once and nothing is staged but the few strips that touch
//! the padding.
//!
//! The tile takes windows in output-row order (§III-D), so the kernels
//! price a whole output row of windows at a time: the `Kh` sampled plane
//! rows are summed column by column, then `Kw` sampled columns of that
//! sum give every window total of the row — two loops of independent
//! lanes, the same for every stride and dilation, with totals in `u32`.
//! The reference loop nest survives as [`term_serial_layer_reference`],
//! which counts Booth terms from the padded values themselves, and the
//! optimized kernel is cross-validated against it for exact cycle/slot
//! equality (unit tests, `crates/sim/tests/proptests.rs`,
//! `tests/tile_cross_validation.rs`).
//!
//! # Row bands
//!
//! Both stages are row work, so a large layer spreads them over the
//! cores through [`diffy_tensor::bands`]. The build splits its padded
//! rows when it reads at least 2^20 metric values (`C·PH·PW`); a plane
//! row depends only on its own imap rows. The walk splits its output
//! rows when it reads at least 2^20 plane entries (`2·OH·Fh·PW`), each
//! band on its own `WindowRows`. Pallets pack windows across row
//! boundaries, so a band starts inside the pallet the bands before it
//! left open, at fill `(oy0·OW) mod windows`; it reports that pallet's
//! maximum apart from the pallets it closes, and a left-to-right fold
//! closes each straddling pallet at the maximum of both sides. The
//! Stripes and potential kernels walk the same bands and add them up.

use crate::config::{AcceleratorConfig, Architecture};
use crate::report::{LayerCycles, NetworkCycles};
use crate::scratch;
use diffy_encoding::booth_terms;
use diffy_models::{LayerTrace, NetworkTrace};
use diffy_tensor::{bands, Isa};
use std::ops::Range;
use std::sync::Arc;

/// Which value stream the SIP lanes consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueMode {
    /// Raw activations — the PRA baseline.
    Raw,
    /// Row-anchored deltas — Diffy.
    Differential,
}

/// The per-position planes the term-serial kernels price windows from,
/// for one imap — zero-padded, over raw values and their horizontal
/// (stride-distant) deltas — at one synchronization group `g`.
///
/// Building one is the expensive, `O(C·PH·PW)` part of the term-serial
/// model; everything downstream ([`term_serial_layer_with_terms`],
/// [`selective_network`], [`crate::potential`]) reuses a shared build.
/// The experiment runner additionally keys these per layer and group in
/// its sweep cache, so N architectures evaluated on one trace at one
/// group pay the build once.
#[derive(PartialEq, Eq)]
pub struct PaddedTerms {
    c: usize,
    g: usize,
    ph: usize,
    pw: usize,
    /// Per-position channel sums of the raw metric (`ph × pw`).
    raw_sum: Vec<u32>,
    /// Per-position channel sums of the delta metric.
    delta_sum: Vec<u32>,
    /// Per-position sums over `⌈C/g⌉` channel chunks of each chunk's
    /// maximum raw metric — the integer the reference loop nest
    /// accumulates per `(j, i)` brick step.
    raw_cost: Vec<u32>,
    /// The same chunk-cost reduction of the delta metric.
    delta_cost: Vec<u32>,
}

/// Prices one output row of filter windows at a time from a `u32`
/// per-position plane (a channel-sum or a group-cost plane).
///
/// For output row `oy` the `kh` sampled plane rows `py0, py0 + d, …`
/// (`py0 = oy·stride`) are summed column by column into `col`; then `kw`
/// sampled columns of `col` are summed for every window origin
/// `px0 < PW − (kw − 1)·d`. Both loops run over independent lanes (they
/// vectorize) with no loop-carried prefix sum, at any dilation; strided
/// layers then keep every `stride`-th origin. Each total is the integer
/// the reference loop nest accumulates for that window.
#[derive(Clone)]
pub(crate) struct WindowRows {
    pw: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    dilation: usize,
    /// Output columns, `⌈origins / stride⌉`.
    out_w: usize,
    col: Vec<u32>,
    /// One total per window origin of the row.
    totals: Vec<u32>,
}

impl WindowRows {
    /// A row walker for `kh × kw` windows at `stride` and `dilation` over
    /// the planes of `terms`.
    ///
    /// # Panics
    ///
    /// If a window total could overflow `u32`. A plane entry is at most
    /// `16·C` (a [`Metric`] of at most 16 summed, or chunk-maximized and
    /// summed, over `C` channels), so a window total is below the
    /// `kh·kw·255·C` this checks.
    pub(crate) fn new(
        terms: &PaddedTerms,
        kh: usize,
        kw: usize,
        stride: usize,
        dilation: usize,
    ) -> Self {
        let bound = [kh, kw, 255, terms.c]
            .into_iter()
            .try_fold(1u32, |acc, n| u32::try_from(n).ok().and_then(|n| acc.checked_mul(n)));
        assert!(
            bound.is_some(),
            "{kh}x{kw} windows over {} channels can overflow u32 window totals",
            terms.c
        );
        let origins = (terms.pw + dilation).saturating_sub(kw * dilation);
        Self {
            pw: terms.pw,
            kh,
            kw,
            stride,
            dilation,
            out_w: origins.div_ceil(stride),
            col: vec![0; terms.pw],
            totals: vec![0; origins],
        }
    }

    /// The window totals of output row `oy` in dispatch order, one per
    /// output column, priced from `plane` — except the leftmost window,
    /// which Diffy processes raw (it has no left neighbour, §III-D) and
    /// which is priced from `leftmost`. A raw walk passes its own plane
    /// as `leftmost`.
    pub(crate) fn row(&mut self, oy: usize, plane: &[u32], leftmost: &[u32]) -> &[u32] {
        let (pw, d, out_w) = (self.pw, self.dilation, self.out_w);
        if out_w == 0 {
            return &[];
        }
        let py0 = oy * self.stride;
        let col = &mut self.col;
        col.copy_from_slice(&plane[py0 * pw..][..pw]);
        for j in 1..self.kh {
            for (c, &v) in col.iter_mut().zip(&plane[(py0 + j * d) * pw..][..pw]) {
                *c += v;
            }
        }
        let totals = &mut self.totals;
        let n = totals.len();
        totals.copy_from_slice(&col[..n]);
        for i in 1..self.kw {
            for (t, &v) in totals.iter_mut().zip(&col[i * d..i * d + n]) {
                *t += v;
            }
        }
        if self.stride > 1 {
            for ox in 1..out_w {
                totals[ox] = totals[ox * self.stride];
            }
        }
        // The leftmost window alone is summed directly, `kh·kw` reads.
        let mut first = 0;
        for j in 0..self.kh {
            let src = &leftmost[(py0 + j * d) * pw..];
            for i in 0..self.kw {
                first += src[i * d];
            }
        }
        totals[0] = first;
        &totals[..out_w]
    }
}

/// The band count of a window walk over `trace`'s output rows through
/// [`bands::count`]: each output row reads `Fh` sampled rows of two
/// planes, so the walk reads `2·OH·Fh·PW` plane entries.
pub(crate) fn walk_bands(trace: &LayerTrace, terms: &PaddedTerms) -> usize {
    bands::count(2 * trace.out_shape().h * trace.fmaps.shape().h * terms.pw)
}

/// Walks `trace`'s output rows over the planes of `terms` in `bands`
/// contiguous row bands ([`bands::run_rows`]), each band on its own
/// [`WindowRows`], and returns each band's `walk(rows, oys)` in band
/// order.
pub(crate) fn walk_rows<R, F>(
    trace: &LayerTrace,
    terms: &PaddedTerms,
    bands: usize,
    walk: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut WindowRows, Range<usize>) -> R + Sync,
{
    let f = trace.fmaps.shape();
    let rows = WindowRows::new(terms, f.h, f.w, trace.geom.stride, trace.geom.dilation);
    bands::run_rows(trace.out_shape().h, bands, |oys| walk(&mut rows.clone(), oys))
}

/// The per-value metric a plane build reduces: a closed set, one metric
/// per cost model. Each maps 0 to 0 (fully padded rows are written as
/// zeros without running it) and is at most 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Booth effectual terms ([`booth_terms`], at most 9): PRA and Diffy.
    Booth,
    /// Dynamic precision ([`crate::stripes::stripes_bits`], at most 16):
    /// the Stripes model.
    Stripes,
}

/// A [`Metric`] on the lanes of a strip.
trait LaneMetric {
    /// The metric of one value.
    fn value(v: i16) -> u16;

    /// The metric of each 16-bit lane of `v`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    unsafe fn avx2(v: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i;
}

struct BoothLanes;

impl LaneMetric for BoothLanes {
    #[inline(always)]
    fn value(v: i16) -> u16 {
        booth_terms(v) as u16
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn avx2(v: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
        // SAFETY: the caller guarantees AVX2.
        diffy_encoding::booth::booth_terms_lanes_avx2(v)
    }
}

struct StripesLanes;

impl LaneMetric for StripesLanes {
    #[inline(always)]
    fn value(v: i16) -> u16 {
        crate::stripes::stripes_bits(v) as u16
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn avx2(v: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
        // SAFETY: the caller guarantees AVX2.
        crate::stripes::stripes_bits_lanes_avx2(v)
    }
}

/// Padded columns one strip covers: sixteen 16-bit lanes, one AVX2
/// register.
const STRIP: usize = 16;

/// Channels a strip sums in `u16` lanes before it widens them into its
/// `u32` results: a metric is at most 16, and `2048·16 < 2^16`.
const WIDEN_EVERY: usize = 2048;

/// A strip's four results, `[raw sum, delta sum, raw cost, delta cost]`,
/// one `u32` per lane.
type Wide = [[u32; STRIP]; 4];

/// Where one strip reads its lanes: channel `ch`'s sixteen values start
/// at `data[at + ch·step]`, and their stride-distant predecessors
/// `back` values before them.
struct StripLanes<'d> {
    data: &'d [i16],
    at: usize,
    step: usize,
    back: usize,
    channels: usize,
    g: usize,
}

impl StripLanes<'_> {
    /// Asserts that every lane read of every channel lies in `data`.
    fn check_bounds(&self) {
        let last = self.at + self.channels.saturating_sub(1) * self.step;
        assert!(self.at >= self.back && last + STRIP <= self.data.len(), "strip out of bounds");
    }
}

/// Adds a strip's `u16` partials into its `u32` results, which the first
/// partials overwrite.
#[inline(always)]
fn widen(first: bool, partials: &[[u16; STRIP]; 4], wide: &mut Wide) {
    for (w, p) in wide.iter_mut().zip(partials) {
        for (w, &p) in w.iter_mut().zip(p) {
            *w = if first { p as u32 } else { *w + p as u32 };
        }
    }
}

/// Portable strip: the AVX2 algorithm in plain Rust, on arrays of
/// sixteen `u16` lanes.
fn strip_portable<M: LaneMetric>(src: &StripLanes<'_>, wide: &mut Wide) {
    let (mut raw_max, mut delta_max) = ([0u16; STRIP], [0u16; STRIP]);
    let mut left = src.g;
    for c0 in (0..src.channels).step_by(WIDEN_EVERY) {
        let [mut raw_sum, mut delta_sum, mut raw_cost, mut delta_cost] = [[0u16; STRIP]; 4];
        for ch in c0..src.channels.min(c0 + WIDEN_EVERY) {
            let at = src.at + ch * src.step;
            let (values, prevs) = (&src.data[at..at + STRIP], &src.data[at - src.back..][..STRIP]);
            for k in 0..STRIP {
                let raw = M::value(values[k]);
                let delta = M::value(values[k].wrapping_sub(prevs[k]));
                raw_sum[k] += raw;
                delta_sum[k] += delta;
                raw_max[k] = raw_max[k].max(raw);
                delta_max[k] = delta_max[k].max(delta);
            }
            left -= 1;
            if left == 0 || ch + 1 == src.channels {
                for k in 0..STRIP {
                    raw_cost[k] += raw_max[k];
                    delta_cost[k] += delta_max[k];
                }
                (raw_max, delta_max, left) = ([0; STRIP], [0; STRIP], src.g);
            }
        }
        widen(c0 == 0, &[raw_sum, delta_sum, raw_cost, delta_cost], wide);
    }
}

/// AVX2 strip: the value and predecessor lanes of a channel are two
/// unaligned loads, their delta one wrapping subtract, and the metric,
/// the sums, the open chunk's maxima and the costs all stay in
/// registers.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn strip_avx2<M: LaneMetric>(src: &StripLanes<'_>, wide: &mut Wide) {
    use std::arch::x86_64::*;
    src.check_bounds();
    let p = src.data.as_ptr();
    let zero = _mm256_setzero_si256();
    let (mut raw_max, mut delta_max) = (zero, zero);
    let mut left = src.g;
    for c0 in (0..src.channels).step_by(WIDEN_EVERY) {
        let [mut raw_sum, mut delta_sum, mut raw_cost, mut delta_cost] = [zero; 4];
        for ch in c0..src.channels.min(c0 + WIDEN_EVERY) {
            // SAFETY: `check_bounds` keeps both loads inside `data`.
            let at = p.add(src.at + ch * src.step);
            let values = _mm256_loadu_si256(at as *const __m256i);
            let prevs = _mm256_loadu_si256(at.sub(src.back) as *const __m256i);
            let raw = M::avx2(values);
            let delta = M::avx2(_mm256_sub_epi16(values, prevs));
            raw_sum = _mm256_add_epi16(raw_sum, raw);
            delta_sum = _mm256_add_epi16(delta_sum, delta);
            raw_max = _mm256_max_epu16(raw_max, raw);
            delta_max = _mm256_max_epu16(delta_max, delta);
            left -= 1;
            if left == 0 || ch + 1 == src.channels {
                raw_cost = _mm256_add_epi16(raw_cost, raw_max);
                delta_cost = _mm256_add_epi16(delta_cost, delta_max);
                (raw_max, delta_max, left) = (zero, zero, src.g);
            }
        }
        let mut partials = [[0u16; STRIP]; 4];
        for (dst, v) in partials.iter_mut().zip([raw_sum, delta_sum, raw_cost, delta_cost]) {
            _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, v);
        }
        widen(c0 == 0, &partials, wide);
    }
}

/// Copies into `out` the values of `row` (one imap row, padded by `pad`
/// on each side) at padded columns `px0 + k − shift`, `k < STRIP`, with
/// zeros at padding and left of column 0.
fn gather(row: &[i16], pad: usize, px0: usize, shift: usize, out: &mut [i16]) {
    // Lane k reads row[px0 + k − shift − pad] where that lies in the row.
    let lo = (pad + shift).saturating_sub(px0).min(STRIP);
    let hi = (pad + shift + row.len()).saturating_sub(px0).min(STRIP);
    out.fill(0);
    if lo < hi {
        let x0 = px0 + lo - shift - pad;
        out[lo..hi].copy_from_slice(&row[x0..x0 + hi - lo]);
    }
}

/// What one plane build reads: the imap, its padding and delta stride,
/// the synchronization group and the metric, and the instruction set
/// whose strip runs it; every strip builds the same planes.
struct PlaneSource<'a> {
    imap: &'a diffy_tensor::Tensor3<i16>,
    pad: usize,
    stride: usize,
    g: usize,
    metric: Metric,
    isa: Isa,
}

/// One band of the four output planes: `[raw sum, delta sum, raw cost,
/// delta cost]`, the same padded rows of each.
type Band<'p> = [&'p mut [u32]; 4];

impl PlaneSource<'_> {
    /// Fills one band whose first padded row is `py0`.
    fn band(&self, py0: usize, out: Band<'_>) {
        match self.metric {
            Metric::Booth => self.band_with::<BoothLanes>(py0, out),
            Metric::Stripes => self.band_with::<StripesLanes>(py0, out),
        }
    }

    fn band_with<M: LaneMetric>(&self, py0: usize, out: Band<'_>) {
        match self.isa {
            Isa::Portable => self.rows(py0, out, strip_portable::<M>),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 { .. } => {
                // SAFETY: `Avx2` exists only after runtime detection, and
                // `strip_avx2` asserts that its lane reads stay in bounds.
                self.rows(py0, out, |src, wide| unsafe { strip_avx2::<M>(src, wide) })
            }
        }
    }

    /// Walks the band's padded rows. A fully padded row is all zeros; an
    /// interior row runs `strip` once per [`STRIP`] padded columns and
    /// writes its lanes of the four planes. An interior strip reads its
    /// lanes from the imap itself; a strip that touches the padding or
    /// has a predecessor outside the row first gathers its lanes, zeros
    /// included, into `edge`.
    fn rows(
        &self,
        py0: usize,
        [raw_sum, delta_sum, raw_cost, delta_cost]: Band<'_>,
        strip: impl Fn(&StripLanes<'_>, &mut Wide),
    ) {
        let s = self.imap.shape();
        let (pad, stride, g) = (self.pad, self.stride, self.g);
        let pw = s.w + 2 * pad;
        let data = self.imap.as_slice();
        // Per channel: the predecessors, then the values, of one strip.
        let mut edge = vec![0i16; 2 * STRIP * s.c];
        let mut wide = [[0u32; STRIP]; 4];
        let planes = raw_sum
            .chunks_exact_mut(pw)
            .zip(delta_sum.chunks_exact_mut(pw))
            .zip(raw_cost.chunks_exact_mut(pw).zip(delta_cost.chunks_exact_mut(pw)));
        for (k, ((rs, ds), (rc, dc))) in planes.enumerate() {
            let py = py0 + k;
            if s.c == 0 || py < pad || py >= pad + s.h {
                for row in [rs, ds, rc, dc] {
                    row.fill(0);
                }
                continue;
            }
            let y = py - pad;
            for px0 in (0..pw).step_by(STRIP) {
                let src = if px0 >= pad + stride && px0 + STRIP <= pad + s.w {
                    StripLanes {
                        data,
                        at: y * s.w + px0 - pad,
                        step: s.h * s.w,
                        back: stride,
                        channels: s.c,
                        g,
                    }
                } else {
                    for (ch, lanes) in edge.chunks_exact_mut(2 * STRIP).enumerate() {
                        let (prevs, values) = lanes.split_at_mut(STRIP);
                        let row = self.imap.row(ch, y);
                        gather(row, pad, px0, stride, prevs);
                        gather(row, pad, px0, 0, values);
                    }
                    let (at, step) = (STRIP, 2 * STRIP);
                    StripLanes { data: &edge, at, step, back: STRIP, channels: s.c, g }
                };
                strip(&src, &mut wide);
                let n = STRIP.min(pw - px0);
                for (row, lanes) in [&mut *rs, &mut *ds, &mut *rc, &mut *dc].into_iter().zip(&wide)
                {
                    row[px0..px0 + n].copy_from_slice(&lanes[..n]);
                }
            }
        }
    }
}

impl PaddedTerms {
    /// Builds the Booth term planes of `imap` padded by `pad` on every
    /// spatial border, with deltas taken at distance `stride` along W,
    /// at synchronization group `g`.
    ///
    /// # Panics
    ///
    /// If `g == 0`.
    pub fn build(imap: &diffy_tensor::Tensor3<i16>, pad: usize, stride: usize, g: usize) -> Self {
        Self::build_with_metric(imap, pad, stride, g, Metric::Booth)
    }

    /// [`PaddedTerms::build`] under another per-value [`Metric`]: the
    /// Stripes model builds its dynamic-precision planes through the
    /// same strips.
    ///
    /// The padded rows split into row bands ([`bands::count`] over the
    /// `C·PH·PW` metric values the build reads). Every row depends only
    /// on its own imap rows, so any band count builds identical planes.
    pub fn build_with_metric(
        imap: &diffy_tensor::Tensor3<i16>,
        pad: usize,
        stride: usize,
        g: usize,
        metric: Metric,
    ) -> Self {
        Self::build_on(imap, pad, stride, g, metric, Isa::detect())
    }

    /// [`PaddedTerms::build_with_metric`] on the strip of `isa`, in the
    /// same bands; every [`Isa`] builds the same planes.
    #[doc(hidden)]
    pub fn build_on(
        imap: &diffy_tensor::Tensor3<i16>,
        pad: usize,
        stride: usize,
        g: usize,
        metric: Metric,
        isa: Isa,
    ) -> Self {
        let src = PlaneSource { imap, pad, stride, g, metric, isa };
        Self::build_in_bands(&src, build_bands(imap, pad))
    }

    /// The one plane build: the padded rows split into `bands`
    /// contiguous bands of [`bands::rows_per`] rows, each band writing
    /// its own rows of the four planes.
    fn build_in_bands(src: &PlaneSource<'_>, bands: usize) -> Self {
        assert!(src.g > 0, "synchronization group must be at least 1");
        let s = src.imap.shape();
        let (ph, pw) = (s.h + 2 * src.pad, s.w + 2 * src.pad);
        // Pool-recycled buffers arrive dirty; the build writes every row.
        let mut planes = [(); 4].map(|_| scratch::take_u32(ph * pw));
        let rows_per = bands::rows_per(ph, bands);
        let chunk = (rows_per * pw).max(1);
        let [rs, ds, rc, dc] = &mut planes;
        let parts = rs
            .chunks_mut(chunk)
            .zip(ds.chunks_mut(chunk))
            .zip(rc.chunks_mut(chunk).zip(dc.chunks_mut(chunk)))
            .map(|((rs, ds), (rc, dc))| [rs, ds, rc, dc])
            .enumerate();
        bands::run(parts, |(b, out)| src.band(b * rows_per, out));
        let [raw_sum, delta_sum, raw_cost, delta_cost] = planes;
        Self { c: s.c, g: src.g, ph, pw, raw_sum, delta_sum, raw_cost, delta_cost }
    }

    /// Builds the planes a layer's geometry implies (`pad` and `stride`
    /// from the trace) at Table IV's synchronization group (T16).
    pub fn for_layer(trace: &LayerTrace) -> Self {
        Self::for_layer_at(trace, AcceleratorConfig::table4().terms_per_group)
    }

    /// [`PaddedTerms::for_layer`] at synchronization group `g` — the one
    /// keying rule every consumer that holds a configuration shares.
    pub fn for_layer_at(trace: &LayerTrace, g: usize) -> Self {
        Self::build(&trace.imap, trace.geom.pad, trace.geom.stride, g)
    }

    /// Channel count of the underlying imap.
    pub fn channels(&self) -> usize {
        self.c
    }

    /// The synchronization group the cost planes were reduced at.
    pub fn group(&self) -> usize {
        self.g
    }

    /// Padded spatial extent `(ph, pw)`.
    pub fn padded_dims(&self) -> (usize, usize) {
        (self.ph, self.pw)
    }

    /// The chosen stream's per-position channel sums (`ph × pw`,
    /// row-major) — the plane [`WindowRows`] prices slot accounting from.
    pub(crate) fn sum_plane(&self, delta: bool) -> &[u32] {
        if delta {
            &self.delta_sum
        } else {
            &self.raw_sum
        }
    }

    /// The chosen stream's per-position cost plane (`ph × pw`,
    /// row-major): per position, the sum over channel chunks of each
    /// chunk's maximum term count — the plane [`WindowRows`] prices the
    /// cycles one SIP column spends on a window from.
    pub(crate) fn cost_plane(&self, delta: bool) -> &[u32] {
        if delta {
            &self.delta_cost
        } else {
            &self.raw_cost
        }
    }

    /// Asserts that these planes were built at `cfg`'s synchronization
    /// group — the cost planes are meaningless at any other.
    pub(crate) fn check_group(&self, cfg: &AcceleratorConfig) {
        assert_eq!(
            self.g, cfg.terms_per_group,
            "term planes built at T{} priced at T{}",
            self.g, cfg.terms_per_group
        );
    }
}

/// The band count of a plane build through [`bands::count`]: it reads
/// `C·PH·PW` metric values.
fn build_bands(imap: &diffy_tensor::Tensor3<i16>, pad: usize) -> usize {
    let s = imap.shape();
    bands::count(s.c * (s.h + 2 * pad) * (s.w + 2 * pad))
}

impl Drop for PaddedTerms {
    /// Returns the plane buffers to the thread-local scratch pool so the
    /// next build (same thread, any geometry that fits) reuses resident
    /// pages instead of re-faulting fresh ones.
    fn drop(&mut self) {
        for plane in [
            &mut self.raw_sum,
            &mut self.delta_sum,
            &mut self.raw_cost,
            &mut self.delta_cost,
        ] {
            scratch::put_u32(std::mem::take(plane));
        }
    }
}

/// Shared prelude of both kernels: shapes, tiling, lane capacity.
struct KernelGeometry {
    out: diffy_tensor::Shape3,
    kh: usize,
    kw: usize,
    stride: usize,
    dilation: usize,
    passes: u64,
    spatial: u64,
}

fn kernel_geometry(trace: &LayerTrace, cfg: &AcceleratorConfig) -> KernelGeometry {
    assert!(cfg.windows > 0, "a tile needs at least one window column");
    let fshape = trace.fmaps.shape();
    let out = trace.out_shape();
    let (passes, spatial) =
        crate::report::tile_partition(out.c, out.h, cfg.filters_per_tile, cfg.tiles);
    KernelGeometry {
        out,
        kh: fshape.h,
        kw: fshape.w,
        stride: trace.geom.stride,
        dilation: trace.geom.dilation,
        passes,
        spatial,
    }
}

fn finish_layer(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    geo: &KernelGeometry,
    cycles_per_pass: u64,
    window_terms: u64,
) -> LayerCycles {
    let fshape = trace.fmaps.shape();
    // Sum of active filter rows across passes == K; idle rows in the last
    // pass are captured by total_slots.
    let active_filter_sum = geo.out.c as u64;
    let cycles = (cycles_per_pass * geo.passes).div_ceil(geo.spatial);
    let lane_capacity = (cfg.lanes * cfg.windows * cfg.filters_per_tile * cfg.tiles) as u64;
    let macs = (geo.out.c * geo.out.h * geo.out.w) as u64
        * (fshape.c * fshape.h * fshape.w) as u64;
    LayerCycles {
        cycles,
        useful_slots: window_terms * active_filter_sum,
        total_slots: cycles * lane_capacity,
        compute_events: window_terms * active_filter_sum,
        filter_passes: geo.passes,
        macs,
    }
}

/// Simulates one layer on the term-serial architecture.
///
/// Returns compute cycles and slot accounting (memory stalls are folded
/// in by the experiment runner, which owns the memory model). Builds the
/// layer's [`PaddedTerms`] at `cfg`'s synchronization group and
/// delegates to [`term_serial_layer_with_terms`]; callers evaluating
/// several modes or configurations on one trace should build the planes
/// once and share them.
pub fn term_serial_layer(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
) -> LayerCycles {
    let terms = PaddedTerms::for_layer_at(trace, cfg.terms_per_group);
    term_serial_layer_with_terms(trace, cfg, mode, &terms)
}

/// The optimized term-serial kernel over prebuilt term planes.
///
/// Bit-identical to [`term_serial_layer_reference`] (cycles,
/// `useful_slots`, `total_slots`, every field): per output row it sums
/// the same integers the reference reduces, precomputed per position —
/// about `Kh + Kw` vectorized adds per window at any stride and
/// dilation, versus the reference's `Kh·Kw·C` term fetches. Large
/// layers walk their output rows in row bands and merge the pallets
/// that straddle band boundaries.
///
/// # Panics
///
/// If `terms` was built at a group other than `cfg.terms_per_group`.
pub fn term_serial_layer_with_terms(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
    terms: &PaddedTerms,
) -> LayerCycles {
    term_serial_layer_in_bands(trace, cfg, mode, terms, walk_bands(trace, terms))
}

/// One row band's share of the term-serial walk.
#[derive(Default)]
struct PalletRun {
    /// The window terms of the band.
    terms: u64,
    /// The maximum of the band's windows in the pallet open when the
    /// band starts, when that pallet closes inside the band.
    head: Option<u32>,
    /// The cycles of the pallets that open and close inside the band.
    closed: u64,
    /// The maximum of the band's windows in the pallet still open when
    /// it ends: all of the band's windows when no pallet closes in it.
    tail: u32,
}

/// [`term_serial_layer_with_terms`] with the output rows walked in
/// `bands` row bands.
///
/// Pallets number the windows of the layer in row-major order, so a band
/// that starts at output row `oy0` starts at pallet fill
/// `(oy0·OW) mod windows`, inside a pallet the bands before it opened.
/// Each band prices its rows from that fill on, and a left-to-right fold
/// then closes every straddling pallet at the maximum of its windows on
/// both sides of each boundary it crosses, a pallet that spans several
/// bands included. The pallet boundaries and the integer maxima are
/// those of one sequential walk, so the cycles are exact.
pub(crate) fn term_serial_layer_in_bands(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
    terms: &PaddedTerms,
    bands: usize,
) -> LayerCycles {
    terms.check_group(cfg);
    let geo = kernel_geometry(trace, cfg);
    let delta = mode == ValueMode::Differential;

    // Windows are dispatched 16 (cfg.windows) at a time in row-major
    // order; the dispatcher packs pallets across row boundaries, so
    // narrow layers keep the full window-level parallelism.
    let runs = walk_rows(trace, terms, bands, |rows, oys| {
        let mut run = PalletRun::default();
        let mut fill = oys.start * geo.out.w % cfg.windows;
        let mut max: u32 = 0;
        for oy in oys {
            let row_sums = rows.row(oy, terms.sum_plane(delta), terms.sum_plane(false));
            run.terms += row_sums.iter().map(|&t| t as u64).sum::<u64>();
            // Top up the open pallet, then close every pallet the row fills.
            let mut rest = rows.row(oy, terms.cost_plane(delta), terms.cost_plane(false));
            while !rest.is_empty() {
                let (head, tail) = rest.split_at((cfg.windows - fill).min(rest.len()));
                max = head.iter().fold(max, |m, &c| m.max(c));
                fill += head.len();
                if fill == cfg.windows {
                    if run.head.is_some() {
                        run.closed += max as u64;
                    } else {
                        run.head = Some(max);
                    }
                    max = 0;
                    fill = 0;
                }
                rest = tail;
            }
        }
        run.tail = max;
        run
    });

    let (mut cycles_per_pass, mut window_terms) = (0u64, 0u64);
    // The maximum so far of the pallet open at the current band boundary.
    let mut open: u32 = 0;
    for run in runs {
        window_terms += run.terms;
        match run.head {
            Some(head) => {
                cycles_per_pass += open.max(head) as u64 + run.closed;
                open = run.tail;
            }
            None => open = open.max(run.tail),
        }
    }
    cycles_per_pass += open as u64;

    finish_layer(trace, cfg, &geo, cycles_per_pass, window_terms)
}

/// The original loop nest, kept as the cross-validation oracle and the
/// "before" side of the kernel benchmarks: per window it re-reduces
/// every `terms_per_group` lane group over all `Kh·Kw·C` term fetches,
/// counting each fetch's Booth terms from the zero-padded value or its
/// stride-distant delta. It shares no code with the plane builder.
/// Semantically authoritative; never used on the hot path.
pub fn term_serial_layer_reference(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
) -> LayerCycles {
    let ishape = trace.imap.shape();
    let g = cfg.terms_per_group;
    let geo = kernel_geometry(trace, cfg);
    let (pad, s, cn) = (trace.geom.pad, trace.geom.stride, ishape.c);
    let (ph, pw) = (ishape.h + 2 * pad, ishape.w + 2 * pad);
    let value = |c: usize, py: usize, px: usize| -> i16 {
        let inside = (pad..pad + ishape.h).contains(&py) && (pad..pad + ishape.w).contains(&px);
        if inside {
            *trace.imap.at(c, py - pad, px - pad)
        } else {
            0
        }
    };
    // Every padded position's Booth terms, channels fastest: of the raw
    // values and, for Diffy, of their stride-distant deltas. A column
    // `px < s` has no predecessor, so its delta is the value itself.
    let differential = mode == ValueMode::Differential;
    let mut raw = vec![0u8; ph * pw * cn];
    let mut deltas = vec![0u8; if differential { ph * pw * cn } else { 0 }];
    for c in 0..cn {
        for py in 0..ph {
            for px in 0..pw {
                let (at, v) = ((py * pw + px) * cn + c, value(c, py, px));
                raw[at] = booth_terms(v) as u8;
                if differential {
                    let prev = if px >= s { value(c, py, px - s) } else { 0 };
                    deltas[at] = booth_terms(v.wrapping_sub(prev)) as u8;
                }
            }
        }
    }

    let mut cycles_per_pass: u64 = 0;
    let mut window_terms: u64 = 0;

    let mut pallet_max: u64 = 0;
    let mut pallet_fill = 0usize;
    for oy in 0..geo.out.h {
        for ox in 0..geo.out.w {
            let terms = if differential && ox != 0 { &deltas } else { &raw };
            let mut col: u64 = 0;
            for j in 0..geo.kh {
                let py = oy * geo.stride + j * geo.dilation;
                for i in 0..geo.kw {
                    let px = ox * geo.stride + i * geo.dilation;
                    let at = (py * pw + px) * cn;
                    let mut c0 = 0usize;
                    while c0 < cn {
                        let c1 = (c0 + g).min(cn);
                        let mut mx = 0u32;
                        let mut sum = 0u32;
                        for &t in &terms[at + c0..at + c1] {
                            let t = t as u32;
                            if t > mx {
                                mx = t;
                            }
                            sum += t;
                        }
                        col += mx as u64;
                        window_terms += sum as u64;
                        c0 = c1;
                    }
                }
            }
            if col > pallet_max {
                pallet_max = col;
            }
            pallet_fill += 1;
            if pallet_fill == cfg.windows {
                cycles_per_pass += pallet_max;
                pallet_max = 0;
                pallet_fill = 0;
            }
        }
    }
    cycles_per_pass += pallet_max;

    finish_layer(trace, cfg, &geo, cycles_per_pass, window_terms)
}

/// The paper's profiled *selective* Diffy variant (§IV-A): apply
/// differential convolution per layer only where it wins, reverting to
/// raw (PRA) processing otherwise — the per-SIP DR multiplexer makes
/// this free in hardware. The paper found the overall gain "negligible
/// and below 1% at best"; this model lets that ablation be reproduced.
///
/// Builds each layer's [`PaddedTerms`] exactly once and shares it
/// between the raw and differential evaluations.
pub fn selective_network(trace: &NetworkTrace, cfg: &AcceleratorConfig) -> NetworkCycles {
    selective_network_with_terms(trace, cfg, |_, layer| {
        Arc::new(PaddedTerms::for_layer_at(layer, cfg.terms_per_group))
    })
}

/// [`selective_network`] over an external plane source: `terms_for(i,
/// layer)` is called **once per layer**, must return planes at `cfg`'s
/// synchronization group, and the result is reused for both value modes
/// (the sweep cache passes its per-layer memo here).
pub fn selective_network_with_terms<F>(
    trace: &NetworkTrace,
    cfg: &AcceleratorConfig,
    mut terms_for: F,
) -> NetworkCycles
where
    F: FnMut(usize, &LayerTrace) -> Arc<PaddedTerms>,
{
    NetworkCycles {
        arch: "Diffy-selective",
        layers: trace
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let terms = terms_for(i, l);
                let raw = term_serial_layer_with_terms(l, cfg, ValueMode::Raw, &terms);
                let diff = term_serial_layer_with_terms(l, cfg, ValueMode::Differential, &terms);
                if raw.cycles < diff.cycles {
                    raw
                } else {
                    diff
                }
            })
            .collect(),
    }
}

/// Simulates every layer of a network trace.
pub fn term_serial_network(
    trace: &NetworkTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
) -> NetworkCycles {
    term_serial_network_with_terms(trace, cfg, mode, |_, layer| {
        Arc::new(PaddedTerms::for_layer_at(layer, cfg.terms_per_group))
    })
}

/// [`term_serial_network`] over an external plane source: `terms_for(i,
/// layer)` supplies layer `i`'s [`PaddedTerms`] at `cfg`'s
/// synchronization group (typically a cache, so PRA, Diffy and the
/// selective ablation on one trace share one build per layer).
pub fn term_serial_network_with_terms<F>(
    trace: &NetworkTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
    mut terms_for: F,
) -> NetworkCycles
where
    F: FnMut(usize, &LayerTrace) -> Arc<PaddedTerms>,
{
    NetworkCycles {
        arch: match mode {
            ValueMode::Raw => Architecture::Pra,
            ValueMode::Differential => Architecture::Diffy,
        }
        .name(),
        layers: trace
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| term_serial_layer_with_terms(l, cfg, mode, &terms_for(i, l)))
            .collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};

    fn mk_trace(imap: Tensor3<i16>, k: usize, f: usize, geom: ConvGeometry) -> LayerTrace {
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

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::table4()
    }

    fn pseudo_imap(c: usize, h: usize, w: usize, salt: u64) -> Tensor3<i16> {
        let data: Vec<i16> = (0..c * h * w)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(salt) >> 41) as i16)
            .collect();
        Tensor3::from_vec(c, h, w, data)
    }

    fn assert_kernels_agree(t: &LayerTrace, cfg: &AcceleratorConfig, what: &str) {
        for mode in [ValueMode::Raw, ValueMode::Differential] {
            let opt = term_serial_layer(t, cfg, mode);
            let reference = term_serial_layer_reference(t, cfg, mode);
            assert_eq!(opt, reference, "{what} mode {mode:?}");
        }
    }

    #[test]
    fn zero_imap_costs_zero_compute_cycles() {
        let t = mk_trace(Tensor3::<i16>::new(16, 8, 8), 16, 3, ConvGeometry::same(3, 3));
        let r = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.useful_slots, 0);
    }

    #[test]
    fn constant_imap_is_free_for_diffy_after_first_window() {
        // All-7 imap: raw terms are 2 per value (7 = 8 - 1, two Booth
        // terms); deltas are all zero except the leftmost window of each
        // output row, which is processed raw.
        let t = mk_trace(Tensor3::<i16>::filled(16, 6, 33, 7), 16, 1, ConvGeometry::unit());
        let raw = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        let diff = term_serial_layer(&t, &cfg(), ValueMode::Differential);
        assert!(diff.cycles < raw.cycles);
        // 6 rows x 33 columns = 198 windows pack row-major into pallets
        // of 16; the six leftmost (raw) windows sit at indices 0, 33, …,
        // 165 and land in six *distinct* pallets, each of which costs
        // that window's terms(7) = 2 cycles (every other window in them
        // is all-zero deltas). Compute is therefore 6 x 2 = 12 cycles;
        // K = 16 fills one tile group, so the remaining 3 tiles split the
        // 6 output rows 4 ways spatially: ceil(12 / 4) = 3 cycles.
        assert_eq!(diff.cycles, (6 * 2u64).div_ceil(4));
    }

    #[test]
    fn diffy_equals_pra_on_uncorrelated_worst_case() {
        // A pathological imap alternating 0x5555 / 0 kills correlation:
        // diffy must not be (much) better, and both are bounded by 16
        // cycles per brick step worst case.
        let data: Vec<i16> = (0..16 * 4 * 32)
            .map(|i| if i % 2 == 0 { 0x5555 } else { 0 })
            .collect();
        let t = mk_trace(
            Tensor3::from_vec(16, 4, 32, data),
            16,
            1,
            ConvGeometry::unit(),
        );
        let raw = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        let diff = term_serial_layer(&t, &cfg(), ValueMode::Differential);
        // deltas of alternating +v/-v need at least as many terms.
        assert!(diff.cycles >= raw.cycles);
    }

    #[test]
    fn smooth_ramp_strongly_favours_diffy() {
        let data: Vec<i16> = (0..8 * 64).map(|i| 1000 + (i % 64) as i16 * 3).collect();
        let t = mk_trace(
            Tensor3::from_vec(1, 8, 64, data.clone()),
            16,
            3,
            ConvGeometry::same(3, 3),
        );
        let raw = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        let diff = term_serial_layer(&t, &cfg(), ValueMode::Differential);
        assert!(
            (diff.cycles as f64) < raw.cycles as f64 * 0.7,
            "diffy {} vs pra {}",
            diff.cycles,
            raw.cycles
        );
    }

    #[test]
    fn t1_serializes_but_improves_relative_speedup() {
        // A T_x configuration has x lanes per filter, so absolute cycles
        // grow as x shrinks — but the speedup over an equally-provisioned
        // VAA improves because cross-lane synchronization disappears
        // (Fig. 16: 7.1x at T16 becomes 11.9x at T1).
        let data: Vec<i16> = (0..16 * 4 * 20)
            .map(|i| ((i * 37) % 97) as i16)
            .collect();
        let t = mk_trace(Tensor3::from_vec(16, 4, 20, data), 8, 3, ConvGeometry::same(3, 3));
        let cfg16 = cfg();
        let mut cfg1 = cfg();
        cfg1.lanes = 1;
        cfg1.terms_per_group = 1;
        let term16 = term_serial_layer(&t, &cfg16, ValueMode::Raw);
        let term1 = term_serial_layer(&t, &cfg1, ValueMode::Raw);
        assert!(term1.cycles >= term16.cycles, "T1 must serialize");
        let vaa16 = crate::vaa::vaa_layer(&t, &cfg16);
        let vaa1 = crate::vaa::vaa_layer(&t, &cfg1);
        let speedup16 = vaa16.cycles as f64 / term16.cycles as f64;
        let speedup1 = vaa1.cycles as f64 / term1.cycles as f64;
        assert!(
            speedup1 > speedup16,
            "T1 speedup {speedup1} should beat T16 speedup {speedup16}"
        );
    }

    #[test]
    fn t1_reaches_per_window_term_totals() {
        // With T1 a column's cycles equal its total term count; with one
        // window per pallet... windows=16, so the pallet max still
        // applies. Use a single output column to isolate.
        let data: Vec<i16> = vec![3, 5, 9, 17];
        let t = mk_trace(Tensor3::from_vec(4, 1, 1, data), 1, 1, ConvGeometry::unit());
        let r = term_serial_layer(&t, &cfg().with_terms_per_group(1), ValueMode::Raw);
        // terms: 3->2, 5->2, 9->2, 17->2 = 8 total.
        assert_eq!(r.cycles, 8);
        let r16 = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        assert_eq!(r16.cycles, 2); // max over the 4 lanes in one group
    }

    #[test]
    fn filter_passes_multiply_cycles() {
        let data: Vec<i16> = (0..4 * 2 * 8).map(|i| (i % 13) as i16).collect();
        let base = mk_trace(
            Tensor3::from_vec(4, 2, 8, data.clone()),
            64,
            1,
            ConvGeometry::unit(),
        );
        let double = mk_trace(Tensor3::from_vec(4, 2, 8, data), 128, 1, ConvGeometry::unit());
        let a = term_serial_layer(&base, &cfg(), ValueMode::Raw);
        let b = term_serial_layer(&double, &cfg(), ValueMode::Raw);
        assert_eq!(a.filter_passes, 1);
        assert_eq!(b.filter_passes, 2);
        assert_eq!(b.cycles, 2 * a.cycles);
    }

    #[test]
    fn utilization_is_in_unit_interval_and_sane() {
        let data: Vec<i16> = (0..16 * 4 * 16).map(|i| (i % 251) as i16).collect();
        let t = mk_trace(Tensor3::from_vec(16, 4, 16, data), 64, 3, ConvGeometry::same(3, 3));
        let r = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        let u = r.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn three_channel_first_layer_has_low_utilization() {
        // The paper: "the first layer ... 13 out of the 16 available
        // activation lanes are typically idle".
        let data: Vec<i16> = (0..3 * 4 * 16).map(|i| (i % 251) as i16 + 1).collect();
        let t = mk_trace(Tensor3::from_vec(3, 4, 16, data), 64, 3, ConvGeometry::same(3, 3));
        let r = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        assert!(r.utilization() < 0.25, "got {}", r.utilization());
    }

    #[test]
    fn selective_never_loses_to_either_pure_mode() {
        let data: Vec<i16> = (0..8 * 4 * 20).map(|i| ((i * 91) % 509) as i16).collect();
        let t = mk_trace(Tensor3::from_vec(8, 4, 20, data), 8, 3, ConvGeometry::same(3, 3));
        let net = diffy_models::NetworkTrace {
            model: "m".into(),
            layers: vec![t],
            output: Tensor3::<i16>::new(1, 1, 1),
        };
        let c = cfg();
        let sel = crate::term_serial::selective_network(&net, &c).total_cycles();
        let raw = term_serial_network(&net, &c, ValueMode::Raw).total_cycles();
        let diff = term_serial_network(&net, &c, ValueMode::Differential).total_cycles();
        assert!(sel <= raw && sel <= diff);
        assert_eq!(sel, raw.min(diff));
    }

    #[test]
    fn strided_layers_use_stride_distant_deltas() {
        // Stride-2 constant imap: deltas at distance 2 are zero, so Diffy
        // still wins.
        let t = mk_trace(
            Tensor3::<i16>::filled(4, 4, 40, 21),
            8,
            3,
            ConvGeometry::strided(2, 1),
        );
        let raw = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        let diff = term_serial_layer(&t, &cfg(), ValueMode::Differential);
        assert!(diff.cycles < raw.cycles / 2);
    }

    #[test]
    fn optimized_matches_reference_on_basic_geometries() {
        for (c, h, w, k, f, geom, salt) in [
            (16, 8, 8, 16, 3, ConvGeometry::same(3, 3), 1u64),
            (3, 5, 17, 7, 3, ConvGeometry::same(3, 3), 2),
            (16, 6, 33, 16, 1, ConvGeometry::unit(), 3),
            (4, 9, 40, 8, 3, ConvGeometry::strided(2, 1), 4),
            (8, 11, 11, 8, 3, ConvGeometry::same_dilated(3, 2), 5),
            (1, 3, 24, 2, 1, ConvGeometry::unit(), 6),
        ] {
            let t = mk_trace(pseudo_imap(c, h, w, salt), k, f, geom);
            assert_kernels_agree(&t, &cfg(), &format!("salt {salt}"));
        }
    }

    #[test]
    fn optimized_matches_reference_with_combined_stride_and_dilation() {
        // Stride > 1 AND dilation > 1 in one geometry: the window-row
        // walk must sample rows and columns at the dilation and read
        // origins at the stride — exactly the positions the reference
        // visits.
        for (stride, dilation, pad) in [(2, 2, 2), (3, 2, 1), (2, 3, 3)] {
            let geom = ConvGeometry { stride, pad, dilation };
            let t = mk_trace(pseudo_imap(5, 14, 23, stride as u64 * 31 + dilation as u64), 8, 3, geom);
            assert!(t.out_shape().h > 0 && t.out_shape().w > 0, "degenerate geometry");
            assert_kernels_agree(&t, &cfg(), &format!("s{stride} d{dilation} p{pad}"));
            // Off-default synchronization groups, including one that does
            // not divide C = 5.
            for g in [1, 2, 3, 16] {
                let cfg_g = cfg().with_terms_per_group(g);
                assert_kernels_agree(&t, &cfg_g, &format!("s{stride} d{dilation} g{g}"));
            }
        }
    }

    /// Layers whose walks exercise the band merge: an output width that
    /// is no multiple of the 16-window pallet, a 5-column output whose
    /// pallets span four one-row bands, stride 2, dilation 2 and both.
    pub(crate) fn banded_walk_layers() -> Vec<LayerTrace> {
        [
            (5, 13, 37, ConvGeometry::same(3, 3)),
            (6, 17, 5, ConvGeometry::same(3, 3)),
            (4, 19, 40, ConvGeometry::strided(2, 1)),
            (3, 16, 21, ConvGeometry::same_dilated(3, 2)),
            (5, 14, 23, ConvGeometry { stride: 2, pad: 2, dilation: 2 }),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (c, h, w, geom))| mk_trace(pseudo_imap(c, h, w, 40 + i as u64), 8, 3, geom))
        .collect()
    }

    /// Band counts to compare against one band for `t`: two, three, one
    /// row per band, and more bands than rows.
    pub(crate) fn band_counts(t: &LayerTrace) -> [usize; 5] {
        let rows = t.out_shape().h;
        [2, 3, rows, rows + 1, 4 * rows]
    }

    #[test]
    fn banded_walk_matches_one_band_and_the_reference() {
        for t in banded_walk_layers() {
            assert!(t.out_shape().w % 16 != 0, "every layer leaves a partial pallet per row");
            for g in [1, 4, 16] {
                let cfg = cfg().with_terms_per_group(g);
                let terms = PaddedTerms::for_layer_at(&t, g);
                for mode in [ValueMode::Raw, ValueMode::Differential] {
                    let one = term_serial_layer_in_bands(&t, &cfg, mode, &terms, 1);
                    assert_eq!(one, term_serial_layer_reference(&t, &cfg, mode), "T{g} {mode:?}");
                    for bands in band_counts(&t) {
                        let banded = term_serial_layer_in_bands(&t, &cfg, mode, &terms, bands);
                        assert_eq!(banded, one, "{:?} T{g} {mode:?} {bands} bands", t.geom);
                    }
                }
            }
        }
    }

    #[test]
    fn a_pallet_spanning_several_bands_closes_once_at_its_maximum() {
        // One channel, 1x1 windows, 5 output columns: pallet 0 holds rows
        // 0–2 and the first column of row 3. A lone spike in row 1 is the
        // pallet's maximum; with one row per band, that pallet crosses
        // three band boundaries and the spike's band sees none of its
        // close.
        let mut imap = Tensor3::<i16>::filled(1, 8, 5, 1);
        *imap.at_mut(0, 1, 2) = 0x5555;
        let t = mk_trace(imap, 1, 1, ConvGeometry::unit());
        let terms = PaddedTerms::for_layer(&t);
        let one_tile = cfg().with_tiles(1);
        let walk = |bands| term_serial_layer_in_bands(&t, &one_tile, ValueMode::Raw, &terms, bands);
        // Pallets of 16 windows over 40: [0, 16), [16, 32), [32, 40). Only
        // the first holds the spike (8 terms); the others cost 1 each.
        assert_eq!(walk(1).cycles, 8 + 1 + 1);
        for bands in [2, 3, 8, 9] {
            assert_eq!(walk(bands), walk(1), "{bands} bands");
        }
    }

    /// The four planes of `terms`, in the order the builder writes them.
    fn planes(terms: &PaddedTerms) -> [&[u32]; 4] {
        let (sum, cost) = (|d| terms.sum_plane(d), |d| terms.cost_plane(d));
        [sum(false), sum(true), cost(false), cost(true)]
    }

    /// The four planes as a direct reduction of `metric` over the
    /// zero-padded values and their stride-distant deltas: per position,
    /// the channel sums and the sums of each `g`-channel chunk's maximum.
    fn direct_planes(
        imap: &Tensor3<i16>,
        pad: usize,
        stride: usize,
        g: usize,
        metric: fn(i16) -> u32,
    ) -> [Vec<u32>; 4] {
        let s = imap.shape();
        let (ph, pw) = (s.h + 2 * pad, s.w + 2 * pad);
        let value = |c: usize, py: usize, px: usize| -> i16 {
            let inside = (pad..pad + s.h).contains(&py) && (pad..pad + s.w).contains(&px);
            if inside {
                *imap.at(c, py - pad, px - pad)
            } else {
                0
            }
        };
        let mut out = [(); 4].map(|_| vec![0u32; ph * pw]);
        for py in 0..ph {
            for px in 0..pw {
                let at = py * pw + px;
                for c0 in (0..s.c).step_by(g) {
                    let (mut raw_max, mut delta_max) = (0, 0);
                    for c in c0..(c0 + g).min(s.c) {
                        let v = value(c, py, px);
                        let prev = if px >= stride { value(c, py, px - stride) } else { 0 };
                        let (raw, delta) = (metric(v), metric(v.wrapping_sub(prev)));
                        out[0][at] += raw;
                        out[1][at] += delta;
                        raw_max = raw_max.max(raw);
                        delta_max = delta_max.max(delta);
                    }
                    out[2][at] += raw_max;
                    out[3][at] += delta_max;
                }
            }
        }
        out
    }

    /// An imap whose rows cycle through `i16::MIN`, `i16::MAX`, −1 and 0:
    /// the extremes of both metrics, and deltas that wrap.
    fn extreme_imap(c: usize, h: usize, w: usize) -> Tensor3<i16> {
        let cycle = [i16::MIN, i16::MAX, -1, 0];
        Tensor3::from_vec(c, h, w, (0..c * h * w).map(|i| cycle[(i + i / w) % 4]).collect())
    }

    /// Asserts that the strip of every ISA this CPU runs, in one band or
    /// several, builds the planes of `direct_planes` under `metric`.
    fn assert_planes_match_direct(
        imap: &Tensor3<i16>,
        (pad, stride, g): (usize, usize, usize),
        (metric, scalar): (Metric, fn(i16) -> u32),
    ) {
        let s = imap.shape();
        let want = direct_planes(imap, pad, stride, g, scalar);
        let ph = s.h + 2 * pad;
        for &isa in Isa::available() {
            let src = PlaneSource { imap, pad, stride, g, metric, isa };
            for bands in [1, 2, 3, ph + 1] {
                let terms = PaddedTerms::build_in_bands(&src, bands);
                assert_eq!(terms.group(), g);
                assert_eq!(terms.padded_dims(), (ph, s.w + 2 * pad));
                for (k, (got, want)) in planes(&terms).iter().zip(&want).enumerate() {
                    assert!(
                        *got == &want[..],
                        "{metric:?} plane {k}: {isa:?} {s:?} g{g} s{stride} p{pad}, {bands} bands"
                    );
                }
            }
        }
    }

    /// Every build of every plane equals the direct reduction of the
    /// metric: both strips, sync groups from one lane to wider than the
    /// layer, channel counts that no group divides and C = 300, widths
    /// around the 16-lane strip, strides up to past the row, pads up to
    /// the row width, and rows of extremes beside pseudo-random ones.
    /// Width 30 at pad 1 puts an interior strip's last lane on the row's
    /// last value, and at pad 2 and stride 15 its first predecessor on
    /// the row's first value.
    fn assert_metric_planes_match_direct(metric: Metric, scalar: fn(i16) -> u32) {
        let shapes =
            [(1, 4, 9), (3, 3, 7), (17, 2, 6), (300, 2, 5), (2, 3, 1), (3, 2, 15), (4, 2, 16)]
                .into_iter()
                .chain([(5, 3, 17), (2, 2, 30), (2, 2, 33)]);
        for (c, h, w) in shapes {
            for imap in [pseudo_imap(c, h, w, c as u64 * 7 + w as u64), extreme_imap(c, h, w)] {
                for g in [1, 2, 4, 16, 64] {
                    for stride in [1, 2, 3, 15, w + 1] {
                        for pad in [0, 1, 2, w] {
                            assert_planes_match_direct(&imap, (pad, stride, g), (metric, scalar));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn planes_match_direct_reduction_of_booth_terms() {
        assert_metric_planes_match_direct(Metric::Booth, booth_terms);
    }

    #[test]
    fn planes_match_direct_reduction_of_stripes_bits() {
        assert_metric_planes_match_direct(Metric::Stripes, crate::stripes::stripes_bits);
    }

    #[test]
    fn lane_partials_widen_before_they_overflow() {
        // Rows alternating ±2^14 have precision 15 or 16 and deltas of
        // i16::MIN (precision 16), so 3·2048 + 3 channels sum past 2^16 at
        // every position: the strips must widen their partials mid-strip.
        let (c, w) = (3 * WIDEN_EVERY + 3, 18);
        let data = (0..c * w).map(|i| if i % 2 == 0 { 0x4000 } else { -0x4000 }).collect();
        let imap = Tensor3::from_vec(c, 1, w, data);
        for g in [1, 16, 3000] {
            assert_planes_match_direct(&imap, (1, 1, g), (Metric::Booth, booth_terms));
            let stripes = crate::stripes::stripes_bits;
            assert_planes_match_direct(&imap, (1, 1, g), (Metric::Stripes, stripes));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_lane_metrics_match_the_scalar_metrics_on_every_i16() {
        use std::arch::x86_64::*;
        if !Isa::available().iter().any(|isa| matches!(isa, Isa::Avx2 { .. })) {
            return;
        }
        fn lanes<M: LaneMetric>(values: &[i16]) -> Vec<u16> {
            let mut out = vec![0u16; values.len()];
            for (v, o) in values.chunks_exact(STRIP).zip(out.chunks_exact_mut(STRIP)) {
                // SAFETY: AVX2 was detected; both pointers cover 16 lanes.
                unsafe {
                    let counts = M::avx2(_mm256_loadu_si256(v.as_ptr() as *const __m256i));
                    _mm256_storeu_si256(o.as_mut_ptr() as *mut __m256i, counts);
                }
            }
            out
        }
        let all: Vec<i16> = (i16::MIN..=i16::MAX).collect();
        let booth: Vec<u16> = all.iter().map(|&v| BoothLanes::value(v)).collect();
        let stripes: Vec<u16> = all.iter().map(|&v| StripesLanes::value(v)).collect();
        assert_eq!(lanes::<BoothLanes>(&all), booth);
        assert_eq!(lanes::<StripesLanes>(&all), stripes);
        // Both stay within the bound the u16 partials are sized for.
        assert!(booth.iter().chain(&stripes).all(|&m| m <= 16));
    }

    #[test]
    fn public_builders_match_the_banded_build() {
        // `build` picks its own band count and strip; `for_layer` builds
        // at Table IV's T16, `for_layer_at` at the group it is given and
        // `build_on` on the strip it is given.
        let t = mk_trace(pseudo_imap(6, 9, 31, 5), 8, 3, ConvGeometry::same(3, 3));
        let src = |g, isa| PlaneSource {
            imap: &t.imap,
            pad: 1,
            stride: 1,
            g,
            metric: Metric::Booth,
            isa,
        };
        let one_band = PaddedTerms::build_in_bands(&src(16, Isa::Portable), 1);
        let default = PaddedTerms::for_layer(&t);
        assert_eq!(default.group(), 16);
        assert_eq!(planes(&default), planes(&one_band));
        for &isa in Isa::available() {
            assert!(PaddedTerms::build_on(&t.imap, 1, 1, 16, Metric::Booth, isa) == default);
        }
        let t4 = PaddedTerms::for_layer_at(&t, 4);
        assert_eq!(t4.group(), 4);
        assert_eq!(planes(&t4), planes(&PaddedTerms::build_in_bands(&src(4, Isa::detect()), 3)));
    }

    #[test]
    #[should_panic(expected = "term planes built at T4 priced at T16")]
    fn kernels_reject_planes_of_another_group() {
        let t = mk_trace(pseudo_imap(8, 6, 10, 9), 4, 3, ConvGeometry::same(3, 3));
        let terms = PaddedTerms::for_layer_at(&t, 4);
        term_serial_layer_with_terms(&t, &cfg(), ValueMode::Raw, &terms);
    }

    #[test]
    fn rebuilds_through_dirty_scratch_pool_are_bit_identical() {
        // The plane builder draws dirty recycled buffers from the
        // thread-local scratch pool. Build A, snapshot every plane value
        // and the window rows priced from them, then pollute the pool with
        // builds of *different* geometries (larger and smaller, padded and
        // unpadded) so a rebuild of A recycles truncated/extended buffers
        // full of stale data — it must reproduce the snapshot exactly,
        // border rows included, and equal the direct reduction.
        let t = mk_trace(pseudo_imap(6, 9, 31, 77), 8, 3, ConvGeometry::same(3, 3));
        let snapshot = |terms: &PaddedTerms| {
            let (ph, _) = terms.padded_dims();
            let mut vals: Vec<u32> = planes(terms).concat();
            for (kh, kw, d) in [(3, 3, 1), (1, 2, 1), (5, 5, 1), (3, 3, 2), (2, 3, 2)] {
                let mut rows = WindowRows::new(terms, kh, kw, 1, d);
                for oy in 0..=ph - ((kh - 1) * d + 1) {
                    for delta in [false, true] {
                        vals.extend_from_slice(rows.row(
                            oy,
                            terms.sum_plane(delta),
                            terms.sum_plane(false),
                        ));
                        vals.extend_from_slice(rows.row(
                            oy,
                            terms.cost_plane(delta),
                            terms.cost_plane(false),
                        ));
                    }
                }
            }
            vals
        };
        let first = snapshot(&PaddedTerms::for_layer_at(&t, 4));
        for (c, h, w, pad) in [(9, 14, 40, 2), (2, 3, 5, 0), (7, 9, 31, 1)] {
            drop(PaddedTerms::build(&pseudo_imap(c, h, w, 1000 + c as u64), pad, 1, 4));
        }
        let again = PaddedTerms::for_layer_at(&t, 4);
        assert_eq!(first, snapshot(&again), "recycled-buffer rebuild diverged");
        let direct = direct_planes(&t.imap, 1, 1, 4, booth_terms);
        assert_eq!(planes(&again).map(<[u32]>::to_vec), direct);
    }

    #[test]
    fn selective_with_terms_builds_once_per_layer() {
        let mk = |salt| mk_trace(pseudo_imap(6, 5, 18, salt), 8, 3, ConvGeometry::same(3, 3));
        let net = diffy_models::NetworkTrace {
            model: "m".into(),
            layers: vec![mk(1), mk(2), mk(3)],
            output: Tensor3::<i16>::new(1, 1, 1),
        };
        let mut builds = 0usize;
        let sel = selective_network_with_terms(&net, &cfg(), |_, layer| {
            builds += 1;
            Arc::new(PaddedTerms::for_layer(layer))
        });
        assert_eq!(builds, net.layers.len(), "one plane build per layer");
        assert_eq!(sel.total_cycles(), selective_network(&net, &cfg()).total_cycles());
    }

    #[test]
    fn network_with_terms_matches_per_layer_builds() {
        let mk = |salt| mk_trace(pseudo_imap(4, 6, 12, salt), 8, 3, ConvGeometry::same(3, 3));
        let net = diffy_models::NetworkTrace {
            model: "m".into(),
            layers: vec![mk(7), mk(8)],
            output: Tensor3::<i16>::new(1, 1, 1),
        };
        let shared: Vec<Arc<PaddedTerms>> = net
            .layers
            .iter()
            .map(|l| Arc::new(PaddedTerms::for_layer(l)))
            .collect();
        for mode in [ValueMode::Raw, ValueMode::Differential] {
            let fresh = term_serial_network(&net, &cfg(), mode);
            let cached = term_serial_network_with_terms(&net, &cfg(), mode, |i, _| {
                Arc::clone(&shared[i])
            });
            assert_eq!(fresh, cached);
        }
    }
}
