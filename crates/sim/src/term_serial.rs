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
//! delta costs — in one pass over the padded rows. Within a row each
//! channel is staged, run through the metric into two `u8` rows that stay
//! in L1, and folded into the row's sums and chunk maxima; no
//! per-channel plane is ever stored, so each imap crosses DRAM once.
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

use crate::config::AcceleratorConfig;
use crate::report::{LayerCycles, NetworkCycles};
use crate::scratch;
use diffy_encoding::{booth_terms, booth_terms_slice, delta_row_wrapping_into};
use diffy_models::{LayerTrace, NetworkTrace};
use diffy_tensor::bands;
use std::ops::{Add, Range};
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
    /// `255·C` (a `u8` metric summed, or chunk-maximized and summed, over
    /// `C` channels), so a window total is at most `kh·kw·255·C`.
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

/// A per-value plane metric lifted to whole rows: `metric(values, out)`
/// writes one `u8` per value. Term planes use the lane-parallel Booth
/// kernel; the Stripes model supplies a dynamic-precision metric. Must
/// map `0 → 0` (fully padded border rows are written as zeros without
/// running the metric) and fit every result in `u8`.
pub trait RowMetric: Sync {
    /// Computes the metric of each value in `values` into `out`
    /// (equal lengths).
    fn apply(&self, values: &[i16], out: &mut [u8]);
}

impl<F: Fn(&[i16], &mut [u8]) + Sync> RowMetric for F {
    fn apply(&self, values: &[i16], out: &mut [u8]) {
        self(values, out)
    }
}

/// The Booth effectual-term metric — the lane-parallel closed-form
/// kernel, dispatched per CPU (AVX2 / SSE2 / SWAR) and bit-identical to
/// the scalar `booth_terms` on every path.
fn booth_metric(values: &[i16], out: &mut [u8]) {
    booth_terms_slice(values, out);
}

/// A row accumulator lane of the plane build: `u16` while every sum fits
/// (`255·256 < 2^16`, so up to 256 channels), `u32` above.
trait Lane: Copy + Default + From<u8> + Add<Output = Self> + Into<u32> {}

impl<T: Copy + Default + From<u8> + Add<Output = T> + Into<u32>> Lane for T {}

#[inline(always)]
fn add_row<A: Lane>(acc: &mut [A], terms: &[u8]) {
    for (a, &t) in acc.iter_mut().zip(terms) {
        *a = *a + A::from(t);
    }
}

/// One value stream's state while the builder walks a padded row: the
/// metric row of the channel in flight, the running maximum of the open
/// `g`-channel chunk, and the row's channel-sum and chunk-cost
/// accumulators. Every buffer is one padded row long, so the whole state
/// of both streams stays in L1.
struct StreamRow<A> {
    terms: Vec<u8>,
    max: Vec<u8>,
    sum: Vec<A>,
    cost: Vec<A>,
}

impl<A: Lane> StreamRow<A> {
    fn new(pw: usize) -> Self {
        let zero = A::default();
        Self { terms: vec![0; pw], max: vec![0; pw], sum: vec![zero; pw], cost: vec![zero; pw] }
    }

    #[inline(always)]
    fn start_row(&mut self) {
        self.sum.fill(A::default());
        self.cost.fill(A::default());
    }

    /// Folds the channel in `terms` into the row: its sum, and the
    /// maximum of its chunk, which `first` opens and `last` closes into
    /// the cost. A one-channel chunk adds its terms directly.
    #[inline(always)]
    fn fold(&mut self, first: bool, last: bool) {
        add_row(&mut self.sum, &self.terms);
        match (first, last) {
            (true, true) => add_row(&mut self.cost, &self.terms),
            (true, false) => self.max.copy_from_slice(&self.terms),
            (false, _) => {
                for (m, &t) in self.max.iter_mut().zip(&self.terms) {
                    *m = (*m).max(t);
                }
                if last {
                    add_row(&mut self.cost, &self.max);
                }
            }
        }
    }

    #[inline(always)]
    fn finish_row(&self, sum: &mut [u32], cost: &mut [u32]) {
        for (dst, &a) in sum.iter_mut().zip(&self.sum) {
            *dst = a.into();
        }
        for (dst, &a) in cost.iter_mut().zip(&self.cost) {
            *dst = a.into();
        }
    }
}

/// What one plane build reads: the imap, its padding and delta stride,
/// the synchronization group and the metric.
struct PlaneSource<'a, M: ?Sized> {
    imap: &'a diffy_tensor::Tensor3<i16>,
    pad: usize,
    stride: usize,
    g: usize,
    metric: &'a M,
}

/// One band of the four output planes: `[raw sum, delta sum, raw cost,
/// delta cost]`, the same padded rows of each.
type Band<'p> = [&'p mut [u32]; 4];

impl<M: RowMetric + ?Sized> PlaneSource<'_, M> {
    /// Fills one band whose first padded row is `py0`, with the AVX2
    /// build of the row loop when the CPU has it.
    fn band(&self, py0: usize, out: Band<'_>) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected at runtime.
            return unsafe { self.band_avx2(py0, out) };
        }
        self.band_rows(py0, out)
    }

    /// The row loop compiled for AVX2: the same code, with its sums and
    /// maxima vectorized in 256-bit registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn band_avx2(&self, py0: usize, out: Band<'_>) {
        self.band_rows(py0, out)
    }

    #[inline(always)]
    fn band_rows(&self, py0: usize, out: Band<'_>) {
        if self.imap.shape().c <= 256 {
            self.rows::<u16>(py0, out)
        } else {
            self.rows::<u32>(py0, out)
        }
    }

    /// Walks the band's padded rows. A fully padded row is all zeros; an
    /// interior row stages each channel's values and stride deltas, runs
    /// the metric into the two streams' `u8` rows and folds them in, then
    /// writes the row of all four planes.
    #[inline(always)]
    fn rows<A: Lane>(&self, py0: usize, [raw_sum, delta_sum, raw_cost, delta_cost]: Band<'_>) {
        let s = self.imap.shape();
        let (pad, g) = (self.pad, self.g);
        let pw = s.w + 2 * pad;
        let mut values = vec![0i16; pw];
        let mut deltas = vec![0i16; pw];
        let mut raw = StreamRow::<A>::new(pw);
        let mut delta = StreamRow::<A>::new(pw);
        let planes = raw_sum
            .chunks_exact_mut(pw)
            .zip(delta_sum.chunks_exact_mut(pw))
            .zip(raw_cost.chunks_exact_mut(pw).zip(delta_cost.chunks_exact_mut(pw)));
        for (k, ((rs, ds), (rc, dc))) in planes.enumerate() {
            let py = py0 + k;
            if py < pad || py >= pad + s.h {
                for row in [rs, ds, rc, dc] {
                    row.fill(0);
                }
                continue;
            }
            raw.start_row();
            delta.start_row();
            for ch in 0..s.c {
                values[pad..pad + s.w].copy_from_slice(self.imap.row(ch, py - pad));
                delta_row_wrapping_into(&values, self.stride, &mut deltas);
                self.metric.apply(&values, &mut raw.terms);
                self.metric.apply(&deltas, &mut delta.terms);
                let (first, last) = (ch % g == 0, ch % g == g - 1 || ch + 1 == s.c);
                raw.fold(first, last);
                delta.fold(first, last);
            }
            raw.finish_row(rs, rc);
            delta.finish_row(ds, dc);
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
        Self::build_with_metric(imap, pad, stride, g, &booth_metric)
    }

    /// [`PaddedTerms::build`] under an arbitrary per-value plane metric —
    /// the machinery (padding, row delta, channel sums, chunk maxima, row
    /// bands) is metric-agnostic, so other cost models (e.g. the Stripes
    /// dynamic-precision planes) reuse it wholesale.
    ///
    /// The padded rows split into row bands ([`bands::count`] over the
    /// `C·PH·PW` metric values the build reads). Every row depends only
    /// on its own imap rows, so any band count builds identical planes.
    pub fn build_with_metric<M: RowMetric + ?Sized>(
        imap: &diffy_tensor::Tensor3<i16>,
        pad: usize,
        stride: usize,
        g: usize,
        metric: &M,
    ) -> Self {
        let s = imap.shape();
        let bands = bands::count(s.c * (s.h + 2 * pad) * (s.w + 2 * pad));
        Self::build_in_bands(&PlaneSource { imap, pad, stride, g, metric }, bands)
    }

    /// The one plane build: the padded rows split into `bands`
    /// contiguous bands of [`bands::rows_per`] rows, each band writing
    /// its own rows of the four planes.
    fn build_in_bands<M: RowMetric + ?Sized>(src: &PlaneSource<'_, M>, bands: usize) -> Self {
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
            ValueMode::Raw => "PRA",
            ValueMode::Differential => "Diffy",
        },
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

    /// The four planes as a direct reduction of `booth_terms` over the
    /// zero-padded values and their stride-distant deltas: per position,
    /// the channel sums and the sums of each `g`-channel chunk's maximum.
    fn direct_planes(imap: &Tensor3<i16>, pad: usize, stride: usize, g: usize) -> [Vec<u32>; 4] {
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
                        let (raw, delta) = (booth_terms(v), booth_terms(v.wrapping_sub(prev)));
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

    #[test]
    fn planes_match_direct_reduction_of_booth_terms() {
        // Every plane of every build, one band or several, equals the
        // reduction of the per-value Booth terms: sync groups from one
        // lane to wider than the layer, channel counts that no group
        // divides and one past the u16 accumulator bound (300 > 256),
        // strides up to 3 and pads up to 2.
        for (c, h, w) in [(1, 4, 9), (3, 3, 7), (17, 2, 6), (300, 2, 5)] {
            let imap = pseudo_imap(c, h, w, c as u64 * 7 + 1);
            for g in [1, 2, 4, 16, 64] {
                for stride in 1..=3 {
                    for pad in 0..=2 {
                        let want = direct_planes(&imap, pad, stride, g);
                        let metric = &booth_metric;
                        let src = PlaneSource { imap: &imap, pad, stride, g, metric };
                        let ph = h + 2 * pad;
                        for bands in [1, 2, 3, ph + 1] {
                            let terms = PaddedTerms::build_in_bands(&src, bands);
                            assert_eq!(terms.group(), g);
                            assert_eq!(terms.padded_dims(), (ph, w + 2 * pad));
                            for (k, (got, want)) in planes(&terms).iter().zip(&want).enumerate() {
                                assert_eq!(
                                    *got,
                                    &want[..],
                                    "plane {k}: C{c} g{g} s{stride} p{pad} {bands} bands"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn public_builders_match_the_banded_build() {
        // `build` picks its own band count; `for_layer` builds at Table
        // IV's T16 and `for_layer_at` at the group it is given.
        let t = mk_trace(pseudo_imap(6, 9, 31, 5), 8, 3, ConvGeometry::same(3, 3));
        let src = |g| PlaneSource { imap: &t.imap, pad: 1, stride: 1, g, metric: &booth_metric };
        let one_band = PaddedTerms::build_in_bands(&src(16), 1);
        let default = PaddedTerms::for_layer(&t);
        assert_eq!(default.group(), 16);
        assert_eq!(planes(&default), planes(&one_band));
        let t4 = PaddedTerms::for_layer_at(&t, 4);
        assert_eq!(t4.group(), 4);
        assert_eq!(planes(&t4), planes(&PaddedTerms::build_in_bands(&src(4), 3)));
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
        assert_eq!(planes(&again).map(<[u32]>::to_vec), direct_planes(&t.imap, 1, 1, 4));
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
