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
//! # Group-reduced term planes
//!
//! Every window that touches a padded position `(py, px)` pays the same
//! per-position price: the sum over `⌈C/g⌉` channel chunks of each
//! chunk's maximum term count (its synchronization cost), and the plain
//! channel sum (its slot/energy accounting). Both are pure functions of
//! the imap, so [`PaddedTerms`] precomputes them **once per layer**
//! instead of re-reducing `Kh·Kw·C` term fetches per window:
//!
//! * the per-channel raw/delta term planes (`u8`, as fetched by the
//!   reference loop nest);
//! * per-position channel-sum planes (`u32`);
//! * per-`g` [`GroupPlanes`] — the chunk-max reduction collapsed into a
//!   per-position cost plane (`u32`), memoized per synchronization group
//!   so `T_x` sweeps over one trace reuse the expensive Booth pass.
//!
//! The tile takes windows in output-row order (§III-D), so the kernels
//! price a whole output row of windows at a time: the `Kh` sampled plane
//! rows are summed column by column, then `Kw` sampled columns of that
//! sum give every window total of the row — two loops of independent
//! lanes, the same for every stride and dilation, with totals in `u32`.
//! The reference loop nest survives as [`term_serial_layer_reference`]
//! and the optimized kernel is cross-validated against it for exact
//! cycle/slot equality (unit tests, `crates/sim/tests/proptests.rs`,
//! `tests/tile_cross_validation.rs`).

use crate::config::AcceleratorConfig;
use crate::report::{LayerCycles, NetworkCycles};
use crate::scratch;
use diffy_encoding::{booth_terms_slice, delta_row_wrapping_into};
use diffy_models::{LayerTrace, NetworkTrace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Which value stream the SIP lanes consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueMode {
    /// Raw activations — the PRA baseline.
    Raw,
    /// Row-anchored deltas — Diffy.
    Differential,
}

/// Zero-padded per-element Booth-term counts for one imap — raw values
/// and their horizontal (stride-distant) deltas — plus the group-reduced
/// planes the optimized kernel reads.
///
/// Building one is the expensive, `O(C·PH·PW)` part of the term-serial
/// model; everything downstream ([`term_serial_layer_with_terms`],
/// [`selective_network`], [`crate::potential`]) reuses a shared build.
/// The experiment runner additionally keys these per layer in its sweep
/// cache so N architectures evaluated on one trace pay the build once.
pub struct PaddedTerms {
    c: usize,
    ph: usize,
    pw: usize,
    /// Per-channel raw term counts, one `ph × pw` plane per channel.
    ///
    /// One allocation per channel rather than a single `c × ph × pw`
    /// block on purpose: a full-HD 16-channel stream is ~33 MiB, past
    /// glibc's mmap-threshold cap, so a monolithic buffer is unmapped on
    /// every drop and every rebuild re-faults its pages from the kernel.
    /// Per-channel planes stay modest, and — together with every other
    /// buffer here — are recycled through the [`crate::scratch`] pool on
    /// drop, so repeated evaluations (the bench loop, the serve layer)
    /// reuse resident pages instead of paying ~20 ms of page faults per
    /// build, independent of the C allocator's adaptive thresholds.
    raw: Vec<Vec<u8>>,
    /// Per-channel delta term counts, same layout.
    delta: Vec<Vec<u8>>,
    /// Per-position channel sums of `raw` (`ph × pw`).
    raw_sum: Vec<u32>,
    /// Per-position channel sums of `delta`.
    delta_sum: Vec<u32>,
    /// Group-reduced cost planes, memoized per synchronization group `g`.
    grouped: Mutex<HashMap<usize, Arc<GroupPlanes>>>,
}

/// The group-reduced cost planes for one synchronization group size `g`:
/// per padded position, the sum over channel chunks of each chunk's
/// maximum term count — exactly the integer the reference loop nest
/// accumulates per `(j, i)` brick step — for both value streams.
pub struct GroupPlanes {
    g: usize,
    pw: usize,
    raw_cost: Vec<u32>,
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

/// Worker count for the plane builders (available parallelism; 1 when
/// the platform cannot report it). Queried from the OS exactly once —
/// `available_parallelism` reads cgroup/affinity state on every call,
/// which used to show up on every plane build.
fn parallelism() -> usize {
    static PAR: OnceLock<usize> = OnceLock::new();
    *PAR.get_or_init(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// Runs `fill(start, slice)` over contiguous position ranges of `out`,
/// fanning large planes out over scoped threads. Each position's value
/// depends only on that position, so any worker count (including the
/// serial path) produces identical planes.
fn fill_positions(out: &mut [u32], fill: impl Fn(usize, &mut [u32]) + Sync) {
    let len = out.len();
    let workers = parallelism();
    if workers > 1 && len >= PAR_BUILD_THRESHOLD {
        let per = len.div_ceil(workers);
        std::thread::scope(|scope| {
            for (t, chunk) in out.chunks_mut(per).enumerate() {
                let fill = &fill;
                scope.spawn(move || fill(t * per, chunk));
            }
        });
    } else {
        fill(0, out);
    }
}

/// Position-block size for the plane reductions: 4096 positions keep the
/// `u32` accumulator block (16 KiB) plus the `u8` scratch and source rows
/// L1-resident while the channel loop revisits them `C` times. The
/// previous channel-major sweeps streamed the entire (up to multi-MiB)
/// accumulator plane through cache once per channel.
const POS_BLOCK: usize = 4096;

/// Collapses per-channel term planes into per-position channel sums,
/// position-blocked: the outer loop walks `POS_BLOCK`-sized position
/// blocks, the inner loop walks channels, so each accumulator block is
/// loaded once and stays hot across all `c` passes. Writes every
/// position of `sum` (a dirty recycled buffer is safe).
fn channel_sum_into(terms: &[Vec<u8>], sum: &mut [u32]) {
    let c = terms.len();
    // With ≤256 channels the block sum fits `u16` (255 × 256 = 65280),
    // doubling the SIMD lane count of the accumulating adds; the final
    // widening to the `u32` plane is one pass over the hot block. Wider
    // layers fall back to accumulating in `u32` directly.
    let narrow = c <= 256;
    fill_positions(sum, |start, out| {
        let mut acc16 = [0u16; POS_BLOCK];
        for (b, blk) in out.chunks_mut(POS_BLOCK).enumerate() {
            let s0 = start + b * POS_BLOCK;
            let n = blk.len();
            if narrow {
                acc16[..n].fill(0);
                for plane in terms {
                    for (dst, &t) in acc16[..n].iter_mut().zip(&plane[s0..s0 + n]) {
                        *dst += t as u16;
                    }
                }
                for (dst, &t) in blk.iter_mut().zip(&acc16[..n]) {
                    *dst = t as u32;
                }
            } else {
                blk.fill(0);
                for plane in terms {
                    for (dst, &t) in blk.iter_mut().zip(&plane[s0..s0 + n]) {
                        *dst += t as u32;
                    }
                }
            }
        }
    });
}

/// Collapses per-channel term planes into the group-reduced cost plane:
/// per position, the sum over `⌈c/g⌉` chunks of the chunk maximum. Same
/// position-blocked structure as [`channel_sum_into`]; the branch-free
/// `max` lets the compiler vectorize the chunk reduction (`pmaxub`).
/// The first chunk assigns and later chunks accumulate, so every
/// position of `cost` is written (a dirty recycled buffer is safe).
fn group_cost_into(terms: &[Vec<u8>], g: usize, cost: &mut [u32]) {
    let c = terms.len();
    if c == 0 {
        cost.fill(0);
        return;
    }
    fill_positions(cost, |start, out| {
        let mut chunk_max = [0u8; POS_BLOCK];
        for (b, blk) in out.chunks_mut(POS_BLOCK).enumerate() {
            let s0 = start + b * POS_BLOCK;
            let n = blk.len();
            let mut c0 = 0usize;
            while c0 < c {
                let c1 = (c0 + g).min(c);
                chunk_max[..n].fill(0);
                for plane in &terms[c0..c1] {
                    for (m, &t) in chunk_max[..n].iter_mut().zip(&plane[s0..s0 + n]) {
                        *m = (*m).max(t);
                    }
                }
                if c0 == 0 {
                    for (dst, &m) in blk.iter_mut().zip(&chunk_max[..n]) {
                        *dst = m as u32;
                    }
                } else {
                    for (dst, &m) in blk.iter_mut().zip(&chunk_max[..n]) {
                        *dst += m as u32;
                    }
                }
                c0 = c1;
            }
        }
    });
}

/// A per-value plane metric lifted to whole rows: `metric(values, out)`
/// writes one `u8` per value. Term planes use the lane-parallel Booth
/// kernel; the Stripes model supplies a dynamic-precision metric. Must
/// map `0 → 0` (padded border rows stay at the plane's zero init) and
/// fit every result in `u8`.
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

/// Fills one channel's raw/delta metric planes (`ph × pw` each).
///
/// Interior rows are staged into a reusable padded row buffer, delta'd
/// in one fused streaming pass ([`delta_row_wrapping_into`]), and both
/// rows pushed through the lane-parallel metric kernel — whole-row slice
/// calls instead of two metric evaluations per element. Fully-padded
/// border rows are all-zero values with all-zero stride-distant
/// predecessors, so their metric stays at the plane's zero
/// initialization. Left/right padding of the scratch rows is written
/// once and never overwritten; only the interior span changes per row.
#[allow(clippy::too_many_arguments)]
fn fill_channel<M: RowMetric + ?Sized>(
    imap: &diffy_tensor::Tensor3<i16>,
    c: usize,
    pad: usize,
    stride: usize,
    pw: usize,
    padded_row: &mut [i16],
    delta_row: &mut [i16],
    raw: &mut [u8],
    delta: &mut [u8],
    metric: &M,
) {
    let h = imap.shape().h;
    for py in pad..pad + h {
        padded_row[pad..pad + imap.shape().w].copy_from_slice(imap.row(c, py - pad));
        delta_row_wrapping_into(padded_row, stride, delta_row);
        let base = py * pw;
        metric.apply(padded_row, &mut raw[base..base + pw]);
        metric.apply(delta_row, &mut delta[base..base + pw]);
    }
}

/// Plane size (elements) above which the builders fan channel fills and
/// plane reductions out over scoped threads. Small layers stay serial —
/// thread spawn costs more than the fill.
const PAR_BUILD_THRESHOLD: usize = 1 << 20;

impl PaddedTerms {
    /// Builds term counts for `imap` padded by `pad` on every spatial
    /// border, with deltas taken at distance `stride` along W.
    ///
    /// Large imaps fill their per-channel planes on scoped threads —
    /// channels are disjoint, so the parallel build is bit-identical to
    /// the serial one at any worker count.
    pub fn build(imap: &diffy_tensor::Tensor3<i16>, pad: usize, stride: usize) -> Self {
        Self::build_with_metric(imap, pad, stride, &booth_metric)
    }

    /// [`PaddedTerms::build`] under an arbitrary per-value plane metric —
    /// the machinery (padding, row delta, channel fan-out, channel sums,
    /// memoized group reductions) is metric-agnostic, so other cost
    /// models (e.g. the Stripes dynamic-precision planes) reuse it
    /// wholesale.
    pub fn build_with_metric<M: RowMetric + ?Sized>(
        imap: &diffy_tensor::Tensor3<i16>,
        pad: usize,
        stride: usize,
        metric: &M,
    ) -> Self {
        let s = imap.shape();
        let (ph, pw) = (s.h + 2 * pad, s.w + 2 * pad);
        let plane_len = ph * pw;
        // Pool-recycled buffers arrive dirty: the metric fill covers
        // every interior row in full (the scratch row carries the zero
        // left/right padding through the metric), so only the
        // fully-padded border rows need explicit zeroing.
        let border = pad * pw;
        let take_plane = || {
            let mut p = scratch::take_u8(plane_len);
            p[..border].fill(0);
            p[plane_len - border..].fill(0);
            p
        };
        let mut raw: Vec<Vec<u8>> = (0..s.c).map(|_| take_plane()).collect();
        let mut delta: Vec<Vec<u8>> = (0..s.c).map(|_| take_plane()).collect();
        let mut raw_sum = scratch::take_u32(plane_len);
        let mut delta_sum = scratch::take_u32(plane_len);
        let workers = parallelism().min(s.c);
        if workers > 1 && s.c * plane_len >= PAR_BUILD_THRESHOLD {
            let per = s.c.div_ceil(workers);
            std::thread::scope(|scope| {
                for (t, (raw_chunk, delta_chunk)) in
                    raw.chunks_mut(per).zip(delta.chunks_mut(per)).enumerate()
                {
                    let first = t * per;
                    scope.spawn(move || {
                        let mut padded_row = vec![0i16; pw];
                        let mut delta_row = vec![0i16; pw];
                        for (k, (r, d)) in
                            raw_chunk.iter_mut().zip(delta_chunk.iter_mut()).enumerate()
                        {
                            fill_channel(
                                imap,
                                first + k,
                                pad,
                                stride,
                                pw,
                                &mut padded_row,
                                &mut delta_row,
                                r,
                                d,
                                metric,
                            );
                        }
                    });
                }
            });
            channel_sum_into(&raw, &mut raw_sum);
            channel_sum_into(&delta, &mut delta_sum);
        } else {
            // Serial path: walk rows in the outer loop and channels in
            // the inner one, accumulating the channel sums while each
            // freshly computed metric row is still L1-resident — the
            // channel-major order (and the separate [`channel_sum`]
            // sweep the parallel path keeps) would re-stream all
            // `2·C·ph·pw` term bytes from memory. Both paths add the
            // same per-channel values in the same channel order, so the
            // sum planes are bit-identical. Border rows of the planes
            // are zeroed above (metric(0) = 0); the recycled sum
            // buffers get their border rows zeroed here and every
            // interior row either assigned (narrow) or zeroed before
            // accumulation (wide).
            raw_sum[..border].fill(0);
            raw_sum[plane_len - border..].fill(0);
            delta_sum[..border].fill(0);
            delta_sum[plane_len - border..].fill(0);
            let mut padded_row = vec![0i16; pw];
            let mut delta_row = vec![0i16; pw];
            let narrow = s.c <= 256;
            let mut acc_raw = vec![0u16; pw];
            let mut acc_delta = vec![0u16; pw];
            for py in pad..pad + s.h {
                let base = py * pw;
                if narrow {
                    acc_raw.fill(0);
                    acc_delta.fill(0);
                } else {
                    raw_sum[base..base + pw].fill(0);
                    delta_sum[base..base + pw].fill(0);
                }
                for ch in 0..s.c {
                    padded_row[pad..pad + s.w].copy_from_slice(imap.row(ch, py - pad));
                    delta_row_wrapping_into(&padded_row, stride, &mut delta_row);
                    let r = &mut raw[ch][base..base + pw];
                    let d = &mut delta[ch][base..base + pw];
                    metric.apply(&padded_row, r);
                    metric.apply(&delta_row, d);
                    if narrow {
                        for (a, &t) in acc_raw.iter_mut().zip(r.iter()) {
                            *a += t as u16;
                        }
                        for (a, &t) in acc_delta.iter_mut().zip(d.iter()) {
                            *a += t as u16;
                        }
                    } else {
                        for (a, &t) in raw_sum[base..base + pw].iter_mut().zip(r.iter()) {
                            *a += t as u32;
                        }
                        for (a, &t) in delta_sum[base..base + pw].iter_mut().zip(d.iter()) {
                            *a += t as u32;
                        }
                    }
                }
                if narrow {
                    for (dst, &a) in raw_sum[base..base + pw].iter_mut().zip(&acc_raw) {
                        *dst = a as u32;
                    }
                    for (dst, &a) in delta_sum[base..base + pw].iter_mut().zip(&acc_delta) {
                        *dst = a as u32;
                    }
                }
            }
        }
        Self {
            c: s.c,
            ph,
            pw,
            raw,
            delta,
            raw_sum,
            delta_sum,
            grouped: Mutex::new(HashMap::new()),
        }
    }

    /// Builds the planes a layer's geometry implies (`pad` and `stride`
    /// from the trace) — the one keying rule every consumer shares.
    pub fn for_layer(trace: &LayerTrace) -> Self {
        Self::build(&trace.imap, trace.geom.pad, trace.geom.stride)
    }

    /// Channel count of the underlying imap.
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Padded spatial extent `(ph, pw)`.
    pub fn padded_dims(&self) -> (usize, usize) {
        (self.ph, self.pw)
    }

    /// Raw term count at a padded position.
    #[inline]
    pub fn raw_at(&self, c: usize, py: usize, px: usize) -> u32 {
        debug_assert!(c < self.c && py < self.ph && px < self.pw);
        self.raw[c][py * self.pw + px] as u32
    }

    /// Delta term count at a padded position.
    #[inline]
    pub fn delta_at(&self, c: usize, py: usize, px: usize) -> u32 {
        debug_assert!(c < self.c && py < self.ph && px < self.pw);
        self.delta[c][py * self.pw + px] as u32
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

    /// The group-reduced cost planes for synchronization group `g`,
    /// computed once per `g` and shared by every subsequent caller
    /// (both value modes, the selective ablation, `T_x` sweeps).
    pub fn grouped(&self, g: usize) -> Arc<GroupPlanes> {
        assert!(g > 0, "synchronization group must be at least 1");
        let mut map = self.grouped.lock().expect("group plane memo poisoned");
        Arc::clone(map.entry(g).or_insert_with(|| {
            let plane_len = self.ph * self.pw;
            let mut raw_cost = scratch::take_u32(plane_len);
            let mut delta_cost = scratch::take_u32(plane_len);
            group_cost_into(&self.raw, g, &mut raw_cost);
            group_cost_into(&self.delta, g, &mut delta_cost);
            Arc::new(GroupPlanes { g, pw: self.pw, raw_cost, delta_cost })
        }))
    }
}

impl Drop for PaddedTerms {
    /// Returns the plane buffers to the thread-local scratch pool so the
    /// next build (same thread, any geometry that fits) reuses resident
    /// pages instead of re-faulting fresh ones. The memoized
    /// [`GroupPlanes`] recycle themselves when their last `Arc` drops.
    fn drop(&mut self) {
        for v in self.raw.drain(..).chain(self.delta.drain(..)) {
            scratch::put_u8(v);
        }
        scratch::put_u32(std::mem::take(&mut self.raw_sum));
        scratch::put_u32(std::mem::take(&mut self.delta_sum));
    }
}

impl Drop for GroupPlanes {
    /// Same recycling as [`PaddedTerms`] for the group-reduced planes.
    fn drop(&mut self) {
        scratch::put_u32(std::mem::take(&mut self.raw_cost));
        scratch::put_u32(std::mem::take(&mut self.delta_cost));
    }
}

impl GroupPlanes {
    /// The synchronization group these planes were reduced at.
    pub fn group(&self) -> usize {
        self.g
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

    /// Per-position cost at a padded position (test/diagnostic access).
    #[inline]
    pub fn cost_at(&self, delta: bool, py: usize, px: usize) -> u32 {
        self.cost_plane(delta)[py * self.pw + px]
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
/// layer's [`PaddedTerms`] and delegates to
/// [`term_serial_layer_with_terms`]; callers evaluating several modes or
/// configurations on one trace should build the planes once and share
/// them.
pub fn term_serial_layer(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
) -> LayerCycles {
    let terms = PaddedTerms::for_layer(trace);
    term_serial_layer_with_terms(trace, cfg, mode, &terms)
}

/// The optimized term-serial kernel over prebuilt term planes.
///
/// Bit-identical to [`term_serial_layer_reference`] (cycles,
/// `useful_slots`, `total_slots`, every field): per output row it sums
/// the same integers the reference reduces, precomputed per position —
/// about `Kh + Kw` vectorized adds per window at any stride and
/// dilation, versus the reference's `Kh·Kw·C` term fetches.
pub fn term_serial_layer_with_terms(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
    terms: &PaddedTerms,
) -> LayerCycles {
    let geo = kernel_geometry(trace, cfg);
    let grouped = terms.grouped(cfg.terms_per_group);
    let delta = mode == ValueMode::Differential;
    let mut rows = WindowRows::new(terms, geo.kh, geo.kw, geo.stride, geo.dilation);

    let mut cycles_per_pass: u64 = 0;
    let mut window_terms: u64 = 0;

    // Windows are dispatched 16 (cfg.windows) at a time in row-major
    // order; the dispatcher packs pallets across row boundaries, so
    // narrow layers keep the full window-level parallelism.
    let mut pallet_max: u32 = 0;
    let mut pallet_fill = 0usize;
    for oy in 0..geo.out.h {
        let row_sums = rows.row(oy, terms.sum_plane(delta), terms.sum_plane(false));
        window_terms += row_sums.iter().map(|&t| t as u64).sum::<u64>();
        // Top up the open pallet, then close every pallet the row fills.
        let mut rest = rows.row(oy, grouped.cost_plane(delta), grouped.cost_plane(false));
        while !rest.is_empty() {
            let (head, tail) = rest.split_at((cfg.windows - pallet_fill).min(rest.len()));
            pallet_max = head.iter().fold(pallet_max, |m, &c| m.max(c));
            pallet_fill += head.len();
            if pallet_fill == cfg.windows {
                cycles_per_pass += pallet_max as u64;
                pallet_max = 0;
                pallet_fill = 0;
            }
            rest = tail;
        }
    }
    cycles_per_pass += pallet_max as u64;

    finish_layer(trace, cfg, &geo, cycles_per_pass, window_terms)
}

/// The original loop nest, kept verbatim as the cross-validation oracle
/// and the "before" side of the kernel benchmarks: per window it
/// re-reduces every `terms_per_group` lane group over all `Kh·Kw·C` term
/// fetches. Semantically authoritative; never used on the hot path.
pub fn term_serial_layer_reference(
    trace: &LayerTrace,
    cfg: &AcceleratorConfig,
    mode: ValueMode,
) -> LayerCycles {
    let ishape = trace.imap.shape();
    let g = cfg.terms_per_group;
    let geo = kernel_geometry(trace, cfg);
    let terms = PaddedTerms::for_layer(trace);

    let mut cycles_per_pass: u64 = 0;
    let mut window_terms: u64 = 0;

    let mut pallet_max: u64 = 0;
    let mut pallet_fill = 0usize;
    for oy in 0..geo.out.h {
        for ox in 0..geo.out.w {
            let use_delta = mode == ValueMode::Differential && ox != 0;
            let mut col: u64 = 0;
            for j in 0..geo.kh {
                let py = oy * geo.stride + j * geo.dilation;
                for i in 0..geo.kw {
                    let px = ox * geo.stride + i * geo.dilation;
                    let mut c0 = 0usize;
                    while c0 < ishape.c {
                        let c1 = (c0 + g).min(ishape.c);
                        let mut mx = 0u32;
                        let mut sum = 0u32;
                        for c in c0..c1 {
                            let t = if use_delta {
                                terms.delta_at(c, py, px)
                            } else {
                                terms.raw_at(c, py, px)
                            };
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
    selective_network_with_terms(trace, cfg, |_, layer| Arc::new(PaddedTerms::for_layer(layer)))
}

/// [`selective_network`] over an external plane source: `terms_for(i,
/// layer)` is called **once per layer** and the result reused for both
/// value modes (the sweep cache passes its per-layer memo here).
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
        Arc::new(PaddedTerms::for_layer(layer))
    })
}

/// [`term_serial_network`] over an external plane source: `terms_for(i,
/// layer)` supplies layer `i`'s [`PaddedTerms`] (typically a cache, so
/// PRA, Diffy and the selective ablation on one trace share one build
/// per layer).
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
mod tests {
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

    #[test]
    fn rebuilds_through_dirty_scratch_pool_are_bit_identical() {
        // The plane builders draw dirty recycled buffers from the
        // thread-local scratch pool. Build A, snapshot every readable
        // plane value, then pollute the pool with builds of *different*
        // geometries (larger and smaller, padded and unpadded) so a
        // rebuild of A recycles truncated/extended buffers full of stale
        // data — it must reproduce the snapshot exactly, border rows
        // included.
        let t = mk_trace(pseudo_imap(6, 9, 31, 77), 8, 3, ConvGeometry::same(3, 3));
        let snapshot = |terms: &PaddedTerms| {
            let (ph, pw) = terms.padded_dims();
            let planes = terms.grouped(4);
            let mut vals = Vec::new();
            for py in 0..ph {
                for px in 0..pw {
                    for c in 0..terms.channels() {
                        vals.push(terms.raw_at(c, py, px));
                        vals.push(terms.delta_at(c, py, px));
                    }
                    for delta in [false, true] {
                        vals.push(planes.cost_at(delta, py, px));
                    }
                }
            }
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
                            planes.cost_plane(delta),
                            planes.cost_plane(false),
                        ));
                    }
                }
            }
            vals
        };
        let first = {
            let terms = PaddedTerms::for_layer(&t);
            snapshot(&terms)
        };
        for (c, h, w, pad) in [(9, 14, 40, 2), (2, 3, 5, 0), (7, 9, 31, 1)] {
            let big = PaddedTerms::build(&pseudo_imap(c, h, w, 1000 + c as u64), pad, 1);
            let _ = big.grouped(4);
            drop(big);
        }
        let again = {
            let terms = PaddedTerms::for_layer(&t);
            snapshot(&terms)
        };
        assert_eq!(first, again, "recycled-buffer rebuild diverged");
    }

    #[test]
    fn group_planes_are_memoized_per_group() {
        let t = mk_trace(pseudo_imap(8, 6, 10, 9), 4, 3, ConvGeometry::same(3, 3));
        let terms = PaddedTerms::for_layer(&t);
        let a = terms.grouped(4);
        let b = terms.grouped(4);
        assert!(Arc::ptr_eq(&a, &b), "same g must share one reduction");
        let c = terms.grouped(2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.group(), 4);
        assert_eq!(c.group(), 2);
    }

    #[test]
    fn group_cost_plane_matches_direct_reduction() {
        let t = mk_trace(pseudo_imap(5, 4, 6, 11), 4, 1, ConvGeometry::unit());
        let terms = PaddedTerms::for_layer(&t);
        let g = 2;
        let planes = terms.grouped(g);
        let (ph, pw) = terms.padded_dims();
        for py in 0..ph {
            for px in 0..pw {
                for delta in [false, true] {
                    let mut expect = 0u32;
                    let mut c0 = 0;
                    while c0 < terms.channels() {
                        let c1 = (c0 + g).min(terms.channels());
                        let mut mx = 0;
                        for c in c0..c1 {
                            let v = if delta {
                                terms.delta_at(c, py, px)
                            } else {
                                terms.raw_at(c, py, px)
                            };
                            mx = mx.max(v);
                        }
                        expect += mx;
                        c0 = c1;
                    }
                    assert_eq!(planes.cost_at(delta, py, px), expect, "({py},{px}) d={delta}");
                }
            }
        }
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
