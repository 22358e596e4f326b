//! Convolution kernels: the direct (sliding-window) reference
//! [`conv2d`], an im2col cross-check, and the output-stationary SIMD
//! kernel [`conv2d_fast`] the inference engine runs. All three return the
//! same exact `i64` accumulators.
//!
//! The reference implements Eq. (1) of the paper exactly:
//!
//! ```text
//! o(n,y,x) = Σ_k Σ_j Σ_i w^n(k,j,i) · a(k, j + y·S, i + x·S)
//! ```
//!
//! with zero padding and dilation generalizations. Accumulation is in `i64`
//! so results are exact for any 16-bit operands; [`requantize`] maps the wide
//! accumulator back into the 16-bit activation domain the way a hardware
//! output stage would (arithmetic shift + saturation).

use crate::fixed::sat16;
use crate::isa::Isa;
use crate::shape::ConvGeometry;
use crate::tensor::{Tensor3, Tensor4};

/// Computes a convolutional layer with exact 64-bit accumulation.
///
/// `bias`, when provided, must have one entry per filter and is added to
/// every output of that filter *before* requantization (it is expressed in
/// accumulator units, i.e. already scaled by the product of the input and
/// weight scales).
///
/// Returns the raw accumulator omap (`K × Ho × Wo`).
///
/// # Panics
///
/// Panics if the channel counts of `imap` and `fmaps` disagree, or if `bias`
/// is present with a length other than `K`.
///
/// # Example
///
/// ```
/// use diffy_tensor::{Tensor3, Tensor4, ConvGeometry, conv::conv2d};
/// let imap = Tensor3::from_vec(1, 1, 3, vec![1i16, 2, 3]);
/// let fmaps = Tensor4::from_vec(1, 1, 1, 2, vec![1i16, 1]);
/// let o = conv2d(&imap, &fmaps, None, ConvGeometry::unit());
/// assert_eq!(o.as_slice(), &[3, 5]);
/// ```
pub fn conv2d(
    imap: &Tensor3<i16>,
    fmaps: &Tensor4<i16>,
    bias: Option<&[i64]>,
    geom: ConvGeometry,
) -> Tensor3<i64> {
    let ishape = imap.shape();
    let fshape = fmaps.shape();
    assert_eq!(ishape.c, fshape.c, "channel mismatch: imap {} vs fmaps {}", ishape.c, fshape.c);
    if let Some(b) = bias {
        assert_eq!(b.len(), fshape.k, "bias length {} != filters {}", b.len(), fshape.k);
    }
    let oshape = geom.out_shape(ishape, fshape);
    let mut omap = Tensor3::<i64>::new(oshape.c, oshape.h, oshape.w);

    let pad = geom.pad as isize;
    let stride = geom.stride as isize;
    let dil = geom.dilation as isize;

    for n in 0..fshape.k {
        let b = bias.map(|b| b[n]).unwrap_or(0);
        for oy in 0..oshape.h {
            for ox in 0..oshape.w {
                let base_y = oy as isize * stride - pad;
                let base_x = ox as isize * stride - pad;
                let mut acc: i64 = b;
                for c in 0..fshape.c {
                    for j in 0..fshape.h {
                        let iy = base_y + j as isize * dil;
                        if iy < 0 || iy as usize >= ishape.h {
                            continue;
                        }
                        let row = imap.row(c, iy as usize);
                        for i in 0..fshape.w {
                            let ix = base_x + i as isize * dil;
                            if ix < 0 || ix as usize >= ishape.w {
                                continue;
                            }
                            let w = *fmaps.at(n, c, j, i) as i64;
                            let a = row[ix as usize] as i64;
                            acc += w * a;
                        }
                    }
                }
                *omap.at_mut(n, oy, ox) = acc;
            }
        }
    }
    omap
}

/// Output columns per strip: sixteen 16-bit activations fill one AVX2
/// register.
const STRIP: usize = 16;
/// Filters per output-stationary block.
const BLOCK_K: usize = 4;

/// The i64 outputs of one block: `BLOCK_K` filters × `STRIP` columns.
type Block = [[i64; STRIP]; BLOCK_K];

/// Consecutive pairs `start..end` of the layer's pair order.
type Run = [u16; 2];

/// Two filter taps fused into one multiply-add step: where each tap's
/// activation strip starts, relative to the block's base in the padded
/// imap, and the block's weights for both taps, one `i32` per filter
/// packing the first tap's weight in the low half and the second's in
/// the high half (the operand layout of `pmaddwd`).
#[derive(Debug, Clone, Copy)]
struct TapPair {
    off: [usize; 2],
    w: [i32; BLOCK_K],
}

/// A layer's weights re-laid out for the strip kernels: the taps that
/// are nonzero in some filter, taken in pairs in one order for the whole
/// layer and cut into segments whose i32 partial sums cannot overflow,
/// and each block of `BLOCK_K` filters' weights for those pairs.
struct ConvPlan {
    /// Pairs in the layer's order.
    npairs: usize,
    /// Block `kb`'s pairs are `pairs[kb * npairs..][..npairs]`; every
    /// block holds the same offsets in the same order.
    pairs: Vec<TapPair>,
    /// Pair range of each segment.
    segments: Vec<std::ops::Range<usize>>,
}

impl ConvPlan {
    /// Builds the plan for `fmaps` over a padded imap whose largest
    /// magnitude is `amax`. `tap_off(c, j, i)` locates tap `(j, i)` of
    /// channel `c` in the padded imap.
    ///
    /// A segment grows while `Σ max_n |w_n| · amax` over its taps, the
    /// maximum taken over all the layer's filters, stays at most
    /// `i32::MAX`; that sum bounds every partial sum of every output, so
    /// each segment's i32 total is exact. One tap alone is at most
    /// `2^15 · 2^15 = 2^30`, so every segment holds at least one tap; an
    /// odd tap out gets a zero-weight partner.
    fn new(
        fmaps: &Tensor4<i16>,
        amax: u64,
        tap_off: impl Fn(usize, usize, usize) -> usize,
    ) -> Self {
        let fs = fmaps.shape();
        // The pair order as tap indices into a filter; a `None` partner
        // has weight zero and reads the first tap's strip.
        let mut order: Vec<(usize, Option<usize>)> = Vec::new();
        let mut segments = Vec::new();
        let mut pending = None;
        let mut budget = 0u64;
        let mut tap_max = vec![0u16; fs.c * fs.h * fs.w];
        for n in 0..fs.k {
            for (m, w) in tap_max.iter_mut().zip(fmaps.filter(n)) {
                *m = (*m).max(w.unsigned_abs());
            }
        }
        for (t, &wmax) in tap_max.iter().enumerate() {
            if wmax == 0 {
                continue;
            }
            let cost = wmax as u64 * amax;
            if budget + cost > i32::MAX as u64 {
                close_segment(&mut order, &mut pending, &mut segments);
                budget = 0;
            }
            budget += cost;
            match pending.take() {
                None => pending = Some(t),
                Some(first) => order.push((first, Some(t))),
            }
        }
        close_segment(&mut order, &mut pending, &mut segments);

        let off = |t: usize| tap_off(t / (fs.h * fs.w), t / fs.w % fs.h, t % fs.w);
        let offs: Vec<[usize; 2]> = order
            .iter()
            .map(|&(a, b)| [off(a), b.map_or(off(a), off)])
            .collect();
        let mut pairs = Vec::with_capacity(fs.k.div_ceil(BLOCK_K) * order.len());
        for k0 in (0..fs.k).step_by(BLOCK_K) {
            let w = |t: Option<usize>| -> [i16; BLOCK_K] {
                std::array::from_fn(|f| match t {
                    Some(t) if k0 + f < fs.k => fmaps.filter(k0 + f)[t],
                    _ => 0,
                })
            };
            for (&(a, b), &[oa, ob]) in order.iter().zip(&offs) {
                pairs.push(TapPair::new((oa, w(Some(a))), (ob, w(b))));
            }
        }
        ConvPlan { npairs: order.len(), pairs, segments }
    }

    /// Block `kb`'s pairs in the layer's order.
    fn block(&self, kb: usize) -> &[TapPair] {
        &self.pairs[kb * self.npairs..][..self.npairs]
    }

    /// Largest strip offset of any pair.
    fn max_off(&self) -> usize {
        self.pairs.iter().flat_map(|p| p.off).max().unwrap_or(0)
    }
}

/// Ends the open segment of `order`, pairing an odd tap out with a
/// zero-weight partner.
fn close_segment(
    order: &mut Vec<(usize, Option<usize>)>,
    pending: &mut Option<usize>,
    segments: &mut Vec<std::ops::Range<usize>>,
) {
    if let Some(first) = pending.take() {
        order.push((first, None));
    }
    let start = segments.last().map_or(0, |s| s.end);
    if order.len() > start {
        segments.push(start..order.len());
    }
}

impl TapPair {
    fn new((off_a, wa): (usize, [i16; BLOCK_K]), (off_b, wb): (usize, [i16; BLOCK_K])) -> Self {
        let mut w = [0i32; BLOCK_K];
        for (f, v) in w.iter_mut().enumerate() {
            *v = (wa[f] as u16 as u32 | (wb[f] as u16 as u32) << 16) as i32;
        }
        TapPair { off: [off_a, off_b], w }
    }
}

/// A layer laid out for the strip kernels: the padded imap, the plan,
/// and the runs of pairs each (output row, strip, segment) computes.
struct StripLayout {
    /// The imap, zero-padded, each padded row split into `stride`
    /// column phases of `wq` positions: padded column `x` lives in phase
    /// `x % S` at position `x / S`.
    act: Vec<i16>,
    plan: ConvPlan,
    /// The maximal runs of consecutive pairs of which some tap reads a
    /// window holding a nonzero value. Every other pair's products are
    /// all zero.
    runs: Vec<Run>,
    /// List `(oy · strips + sx) · segments + g` is
    /// `runs[heads[list]..heads[list + 1]]`.
    heads: Vec<usize>,
    /// Elements per padded row, all its phases.
    row_len: usize,
    strips: usize,
}

impl StripLayout {
    /// Lays out a layer whose output is not empty.
    fn new(imap: &Tensor3<i16>, fmaps: &Tensor4<i16>, geom: ConvGeometry) -> Self {
        let (ishape, fw) = (imap.shape(), fmaps.shape().w);
        let oshape = geom.out_shape(ishape, fmaps.shape());
        let (s, d, pad) = (geom.stride, geom.dilation, geom.pad);
        let strips = oshape.w.div_ceil(STRIP);
        // Padded rows, and positions per phase: enough that the last
        // strip of the widest tap offset stays inside its phase row. A
        // strip's window in one phase row is the `STRIP + reach`
        // positions its taps read.
        let hp = ishape.h + 2 * pad;
        let reach = fw.saturating_sub(1) * d / s;
        let wq = strips * STRIP + reach;
        let row_len = s * wq;

        // `live[r * strips + sx]`: strip `sx`'s window in phase row `r`
        // holds a nonzero value. Padding rows stay zero and dead.
        let mut act = vec![0i16; ishape.c * hp * row_len];
        let mut live = vec![false; ishape.c * hp * s * strips];
        let mut amax = 0u64;
        for c in 0..ishape.c {
            for y in 0..ishape.h {
                let src = imap.row(c, y);
                amax = amax.max(src.iter().fold(0, |m, v| m.max(v.unsigned_abs())) as u64);
                let r = c * hp + y + pad;
                let row = &mut act[r * row_len..][..row_len];
                let row_live = &mut live[r * s * strips..][..s * strips];
                let phases = row.chunks_exact_mut(wq).zip(row_live.chunks_exact_mut(strips));
                for (p, (phase, phase_live)) in phases.enumerate() {
                    let q0 = pad.saturating_sub(p).div_ceil(s);
                    let x0 = p + q0 * s - pad;
                    if let (Some(dst), Some(src)) = (phase.get_mut(q0..), src.get(x0..)) {
                        for (o, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                            *o = v;
                        }
                    }
                    for (sx, l) in phase_live.iter_mut().enumerate() {
                        *l = phase[sx * STRIP..][..STRIP + reach].iter().any(|&v| v != 0);
                    }
                }
            }
        }
        let plan = ConvPlan::new(fmaps, amax, |c, j, i| {
            ((c * hp + j * d) * s + i * d % s) * wq + i * d / s
        });
        let last_base = (oshape.h - 1) * s * row_len + (strips - 1) * STRIP;
        assert!(
            plan.pairs.is_empty() || last_base + plan.max_off() + STRIP <= act.len(),
            "strip read out of bounds"
        );
        assert!(
            u16::try_from(plan.npairs).is_ok(),
            "{} tap pairs overflow the run index",
            plan.npairs
        );

        // The window-map row of each pair's taps at output row 0; output
        // row `oy` reads `oy · S` padded rows, `oy · S²` phase rows, lower.
        let rows: Vec<[usize; 2]> = plan.pairs[..plan.npairs]
            .iter()
            .map(|p| p.off.map(|o| o / wq * strips))
            .collect();
        let mut runs = Vec::new();
        let mut heads = vec![0];
        for oy in 0..oshape.h {
            let live = &live[oy * s * s * strips..];
            for sx in 0..strips {
                let live = &live[sx..];
                let on = |p: usize| live[rows[p][0]] | live[rows[p][1]];
                for seg in &plan.segments {
                    let mut p = seg.start;
                    loop {
                        while p < seg.end && !on(p) {
                            p += 1;
                        }
                        if p == seg.end {
                            break;
                        }
                        let start = p;
                        while p < seg.end && on(p) {
                            p += 1;
                        }
                        runs.push([start as u16, p as u16]);
                    }
                    heads.push(runs.len());
                }
            }
        }
        StripLayout { act, plan, runs, heads, row_len, strips }
    }
}

/// Adds the i32 sum of one segment's `runs` of tap pairs over the block
/// at `base` into `out`, on `isa`'s strip; every strip computes the same
/// exact segment sums. The caller guarantees every strip read,
/// `base + pair.off[_] .. + STRIP`, lies inside `act`.
#[inline]
fn strip(isa: Isa, act: &[i16], base: usize, pairs: &[TapPair], runs: &[Run], out: &mut Block) {
    match isa {
        Isa::Portable => strip_portable(act, base, pairs, runs, out),
        // SAFETY: `Avx2` exists only after runtime detection, and the
        // caller keeps every strip read in bounds.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { strip_avx2(act, base, pairs, runs, out) },
    }
}

/// Portable strip: the AVX2 algorithm in plain Rust. Products of two i16
/// fit an i32; the pair sums and the running sums wrap, and the segment
/// bound makes the wrapped total exact.
fn strip_portable(act: &[i16], base: usize, pairs: &[TapPair], runs: &[Run], out: &mut Block) {
    let mut acc = [[0i32; STRIP]; BLOCK_K];
    for &[start, end] in runs {
        for tp in &pairs[start as usize..end as usize] {
            let a = &act[base + tp.off[0]..][..STRIP];
            let b = &act[base + tp.off[1]..][..STRIP];
            for (accf, &w) in acc.iter_mut().zip(&tp.w) {
                let (wa, wb) = (w as i16 as i32, w >> 16);
                for ((s, &va), &vb) in accf.iter_mut().zip(a).zip(b) {
                    *s = s.wrapping_add((va as i32 * wa).wrapping_add(vb as i32 * wb));
                }
            }
        }
    }
    for (of, accf) in out.iter_mut().zip(&acc) {
        for (o, &s) in of.iter_mut().zip(accf) {
            *o += s as i64;
        }
    }
}

/// AVX2 strip: the two taps' 16-column strips are interleaved with
/// `unpacklo/hi_epi16` so that one `madd_epi16` per filter and half
/// computes `a·w_a + b·w_b` for eight columns. `madd` and `add_epi32`
/// wrap modulo 2^32 (`madd`'s single overflow case, all four operands
/// `i16::MIN`, included), so the segment bound makes the total exact.
///
/// # Safety
///
/// The CPU must support AVX2, and `act[base + off .. base + off + STRIP]`
/// must be in bounds for every offset of every pair.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn strip_avx2(act: &[i16], base: usize, pairs: &[TapPair], runs: &[Run], out: &mut Block) {
    use std::arch::x86_64::*;
    let p = act.as_ptr().add(base);
    // acc[2f] holds filter f's columns 0-3 | 8-11 (the unpacklo lanes),
    // acc[2f + 1] its columns 4-7 | 12-15.
    let mut acc = [_mm256_setzero_si256(); 2 * BLOCK_K];
    for &[start, end] in runs {
        for tp in &pairs[start as usize..end as usize] {
            let a = _mm256_loadu_si256(p.add(tp.off[0]) as *const __m256i);
            let b = _mm256_loadu_si256(p.add(tp.off[1]) as *const __m256i);
            let lo = _mm256_unpacklo_epi16(a, b);
            let hi = _mm256_unpackhi_epi16(a, b);
            for f in 0..BLOCK_K {
                let w = _mm256_set1_epi32(tp.w[f]);
                acc[2 * f] = _mm256_add_epi32(acc[2 * f], _mm256_madd_epi16(lo, w));
                acc[2 * f + 1] = _mm256_add_epi32(acc[2 * f + 1], _mm256_madd_epi16(hi, w));
            }
        }
    }
    for (f, of) in out.iter_mut().enumerate() {
        let o = of.as_mut_ptr();
        let (l, h) = (acc[2 * f], acc[2 * f + 1]);
        for (col, v) in [
            (0, _mm256_castsi256_si128(l)),
            (4, _mm256_castsi256_si128(h)),
            (8, _mm256_extracti128_si256::<1>(l)),
            (12, _mm256_extracti128_si256::<1>(h)),
        ] {
            let dst = o.add(col) as *mut __m256i;
            let sum = _mm256_add_epi64(_mm256_loadu_si256(dst), _mm256_cvtepi32_epi64(v));
            _mm256_storeu_si256(dst, sum);
        }
    }
}

/// Computes the same convolution as [`conv2d`], bit-identically, with an
/// output-stationary kernel; the inference engine uses it.
///
/// The imap is copied once into a zero-padded buffer whose rows are split
/// into `stride` column phases, so every filter tap reads one contiguous
/// 16-column strip at any stride. For each block of 4 filters × 16 output
/// columns, every tap streams past i32 accumulators held in registers,
/// on the strip of [`Isa::detect`] (AVX2 when the CPU has it, else a
/// portable strip of the same algorithm). The taps are cut into segments
/// whose i32 sums provably cannot overflow for this imap's largest
/// magnitude, and each segment's sum is added into the i64 output, so the
/// result is exact for every input. Taps whose strips read only zeros are
/// skipped: their products are zero.
///
/// # Panics
///
/// Same conditions as [`conv2d`].
pub fn conv2d_fast(
    imap: &Tensor3<i16>,
    fmaps: &Tensor4<i16>,
    bias: Option<&[i64]>,
    geom: ConvGeometry,
) -> Tensor3<i64> {
    conv2d_fast_on(imap, fmaps, bias, geom, Isa::detect())
}

/// [`conv2d_fast`] on the strip of `isa`, which computes the same
/// result on every [`Isa`].
#[doc(hidden)]
pub fn conv2d_fast_on(
    imap: &Tensor3<i16>,
    fmaps: &Tensor4<i16>,
    bias: Option<&[i64]>,
    geom: ConvGeometry,
    isa: Isa,
) -> Tensor3<i64> {
    let ishape = imap.shape();
    let fshape = fmaps.shape();
    assert_eq!(ishape.c, fshape.c, "channel mismatch: imap {} vs fmaps {}", ishape.c, fshape.c);
    if let Some(b) = bias {
        assert_eq!(b.len(), fshape.k, "bias length {} != filters {}", b.len(), fshape.k);
    }
    let oshape = geom.out_shape(ishape, fshape);
    let mut omap = Tensor3::<i64>::new(oshape.c, oshape.h, oshape.w);
    if oshape.is_empty() {
        return omap;
    }

    let layout = StripLayout::new(imap, fmaps, geom);
    let (plan, strips) = (&layout.plan, layout.strips);
    let segments = plan.segments.len();
    let out = omap.as_mut_slice();
    let mut block: Block = [[0; STRIP]; BLOCK_K];
    for k0 in (0..fshape.k).step_by(BLOCK_K) {
        let pairs = plan.block(k0 / BLOCK_K);
        let kn = BLOCK_K.min(fshape.k - k0);
        let block_bias: [i64; BLOCK_K] =
            std::array::from_fn(|f| bias.and_then(|b| b.get(k0 + f).copied()).unwrap_or(0));
        for oy in 0..oshape.h {
            for sx in 0..strips {
                for (of, &b) in block.iter_mut().zip(&block_bias) {
                    *of = [b; STRIP];
                }
                let base = oy * geom.stride * layout.row_len + sx * STRIP;
                let list = (oy * strips + sx) * segments;
                for heads in layout.heads[list..=list + segments].windows(2) {
                    let runs = &layout.runs[heads[0]..heads[1]];
                    if !runs.is_empty() {
                        strip(isa, &layout.act, base, pairs, runs, &mut block);
                    }
                }
                let x0 = sx * STRIP;
                let xn = STRIP.min(oshape.w - x0);
                for (f, of) in block.iter().enumerate().take(kn) {
                    let o = oshape.index(k0 + f, oy, x0);
                    out[o..o + xn].copy_from_slice(&of[..xn]);
                }
            }
        }
    }
    omap
}

/// Computes the same convolution as [`conv2d`] by explicit im2col
/// lowering: every sliding window is materialized as a matrix row and the
/// layer becomes one matrix multiplication — the classic GEMM formulation
/// most frameworks use, kept here as a third independent implementation
/// for differential testing.
///
/// # Panics
///
/// Same conditions as [`conv2d`].
pub fn conv2d_im2col(
    imap: &Tensor3<i16>,
    fmaps: &Tensor4<i16>,
    bias: Option<&[i64]>,
    geom: ConvGeometry,
) -> Tensor3<i64> {
    let ishape = imap.shape();
    let fshape = fmaps.shape();
    assert_eq!(ishape.c, fshape.c, "channel mismatch: imap {} vs fmaps {}", ishape.c, fshape.c);
    if let Some(b) = bias {
        assert_eq!(b.len(), fshape.k, "bias length {} != filters {}", b.len(), fshape.k);
    }
    let oshape = geom.out_shape(ishape, fshape);
    let mut omap = Tensor3::<i64>::new(oshape.c, oshape.h, oshape.w);
    if oshape.is_empty() {
        return omap;
    }

    let patch = fshape.c * fshape.h * fshape.w;
    let windows = oshape.h * oshape.w;
    let pad = geom.pad as isize;
    let stride = geom.stride as isize;
    let dil = geom.dilation as isize;

    // Lower the imap: one row per window, one column per filter weight.
    let mut cols = vec![0i16; windows * patch];
    for oy in 0..oshape.h {
        for ox in 0..oshape.w {
            let row = (oy * oshape.w + ox) * patch;
            let mut idx = row;
            for c in 0..fshape.c {
                for j in 0..fshape.h {
                    let iy = oy as isize * stride - pad + j as isize * dil;
                    for i in 0..fshape.w {
                        let ix = ox as isize * stride - pad + i as isize * dil;
                        cols[idx] = imap.at_padded(c, iy, ix, 0);
                        idx += 1;
                    }
                }
            }
        }
    }

    // GEMM: omap[n][w] = fmaps[n] . cols[w] + bias[n].
    for n in 0..fshape.k {
        let weights = fmaps.filter(n);
        let b = bias.map(|b| b[n]).unwrap_or(0);
        let out_plane_start = n * windows;
        let out = omap.as_mut_slice();
        for w in 0..windows {
            let patch_slice = &cols[w * patch..(w + 1) * patch];
            let mut acc = b;
            for (&wv, &av) in weights.iter().zip(patch_slice.iter()) {
                acc += wv as i64 * av as i64;
            }
            out[out_plane_start + w] = acc;
        }
    }
    omap
}

/// Requantizes a wide accumulator omap back to 16-bit activations by an
/// arithmetic right shift (rounding toward negative infinity, as a hardware
/// shifter does) followed by saturation.
///
/// `shift` is normally the number of fractional bits of the weight
/// quantizer, so the output stays in the activation fixed-point format.
///
/// # Example
///
/// ```
/// use diffy_tensor::{Tensor3, conv::requantize};
/// let acc = Tensor3::from_vec(1, 1, 2, vec![1024i64, -1024]);
/// let out = requantize(&acc, 8);
/// assert_eq!(out.as_slice(), &[4, -4]);
/// ```
pub fn requantize(acc: &Tensor3<i64>, shift: u32) -> Tensor3<i16> {
    acc.map(|v| sat16(v >> shift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape3;

    fn simple_imap() -> Tensor3<i16> {
        // 2 channels, 3x3, values 1..=18.
        Tensor3::from_vec(2, 3, 3, (1..=18).collect())
    }

    #[test]
    fn identity_filter_reproduces_center_channel_sum() {
        let imap = simple_imap();
        // One 2x1x1 filter of ones: output = sum over channels at each pixel.
        let fmaps = Tensor4::from_vec(1, 2, 1, 1, vec![1i16, 1]);
        let o = conv2d(&imap, &fmaps, None, ConvGeometry::unit());
        assert_eq!(o.shape().as_tuple(), (1, 3, 3));
        // a(0,y,x) + a(1,y,x) = v + (v + 9)
        let expect: Vec<i64> = (1..=9).map(|v| 2 * v + 9).collect();
        assert_eq!(o.as_slice(), &expect[..]);
    }

    #[test]
    fn matches_hand_computed_3x3() {
        let imap = Tensor3::from_vec(1, 3, 3, vec![1i16, 2, 3, 4, 5, 6, 7, 8, 9]);
        let fmaps = Tensor4::from_vec(1, 1, 3, 3, vec![1i16; 9]);
        let o = conv2d(&imap, &fmaps, None, ConvGeometry::unit());
        assert_eq!(o.shape().as_tuple(), (1, 1, 1));
        assert_eq!(o.as_slice(), &[45]);
    }

    #[test]
    fn same_padding_keeps_spatial_size_and_pads_with_zero() {
        let imap = Tensor3::from_vec(1, 2, 2, vec![1i16, 2, 3, 4]);
        let fmaps = Tensor4::from_vec(1, 1, 3, 3, vec![1i16; 9]);
        let o = conv2d(&imap, &fmaps, None, ConvGeometry::same(3, 3));
        assert_eq!(o.shape().as_tuple(), (1, 2, 2));
        // Every output is the sum of the in-range 2x2 block.
        assert_eq!(o.as_slice(), &[10, 10, 10, 10]);
    }

    #[test]
    fn stride_two_subsamples_outputs() {
        let imap = Tensor3::from_vec(1, 1, 5, vec![1i16, 2, 3, 4, 5]);
        let fmaps = Tensor4::from_vec(1, 1, 1, 1, vec![1i16]);
        let o = conv2d(&imap, &fmaps, None, ConvGeometry::strided(2, 0));
        assert_eq!(o.as_slice(), &[1, 3, 5]);
    }

    #[test]
    fn dilation_skips_intermediate_pixels() {
        let imap = Tensor3::from_vec(1, 1, 5, vec![1i16, 2, 3, 4, 5]);
        // 1x2 filter of ones, dilation 2: output(x) = a(x) + a(x+2).
        let fmaps = Tensor4::from_vec(1, 1, 1, 2, vec![1i16, 1]);
        let geom = ConvGeometry { stride: 1, pad: 0, dilation: 2 };
        let o = conv2d(&imap, &fmaps, None, geom);
        assert_eq!(o.as_slice(), &[4, 6, 8]);
    }

    #[test]
    fn bias_is_added_per_filter() {
        let imap = Tensor3::from_vec(1, 1, 2, vec![1i16, 1]);
        let fmaps = Tensor4::from_vec(2, 1, 1, 1, vec![1i16, 2]);
        let o = conv2d(&imap, &fmaps, Some(&[10, -10]), ConvGeometry::unit());
        assert_eq!(o.as_slice(), &[11, 11, -8, -8]);
    }

    #[test]
    fn negative_operands_accumulate_exactly() {
        let imap = Tensor3::from_vec(1, 1, 1, vec![i16::MIN]);
        let fmaps = Tensor4::from_vec(1, 1, 1, 1, vec![i16::MIN]);
        let o = conv2d(&imap, &fmaps, None, ConvGeometry::unit());
        assert_eq!(o.as_slice(), &[(i16::MIN as i64) * (i16::MIN as i64)]);
    }

    #[test]
    fn requantize_shifts_and_saturates() {
        let acc = Tensor3::from_vec(1, 1, 3, vec![i64::MAX, i64::MIN, 256]);
        let out = requantize(&acc, 8);
        assert_eq!(out.as_slice(), &[i16::MAX, i16::MIN, 1]);
    }

    #[test]
    fn requantize_rounds_toward_negative_infinity() {
        let acc = Tensor3::from_vec(1, 1, 2, vec![-1i64, 255]);
        let out = requantize(&acc, 8);
        assert_eq!(out.as_slice(), &[-1, 0]);
    }

    /// `n` deterministic values spread over `-range..=range`.
    fn spread(n: usize, range: i32, salt: u64) -> Vec<i16> {
        (0..n as u64)
            .map(|i| {
                let h = (i ^ salt).wrapping_mul(6364136223846793005) >> 33;
                (h % (2 * range as u64 + 1)) as i32 - range
            })
            .map(|v| v.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
            .collect()
    }

    /// Asserts `conv2d_fast` and the strip of every ISA this CPU runs
    /// reproduce `conv2d`, so AVX2 hosts also test the portable strip.
    fn assert_fast_matches(
        imap: &Tensor3<i16>,
        fmaps: &Tensor4<i16>,
        bias: Option<&[i64]>,
        geom: ConvGeometry,
    ) {
        let want = conv2d(imap, fmaps, bias, geom);
        let ctx = format!("imap {:?} fmaps {:?} {geom:?}", imap.shape(), fmaps.shape());
        assert_eq!(conv2d_fast(imap, fmaps, bias, geom), want, "dispatched, {ctx}");
        for &isa in Isa::available() {
            assert_eq!(conv2d_fast_on(imap, fmaps, bias, geom, isa), want, "{isa:?}, {ctx}");
        }
    }

    /// The imaps of a `3 × 7 × width` layer the fast conv is checked on:
    /// dense values; all zeros; the dense values with channel 1 and every
    /// odd row zeroed; and one nonzero value at each column of row 3 of
    /// channel 1 in turn, so it lands on both edges of every window.
    fn test_imaps(width: usize, act_range: i32) -> Vec<Tensor3<i16>> {
        let dense = spread(3 * 7 * width, act_range, 1);
        let gappy = dense
            .iter()
            .enumerate()
            .map(|(e, &v)| if e / (7 * width) == 1 || e / width % 2 == 1 { 0 } else { v })
            .collect();
        let one = (-act_range).max(i16::MIN as i32) as i16;
        let mut imaps = vec![dense, vec![0; 3 * 7 * width], gappy];
        imaps.extend((0..width).map(|x| {
            let mut v = vec![0; 3 * 7 * width];
            v[(7 + 3) * width + x] = one;
            v
        }));
        imaps.into_iter().map(|v| Tensor3::from_vec(3, 7, width, v)).collect()
    }

    #[test]
    fn fast_conv_matches_reference_across_geometries() {
        // Widths around the 16-column strip, partial filter blocks, every
        // stride phase split up to 3 and dilations up to 4, on dense and
        // sparse imaps; small values fit one i32 segment, full-range
        // values force cuts.
        for (act_range, w_range) in [(255, 100), (32768, 32768)] {
            for width in [1, 15, 16, 17, 33] {
                for imap in test_imaps(width, act_range) {
                    for k in [1, 3, 5] {
                        for (fh, fw) in [(3, 3), (1, 5)] {
                            let w = spread(k * 3 * fh * fw, w_range, 2);
                            let fmaps = Tensor4::from_vec(k, 3, fh, fw, w);
                            let bias: Vec<i64> = (0..k as i64).map(|n| 37 * n - 50).collect();
                            for stride in 1..=3usize {
                                for pad in 0..=2usize {
                                    for dilation in 1..=4usize {
                                        let geom = ConvGeometry { stride, pad, dilation };
                                        assert_fast_matches(&imap, &fmaps, Some(&bias), geom);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Whether tap `t = (c, j, i)` reads a nonzero value of `imap` in the
    /// window of output row `oy`, strip `sx`: the `STRIP + ⌊(Fw−1)·D/S⌋`
    /// positions from `sx · STRIP` of the stride phase `(i·D) mod S` of
    /// padded row `oy·S + j·D`.
    fn window_nonzero(
        imap: &Tensor3<i16>,
        fshape: crate::shape::Shape4,
        geom: ConvGeometry,
        t: usize,
        oy: usize,
        sx: usize,
    ) -> bool {
        let (s, d, pad) = (geom.stride as isize, geom.dilation as isize, geom.pad as isize);
        let (c, j, i) = (t / (fshape.h * fshape.w), t / fshape.w % fshape.h, t % fshape.w);
        let y = oy as isize * s + j as isize * d - pad;
        let reach = (fshape.w as isize - 1) * d / s;
        let q0 = (sx * STRIP) as isize;
        (q0..q0 + STRIP as isize + reach)
            .any(|q| imap.at_padded(c, y, q * s + i as isize * d % s - pad, 0) != 0)
    }

    #[test]
    fn pairs_run_only_where_a_window_holds_a_nonzero() {
        // A window map read as nonzero everywhere would still give right
        // outputs, so pin the pairs the run builder lets through. Every
        // weight is nonzero and small, so the 27 taps pair up in (c, j, i)
        // order in one segment, the last with a zero-weight partner.
        let weights = spread(5 * 27, 100, 2).iter().map(|&w| w | 1).collect();
        let fmaps = Tensor4::from_vec(5, 3, 3, 3, weights);
        let bias: Vec<i64> = (0..5).map(|n| 37 * n - 50).collect();
        let zero = Tensor3::<i16>::new(3, 7, 40);
        let mut one_channel = zero.clone();
        let channel_1 = &mut one_channel.as_mut_slice()[7 * 40..14 * 40];
        channel_1.copy_from_slice(&spread(7 * 40, 255, 1));
        let fs = fmaps.shape();
        for stride in 1..=2usize {
            for pad in 0..=1usize {
                for dilation in 1..=2usize {
                    let geom = ConvGeometry { stride, pad, dilation };
                    let oh = geom.out_shape(zero.shape(), fs).h;
                    let layout = StripLayout::new(&zero, &fmaps, geom);
                    assert_eq!(layout.plan.segments, vec![0..14], "{geom:?}");
                    assert!(layout.runs.is_empty(), "all-zero imap ran pairs, {geom:?}");
                    let o = conv2d_fast(&zero, &fmaps, Some(&bias), geom);
                    for (n, &b) in bias.iter().enumerate() {
                        assert!(o.channel(n).iter().all(|&v| v == b), "{geom:?}");
                    }

                    let layout = StripLayout::new(&one_channel, &fmaps, geom);
                    let ran: usize = layout.runs.iter().map(|r| (r[1] - r[0]) as usize).sum();
                    let want: usize = (0..oh * layout.strips)
                        .map(|list| {
                            let (oy, sx) = (list / layout.strips, list % layout.strips);
                            let imap = &one_channel;
                            let live = |t| t < 27 && window_nonzero(imap, fs, geom, t, oy, sx);
                            (0..27).step_by(2).filter(|&t| live(t) || live(t + 1)).count()
                        })
                        .sum();
                    assert!(want > 0, "{geom:?}");
                    assert_eq!(ran, want, "{geom:?}");
                }
            }
        }
    }

    #[test]
    fn fast_conv_is_exact_where_i32_sums_overflow() {
        // 96 channels × 9 taps of (-2^15)·(-2^15) = 2^30: one output sums
        // to 864 · 2^30, and no two taps fit one i32 segment.
        let imap = Tensor3::filled(96, 5, 19, i16::MIN);
        let fmaps = Tensor4::filled(5, 96, 3, 3, i16::MIN);
        let plan = ConvPlan::new(&fmaps, 1 << 15, |_, _, _| 0);
        assert_eq!(plan.pairs.len(), 2 * plan.npairs, "two blocks");
        assert_eq!(plan.segments.len(), 96 * 9, "one tap per segment");
        for geom in [ConvGeometry::unit(), ConvGeometry::same(3, 3), ConvGeometry::strided(2, 1)] {
            assert_fast_matches(&imap, &fmaps, None, geom);
        }
        let o = conv2d_fast(&imap, &fmaps, None, ConvGeometry::unit());
        assert_eq!(*o.at(4, 2, 16), 864 << 30);
    }

    #[test]
    fn im2col_conv_matches_reference_across_geometries() {
        let data: Vec<i16> = (0..3 * 8 * 10)
            .map(|i| ((i * 2654435761u64 as usize) % 401) as i16 - 200)
            .collect();
        let imap = Tensor3::from_vec(3, 8, 10, data);
        let wdata: Vec<i16> = (0..4 * 3 * 3 * 3)
            .map(|i| ((i * 7919) % 127) as i16 - 63)
            .collect();
        let fmaps = Tensor4::from_vec(4, 3, 3, 3, wdata);
        let bias = vec![3i64, -3, 0, 11];
        for stride in 1..=2usize {
            for pad in 0..=1usize {
                for dilation in 1..=2usize {
                    let geom = ConvGeometry { stride, pad, dilation };
                    assert_eq!(
                        conv2d(&imap, &fmaps, Some(&bias), geom),
                        conv2d_im2col(&imap, &fmaps, Some(&bias), geom),
                        "geom {geom:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_conv_handles_empty_output() {
        let imap = Tensor3::<i16>::new(1, 2, 2);
        let fmaps = Tensor4::<i16>::new(1, 1, 3, 3);
        let o = conv2d_fast(&imap, &fmaps, None, ConvGeometry::unit());
        assert!(o.is_empty());
    }

    #[test]
    fn out_shape_matches_geometry_helper() {
        let imap = Tensor3::<i16>::new(4, 10, 12);
        let fmaps = Tensor4::<i16>::new(6, 4, 3, 3);
        let geom = ConvGeometry::strided(2, 1);
        let o = conv2d(&imap, &fmaps, None, geom);
        assert_eq!(o.shape(), geom.out_shape(imap.shape(), fmaps.shape()));
        assert_eq!(o.shape(), Shape3::new(6, 5, 6));
    }
}
