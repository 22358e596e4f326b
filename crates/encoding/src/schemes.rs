//! Activation storage schemes (Figs. 5 and 14 of the paper).
//!
//! Six families are modelled, each with footprint accounting *and* a
//! bit-exact encoder/decoder so tests can prove losslessness:
//!
//! | Scheme          | Paper description |
//! |-----------------|-------------------|
//! | `NoCompression` | every value stored as 16 b |
//! | `Profiled`      | per-layer profile-derived precision (Proteus/Stripes) |
//! | `RawD{g}`       | dynamic precision per group of `g` raw values, 4-bit header |
//! | `DeltaD{g}`     | dynamic precision per group of `g` *delta* values |
//! | `RLEz`          | each nonzero value as 16 b + 4 b distance to the next nonzero |
//! | `RLE`           | each value as 16 b + 4 b run length to the next different value |
//!
//! Rows (one `W`-extent of one channel) are the encoding unit: the delta
//! schemes anchor at the start of each row, matching Diffy's dataflow where
//! the leftmost window of every row is processed raw.
//!
//! The dynamic schemes' footprints are counted without encoding, from the
//! OR of each group's sign folds. Groups whose size is a multiple of 16
//! run through an AVX2 kernel on [`Isa::Avx2`](diffy_tensor::Isa) (the
//! one runtime choice the inference conv and the term-plane strip also
//! match on); the portable loop counts every other group size, a row's
//! partial last group and every other [`Isa`], and is the kernel's
//! oracle. Because every row is encoded on its own,
//! [`StorageScheme::tensor_bits`] splits a large tensor's `C·H` rows into
//! row bands on the cores ([`diffy_tensor::bands`]) and sums their bits;
//! either counter runs unchanged inside each band.

use crate::bitstream::{BitReader, BitWriter};
use crate::delta::{delta_slice_wrapping, undelta_slice_wrapping};
use crate::precision::{value_bits, Signedness, GROUP_HEADER_BITS};
use diffy_tensor::{bands, Isa, Tensor3};
use std::fmt;

/// Bits per entry of the run-length schemes: a 16-bit value plus a 4-bit
/// distance/run field.
const RLE_ENTRY_BITS: u64 = 20;
/// Maximum distance/run representable in the 4-bit field.
const RLE_MAX_FIELD: u64 = 15;

/// An activation storage scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageScheme {
    /// Fixed 16-bit storage.
    NoCompression,
    /// Profile-derived fixed precision (`bits` per value); values that do
    /// not fit saturate, which is why the profile uses a high quantile.
    Profiled {
        /// Precision in bits (1..=16).
        bits: u32,
    },
    /// Dynamic per-group precision over the raw values.
    RawDynamic {
        /// Group size (the paper studies 8, 16 and 256).
        group: usize,
    },
    /// Dynamic per-group precision over row-anchored wrapping deltas.
    DeltaDynamic {
        /// Group size (the paper studies 16 and 256).
        group: usize,
    },
    /// Run-length encoding keyed on zeros.
    RleZ,
    /// Run-length encoding of repeated values.
    Rle,
}

impl StorageScheme {
    /// `RawD{g}` constructor.
    pub const fn raw_d(group: usize) -> Self {
        StorageScheme::RawDynamic { group }
    }

    /// `DeltaD{g}` constructor.
    pub const fn delta_d(group: usize) -> Self {
        StorageScheme::DeltaDynamic { group }
    }

    /// Encoded size of one row in bits.
    ///
    /// `signedness` describes the raw value population (deltas are always
    /// treated as signed); only `RawD` reads it. The dynamic schemes are
    /// counted in one pass that allocates nothing and forms the deltas as
    /// it goes.
    pub fn row_bits(&self, row: &[i16], signedness: Signedness) -> u64 {
        self.row_bits_on(row, signedness, Isa::detect())
    }

    /// [`StorageScheme::row_bits`] with the footprint counter of `isa`,
    /// which counts the same bits on every [`Isa`].
    #[doc(hidden)]
    pub fn row_bits_on(&self, row: &[i16], signedness: Signedness, isa: Isa) -> u64 {
        match *self {
            StorageScheme::NoCompression => 16 * row.len() as u64,
            StorageScheme::Profiled { bits } => bits as u64 * row.len() as u64,
            StorageScheme::RawDynamic { group } => dynamic_bits(isa, row, group, signedness, false),
            StorageScheme::DeltaDynamic { group } => {
                dynamic_bits(isa, row, group, Signedness::Signed, true)
            }
            StorageScheme::RleZ => rlez_entries(row) * RLE_ENTRY_BITS,
            StorageScheme::Rle => rle_entries(row) * RLE_ENTRY_BITS,
        }
    }

    /// Encoded size of a whole tensor in bits, encoding each `(c, y)` row
    /// independently. A large tensor counts its `C·H` rows in row bands
    /// ([`bands::count`] over its `C·H·W` values) and sums their bits.
    pub fn tensor_bits(&self, t: &Tensor3<i16>, signedness: Signedness) -> u64 {
        self.tensor_bits_on(t, signedness, Isa::detect())
    }

    /// [`StorageScheme::tensor_bits`] with the footprint counter of
    /// `isa`, in the same row bands.
    #[doc(hidden)]
    pub fn tensor_bits_on(&self, t: &Tensor3<i16>, signedness: Signedness, isa: Isa) -> u64 {
        self.tensor_bits_in_bands(t, signedness, isa, bands::count(t.len()))
    }

    /// The tensor footprint with the `C·H` rows cut into `bands` row
    /// bands, which may start mid-channel: every row is encoded on its
    /// own, so the bands' bits add up to the rows' bits.
    fn tensor_bits_in_bands(
        &self,
        t: &Tensor3<i16>,
        signedness: Signedness,
        isa: Isa,
        bands: usize,
    ) -> u64 {
        let (s, values) = (t.shape(), t.as_slice());
        let band_bits = bands::run_rows(s.c * s.h, bands, |rows| {
            rows.map(|r| self.row_bits_on(&values[r * s.w..][..s.w], signedness, isa)).sum::<u64>()
        });
        band_bits.into_iter().sum()
    }

    /// Encodes one row into `w`.
    ///
    /// # Panics
    ///
    /// Panics if a value cannot be represented (e.g. a negative value with
    /// [`Signedness::Unsigned`], or a `Profiled` precision too small for
    /// exact storage — use [`StorageScheme::row_bits`] for lossy footprint
    /// accounting of profiled storage instead).
    pub fn encode_row(&self, row: &[i16], signedness: Signedness, w: &mut BitWriter) {
        match *self {
            StorageScheme::NoCompression => {
                for &v in row {
                    w.write_bits(v as u16 as u64, 16);
                }
            }
            StorageScheme::Profiled { bits } => {
                for &v in row {
                    encode_fixed(w, v, bits, signedness);
                }
            }
            StorageScheme::RawDynamic { group } => {
                encode_dynamic(w, row, group, signedness);
            }
            StorageScheme::DeltaDynamic { group } => {
                let ds = delta_slice_wrapping(row);
                encode_dynamic(w, &ds, group, Signedness::Signed);
            }
            StorageScheme::RleZ => encode_rlez(w, row),
            StorageScheme::Rle => encode_rle(w, row),
        }
    }

    /// Decodes one row of `len` values from `r`.
    ///
    /// Returns `None` if the stream is exhausted early.
    pub fn decode_row(
        &self,
        r: &mut BitReader<'_>,
        len: usize,
        signedness: Signedness,
    ) -> Option<Vec<i16>> {
        match *self {
            StorageScheme::NoCompression => {
                let mut out = Vec::with_capacity(len);
                for _ in 0..len {
                    out.push(r.read_bits(16)? as u16 as i16);
                }
                Some(out)
            }
            StorageScheme::Profiled { bits } => {
                let mut out = Vec::with_capacity(len);
                for _ in 0..len {
                    out.push(decode_fixed(r, bits, signedness)?);
                }
                Some(out)
            }
            StorageScheme::RawDynamic { group } => decode_dynamic(r, len, group, signedness),
            StorageScheme::DeltaDynamic { group } => {
                let ds = decode_dynamic(r, len, group, Signedness::Signed)?;
                Some(undelta_slice_wrapping(&ds))
            }
            StorageScheme::RleZ => decode_rlez(r, len),
            StorageScheme::Rle => decode_rle(r, len),
        }
    }
}

impl fmt::Display for StorageScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StorageScheme::NoCompression => write!(f, "NoCompression"),
            StorageScheme::Profiled { bits } => write!(f, "Profiled({bits}b)"),
            StorageScheme::RawDynamic { group } => write!(f, "RawD{group}"),
            StorageScheme::DeltaDynamic { group } => write!(f, "DeltaD{group}"),
            StorageScheme::RleZ => write!(f, "RLEz"),
            StorageScheme::Rle => write!(f, "RLE"),
        }
    }
}

/// Folds a value into its group's precision OR: `v ^ (v >> 15)` maps
/// `v >= 0` to itself and `v < 0` to `!v = -v - 1`. The bit length of the
/// fold is the magnitude width a two's-complement value needs besides its
/// sign bit, and ORing keeps the highest bit of the widest value, so the
/// OR of a group's folds decides the group's precision exactly. An
/// unsigned population is non-negative, where the fold is the identity.
#[inline]
fn sign_fold(v: i16) -> u16 {
    (v ^ (v >> 15)) as u16
}

/// Precision of a group from the OR of its [`sign_fold`]s: `17 - lz16`
/// when signed (magnitude bits plus a sign bit), `max(1, 16 - lz16)` when
/// unsigned (a group never stores fewer than one bit per value).
#[inline]
fn folded_precision(or: u16, signedness: Signedness) -> u32 {
    match signedness {
        Signedness::Unsigned => (16 - or.leading_zeros()).max(1),
        Signedness::Signed => 17 - or.leading_zeros(),
    }
}

/// Footprint of a row under dynamic per-group precision: a header plus
/// `precision × len` bits per group. With `delta` the groups hold the
/// row-anchored wrapping deltas `row[x] - row[x - 1]` (`row[-1] = 0`). On
/// [`Isa::Avx2`](diffy_tensor::Isa) the AVX2 kernel counts the full groups
/// of sizes that are a multiple of 16; the portable loop counts the rest.
fn dynamic_bits(isa: Isa, row: &[i16], group: usize, signedness: Signedness, delta: bool) -> u64 {
    assert!(group > 0, "group size must be positive");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 { .. } if group.is_multiple_of(16) => {
            let full = row.len() / group * group;
            // SAFETY: `Avx2` exists only after runtime detection, the
            // guard and the assert above make `group` a positive multiple
            // of 16, and `full` covers whole groups.
            let head = unsafe { dynamic_bits_avx2(&row[..full], group, signedness, delta) };
            head + dynamic_bits_portable(row, full, group, signedness, delta)
        }
        _ => dynamic_bits_portable(row, 0, group, signedness, delta),
    }
}

/// The portable footprint loop over the groups of `row` from `from` (a
/// group boundary) on, forming the deltas on the fly from two staggered
/// views of the row.
fn dynamic_bits_portable(
    row: &[i16],
    from: usize,
    group: usize,
    signedness: Signedness,
    delta: bool,
) -> u64 {
    let mut bits = 0;
    for start in (from..row.len()).step_by(group) {
        let end = row.len().min(start + group);
        let or = if delta {
            let (mut or, from) = if start == 0 { (sign_fold(row[0]), 1) } else { (0, start) };
            for (&cur, &prev) in row[from..end].iter().zip(&row[from - 1..end - 1]) {
                or |= sign_fold(cur.wrapping_sub(prev));
            }
            or
        } else {
            row[start..end].iter().fold(0, |or, &v| or | sign_fold(v))
        };
        bits += GROUP_HEADER_BITS + folded_precision(or, signedness) as u64 * (end - start) as u64;
    }
    bits
}

/// The AVX2 footprint kernel over a row of whole groups, `group` a
/// multiple of 16.
///
/// Each register holds 16 values (or their deltas, against the row
/// loaded one lane earlier; the row's first register takes its
/// predecessors from a staged copy anchored at 0) and folds them as
/// [`sign_fold`] does. A group's registers collapse into one by
/// `max_epu16`, and sixteen groups at a time go through a transposing
/// max-reduction that leaves group `k`'s maximum fold in lane `k`. The
/// maximum has the same bit length as the OR the portable loop forms, so
/// the precisions are [`folded_precision`]'s: the bit length `b` of the
/// maximum, read from the exponent of its `f32` conversion (exact below
/// 2^24), gives `b + 1` when signed and `max(b, 1)` when unsigned.
///
/// # Safety
///
/// The CPU must support AVX2, `group` must be a positive multiple of 16
/// and `row.len()` a multiple of `group`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dynamic_bits_avx2(row: &[i16], group: usize, signedness: Signedness, delta: bool) -> u64 {
    use std::arch::x86_64::*;
    debug_assert!(group > 0 && group.is_multiple_of(16) && row.len().is_multiple_of(group));
    let groups = row.len() / group;
    if groups == 0 {
        return 0;
    }
    let p = row.as_ptr();
    let mut anchored = [0i16; 16];
    anchored[1..].copy_from_slice(&row[..15]);
    // Every load below reads 16 lanes inside the row: `x + 16 <= len`,
    // and a delta's predecessor load starts at `x - 1` only when `x > 0`.
    let fold = |x: usize| {
        let v = _mm256_loadu_si256(p.add(x) as *const __m256i);
        let v = if !delta {
            v
        } else if x == 0 {
            _mm256_sub_epi16(v, _mm256_loadu_si256(anchored.as_ptr() as *const __m256i))
        } else {
            _mm256_sub_epi16(v, _mm256_loadu_si256(p.add(x - 1) as *const __m256i))
        };
        _mm256_xor_si256(v, _mm256_srai_epi16(v, 15))
    };
    let group_max = |base: usize| {
        let mut m = fold(base);
        for x in (base + 16..base + group).step_by(16) {
            m = _mm256_max_epu16(m, fold(x));
        }
        m
    };
    // Per-lane precision of 16 maximum folds, in eight i32 lanes.
    let (exp_bias, floor) = (_mm256_set1_epi32(126), _mm256_set1_epi32(1));
    let sign_bit = _mm256_set1_epi32(matches!(signedness, Signedness::Signed) as i32);
    let precisions = |m: __m256i| {
        let bits = |v: __m256i| {
            let e = _mm256_srli_epi32(_mm256_castps_si256(_mm256_cvtepi32_ps(v)), 23);
            let b = _mm256_max_epi32(_mm256_sub_epi32(e, exp_bias), _mm256_setzero_si256());
            _mm256_max_epi32(_mm256_add_epi32(b, sign_bit), floor)
        };
        let lo = bits(_mm256_cvtepu16_epi32(_mm256_castsi256_si128(m)));
        let hi = bits(_mm256_cvtepu16_epi32(_mm256_extracti128_si256(m, 1)));
        _mm256_add_epi32(lo, hi)
    };
    let mut sum = _mm256_setzero_si256();
    let mut maxima = [_mm256_setzero_si256(); 16];
    let full = groups / 16 * 16;
    for first in (0..full).step_by(16) {
        for (k, m) in maxima.iter_mut().enumerate() {
            *m = group_max((first + k) * group);
        }
        sum = _mm256_add_epi32(sum, precisions(transpose_max(&maxima)));
    }
    let tail = groups - full;
    if tail > 0 {
        maxima = [_mm256_setzero_si256(); 16];
        for (k, m) in maxima[..tail].iter_mut().enumerate() {
            *m = group_max((full + k) * group);
        }
        sum = _mm256_add_epi32(sum, precisions(transpose_max(&maxima)));
    }
    let mut lanes = [0u32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, sum);
    // The tail's zero lanes each counted a precision of 1.
    let precision_sum = lanes.iter().map(|&l| l as u64).sum::<u64>() - (16 - tail as u64) % 16;
    groups as u64 * GROUP_HEADER_BITS + precision_sum * group as u64
}

/// Lane `k` of the result is the maximum `u16` lane of `r[k]`: three
/// rounds of unpack-and-max halve the register count while doubling the
/// registers each one interleaves (16-, 32-, then 64-bit), and a final
/// swap of 128-bit halves completes the reduction.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_max(r: &[std::arch::x86_64::__m256i; 16]) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let mut l1 = [_mm256_setzero_si256(); 8];
    for (i, l) in l1.iter_mut().enumerate() {
        let (a, b) = (r[2 * i], r[2 * i + 1]);
        *l = _mm256_max_epu16(_mm256_unpacklo_epi16(a, b), _mm256_unpackhi_epi16(a, b));
    }
    let mut l2 = [_mm256_setzero_si256(); 4];
    for (i, l) in l2.iter_mut().enumerate() {
        let (a, b) = (l1[2 * i], l1[2 * i + 1]);
        *l = _mm256_max_epu16(_mm256_unpacklo_epi32(a, b), _mm256_unpackhi_epi32(a, b));
    }
    let mut l3 = [_mm256_setzero_si256(); 2];
    for (i, l) in l3.iter_mut().enumerate() {
        let (a, b) = (l2[2 * i], l2[2 * i + 1]);
        *l = _mm256_max_epu16(_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b));
    }
    _mm256_max_epu16(
        _mm256_permute2x128_si256(l3[0], l3[1], 0x20),
        _mm256_permute2x128_si256(l3[0], l3[1], 0x31),
    )
}

fn encode_fixed(w: &mut BitWriter, v: i16, bits: u32, signedness: Signedness) {
    assert!((1..=16).contains(&bits), "precision must be 1..=16 bits");
    match signedness {
        Signedness::Unsigned => {
            assert!(v >= 0, "negative value {v} in unsigned population");
            assert!(
                (v as u32) < (1u32 << bits),
                "value {v} does not fit in {bits} unsigned bits"
            );
            w.write_bits(v as u64, bits);
        }
        Signedness::Signed => {
            let lo = -(1i32 << (bits - 1));
            let hi = (1i32 << (bits - 1)) - 1;
            assert!(
                (v as i32) >= lo && (v as i32) <= hi,
                "value {v} does not fit in {bits} signed bits"
            );
            w.write_bits((v as u16 as u64) & ((1u64 << bits) - 1), bits);
        }
    }
}

fn decode_fixed(r: &mut BitReader<'_>, bits: u32, signedness: Signedness) -> Option<i16> {
    match signedness {
        Signedness::Unsigned => Some(r.read_bits(bits)? as i16),
        Signedness::Signed => Some(r.read_signed(bits)? as i16),
    }
}

fn encode_dynamic(w: &mut BitWriter, vs: &[i16], group: usize, signedness: Signedness) {
    assert!(group > 0, "group size must be positive");
    for g in vs.chunks(group) {
        // Per-value widths, not the footprint's OR-fold: the encoder is
        // the independent oracle the footprint tests compare against.
        let p = g.iter().map(|&v| value_bits(v as i32, signedness)).max().unwrap_or(1).max(1);
        debug_assert!((1..=16).contains(&p));
        w.write_bits((p - 1) as u64, GROUP_HEADER_BITS as u32);
        for &v in g {
            encode_fixed(w, v, p, signedness);
        }
    }
}

fn decode_dynamic(
    r: &mut BitReader<'_>,
    len: usize,
    group: usize,
    signedness: Signedness,
) -> Option<Vec<i16>> {
    assert!(group > 0, "group size must be positive");
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let p = r.read_bits(GROUP_HEADER_BITS as u32)? as u32 + 1;
        let n = group.min(len - out.len());
        for _ in 0..n {
            out.push(decode_fixed(r, p, signedness)?);
        }
    }
    Some(out)
}

/// Number of `(value, distance)` entries RLEz needs for a row.
fn rlez_entries(row: &[i16]) -> u64 {
    let mut entries = 0u64;
    let mut i = 0usize;
    while i < row.len() {
        // Emit one entry for row[i] (zero or not), then absorb up to 15
        // following zeros into its distance field.
        entries += 1;
        let mut skipped = 0u64;
        let mut j = i + 1;
        while j < row.len() && row[j] == 0 && skipped < RLE_MAX_FIELD {
            skipped += 1;
            j += 1;
        }
        i = j;
    }
    entries
}

fn encode_rlez(w: &mut BitWriter, row: &[i16]) {
    let mut i = 0usize;
    while i < row.len() {
        let v = row[i];
        let mut skipped = 0u64;
        let mut j = i + 1;
        while j < row.len() && row[j] == 0 && skipped < RLE_MAX_FIELD {
            skipped += 1;
            j += 1;
        }
        w.write_bits(v as u16 as u64, 16);
        w.write_bits(skipped, 4);
        i = j;
    }
}

fn decode_rlez(r: &mut BitReader<'_>, len: usize) -> Option<Vec<i16>> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let v = r.read_bits(16)? as u16 as i16;
        let skipped = r.read_bits(4)?;
        out.push(v);
        for _ in 0..skipped {
            if out.len() < len {
                out.push(0);
            }
        }
    }
    Some(out)
}

/// Number of `(value, run)` entries RLE needs for a row.
fn rle_entries(row: &[i16]) -> u64 {
    let mut entries = 0u64;
    let mut i = 0usize;
    while i < row.len() {
        let mut run = 1u64;
        while i + (run as usize) < row.len()
            && row[i + run as usize] == row[i]
            && run <= RLE_MAX_FIELD
        {
            run += 1;
        }
        entries += 1;
        i += run as usize;
    }
    entries
}

fn encode_rle(w: &mut BitWriter, row: &[i16]) {
    let mut i = 0usize;
    while i < row.len() {
        let mut run = 1u64;
        while i + (run as usize) < row.len()
            && row[i + run as usize] == row[i]
            && run <= RLE_MAX_FIELD
        {
            run += 1;
        }
        w.write_bits(row[i] as u16 as u64, 16);
        w.write_bits(run - 1, 4);
        i += run as usize;
    }
}

fn decode_rle(r: &mut BitReader<'_>, len: usize) -> Option<Vec<i16>> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let v = r.read_bits(16)? as u16 as i16;
        let run = r.read_bits(4)? + 1;
        for _ in 0..run {
            if out.len() < len {
                out.push(v);
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(scheme: StorageScheme, row: &[i16], sign: Signedness) {
        let mut w = BitWriter::new();
        scheme.encode_row(row, sign, &mut w);
        let declared = scheme.row_bits(row, sign);
        assert_eq!(w.bit_len(), declared, "{scheme}: footprint != encoded bits");
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let back = scheme.decode_row(&mut r, row.len(), sign).expect("decode");
        assert_eq!(back, row, "{scheme}: lossy roundtrip");
    }

    #[test]
    fn all_lossless_schemes_roundtrip_unsigned() {
        let row: Vec<i16> = vec![0, 0, 5, 5, 5, 0, 1000, 32767, 0, 0, 0, 0, 3, 3, 9, 12];
        for scheme in [
            StorageScheme::NoCompression,
            StorageScheme::raw_d(8),
            StorageScheme::raw_d(16),
            StorageScheme::raw_d(256),
            StorageScheme::delta_d(16),
            StorageScheme::delta_d(256),
            StorageScheme::RleZ,
            StorageScheme::Rle,
        ] {
            roundtrip(scheme, &row, Signedness::Unsigned);
        }
    }

    #[test]
    fn all_lossless_schemes_roundtrip_signed_extremes() {
        let row: Vec<i16> = vec![i16::MIN, i16::MAX, -1, 0, 1, i16::MAX, i16::MIN, 0];
        for scheme in [
            StorageScheme::NoCompression,
            StorageScheme::raw_d(4),
            StorageScheme::delta_d(4),
            StorageScheme::RleZ,
            StorageScheme::Rle,
        ] {
            roundtrip(scheme, &row, Signedness::Signed);
        }
    }

    #[test]
    fn profiled_roundtrips_when_precision_sufficient() {
        let row: Vec<i16> = vec![0, 255, 17, 128];
        roundtrip(StorageScheme::Profiled { bits: 8 }, &row, Signedness::Unsigned);
        let srow: Vec<i16> = vec![-128, 127, 0, -1];
        roundtrip(StorageScheme::Profiled { bits: 8 }, &srow, Signedness::Signed);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn profiled_panics_on_overflow_in_exact_mode() {
        let mut w = BitWriter::new();
        StorageScheme::Profiled { bits: 4 }.encode_row(&[200], Signedness::Unsigned, &mut w);
    }

    #[test]
    fn rlez_compresses_sparse_rows() {
        let mut row = vec![0i16; 64];
        row[10] = 5;
        row[40] = -3;
        let bits = StorageScheme::RleZ.row_bits(&row, Signedness::Signed);
        assert!(bits < 16 * 64, "RLEz did not compress a sparse row: {bits}");
        roundtrip(StorageScheme::RleZ, &row, Signedness::Signed);
    }

    #[test]
    fn rle_compresses_repeated_values() {
        let row = vec![7i16; 48];
        let bits = StorageScheme::Rle.row_bits(&row, Signedness::Unsigned);
        assert_eq!(bits, 3 * 20); // 48 values, 16 per entry
        roundtrip(StorageScheme::Rle, &row, Signedness::Unsigned);
    }

    #[test]
    fn rlez_dense_rows_expand() {
        // All-nonzero rows cost 20 bits per value > 16.
        let row: Vec<i16> = (1..=32).collect();
        let bits = StorageScheme::RleZ.row_bits(&row, Signedness::Unsigned);
        assert_eq!(bits, 32 * 20);
    }

    #[test]
    fn delta_beats_raw_on_smooth_rows() {
        let row: Vec<i16> = (0..256).map(|x| 20000 + (x as i16)).collect();
        let raw = StorageScheme::raw_d(16).row_bits(&row, Signedness::Unsigned);
        let delta = StorageScheme::delta_d(16).row_bits(&row, Signedness::Unsigned);
        assert!(
            delta < raw / 2,
            "DeltaD16 ({delta}) should be well under half of RawD16 ({raw}) on a smooth ramp"
        );
    }

    #[test]
    fn dynamic_group_boundary_cases() {
        // Row length not divisible by group size.
        let row: Vec<i16> = vec![1, 2, 3, 4, 5];
        roundtrip(StorageScheme::raw_d(2), &row, Signedness::Unsigned);
        roundtrip(StorageScheme::delta_d(2), &row, Signedness::Unsigned);
        // Single-value rows.
        roundtrip(StorageScheme::raw_d(16), &[42], Signedness::Unsigned);
        roundtrip(StorageScheme::delta_d(16), &[42], Signedness::Unsigned);
        // Small groups adapt to the local precision but pay a 4-bit
        // header each: 16 ones then 16 values of 255 cost less in two
        // groups of 16 than in one of 32, while 64 zeros cost more in
        // groups of 1 than in groups of 16.
        let mut steps = vec![1i16; 16];
        steps.extend([255i16; 16]);
        let zeros = [0i16; 64];
        for &isa in Isa::available() {
            let bits = |row: &[i16], group| {
                StorageScheme::raw_d(group).row_bits_on(row, Signedness::Unsigned, isa)
            };
            assert_eq!(bits(&steps, 16), (4 + 16) + (4 + 16 * 8), "{isa:?}");
            assert_eq!(bits(&steps, 32), 4 + 32 * 8, "{isa:?}");
            assert_eq!(bits(&zeros, 1), 64 * (4 + 1), "{isa:?}");
            assert_eq!(bits(&zeros, 16), 4 * (4 + 16), "{isa:?}");
        }
    }

    #[test]
    fn tensor_bits_sums_rows() {
        let t = Tensor3::from_vec(2, 2, 4, (0..16).collect::<Vec<i16>>());
        let s = StorageScheme::NoCompression;
        assert_eq!(s.tensor_bits(&t, Signedness::Unsigned), 16 * 16);
    }

    #[test]
    fn banded_tensor_bits_match_one_band() {
        // 3 channels of 5 rows: 2, 4 and 7 bands of the 15 rows start
        // mid-channel. A width of 301 leaves a partial last group at
        // every group size.
        let (c, h, w) = (3, 5, 301);
        let hash = |i: usize| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 50) as i16;
        let signed = Tensor3::from_vec(c, h, w, (0..c * h * w).map(hash).collect());
        let unsigned = signed.map(|v| v & 0x0FFF);
        for scheme in [
            StorageScheme::raw_d(8),
            StorageScheme::raw_d(16),
            StorageScheme::raw_d(256),
            StorageScheme::delta_d(8),
            StorageScheme::delta_d(16),
            StorageScheme::delta_d(256),
            StorageScheme::RleZ,
        ] {
            for (t, sign) in [(&signed, Signedness::Signed), (&unsigned, Signedness::Unsigned)] {
                for &isa in Isa::available() {
                    let one = scheme.tensor_bits_in_bands(t, sign, isa, 1);
                    let rows = (0..c).flat_map(|ch| (0..h).map(move |y| t.row(ch, y)));
                    let row_bits: u64 = rows.map(|row| scheme.row_bits_on(row, sign, isa)).sum();
                    assert_eq!(one, row_bits, "{scheme} {sign:?} {isa:?}");
                    for bands in [2, 4, 7, c * h, c * h + 1, 4 * c * h] {
                        let banded = scheme.tensor_bits_in_bands(t, sign, isa, bands);
                        assert_eq!(banded, one, "{scheme} {sign:?} {isa:?} {bands} bands");
                    }
                }
            }
        }
        for (c, h, w) in [(0, 4, 4), (2, 0, 4), (2, 3, 0)] {
            let empty = Tensor3::<i16>::new(c, h, w);
            for bands in [1, 2, 3] {
                let bits = StorageScheme::delta_d(16).tensor_bits_in_bands(
                    &empty,
                    Signedness::Signed,
                    Isa::detect(),
                    bands,
                );
                assert_eq!(bits, 0, "{c}x{h}x{w}, {bands} bands");
            }
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(StorageScheme::raw_d(16).to_string(), "RawD16");
        assert_eq!(StorageScheme::delta_d(256).to_string(), "DeltaD256");
        assert_eq!(StorageScheme::RleZ.to_string(), "RLEz");
        assert_eq!(StorageScheme::NoCompression.to_string(), "NoCompression");
        assert_eq!(StorageScheme::Profiled { bits: 9 }.to_string(), "Profiled(9b)");
    }

    #[test]
    fn empty_row_is_zero_bits() {
        for scheme in [
            StorageScheme::NoCompression,
            StorageScheme::raw_d(16),
            StorageScheme::delta_d(16),
            StorageScheme::RleZ,
            StorageScheme::Rle,
        ] {
            assert_eq!(scheme.row_bits(&[], Signedness::Unsigned), 0, "{scheme}");
        }
    }
}
