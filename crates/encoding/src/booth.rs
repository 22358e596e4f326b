//! Effectual-term counting via canonical signed-power-of-two recoding.
//!
//! PRA (Bit-Pragmatic) processes an activation one *effectual term* at a
//! time: the activation is recoded into a stream of signed powers of two
//! ("oneffsets") after "applying a modified Booth encoding" (§III-B of the
//! Diffy paper), and a cycle is spent per term shifting-and-adding the
//! weight. The number of effectual terms is therefore the execution-time
//! currency of both PRA and Diffy.
//!
//! We use the *non-adjacent form* (NAF) — the canonical signed-digit
//! recoding with digits in `{-1, 0, 1}` and no two adjacent nonzero
//! digits. NAF provably minimizes the number of nonzero signed
//! power-of-two terms, which is exactly the quantity the offset
//! generators produce: e.g. `7 = 8 - 1` (2 terms), `2 = 2` (1 term),
//! `0x00FF = 256 - 1` (2 terms).
//!
//! # The closed-form term count
//!
//! Counting the nonzero NAF digits does not require materializing the
//! recoding. Write `naf(v)` for the digit vector; the classic identity
//!
//! ```text
//! terms(v) = popcount(v XOR 3·v)
//! ```
//!
//! holds for every two's-complement integer evaluated at sufficient
//! width. Derivation: the NAF digit at position `i` is nonzero exactly
//! when the carry chain of the addition `v + 2v = 3v` flips bit `i`
//! relative to `v`. Formally, with `c` the carry vector of `v + 2v`,
//! bit `i` of `v ⊕ 3v` is `v_i ⊕ (v_i ⊕ 2v_i ⊕ c_i) = 2v_i ⊕ c_i =
//! v_{i-1} ⊕ c_i`, which a short induction shows is `1` precisely at the
//! nonzero-digit positions of the canonical recoding (each nonzero NAF
//! digit `±1` at position `i` corresponds to a run boundary of
//! consecutive ones in `v`, and run boundaries are exactly where `v` and
//! `3v` differ). For negative `v` the sign-extension bits of `v` and
//! `3v` agree, so the XOR is still finite and the identity carries over
//! unchanged. The tests pin this exhaustively over all `i16` and by
//! proptest over `i32` against [`booth_terms_i32_reference`], the
//! original digit-walking loop kept as the correctness anchor.
//!
//! # Lane-parallel counting
//!
//! The per-value closed form is three ALU ops plus a popcount, which
//! lifts directly to lane-parallel form. `booth_terms_lanes_avx2`
//! counts the sixteen 16-bit lanes of one AVX2 register at once, for
//! kernels that keep the counts in registers: the term-plane strip of
//! `diffy_sim::term_serial` sums and maximizes them in place, and its
//! portable strip calls [`booth_terms`] per lane. A unit test there runs
//! the lane function on every `i16` against the closed form.

use std::ops::Deref;

/// Maximum number of effectual terms in a 16-bit value under NAF
/// recoding: ⌈17/2⌉ = 9 (the sign extension can add one digit).
pub const MAX_TERMS_16: u32 = 9;

/// Maximum number of effectual terms of any `i32` (34-bit NAF).
pub const MAX_TERMS_I32: u32 = 17;

/// Maximum number of NAF digits of any `i32` (the recoding of a 32-bit
/// value can carry one position past the top bit, plus the sign digit).
pub const MAX_NAF_DIGITS: usize = 34;

/// One term of a recoded value: `±2^exponent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoothTerm {
    /// Bit position of the term: the term's value is `±2^exponent`.
    pub exponent: u8,
    /// `true` if the term is subtracted.
    pub negative: bool,
}

impl BoothTerm {
    /// The signed value `±2^exponent` this term contributes.
    pub fn value(&self) -> i64 {
        let v = 1i64 << self.exponent;
        if self.negative {
            -v
        } else {
            v
        }
    }
}

/// The NAF digits of a value in a fixed-capacity inline array — no heap
/// allocation on the recoding path, which the tile emulator executes once
/// per weight-activation fetch. Dereferences to a `[i8]` slice.
#[derive(Debug, Clone, Copy)]
pub struct BoothDigits {
    digits: [i8; MAX_NAF_DIGITS],
    len: u8,
}

impl Deref for BoothDigits {
    type Target = [i8];
    #[inline]
    fn deref(&self) -> &[i8] {
        &self.digits[..self.len as usize]
    }
}

impl PartialEq for BoothDigits {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for BoothDigits {}

impl<'a> IntoIterator for &'a BoothDigits {
    type Item = &'a i8;
    type IntoIter = std::slice::Iter<'a, i8>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The effectual terms of a value in a fixed-capacity inline array (at
/// most [`MAX_TERMS_I32`] = 17 entries) — the allocation-free form of the
/// offset-generator output. Dereferences to a `[BoothTerm]` slice.
#[derive(Debug, Clone, Copy)]
pub struct BoothTermStream {
    terms: [BoothTerm; MAX_TERMS_I32 as usize],
    len: u8,
}

impl Deref for BoothTermStream {
    type Target = [BoothTerm];
    #[inline]
    fn deref(&self) -> &[BoothTerm] {
        &self.terms[..self.len as usize]
    }
}

impl PartialEq for BoothTermStream {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for BoothTermStream {}

impl<'a> IntoIterator for &'a BoothTermStream {
    type Item = &'a BoothTerm;
    type IntoIter = std::slice::Iter<'a, BoothTerm>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Signed digits of the non-adjacent form of `v`, least significant first.
///
/// Digit `i` has weight `2^i`; every digit is `-1`, `0` or `1`; no two
/// consecutive digits are both nonzero; and `v = Σ digits[i] · 2^i`.
/// Returned in a fixed-capacity inline array ([`BoothDigits`]), so the
/// call never allocates.
///
/// # Example
///
/// ```
/// use diffy_encoding::booth_digits;
/// // 7 = 8 - 1 -> digits [-1, 0, 0, 1]
/// assert_eq!(&booth_digits(7)[..], &[-1, 0, 0, 1]);
/// ```
pub fn booth_digits(v: i32) -> BoothDigits {
    let mut x = v as i64;
    let mut out = BoothDigits { digits: [0i8; MAX_NAF_DIGITS], len: 0 };
    while x != 0 {
        if x & 1 != 0 {
            // Choose the digit that makes the remainder divisible by 4,
            // guaranteeing the next digit is zero (the NAF property).
            let d = 2 - (x & 3); // x mod 4 == 1 -> +1; == 3 -> -1
            out.digits[out.len as usize] = d as i8;
            x -= d;
        }
        out.len += 1;
        x >>= 1;
    }
    out
}

/// The effectual terms (signed powers of two) of a signed value, in
/// increasing exponent order, in a fixed-capacity inline array
/// ([`BoothTermStream`]) — no allocation per value.
///
/// # Example
///
/// ```
/// use diffy_encoding::booth::booth_term_stream;
/// let terms = booth_term_stream(7);
/// let sum: i64 = terms.iter().map(|t| t.value()).sum();
/// assert_eq!(sum, 7);
/// assert_eq!(terms.len(), 2); // 7 = 8 - 1
/// ```
pub fn booth_term_stream(v: i32) -> BoothTermStream {
    let mut x = v as i64;
    let mut out = BoothTermStream {
        terms: [BoothTerm { exponent: 0, negative: false }; MAX_TERMS_I32 as usize],
        len: 0,
    };
    let mut e = 0u8;
    while x != 0 {
        if x & 1 != 0 {
            let d = 2 - (x & 3);
            out.terms[out.len as usize] = BoothTerm { exponent: e, negative: d < 0 };
            out.len += 1;
            x -= d;
        }
        e += 1;
        x >>= 1;
    }
    out
}

/// The original digit-walking term counter, kept verbatim as the
/// correctness anchor for the closed-form [`booth_terms_i32`] (exhaustive
/// i16 + proptest i32 equivalence in the tests). Never on a hot path.
pub fn booth_terms_i32_reference(v: i32) -> u32 {
    let mut x = v as i64;
    let mut n = 0u32;
    while x != 0 {
        if x & 1 != 0 {
            let d = 2 - (x & 3);
            x -= d;
            n += 1;
        }
        x >>= 1;
    }
    n
}

/// Number of effectual terms of a signed 32-bit value (used for deltas
/// wider than 16 bits).
///
/// Closed form: `popcount(v XOR 3v)` evaluated at 64-bit width (see the
/// module docs for the derivation); exact for every `i32`.
#[inline]
pub fn booth_terms_i32(v: i32) -> u32 {
    let x = v as i64;
    (x ^ (x * 3)).count_ones()
}

/// Number of effectual terms of a 16-bit activation.
///
/// The innermost operation of the cycle models, executed once per
/// weight-activation pair. Closed form `popcount(v XOR 3v)` at 32-bit
/// width — a handful of ALU ops with no table (the previous 64 K-entry
/// lookup table occupied all of L1 and serialized on loads). Kernels that
/// count sixteen values at once use `booth_terms_lanes_avx2`.
///
/// # Example
///
/// ```
/// use diffy_encoding::booth_terms;
/// assert_eq!(booth_terms(0), 0);
/// assert_eq!(booth_terms(1), 1);
/// assert_eq!(booth_terms(2), 1);
/// assert_eq!(booth_terms(7), 2);  // 8 - 1
/// assert_eq!(booth_terms(-1), 1);
/// ```
#[inline]
pub fn booth_terms(v: i16) -> u32 {
    let x = v as i32;
    (x ^ (x * 3)).count_ones()
}

/// The NAF weights of the 16 `i16` lanes of `v`, one count per 16-bit
/// lane: popcount(u ^ 3u) where `u = |v| ≤ 2^15`, for kernels that keep
/// the counts in registers (the term-plane build sums and maximizes them
/// in place).
///
/// The lanes never widen: `3u` is computed modulo 2^16 inside the 16-bit
/// lanes, and the single lost bit — bit 16 of `3u`, which `u < 2^16`
/// cannot touch in the XOR — is recovered exactly as the
/// `mulhi_epu16(u, 3)` carry (`3u < 2^17`) and added back after a
/// `pshufb` nibble-table popcount of the low 16 bits.
#[cfg(target_arch = "x86_64")]
#[doc(hidden)]
#[inline]
#[target_feature(enable = "avx2")]
pub fn booth_terms_lanes_avx2(v: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    // Per-nibble popcounts for the pshufb table lookup.
    #[rustfmt::skip]
    let nibble_pc = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let m0f = _mm256_set1_epi8(0x0f);
    let u = _mm256_abs_epi16(v); // |i16::MIN| = 0x8000 = 2^15, correct unsigned
    let t3 = _mm256_add_epi16(u, _mm256_add_epi16(u, u)); // 3u mod 2^16
    let t = _mm256_xor_si256(u, t3);
    let carry = _mm256_mulhi_epu16(u, _mm256_set1_epi16(3)); // bit 16 of 3u: 0 or 1
    // Byte-wise popcount via two nibble lookups; the epi16 shift smears
    // bits across byte boundaries but the 0x0f mask drops every smeared
    // bit.
    let lo = _mm256_and_si256(t, m0f);
    let hi = _mm256_and_si256(_mm256_srli_epi16(t, 4), m0f);
    let cnt8 =
        _mm256_add_epi8(_mm256_shuffle_epi8(nibble_pc, lo), _mm256_shuffle_epi8(nibble_pc, hi));
    // Pairwise byte sums -> per-16-bit-lane popcount, plus the carry.
    _mm256_add_epi16(_mm256_maddubs_epi16(cnt8, _mm256_set1_epi8(1)), carry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(digits: &[i8]) -> i64 {
        digits
            .iter()
            .enumerate()
            .map(|(i, &d)| d as i64 * (1i64 << i))
            .sum()
    }

    #[test]
    fn digits_reconstruct_every_i16() {
        for v in i16::MIN..=i16::MAX {
            let d = booth_digits(v as i32);
            assert_eq!(reconstruct(&d), v as i64, "v={v}");
        }
    }

    #[test]
    fn digits_reconstruct_wide_values() {
        for &v in &[i32::MAX, i32::MIN, 65535, -65536, 1 << 20, -(1 << 20) - 7] {
            assert_eq!(reconstruct(&booth_digits(v)), v as i64, "v={v}");
        }
    }

    #[test]
    fn digits_are_nonadjacent_and_ternary() {
        for v in (-70000i32..70000).step_by(7) {
            let d = booth_digits(v);
            for w in d.windows(2) {
                assert!(
                    w[0] == 0 || w[1] == 0,
                    "adjacent nonzero digits for v={v}: {d:?}"
                );
            }
            assert!(d.iter().all(|&x| (-1..=1).contains(&x)));
        }
    }

    #[test]
    fn term_stream_sums_to_value() {
        for v in (-70000i32..70000).step_by(13) {
            let s: i64 = booth_term_stream(v).iter().map(|t| t.value()).sum();
            assert_eq!(s, v as i64, "v={v}");
        }
    }

    #[test]
    fn term_stream_matches_digit_walk() {
        for v in (-200000i32..200000).step_by(17) {
            let d = booth_digits(v);
            let s = booth_term_stream(v);
            let from_digits: Vec<BoothTerm> = d
                .iter()
                .enumerate()
                .filter(|(_, &x)| x != 0)
                .map(|(i, &x)| BoothTerm { exponent: i as u8, negative: x < 0 })
                .collect();
            assert_eq!(&s[..], &from_digits[..], "v={v}");
        }
    }

    #[test]
    fn term_count_matches_stream_length() {
        for v in i16::MIN..=i16::MAX {
            assert_eq!(
                booth_terms(v),
                booth_term_stream(v as i32).len() as u32,
                "v={v}"
            );
        }
    }

    #[test]
    fn closed_form_matches_reference_exhaustively_on_i16() {
        for v in i16::MIN..=i16::MAX {
            assert_eq!(
                booth_terms(v),
                booth_terms_i32_reference(v as i32),
                "closed form diverged at v={v}"
            );
            assert_eq!(booth_terms(v), booth_terms_i32(v as i32), "v={v}");
        }
    }

    #[test]
    fn closed_form_matches_reference_on_wide_values() {
        for &v in &[
            i32::MAX,
            i32::MIN,
            i32::MIN + 1,
            0x5555_5555,
            0x2AAA_AAAA,
            -0x5555_5555,
            65535,
            -65536,
            1 << 30,
            -(1 << 30) - 1,
        ] {
            assert_eq!(booth_terms_i32(v), booth_terms_i32_reference(v), "v={v}");
        }
    }

    #[test]
    fn sixteen_bit_values_stay_within_max_terms() {
        let max = (i16::MIN..=i16::MAX).map(booth_terms).max().unwrap();
        assert!(max <= MAX_TERMS_16, "max={max}");
        // Alternating bit patterns hit the bound region.
        assert!(booth_terms(0x5555) >= 8);
    }

    #[test]
    fn zero_has_zero_terms() {
        assert_eq!(booth_terms(0), 0);
        assert!(booth_term_stream(0).is_empty());
        assert!(booth_digits(0).is_empty());
    }

    #[test]
    fn powers_of_two_have_one_term() {
        for e in 0..15 {
            assert_eq!(booth_terms(1 << e), 1, "2^{e}");
            assert_eq!(booth_terms(-(1 << e)), 1, "-2^{e}");
        }
        assert_eq!(booth_terms(i16::MIN), 1); // -2^15
    }

    #[test]
    fn recoding_is_minimal_on_known_values() {
        assert_eq!(booth_terms(3), 2); // 4 - 1 or 2 + 1
        assert_eq!(booth_terms(0x00FF), 2); // 256 - 1
        assert_eq!(booth_terms(0x0FFF), 2); // 4096 - 1
        assert_eq!(booth_terms(6), 2); // 8 - 2
        assert_eq!(booth_terms(-6), 2);
    }

    #[test]
    fn small_deltas_have_few_terms() {
        // The premise of differential convolution: values near zero carry
        // few terms.
        for v in -4i16..=4 {
            assert!(booth_terms(v) <= 2, "v={v} terms={}", booth_terms(v));
        }
    }

    #[test]
    fn i32_and_i16_forms_agree_on_i16_range() {
        for v in (i16::MIN..=i16::MAX).step_by(37) {
            assert_eq!(booth_terms(v), booth_terms_i32(v as i32));
        }
    }
}
