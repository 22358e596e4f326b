//! Precisions: the bits one value needs, profiled per-layer precisions
//! (Table III) and the group header of the dynamic schemes.
//!
//! The paper stores activations in groups of 16 with a 4-bit header giving
//! the number of bits every activation in the group uses (Dynamic Stripes,
//! §III-F); Diffy applies the same detection to *deltas*, which — being
//! small for correlated imaps — need fewer bits per group. That per-group
//! footprint is [`StorageScheme::row_bits`](crate::StorageScheme::row_bits)
//! of the `RawD`/`DeltaD` schemes.

use diffy_tensor::stats::MagnitudeHistogram;

/// Whether a value population is stored as unsigned magnitudes (post-ReLU
/// activations) or as two's-complement signed values (deltas, or the
/// outputs of a final layer without ReLU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signedness {
    /// Non-negative values; no sign bit needed.
    Unsigned,
    /// Two's-complement values with a sign bit.
    Signed,
}

/// Bits needed to represent `v` under the given signedness.
///
/// Unsigned: minimal `p` with `v < 2^p` (so 0 needs 0 bits).
/// Signed: minimal `p` with `-2^(p-1) <= v < 2^(p-1)`.
///
/// # Panics
///
/// Panics if `v < 0` with [`Signedness::Unsigned`].
#[inline]
pub fn value_bits(v: i32, signedness: Signedness) -> u32 {
    match signedness {
        Signedness::Unsigned => {
            assert!(v >= 0, "negative value {v} in unsigned population");
            32 - (v as u32).leading_zeros()
        }
        Signedness::Signed => {
            if v >= 0 {
                (32 - (v as u32).leading_zeros()) + 1
            } else {
                (32 - (v as u32).leading_ones()) + 1
            }
        }
    }
}

/// Number of bits in the 4-bit-per-group header of the dynamic schemes.
pub const GROUP_HEADER_BITS: u64 = 4;

/// Profile-derived precision for a whole layer (Table III): the smallest
/// precision covering the given magnitude `quantile` of the activation
/// population. Rare outliers above the quantile saturate, mirroring the
/// accuracy-preserving profiled precisions of Stripes/Proteus.
///
/// # Panics
///
/// Panics if `quantile` is outside `[0, 1]`.
pub fn profiled_precision(
    hist: &MagnitudeHistogram,
    signedness: Signedness,
    quantile: f64,
) -> u32 {
    let mag = hist.magnitude_quantile(quantile) as i32;
    let bits = value_bits(mag, Signedness::Unsigned);
    let p = match signedness {
        Signedness::Unsigned => bits,
        Signedness::Signed => bits + 1,
    };
    p.clamp(1, 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_bits_unsigned() {
        assert_eq!(value_bits(0, Signedness::Unsigned), 0);
        assert_eq!(value_bits(1, Signedness::Unsigned), 1);
        assert_eq!(value_bits(255, Signedness::Unsigned), 8);
        assert_eq!(value_bits(256, Signedness::Unsigned), 9);
    }

    #[test]
    fn value_bits_signed() {
        assert_eq!(value_bits(0, Signedness::Signed), 1);
        assert_eq!(value_bits(-1, Signedness::Signed), 1);
        assert_eq!(value_bits(1, Signedness::Signed), 2);
        assert_eq!(value_bits(-2, Signedness::Signed), 2);
        assert_eq!(value_bits(127, Signedness::Signed), 8);
        assert_eq!(value_bits(-128, Signedness::Signed), 8);
        assert_eq!(value_bits(-65536, Signedness::Signed), 17);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn unsigned_rejects_negative() {
        let _ = value_bits(-1, Signedness::Unsigned);
    }

    #[test]
    fn profiled_precision_covers_quantile() {
        let mut h = MagnitudeHistogram::new();
        // 999 values of magnitude <= 255, one outlier at 32000.
        for i in 0..999 {
            h.push((i % 256) as i16);
        }
        h.push(32000);
        assert_eq!(profiled_precision(&h, Signedness::Unsigned, 0.999), 8);
        assert_eq!(profiled_precision(&h, Signedness::Unsigned, 1.0), 15);
        assert_eq!(profiled_precision(&h, Signedness::Signed, 0.999), 9);
    }

    #[test]
    fn profiled_precision_clamps_to_16() {
        let mut h = MagnitudeHistogram::new();
        h.push(i16::MIN); // magnitude 32768 -> 16 unsigned bits, 17 signed
        assert_eq!(profiled_precision(&h, Signedness::Signed, 1.0), 16);
        let empty = MagnitudeHistogram::new();
        assert_eq!(profiled_precision(&empty, Signedness::Unsigned, 0.5), 1);
    }
}
