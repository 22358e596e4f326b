//! MSB-first bit-level serialization used by the storage schemes.

/// Writes values MSB-first into a growing byte buffer.
///
/// # Example
///
/// ```
/// use diffy_encoding::bitstream::{BitWriter, BitReader};
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFFFF, 16);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in the final partial byte (0 = byte-aligned).
    bit_pos: u32,
    bits_written: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `n` bits of `v`, most significant of those first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or if `v` has bits set above `n`.
    pub fn write_bits(&mut self, v: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        assert!(n == 64 || v < (1u128 << n) as u64, "value {v} does not fit in {n} bits");
        for i in (0..n).rev() {
            let bit = ((v >> i) & 1) as u8;
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().expect("just pushed");
            *last |= bit << (7 - self.bit_pos);
            self.bit_pos = (self.bit_pos + 1) % 8;
        }
        self.bits_written += n as u64;
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bits_written
    }

    /// Finishes, returning the padded byte buffer.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads values MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads the next `n` bits as an unsigned value.
    ///
    /// Returns `None` if fewer than `n` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if self.pos + n as u64 > self.bytes.len() as u64 * 8 {
            return None;
        }
        let mut v = 0u64;
        for _ in 0..n {
            let byte = self.bytes[(self.pos / 8) as usize];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            v = (v << 1) | bit as u64;
            self.pos += 1;
        }
        Some(v)
    }

    /// Reads `n` bits and sign-extends them as an `n`-bit two's-complement
    /// value.
    pub fn read_signed(&mut self, n: u32) -> Option<i64> {
        assert!(n >= 1);
        let raw = self.read_bits(n)?;
        let sign_bit = 1u64 << (n - 1);
        Some(if raw & sign_bit != 0 {
            raw as i64 - (1i64 << n)
        } else {
            raw as i64
        })
    }

    /// Number of bits consumed so far.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 1);
        w.write_bits(0b1010_1010, 8);
        w.write_bits(12345, 14);
        w.write_bits(u64::MAX, 64);
        assert_eq!(w.bit_len(), 1 + 1 + 8 + 14 + 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1), Some(1));
        assert_eq!(r.read_bits(1), Some(0));
        assert_eq!(r.read_bits(8), Some(0b1010_1010));
        assert_eq!(r.read_bits(14), Some(12345));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn read_past_end_returns_none() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2), Some(3));
        // Padding bits exist up to the byte boundary, but not 9 more bits.
        assert_eq!(r.read_bits(9), None);
    }

    #[test]
    fn signed_roundtrip_all_widths() {
        for n in 1..=17u32 {
            let lo = -(1i64 << (n - 1));
            let hi = (1i64 << (n - 1)) - 1;
            for v in [lo, lo / 2, -1, 0, 1, hi / 2, hi] {
                if v < lo || v > hi {
                    continue;
                }
                let mut w = BitWriter::new();
                w.write_bits((v as u64) & ((1u64 << n) - 1), n); // n-bit two's complement
                let bytes = w.finish();
                let mut r = BitReader::new(&bytes);
                assert_eq!(r.read_signed(n), Some(v), "n={n} v={v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn write_bits_rejects_oversized_values() {
        let mut w = BitWriter::new();
        w.write_bits(4, 2);
    }

    #[test]
    fn zero_width_writes_nothing() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }
}
