//! Property-based tests for the encoding crate.

use diffy_encoding::bitstream::{BitReader, BitWriter};
use diffy_encoding::booth::{booth_term_stream, MAX_TERMS_I32};
use diffy_encoding::delta::{
    delta_rows_wrapping, undelta_rows_wrapping, delta_slice_wrapping, undelta_slice_wrapping,
};
use diffy_encoding::precision::Signedness;
use diffy_encoding::{booth_digits, booth_terms, booth_terms_i32, booth_terms_i32_reference,
    delta_row_wrapping_into, delta_rows, undelta_rows, StorageScheme};
use diffy_tensor::{Isa, Tensor3};
use proptest::prelude::*;

fn small_tensor3() -> impl Strategy<Value = Tensor3<i16>> {
    (1usize..=3, 1usize..=4, 1usize..=9).prop_flat_map(|(c, h, w)| {
        proptest::collection::vec(any::<i16>(), c * h * w)
            .prop_map(move |data| Tensor3::from_vec(c, h, w, data))
    })
}

/// Tensors of any width up to 600 (mostly not a multiple of the group
/// sizes, often past the 256 values the AVX2 footprint kernel takes at a
/// time at group 16, or the 512 of two 256-groups) whose values favour
/// the 16-bit extremes, so rows often alternate `i16::MIN`/`i16::MAX` and
/// their wrapping deltas wrap.
fn extreme_tensor3() -> impl Strategy<Value = Tensor3<i16>> {
    (1usize..=3, 1usize..=3, prop_oneof![1usize..=40, 1usize..=600]).prop_flat_map(|(c, h, w)| {
        let v = prop_oneof![Just(i16::MIN), Just(i16::MAX), Just(0i16), any::<i16>()];
        proptest::collection::vec(v, c * h * w)
            .prop_map(move |data| Tensor3::from_vec(c, h, w, data))
    })
}

/// `tensor_bits` must equal the bits `encode_row` writes for every row,
/// for every lossless scheme, and so must every footprint path on every
/// row: the dispatched `row_bits` and the counter of every ISA this CPU
/// runs (the portable loop, and the AVX2 kernel when the CPU has it).
/// RawD and DeltaD run at groups 8 (portable only), 16, 32 and 256 (the
/// kernel's full groups, the loop's partial last group) and 4.
fn assert_tensor_bits_match_encoder(t: &Tensor3<i16>, sign: Signedness) {
    let s = t.shape();
    let dynamic = [4, 8, 16, 32, 256]
        .into_iter()
        .flat_map(|g| [StorageScheme::raw_d(g), StorageScheme::delta_d(g)]);
    let schemes = [StorageScheme::NoCompression, StorageScheme::RleZ, StorageScheme::Rle];
    for scheme in dynamic.chain(schemes) {
        let mut w = BitWriter::new();
        for c in 0..s.c {
            for y in 0..s.h {
                let row = t.row(c, y);
                let before = w.bit_len();
                scheme.encode_row(row, sign, &mut w);
                let bits = w.bit_len() - before;
                let at = format!("{scheme} {sign:?} {s:?} row ({c}, {y})");
                assert_eq!(scheme.row_bits(row, sign), bits, "dispatched: {at}");
                for &isa in Isa::available() {
                    assert_eq!(scheme.row_bits_on(row, sign, isa), bits, "{isa:?}: {at}");
                }
            }
        }
        assert_eq!(scheme.tensor_bits(t, sign), w.bit_len(), "{scheme} {sign:?} {:?}", s);
        for &isa in Isa::available() {
            let bits = scheme.tensor_bits_on(t, sign, isa);
            assert_eq!(bits, w.bit_len(), "{scheme} {sign:?} {:?} {isa:?}", s);
        }
    }
}

#[test]
fn tensor_bits_match_encoder_on_alternating_extremes() {
    for w in [1, 15, 16, 17, 33, 255, 256, 257, 1919, 1920, 1921] {
        let signed = Tensor3::from_vec(
            2,
            3,
            w,
            (0..6 * w).map(|i| if i % 2 == 0 { i16::MIN } else { i16::MAX }).collect(),
        );
        assert_tensor_bits_match_encoder(&signed, Signedness::Signed);
        let unsigned = signed.map(|v| v & i16::MAX);
        assert_tensor_bits_match_encoder(&unsigned, Signedness::Unsigned);
    }
}

#[test]
fn tensor_bits_match_encoder_on_sparse_rows() {
    // Mostly-zero rows leave whole groups at zero, where an unsigned
    // group still stores one bit per value and a signed one a sign bit;
    // a zero-valued row start checks the delta anchor at `row[-1] = 0`.
    for w in [16, 255, 256, 257, 1919, 1920, 1921] {
        for period in [3, 97, 700] {
            let data = (0..6 * w)
                .map(|i| match i % period {
                    0 => i16::MAX,
                    1 if period > 3 => i16::MIN,
                    _ => 0,
                })
                .collect();
            let signed = Tensor3::from_vec(2, 3, w, data);
            assert_tensor_bits_match_encoder(&signed, Signedness::Signed);
            assert_tensor_bits_match_encoder(&signed.map(|v| v & i16::MAX), Signedness::Unsigned);
        }
    }
}

proptest! {
    #[test]
    fn naf_digits_reconstruct(v in any::<i32>()) {
        let d = booth_digits(v);
        let sum: i64 = d.iter().enumerate().map(|(i, &x)| x as i64 * (1i64 << i)).sum();
        prop_assert_eq!(sum, v as i64);
    }

    #[test]
    fn naf_is_nonadjacent(v in any::<i32>()) {
        let d = booth_digits(v);
        for w in d.windows(2) {
            prop_assert!(w[0] == 0 || w[1] == 0);
        }
    }

    #[test]
    fn term_count_bounds(v in any::<i32>()) {
        let t = booth_terms_i32(v);
        prop_assert!(t <= MAX_TERMS_I32);
        prop_assert_eq!(t as usize, booth_term_stream(v).len());
        prop_assert_eq!(t == 0, v == 0);
    }

    #[test]
    fn term_count_table_agrees(v in any::<i16>()) {
        prop_assert_eq!(booth_terms(v), booth_terms_i32(v as i32));
    }

    #[test]
    fn closed_form_matches_digit_walk_reference(v in any::<i32>()) {
        // popcount(v XOR 3v) == the original NAF digit-walking count.
        prop_assert_eq!(booth_terms_i32(v), booth_terms_i32_reference(v));
    }

    #[test]
    fn wrapping_row_kernel_matches_tensor_transform(
        vs in proptest::collection::vec(any::<i16>(), 1..80),
        stride in 1usize..5,
    ) {
        let t = Tensor3::from_vec(1, 1, vs.len(), vs.clone());
        let d = delta_rows_wrapping(&t, stride);
        let mut got = vec![0i16; vs.len()];
        delta_row_wrapping_into(&vs, stride, &mut got);
        prop_assert_eq!(d.as_slice(), &got[..]);
    }

    #[test]
    fn triangle_inequality_of_terms(a in any::<i16>(), b in any::<i16>()) {
        // terms(a + b) <= terms(a) + terms(b): recoding each side and
        // concatenating is a valid signed-power-of-two form and NAF is
        // minimal.
        let sum = a as i32 + b as i32;
        prop_assert!(booth_terms_i32(sum) <= booth_terms(a) + booth_terms(b));
    }

    #[test]
    fn exact_delta_roundtrip(t in small_tensor3(), stride in 1usize..4) {
        let d = delta_rows(&t, stride);
        let back = undelta_rows(&d, stride);
        prop_assert_eq!(back.as_slice(), t.as_slice());
    }

    #[test]
    fn wrapping_delta_roundtrip(t in small_tensor3(), stride in 1usize..4) {
        let d = delta_rows_wrapping(&t, stride);
        let back = undelta_rows_wrapping(&d, stride);
        prop_assert_eq!(back.as_slice(), t.as_slice());
    }

    #[test]
    fn wrapping_slice_roundtrip(vs in proptest::collection::vec(any::<i16>(), 0..64)) {
        prop_assert_eq!(undelta_slice_wrapping(&delta_slice_wrapping(&vs)), vs);
    }

    #[test]
    fn wrapping_matches_exact_for_nonnegative(
        vs in proptest::collection::vec(0i16..=i16::MAX, 1..32)
    ) {
        let t = Tensor3::from_vec(1, 1, vs.len(), vs);
        let wrapped = delta_rows_wrapping(&t, 1);
        let exact = delta_rows(&t, 1);
        for (w, e) in wrapped.iter().zip(exact.iter()) {
            prop_assert_eq!(*w as i32, *e);
        }
    }

    #[test]
    fn schemes_roundtrip_signed(
        row in proptest::collection::vec(any::<i16>(), 1..80),
        group in prop_oneof![Just(4usize), Just(8), Just(16), Just(256)],
    ) {
        for scheme in [
            StorageScheme::NoCompression,
            StorageScheme::raw_d(group),
            StorageScheme::delta_d(group),
            StorageScheme::RleZ,
            StorageScheme::Rle,
        ] {
            let mut w = BitWriter::new();
            scheme.encode_row(&row, Signedness::Signed, &mut w);
            prop_assert_eq!(w.bit_len(), scheme.row_bits(&row, Signedness::Signed));
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let back = scheme.decode_row(&mut r, row.len(), Signedness::Signed).unwrap();
            prop_assert_eq!(&back, &row);
        }
    }

    #[test]
    fn schemes_roundtrip_unsigned(
        row in proptest::collection::vec(0i16..=i16::MAX, 1..80),
    ) {
        for scheme in [
            StorageScheme::raw_d(4),
            StorageScheme::raw_d(16),
            StorageScheme::delta_d(16),
            StorageScheme::delta_d(256),
        ] {
            let mut w = BitWriter::new();
            scheme.encode_row(&row, Signedness::Unsigned, &mut w);
            prop_assert_eq!(w.bit_len(), scheme.row_bits(&row, Signedness::Unsigned));
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let back = scheme.decode_row(&mut r, row.len(), Signedness::Unsigned).unwrap();
            prop_assert_eq!(&back, &row);
        }
    }

    #[test]
    fn tensor_bits_equal_summed_encoded_rows(t in extreme_tensor3()) {
        let unsigned = t.map(|v| v & i16::MAX);
        for (t, sign) in [(&t, Signedness::Signed), (&unsigned, Signedness::Unsigned)] {
            assert_tensor_bits_match_encoder(t, sign);
        }
    }

    #[test]
    fn dynamic_never_beats_entropy_floor_but_never_exceeds_raw_plus_headers(
        row in proptest::collection::vec(0i16..=i16::MAX, 1..100),
    ) {
        let bits = StorageScheme::raw_d(16).row_bits(&row, Signedness::Unsigned);
        let n = row.len() as u64;
        // Upper bound: 16 bits per value (15-bit values need <= 15, plus
        // 4/16 header amortization rounds to at most 16n + 4).
        prop_assert!(bits <= 16 * n + 4 * n.div_ceil(16) + 4);
        // Lower bound: at least 1 bit per value plus one header.
        prop_assert!(bits >= n + 4);
    }

    #[test]
    fn bitstream_roundtrip(values in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..40)) {
        let mut w = BitWriter::new();
        let masked: Vec<(u64, u32)> = values
            .iter()
            .map(|&(v, n)| (if n == 64 { v } else { v & ((1u64 << n) - 1) }, n))
            .collect();
        for &(v, n) in &masked {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &masked {
            prop_assert_eq!(r.read_bits(n), Some(v));
        }
    }
}
