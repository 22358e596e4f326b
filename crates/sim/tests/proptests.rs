//! Property tests on the cycle models' invariants.

use diffy_models::LayerTrace;
use diffy_sim::scnn::{scnn_layer, ScnnConfig};
use diffy_sim::stripes::stripes_layer;
use diffy_sim::{
    term_serial_layer, term_serial_layer_reference, vaa_layer, AcceleratorConfig, ValueMode,
};
use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};
use proptest::prelude::*;

// Layers with at least 24 windows: PRA's "always matches or exceeds VAA"
// guarantee relies on filling its 16 concurrent windows (the paper notes
// 16 are provisioned where 8 suffice); a handful-of-pixels layer cannot
// amortize a pallet and is outside every workload the paper runs.
fn arb_trace() -> impl Strategy<Value = LayerTrace> {
    (1usize..=8, 2usize..=6, 12usize..=24, 1usize..=24, prop_oneof![Just(1usize), Just(3)])
        .prop_flat_map(|(c, h, w, k, f)| {
            let geom = if f == 1 { ConvGeometry::unit() } else { ConvGeometry::same(3, 3) };
            (
                proptest::collection::vec(any::<i16>(), c * h * w),
                proptest::collection::vec(-100i16..=100, k * c * f * f),
            )
                .prop_map(move |(imap, fmaps)| LayerTrace {
                    name: "p".into(),
                    index: 0,
                    imap: Tensor3::from_vec(c, h, w, imap),
                    fmaps: Tensor4::from_vec(k, c, f, f, fmaps),
                    geom,
                    relu: true,
                    requant_shift: 12,
                    requant_bias: 0,
                    next_stride: 1,
                })
        })
}

fn cfg() -> AcceleratorConfig {
    AcceleratorConfig::table4()
}

/// Filter heights and widths from 1×1 up to AlexNet's 11×11.
fn filter_side() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(3), Just(5), Just(7), Just(11)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn term_serial_never_slower_than_vaa(t in arb_trace()) {
        // NAF needs at most 9 terms for any 16-bit value while VAA always
        // spends the full 16-bit slot, and PRA keeps 16 windows in
        // flight: the paper's "PRA always matches or exceeds the
        // throughput of an equivalent VAA".
        let vaa = vaa_layer(&t, &cfg());
        for mode in [ValueMode::Raw, ValueMode::Differential] {
            let ts = term_serial_layer(&t, &cfg(), mode);
            prop_assert!(
                ts.cycles <= vaa.cycles,
                "{mode:?} {} > VAA {}", ts.cycles, vaa.cycles
            );
        }
    }

    #[test]
    fn stripes_never_faster_than_pragmatic(t in arb_trace()) {
        // A value's NAF term count never exceeds its bit length.
        let pra = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        let ds = stripes_layer(&t, &cfg(), ValueMode::Raw);
        prop_assert!(pra.cycles <= ds.cycles);
    }

    #[test]
    fn utilization_in_unit_interval(t in arb_trace()) {
        for r in [
            vaa_layer(&t, &cfg()),
            term_serial_layer(&t, &cfg(), ValueMode::Raw),
            term_serial_layer(&t, &cfg(), ValueMode::Differential),
            stripes_layer(&t, &cfg(), ValueMode::Raw),
            scnn_layer(&t, &ScnnConfig::default()),
        ] {
            let u = r.utilization();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&u), "u={u}");
            prop_assert!(r.useful_slots <= r.total_slots.max(r.useful_slots));
        }
    }

    #[test]
    fn more_tiles_never_hurt(t in arb_trace()) {
        for mode in [ValueMode::Raw, ValueMode::Differential] {
            let c4 = term_serial_layer(&t, &cfg(), mode);
            let c8 = term_serial_layer(&t, &cfg().with_tiles(8), mode);
            prop_assert!(c8.cycles <= c4.cycles, "{mode:?}");
        }
        let v4 = vaa_layer(&t, &cfg());
        let v8 = vaa_layer(&t, &cfg().with_tiles(8));
        prop_assert!(v8.cycles <= v4.cycles);
    }

    #[test]
    fn macs_are_architecture_independent(t in arb_trace()) {
        let vaa = vaa_layer(&t, &cfg());
        let pra = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        let scnn = scnn_layer(&t, &ScnnConfig::default());
        prop_assert_eq!(vaa.macs, pra.macs);
        prop_assert_eq!(vaa.macs, scnn.macs);
        prop_assert_eq!(vaa.macs, t.macs());
    }

    #[test]
    fn scnn_products_bounded_by_macs(t in arb_trace()) {
        let r = scnn_layer(&t, &ScnnConfig::default());
        // Nonzero products can never exceed the dense product count of
        // the unit-stride full-overlap bound: nnz_a x nnz_w <= |a| x |w|.
        let ishape = t.imap.shape();
        let fshape = t.fmaps.shape();
        let dense: u64 = (ishape.len() / ishape.c) as u64
            * (fshape.len()) as u64;
        prop_assert!(r.useful_slots <= dense);
    }

    #[test]
    fn plane_kernel_matches_reference_on_random_geometries(
        c in 1usize..=5,
        (dh, dw) in (0usize..=8, 0usize..=20),
        k in 1usize..=20,
        (fh, fw) in (filter_side(), filter_side()),
        stride in 1usize..=4,
        pad in 0usize..=2,
        dilation in 1usize..=3,
        g in prop_oneof![Just(1usize), Just(2), Just(3), Just(16)],
        seed in any::<u64>(),
    ) {
        // The tentpole guarantee: the group-reduced plane kernel is
        // bit-identical to the reference loop nest — full LayerCycles
        // equality (cycles, slots, macs) — on arbitrary combinations of
        // stride, padding, dilation, channel counts not divisible by the
        // synchronization group, and narrow layers. Non-square filters up
        // to 11×11 at strides up to 4 pin the row walk's origin count
        // `PW − (Fw−1)·d` on AlexNet- and ResNet-style first layers
        // (11×11 stride 4, 7×7 stride 2).
        // The imap spans at least one dilated window, so out dims ≥ 1.
        let h = (fh - 1) * dilation + 1 + dh;
        let w = (fw - 1) * dilation + 1 + dw;
        let imap: Vec<i16> = (0..c * h * w)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed) >> 41) as i16)
            .collect();
        let t = LayerTrace {
            name: "geom".into(),
            index: 0,
            imap: Tensor3::from_vec(c, h, w, imap),
            fmaps: Tensor4::filled(k, c, fh, fw, 1),
            geom: ConvGeometry { stride, pad, dilation },
            relu: true,
            requant_shift: 12,
            requant_bias: 0,
            next_stride: 1,
        };
        let cfg = cfg().with_terms_per_group(g);
        for mode in [ValueMode::Raw, ValueMode::Differential] {
            let optimized = term_serial_layer(&t, &cfg, mode);
            let reference = term_serial_layer_reference(&t, &cfg, mode);
            prop_assert_eq!(optimized, reference, "mode {:?} g {}", mode, g);
        }
    }

    #[test]
    fn constant_rows_make_diffy_at_least_as_fast(
        c in 1usize..=4, h in 2usize..=5, w in 17usize..=40, v in 1i16..2000,
    ) {
        // Perfectly correlated content: the canonical Diffy win.
        let t = LayerTrace {
            name: "const".into(),
            index: 0,
            imap: Tensor3::filled(c, h, w, v),
            fmaps: Tensor4::filled(4, c, 3, 3, 1),
            geom: ConvGeometry::same(3, 3),
            relu: true,
            requant_shift: 12,
            requant_bias: 0,
            next_stride: 1,
        };
        let pra = term_serial_layer(&t, &cfg(), ValueMode::Raw);
        let diffy = term_serial_layer(&t, &cfg(), ValueMode::Differential);
        prop_assert!(diffy.cycles <= pra.cycles);
    }
}
