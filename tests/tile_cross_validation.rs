//! Cross-validation of the three implementation layers on real traces:
//! the microarchitectural tile emulator must reproduce the inference
//! engine's activations bit-for-bit, write exactly the deltas the storage
//! schemes assume, and count exactly the cycles the analytical model
//! prices.

use diffy::core::runner::{ci_trace_bundle, WorkloadOptions};
use diffy::core::tile::{run_tile, TileConfig};
use diffy::encoding::delta::delta_rows_wrapping;
use diffy::encoding::StorageScheme;
use diffy::imaging::datasets::DatasetId;
use diffy::memsys::traffic::{encoded_bytes, tensor_signedness};
use diffy::models::{CiModel, LayerTrace};
use diffy::sim::potential::layer_potential;
use diffy::sim::stripes::stripes_layer_reference;
use diffy::sim::{
    stripes_layer, term_serial_layer, term_serial_layer_reference, AcceleratorConfig,
    LayerCycles, ValueMode,
};
use diffy::tensor::{ConvGeometry, Tensor3, Tensor4};

#[test]
fn tile_emulator_reproduces_network_activations_bit_exactly() {
    // Every layer of a real IRCNN execution (dilated convolutions and
    // the data-dependent sparsity bias included): the tile's
    // post-activation omap must equal the next layer's imap.
    let bundle =
        ci_trace_bundle(CiModel::Ircnn, DatasetId::Kodak24, 0, &WorkloadOptions::test_small());
    let cfg = TileConfig::default();
    for (i, layer) in bundle.trace.layers.iter().enumerate() {
        let run = run_tile(layer, &cfg);
        assert_eq!(
            &run.omap,
            bundle.trace.omap(i),
            "layer {} omap mismatch",
            layer.name
        );
    }
}

#[test]
fn tile_emulator_deltas_match_the_storage_transform() {
    let bundle =
        ci_trace_bundle(CiModel::FfdNet, DatasetId::Cbsd68, 0, &WorkloadOptions::test_small());
    let cfg = TileConfig::default();
    for layer in bundle.trace.layers.iter().take(3) {
        let run = run_tile(layer, &cfg);
        let expect = delta_rows_wrapping(&run.omap, layer.next_stride);
        assert_eq!(run.omap_deltas, expect, "layer {}", layer.name);
    }
}

#[test]
fn plane_kernel_matches_reference_on_real_traces() {
    // The group-reduced plane kernel must reproduce the reference loop
    // nest's full cycle/slot accounting on real traced layers — IRCNN
    // exercises dilated convolutions, whose row walks sample plane rows
    // and columns at the dilation — across value modes and
    // synchronization groups.
    let bundle =
        ci_trace_bundle(CiModel::Ircnn, DatasetId::Kodak24, 0, &WorkloadOptions::test_small());
    let configs = [
        AcceleratorConfig::table4(),
        AcceleratorConfig::table4().with_terms_per_group(4),
        AcceleratorConfig::table4().with_tiles(1),
    ];
    for cfg in &configs {
        for layer in &bundle.trace.layers {
            for mode in [ValueMode::Raw, ValueMode::Differential] {
                assert_eq!(
                    term_serial_layer(layer, cfg, mode),
                    term_serial_layer_reference(layer, cfg, mode),
                    "layer {} mode {mode:?} T{}",
                    layer.name,
                    cfg.terms_per_group,
                );
            }
        }
    }
}

/// The deterministic synthetic layer behind the cycle fingerprints: the
/// same generator the micro-kernel bench uses, at a small fixed size.
fn fingerprint_layer() -> LayerTrace {
    generated_layer(24, 37, ConvGeometry::same(3, 3))
}

/// A 16-channel `h × w` layer from the fingerprint generator, with 16
/// 3×3 filters at `geom`.
fn generated_layer(h: usize, w: usize, geom: ConvGeometry) -> LayerTrace {
    let c = 16;
    let data: Vec<i16> = (0..c * h * w)
        .map(|i| ((i as u64).wrapping_mul(6364136223846793005) >> 48) as i16)
        .collect();
    LayerTrace {
        name: "fingerprint".into(),
        index: 0,
        imap: Tensor3::from_vec(c, h, w, data),
        fmaps: Tensor4::filled(16, c, 3, 3, 1),
        geom,
        relu: true,
        requant_shift: 12,
        requant_bias: 0,
        next_stride: 1,
    }
}

#[test]
fn term_serial_cycle_fingerprints_are_stable() {
    // Pinned cycle counts for a deterministic layer under the Table IV
    // configuration. CI runs this as its divergence gate: if either the
    // optimized kernel or the reference loop nest starts producing
    // different integers, the cost model changed — which must be a
    // deliberate, reviewed event, not a refactoring side effect.
    const FINGERPRINTS: [(ValueMode, u64); 2] =
        [(ValueMode::Raw, 930), (ValueMode::Differential, 768)];
    let t = fingerprint_layer();
    let cfg = AcceleratorConfig::table4();
    for (mode, cycles) in FINGERPRINTS {
        let optimized = term_serial_layer(&t, &cfg, mode);
        let reference = term_serial_layer_reference(&t, &cfg, mode);
        assert_eq!(optimized, reference, "{mode:?}: kernels diverged");
        assert_eq!(optimized.cycles, cycles, "{mode:?}: fingerprint drift");
    }
}

#[test]
fn tile_emulator_cycles_match_the_analytical_model_on_real_layers() {
    // Post-ReLU imaps are non-negative, so the emulator's exact deltas
    // and the model's wrapped 16-bit deltas coincide — cycle counts must
    // be identical for the single-tile configuration.
    let bundle =
        ci_trace_bundle(CiModel::DnCnn, DatasetId::Hd33, 0, &WorkloadOptions::test_small());
    let tile_cfg = TileConfig::default();
    let mut sim_cfg = AcceleratorConfig::table4();
    sim_cfg.tiles = 1;
    for layer in bundle.trace.layers.iter().step_by(5) {
        let run = run_tile(layer, &tile_cfg);
        let model = term_serial_layer(layer, &sim_cfg, ValueMode::Differential);
        assert_eq!(
            run.compute_cycles, model.cycles,
            "layer {}: emulator vs model",
            layer.name
        );
    }
}

#[test]
fn sync_group_and_tile_fingerprints_are_stable() {
    // Pinned cycles of the fingerprint layer off the Table IV defaults:
    // T4 and T1 split its 16 channels into 4 and 16 synchronization
    // chunks, and one tile leaves every output row to a single tile.
    // Both kernels must agree with each other and with the pins.
    const FINGERPRINTS: [(&str, [u64; 2]); 3] =
        [("T4", [3330, 3010]), ("T1", [10805, 11808]), ("1 tile", [3719, 3070])];
    let t = fingerprint_layer();
    let configs = [
        AcceleratorConfig::table4().with_terms_per_group(4),
        AcceleratorConfig::table4().with_terms_per_group(1),
        AcceleratorConfig::table4().with_tiles(1),
    ];
    let actual: Vec<(&str, [u64; 2])> = FINGERPRINTS
        .iter()
        .zip(configs)
        .map(|(&(what, _), cfg)| {
            let cycles = [ValueMode::Raw, ValueMode::Differential].map(|mode| {
                let optimized = term_serial_layer(&t, &cfg, mode);
                let reference = term_serial_layer_reference(&t, &cfg, mode);
                assert_eq!(optimized, reference, "{what} {mode:?}: kernels diverged");
                optimized.cycles
            });
            (what, cycles)
        })
        .collect();
    assert_eq!(actual, FINGERPRINTS, "fingerprint drift");
}

#[test]
fn stripes_and_potential_fingerprints_are_stable() {
    // The two other consumers of the term-plane builder, pinned on the
    // same layer: Stripes' precision-plane cycles (Table IV, raw then
    // differential) and the Fig. 4 potential's three term totals.
    const STRIPES: [u64; 2] = [2520, 2520];
    const POTENTIAL: (u64, u64, u64) = (2045952, 664850, 736697);
    let t = fingerprint_layer();
    let cfg = AcceleratorConfig::table4();
    let stripes = [ValueMode::Raw, ValueMode::Differential].map(|mode| {
        let fast = stripes_layer(&t, &cfg, mode);
        assert_eq!(fast, stripes_layer_reference(&t, &cfg, mode), "{mode:?}: kernels diverged");
        fast.cycles
    });
    let p = layer_potential(&t);
    assert_eq!(
        (stripes, (p.all_terms, p.raw_terms, p.delta_terms)),
        (STRIPES, POTENTIAL),
        "fingerprint drift"
    );
}

/// The pins of one large layer: term-serial `LayerCycles` (raw, then
/// differential), Stripes cycles (raw, then differential), the three
/// potential totals, and the imap's DeltaD16, RawD8, RawD16 and RawD256
/// bytes.
type LargePins = ([LayerCycles; 2], [u64; 2], [u64; 3], [u64; 4]);

/// What the kernels compute on `t`, each checked against its reference
/// first: the term-serial and Stripes kernels against their loop nests,
/// the potential against the terms the term-serial reference counts,
/// and the footprints against the portable loop summed row by row.
fn large_layer_pins(t: &LayerTrace) -> LargePins {
    let cfg = AcceleratorConfig::table4();
    let modes = [ValueMode::Raw, ValueMode::Differential];
    let term_serial = modes.map(|mode| {
        let fast = term_serial_layer(t, &cfg, mode);
        assert_eq!(fast, term_serial_layer_reference(t, &cfg, mode), "{mode:?}: kernels diverged");
        fast
    });
    let stripes = modes.map(|mode| {
        let fast = stripes_layer(t, &cfg, mode);
        assert_eq!(fast, stripes_layer_reference(t, &cfg, mode), "{mode:?}: Stripes diverged");
        fast.cycles
    });
    // The reference's useful slots are its window terms times K, and
    // the potential's effectual totals are the same window terms.
    let p = layer_potential(t);
    let (out, f) = (t.out_shape(), t.fmaps.shape());
    let fetches = (out.h * out.w * f.h * f.w * f.c) as u64;
    let terms = term_serial.map(|r| r.useful_slots / out.c as u64);
    assert_eq!(
        (p.all_terms, p.raw_terms, p.delta_terms),
        (fetches * 16, terms[0], terms[1]),
        "potential diverged from the reference's terms"
    );
    let s = t.imap.shape();
    let sign = tensor_signedness(&t.imap);
    let schemes = [
        StorageScheme::delta_d(16),
        StorageScheme::raw_d(8),
        StorageScheme::raw_d(16),
        StorageScheme::raw_d(256),
    ];
    let bytes = schemes.map(|scheme| {
        let got = encoded_bytes(&t.imap, scheme);
        let rows = (0..s.c).flat_map(|c| (0..s.h).map(move |y| t.imap.row(c, y)));
        let portable: u64 = rows.map(|row| scheme.row_bits_portable(row, sign)).sum();
        assert_eq!(got, portable.div_ceil(8), "{scheme}: footprint diverged from portable loop");
        got
    });
    (term_serial, stripes, [p.all_terms, p.raw_terms, p.delta_terms], bytes)
}

#[test]
fn large_layer_fingerprints_are_stable() {
    // A 16x541x957 layer from the fingerprint generator, at stride 1 and
    // stride 2. Its plane build, footprints and window walks each read
    // more than 2^20 values, so every stage splits into row bands on a
    // multi-core host; at stride 2 `out_w` is 479, so pallets straddle
    // output rows and band boundaries. The pins must hold at any band
    // count, one included.
    const fn cycles(cycles: u64, useful_slots: u64, total_slots: u64, macs: u64) -> LayerCycles {
        let compute_events = useful_slots;
        LayerCycles { cycles, useful_slots, total_slots, compute_events, filter_passes: 1, macs }
    }
    const BYTES: [u64; 4] = [16827264, 17086944, 16827264, 16584896];
    const PINS: [LargePins; 2] = [
        (
            [
                cycles(542399, 6481974176, 8886665216, 1192866048),
                cycles(436920, 7144966736, 7158497280, 1192866048),
            ],
            [1167120, 1167120],
            [1192866048, 405123386, 446560421],
            BYTES,
        ),
        (
            [
                cycles(136274, 1622057984, 2232713216, 299079936),
                cycles(109551, 1518514640, 1794883584, 299079936),
            ],
            [291960, 291960],
            [299079936, 101378624, 94907165],
            BYTES,
        ),
    ];
    let actual: Vec<LargePins> = [ConvGeometry::same(3, 3), ConvGeometry::strided(2, 1)]
        .into_iter()
        .map(|geom| large_layer_pins(&generated_layer(541, 957, geom)))
        .collect();
    assert_eq!(actual, PINS, "fingerprint drift");
}
