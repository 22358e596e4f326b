//! Cross-validation of the three implementation layers on real traces:
//! the microarchitectural tile emulator must reproduce the inference
//! engine's activations bit-for-bit, write exactly the deltas the storage
//! schemes assume, and count exactly the cycles the analytical model
//! prices.
//!
//! The pinned fingerprints are computed from term planes and footprints
//! on every instruction set this CPU runs (`Isa::available()`), so the
//! portable strips are held to the same pins as the dispatched ones.

use diffy::core::runner::{ci_trace_bundle, WorkloadOptions};
use diffy::core::tile::{run_tile, TileConfig};
use diffy::encoding::delta::delta_rows_wrapping;
use diffy::encoding::StorageScheme;
use diffy::imaging::datasets::DatasetId;
use diffy::memsys::traffic::{encoded_bytes, tensor_signedness};
use diffy::models::{CiModel, LayerTrace};
use diffy::sim::potential::layer_potential_with_terms;
use diffy::sim::stripes::{stripes_layer_reference, stripes_layer_with_planes};
use diffy::sim::term_serial::Metric;
use diffy::sim::{
    term_serial_layer, term_serial_layer_reference, term_serial_layer_with_terms,
    AcceleratorConfig, LayerCycles, PaddedTerms, ValueMode,
};
use diffy::tensor::{ConvGeometry, Isa, Tensor3, Tensor4};

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

/// The planes of `t` at synchronization group `g` under `metric`, built
/// on the strip of `isa`.
fn planes_on(t: &LayerTrace, g: usize, metric: Metric, isa: Isa) -> PaddedTerms {
    PaddedTerms::build_on(&t.imap, t.geom.pad, t.geom.stride, g, metric, isa)
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
    for &isa in Isa::available() {
        let terms = planes_on(&t, cfg.terms_per_group, Metric::Booth, isa);
        for (mode, cycles) in FINGERPRINTS {
            let optimized = term_serial_layer_with_terms(&t, &cfg, mode, &terms);
            let reference = term_serial_layer_reference(&t, &cfg, mode);
            assert_eq!(optimized, reference, "{mode:?} {isa:?}: kernels diverged");
            assert_eq!(optimized.cycles, cycles, "{mode:?} {isa:?}: fingerprint drift");
        }
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
    // Both kernels, on the planes of every ISA, must agree with each
    // other and with the pins.
    const FINGERPRINTS: [(&str, [u64; 2]); 3] =
        [("T4", [3330, 3010]), ("T1", [10805, 11808]), ("1 tile", [3719, 3070])];
    let t = fingerprint_layer();
    let configs = [
        AcceleratorConfig::table4().with_terms_per_group(4),
        AcceleratorConfig::table4().with_terms_per_group(1),
        AcceleratorConfig::table4().with_tiles(1),
    ];
    for &isa in Isa::available() {
        let actual: Vec<(&str, [u64; 2])> = FINGERPRINTS
            .iter()
            .zip(&configs)
            .map(|(&(what, _), cfg)| {
                let terms = planes_on(&t, cfg.terms_per_group, Metric::Booth, isa);
                let cycles = [ValueMode::Raw, ValueMode::Differential].map(|mode| {
                    let optimized = term_serial_layer_with_terms(&t, cfg, mode, &terms);
                    let reference = term_serial_layer_reference(&t, cfg, mode);
                    assert_eq!(optimized, reference, "{what} {mode:?} {isa:?}: kernels diverged");
                    optimized.cycles
                });
                (what, cycles)
            })
            .collect();
        assert_eq!(actual, FINGERPRINTS, "{isa:?}: fingerprint drift");
    }
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
    let g = cfg.terms_per_group;
    for &isa in Isa::available() {
        let precisions = planes_on(&t, g, Metric::Stripes, isa);
        let stripes = [ValueMode::Raw, ValueMode::Differential].map(|mode| {
            let fast = stripes_layer_with_planes(&t, &cfg, mode, &precisions);
            let reference = stripes_layer_reference(&t, &cfg, mode);
            assert_eq!(fast, reference, "{mode:?} {isa:?}: kernels diverged");
            fast.cycles
        });
        let p = layer_potential_with_terms(&t, &planes_on(&t, g, Metric::Booth, isa));
        assert_eq!(
            (stripes, (p.all_terms, p.raw_terms, p.delta_terms)),
            (STRIPES, POTENTIAL),
            "{isa:?}: fingerprint drift"
        );
    }
}

/// The pins of one large layer: term-serial `LayerCycles` (raw, then
/// differential), Stripes cycles (raw, then differential), the three
/// potential totals, and the imap's DeltaD16, RawD8, RawD16 and RawD256
/// bytes.
type LargePins = ([LayerCycles; 2], [u64; 2], [u64; 3], [u64; 4]);

/// The pins of `t`, each taken from its reference: the term-serial and
/// Stripes loop nests, the potential from the terms the term-serial
/// reference counts, and the footprints `memsys::traffic` prices. On
/// every ISA the kernels must reproduce them from planes built on that
/// ISA's strip, and the footprint counter from its own count.
fn large_layer_pins(t: &LayerTrace) -> LargePins {
    let cfg = AcceleratorConfig::table4();
    let modes = [ValueMode::Raw, ValueMode::Differential];
    let term_serial = modes.map(|mode| term_serial_layer_reference(t, &cfg, mode));
    let stripes = modes.map(|mode| stripes_layer_reference(t, &cfg, mode).cycles);
    // The reference's useful slots are its window terms times K, and
    // the potential's effectual totals are the same window terms.
    let (out, f) = (t.out_shape(), t.fmaps.shape());
    let fetches = (out.h * out.w * f.h * f.w * f.c) as u64;
    let terms = term_serial.map(|r| r.useful_slots / out.c as u64);
    let schemes = [
        StorageScheme::delta_d(16),
        StorageScheme::raw_d(8),
        StorageScheme::raw_d(16),
        StorageScheme::raw_d(256),
    ];
    let bytes = schemes.map(|scheme| encoded_bytes(&t.imap, scheme));
    let pins = (term_serial, stripes, [fetches * 16, terms[0], terms[1]], bytes);
    let (g, sign) = (cfg.terms_per_group, tensor_signedness(&t.imap));
    for &isa in Isa::available() {
        let (booth, precisions) =
            (planes_on(t, g, Metric::Booth, isa), planes_on(t, g, Metric::Stripes, isa));
        let p = layer_potential_with_terms(t, &booth);
        let on_isa = (
            modes.map(|mode| term_serial_layer_with_terms(t, &cfg, mode, &booth)),
            modes.map(|mode| stripes_layer_with_planes(t, &cfg, mode, &precisions).cycles),
            [p.all_terms, p.raw_terms, p.delta_terms],
            schemes.map(|scheme| scheme.tensor_bits_on(&t.imap, sign, isa).div_ceil(8)),
        );
        assert_eq!(on_isa, pins, "{isa:?}: kernels diverged from the references");
    }
    pins
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
