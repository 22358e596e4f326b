//! The value-agnostic baseline accelerator (Fig. 6).
//!
//! A VAA tile has `filters_per_tile` inner-product units, each consuming a
//! brick of `lanes` activations per cycle; filters are partitioned across
//! tiles and every tile walks the same window sequence. Execution time
//! depends only on the layer's dimensions — never on the values — which is
//! exactly what makes it the "déjà vu" baseline the paper improves on.

use crate::config::{AcceleratorConfig, Architecture};
use crate::report::{LayerCycles, NetworkCycles};
use diffy_models::{LayerTrace, NetworkTrace};

/// Simulates one layer on VAA.
pub fn vaa_layer(trace: &LayerTrace, cfg: &AcceleratorConfig) -> LayerCycles {
    let ishape = trace.imap.shape();
    let fshape = trace.fmaps.shape();
    let out = trace.out_shape();

    let chunks = ishape.c.div_ceil(cfg.lanes) as u64;
    let window_cycles = chunks * (fshape.h * fshape.w) as u64;
    let (passes, spatial) =
        crate::report::tile_partition(out.c, out.h, cfg.filters_per_tile, cfg.tiles);
    let cycles = ((out.h * out.w) as u64 * window_cycles * passes).div_ceil(spatial);

    let macs = (out.c * out.h * out.w) as u64 * (fshape.c * fshape.h * fshape.w) as u64;
    // One MAC occupies one lane slot; capacity is lanes × filter rows ×
    // tiles (VAA processes a single window at a time per tile).
    let lane_capacity = (cfg.lanes * cfg.filters_per_tile * cfg.tiles) as u64;
    LayerCycles {
        cycles,
        useful_slots: macs,
        total_slots: cycles * lane_capacity,
        compute_events: macs,
        filter_passes: passes,
        macs,
    }
}

/// Simulates every layer of a network trace on VAA.
pub fn vaa_network(trace: &NetworkTrace, cfg: &AcceleratorConfig) -> NetworkCycles {
    NetworkCycles {
        arch: Architecture::Vaa.name(),
        layers: trace.layers.iter().map(|l| vaa_layer(l, cfg)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term_serial::{term_serial_layer, ValueMode};
    use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};

    fn mk_trace(c: usize, h: usize, w: usize, k: usize, f: usize) -> LayerTrace {
        LayerTrace {
            name: "t".into(),
            index: 0,
            imap: Tensor3::<i16>::filled(c, h, w, 85), // 0b0101_0101: 4 terms
            fmaps: Tensor4::<i16>::filled(k, c, f, f, 1),
            geom: ConvGeometry::same(f, f),
            relu: true,
            requant_shift: 12,
            requant_bias: 0,
            next_stride: 1,
        }
    }

    #[test]
    fn cycles_match_closed_form() {
        let t = mk_trace(64, 8, 8, 64, 3);
        let cfg = AcceleratorConfig::table4();
        let r = vaa_layer(&t, &cfg);
        // 8x8 windows x ceil(64/16)=4 chunks x 9 positions x 1 pass.
        assert_eq!(r.cycles, 64 * 4 * 9);
        assert_eq!(r.filter_passes, 1);
    }

    #[test]
    fn underutilized_channels_do_not_reduce_cycles() {
        let full = vaa_layer(&mk_trace(16, 8, 8, 16, 3), &AcceleratorConfig::table4());
        let thin = vaa_layer(&mk_trace(3, 8, 8, 16, 3), &AcceleratorConfig::table4());
        // 3 channels still occupy a full 16-lane brick step.
        assert_eq!(full.cycles, thin.cycles);
        assert!(thin.utilization() < full.utilization());
    }

    #[test]
    fn vaa_is_value_agnostic() {
        let mut a = mk_trace(16, 6, 6, 16, 3);
        let b = mk_trace(16, 6, 6, 16, 3);
        for v in a.imap.as_mut_slice() {
            *v = 0; // all-zero values
        }
        let cfg = AcceleratorConfig::table4();
        assert_eq!(vaa_layer(&a, &cfg).cycles, vaa_layer(&b, &cfg).cycles);
    }

    #[test]
    fn more_tiles_cut_cycles_only_with_enough_filters() {
        let t = mk_trace(64, 8, 8, 128, 3);
        let c4 = vaa_layer(&t, &AcceleratorConfig::table4());
        let c8 = vaa_layer(&t, &AcceleratorConfig::table4().with_tiles(8));
        assert_eq!(c4.cycles, 2 * c8.cycles); // 128 filters: 2 passes vs 1
        // A shallow-K layer cannot use more tiles on the filter axis, but
        // surplus tiles split output rows spatially.
        let small = mk_trace(64, 8, 8, 8, 3);
        let s4 = vaa_layer(&small, &AcceleratorConfig::table4());
        let s8 = vaa_layer(&small, &AcceleratorConfig::table4().with_tiles(8));
        assert_eq!(s4.cycles, 2 * s8.cycles);
    }

    #[test]
    fn pra_worst_case_matches_vaa() {
        // 0x5555 activations have the max 8 effectual terms; PRA processes
        // 16 windows concurrently, so per-window it spends 8 cycles where
        // VAA spends 1 x 16-window-equivalent... with the paper's 2x
        // over-provisioning PRA can only tie or win.
        let mut t = mk_trace(16, 4, 32, 16, 1);
        for v in t.imap.as_mut_slice() {
            *v = 0x5555;
        }
        let cfg = AcceleratorConfig::table4();
        let vaa = vaa_layer(&t, &cfg);
        let pra = term_serial_layer(&t, &cfg, ValueMode::Raw);
        // VAA: 128 windows x 1 chunk x 1 pos = 128 cycles, split across
        // 4 tiles spatially (K=16 fills one tile group) -> 32.
        // PRA: 8 pallets x 8 terms = 64 cycles (16 windows in flight),
        // same 4-way split -> 16.
        assert_eq!(vaa.cycles, 32);
        assert_eq!(pra.cycles, 16);
    }

    #[test]
    fn network_aggregation() {
        let t = NetworkTrace {
            model: "m".into(),
            layers: vec![mk_trace(16, 4, 4, 16, 3), mk_trace(16, 4, 4, 16, 3)],
            output: Tensor3::<i16>::new(16, 4, 4),
        };
        let n = vaa_network(&t, &AcceleratorConfig::table4());
        assert_eq!(n.arch, "VAA");
        assert_eq!(n.layers.len(), 2);
        assert_eq!(n.total_cycles(), 2 * n.layers[0].cycles);
    }
}
