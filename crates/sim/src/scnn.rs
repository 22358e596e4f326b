//! A cycle model of SCNN, the sparse CNN accelerator Diffy is compared
//! against in Fig. 20.
//!
//! SCNN executes only the Cartesian products of nonzero activations and
//! nonzero weights, channel by channel: an activation `a(c, y, x)` is
//! multiplied against every nonzero weight of channel `c` across all
//! filters, and the products are scatter-added into output accumulators.
//! The model counts exactly those products and divides by the multiplier
//! throughput, discounted by a utilization factor covering the
//! fragmentation, halo and accumulator-bank-contention losses the SCNN
//! paper reports. We use the published configuration scale (1024
//! multipliers — 64 PEs × 4×4 arrays — matching the 1K-MAC Diffy
//! configuration of Table IV).

use crate::config::Architecture;
use crate::report::{LayerCycles, NetworkCycles};
use diffy_models::{LayerTrace, NetworkTrace};

/// SCNN configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScnnConfig {
    /// Total multipliers (64 PEs × 16 = 1024 in the published design).
    pub multipliers: usize,
    /// Sustained fraction of peak multiplier throughput. The SCNN paper
    /// reports ~70–80% across GoogLeNet/VGG; CI-DNN layer shapes sit in
    /// the same regime.
    pub efficiency: f64,
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
}

impl Default for ScnnConfig {
    fn default() -> Self {
        Self { multipliers: 1024, efficiency: 0.75, frequency_ghz: 1.0 }
    }
}

/// Nonzero-product count of one layer: `Σ_c nnz_act(c) × nnz_w(c)`.
///
/// This is exact for unit-stride convolutions (every activation meets
/// every same-channel weight exactly once across the sliding windows,
/// border halo aside) and a close upper bound otherwise.
pub fn nonzero_products(trace: &LayerTrace) -> u64 {
    let ishape = trace.imap.shape();
    let fshape = trace.fmaps.shape();
    let mut products = 0u64;
    for c in 0..ishape.c {
        let nnz_a = trace.imap.channel(c).iter().filter(|&&v| v != 0).count() as u64;
        let mut nnz_w = 0u64;
        for k in 0..fshape.k {
            for j in 0..fshape.h {
                for i in 0..fshape.w {
                    if *trace.fmaps.at(k, c, j, i) != 0 {
                        nnz_w += 1;
                    }
                }
            }
        }
        products += nnz_a * nnz_w;
    }
    products
}

/// Simulates one layer on SCNN.
pub fn scnn_layer(trace: &LayerTrace, cfg: &ScnnConfig) -> LayerCycles {
    let products = nonzero_products(trace);
    let throughput = (cfg.multipliers as f64 * cfg.efficiency).max(1.0);
    let cycles = (products as f64 / throughput).ceil() as u64;
    let out = trace.out_shape();
    let fshape = trace.fmaps.shape();
    let macs = (out.c * out.h * out.w) as u64 * (fshape.c * fshape.h * fshape.w) as u64;
    LayerCycles {
        cycles,
        useful_slots: products,
        total_slots: cycles * cfg.multipliers as u64,
        compute_events: products,
        filter_passes: 1,
        macs,
    }
}

/// Simulates every layer of a network trace on SCNN.
pub fn scnn_network(trace: &NetworkTrace, cfg: &ScnnConfig) -> NetworkCycles {
    NetworkCycles {
        arch: Architecture::Scnn.name(),
        layers: trace.layers.iter().map(|l| scnn_layer(l, cfg)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};

    fn mk_trace(imap: Tensor3<i16>, fmaps: Tensor4<i16>) -> LayerTrace {
        LayerTrace {
            name: "t".into(),
            index: 0,
            imap,
            fmaps,
            geom: ConvGeometry::same(3, 3),
            relu: true,
            requant_shift: 12,
            requant_bias: 0,
            next_stride: 1,
        }
    }

    #[test]
    fn products_count_nonzero_pairs_per_channel() {
        // Channel 0: 2 nonzero acts, 3 nonzero weights; channel 1: 1 x 1.
        let imap = Tensor3::from_vec(2, 1, 3, vec![5, 0, 7, 0, 0, 2]);
        let mut fmaps = Tensor4::<i16>::new(1, 2, 3, 3);
        *fmaps.at_mut(0, 0, 0, 0) = 1;
        *fmaps.at_mut(0, 0, 1, 1) = 2;
        *fmaps.at_mut(0, 0, 2, 2) = 3;
        *fmaps.at_mut(0, 1, 0, 0) = 4;
        let t = mk_trace(imap, fmaps);
        assert_eq!(nonzero_products(&t), 2 * 3 + 1);
    }

    #[test]
    fn weight_sparsity_cuts_scnn_cycles() {
        let imap = Tensor3::<i16>::filled(16, 8, 8, 3);
        let dense = Tensor4::<i16>::filled(16, 16, 3, 3, 1);
        let mut sparse = dense.clone();
        for (i, w) in sparse.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *w = 0;
            }
        }
        let cfg = ScnnConfig::default();
        let d = scnn_layer(&mk_trace(imap.clone(), dense), &cfg);
        let s = scnn_layer(&mk_trace(imap, sparse), &cfg);
        assert_eq!(s.useful_slots * 2, d.useful_slots);
        assert!(s.cycles < d.cycles);
    }

    #[test]
    fn activation_sparsity_cuts_scnn_cycles() {
        let dense = Tensor3::<i16>::filled(16, 8, 8, 3);
        let mut sparse = dense.clone();
        for (i, v) in sparse.as_mut_slice().iter_mut().enumerate() {
            if i % 4 != 0 {
                *v = 0;
            }
        }
        let fmaps = Tensor4::<i16>::filled(16, 16, 3, 3, 1);
        let cfg = ScnnConfig::default();
        let d = scnn_layer(&mk_trace(dense, fmaps.clone()), &cfg);
        let s = scnn_layer(&mk_trace(sparse, fmaps), &cfg);
        assert!(s.cycles * 3 < d.cycles);
    }

    #[test]
    fn zero_products_zero_cycles() {
        let t = mk_trace(Tensor3::<i16>::new(2, 4, 4), Tensor4::<i16>::filled(2, 2, 3, 3, 1));
        let r = scnn_layer(&t, &ScnnConfig::default());
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn efficiency_scales_cycles() {
        let t = mk_trace(
            Tensor3::<i16>::filled(16, 8, 8, 3),
            Tensor4::<i16>::filled(16, 16, 3, 3, 1),
        );
        let full = scnn_layer(&t, &ScnnConfig { efficiency: 1.0, ..Default::default() });
        let half = scnn_layer(&t, &ScnnConfig { efficiency: 0.5, ..Default::default() });
        assert!((half.cycles as f64 / full.cycles as f64 - 2.0).abs() < 0.01);
    }
}
