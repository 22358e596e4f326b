//! On-chip link bandwidth: what the dispatcher must pull out of the AM.
//!
//! The paper's delta storage does not only shrink the AM (Table V) — it
//! "boost\[s\] the effective capacity of on- and off-chip storage and
//! communication links". This module quantifies the *link* half of that
//! claim: the dispatcher feeds 16 columns × 16 lanes from the AM, and
//! the bits it must read per compute cycle scale with the storage
//! scheme's bits-per-value. A faster architecture (fewer cycles for the
//! same fetches) needs *more* bits per cycle, so compression is what
//! keeps a sped-up Diffy inside a fixed AM read width.

use diffy_encoding::StorageScheme;
use diffy_models::LayerTrace;

use crate::traffic::tensor_signedness;

/// Dispatcher demand on the AM read port for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatcherDemand {
    /// Activation values fetched from the AM over the layer (each brick
    /// is fetched once per pallet and reused across the 16 windows).
    pub values_fetched: u64,
    /// Average encoded bits per value under the scheme.
    pub mean_bits_per_value: f64,
    /// Average AM read bits per compute cycle.
    pub bits_per_cycle: f64,
}

/// Computes the dispatcher's AM read demand for a layer executed in
/// `compute_cycles` under `scheme`.
///
/// Fetch accounting: every `(channel, j, i)` element of every window is
/// consumed once, amortized over the `windows` concurrent columns that
/// share each fetched brick (the paper's 16-window pallet reuse).
///
/// # Panics
///
/// Panics if `compute_cycles == 0` or `windows == 0`.
pub fn dispatcher_demand(
    trace: &LayerTrace,
    scheme: StorageScheme,
    compute_cycles: u64,
    windows: usize,
) -> DispatcherDemand {
    assert!(compute_cycles > 0, "layer must take at least one cycle");
    assert!(windows > 0, "need at least one window column");
    let out = trace.out_shape();
    let f = trace.fmaps.shape();
    let per_window = (f.c * f.h * f.w) as u64;
    let values_fetched =
        (out.h * out.w) as u64 * per_window / windows as u64;

    let sign = tensor_signedness(&trace.imap);
    let total_bits = scheme.tensor_bits(&trace.imap, sign) as f64;
    let mean_bits = total_bits / trace.imap.len().max(1) as f64;

    DispatcherDemand {
        values_fetched,
        mean_bits_per_value: mean_bits,
        bits_per_cycle: values_fetched as f64 * mean_bits / compute_cycles as f64,
    }
}

/// Effective link-capacity boost of a scheme over 16-bit storage: how
/// many more values the same physical read width delivers per cycle.
pub fn link_capacity_boost(demand: &DispatcherDemand) -> f64 {
    16.0 / demand.mean_bits_per_value.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_models::LayerTrace;
    use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};

    fn smooth_trace() -> LayerTrace {
        let data: Vec<i16> = (0..8 * 8 * 32).map(|i| 700 + (i % 32) as i16).collect();
        LayerTrace {
            name: "t".into(),
            index: 0,
            imap: Tensor3::from_vec(8, 8, 32, data),
            fmaps: Tensor4::<i16>::filled(8, 8, 3, 3, 1),
            geom: ConvGeometry::same(3, 3),
            relu: true,
            requant_shift: 12,
            requant_bias: 0,
            next_stride: 1,
        }
    }

    #[test]
    fn fetch_accounting_divides_by_window_reuse() {
        let t = smooth_trace();
        let d = dispatcher_demand(&t, StorageScheme::NoCompression, 1000, 16);
        // 8x32 windows x 8x3x3 per window / 16-way reuse.
        assert_eq!(d.values_fetched, (8 * 32 * 8 * 9 / 16) as u64);
        assert!((d.mean_bits_per_value - 16.0).abs() < 1e-9);
    }

    #[test]
    fn delta_storage_cuts_link_demand() {
        let t = smooth_trace();
        let none = dispatcher_demand(&t, StorageScheme::NoCompression, 1000, 16);
        let delta = dispatcher_demand(&t, StorageScheme::delta_d(16), 1000, 16);
        assert!(delta.bits_per_cycle < none.bits_per_cycle / 2.0);
        assert!(link_capacity_boost(&delta) > 2.0);
        assert!((link_capacity_boost(&none) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_without_compression_raises_bits_per_cycle() {
        // The motivating interaction: halve the cycles (a faster
        // architecture) and the uncompressed link demand doubles —
        // compression is what keeps it inside a fixed read width.
        let t = smooth_trace();
        let slow = dispatcher_demand(&t, StorageScheme::NoCompression, 2000, 16);
        let fast = dispatcher_demand(&t, StorageScheme::NoCompression, 1000, 16);
        assert!((fast.bits_per_cycle / slow.bits_per_cycle - 2.0).abs() < 1e-9);
        let fast_delta = dispatcher_demand(&t, StorageScheme::delta_d(16), 1000, 16);
        assert!(fast_delta.bits_per_cycle < slow.bits_per_cycle);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycles_rejected() {
        let t = smooth_trace();
        let _ = dispatcher_demand(&t, StorageScheme::NoCompression, 0, 16);
    }
}
