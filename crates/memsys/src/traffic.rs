//! Off-chip traffic accounting per layer and storage scheme.
//!
//! Diffy's dataflow (§III-F) reads each weight and input activation once
//! per layer and writes each output activation once, so per-layer traffic
//! is the encoded imap size (read) plus the encoded omap size (write)
//! plus the raw weight bytes. Group headers are included — these are the
//! "metadata" Fig. 14 says must be taken into account.
//!
//! Every footprint comes from [`StorageScheme::tensor_bits`], which
//! counts a tensor of at least 2^20 values in row bands on the cores
//! (each `(c, y)` row is encoded on its own), so [`encoded_bytes`],
//! [`network_traffic`] and [`network_traffic_profiled`] use both cores
//! on a large tensor with no change of their own. RawD's signedness
//! pass ([`tensor_signedness`]) ORs the same tensors in bands too.

use diffy_encoding::precision::Signedness;
use diffy_encoding::StorageScheme;
use diffy_models::NetworkTrace;
use diffy_tensor::{bands, Tensor3};

/// Off-chip traffic of one layer, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTraffic {
    /// Encoded imap read.
    pub imap_read_bytes: u64,
    /// Encoded omap write.
    pub omap_write_bytes: u64,
    /// Weights read (always raw 16-bit; fmaps are small and reused).
    pub weight_bytes: u64,
}

impl LayerTraffic {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.imap_read_bytes + self.omap_write_bytes + self.weight_bytes
    }

    /// Activation-only bytes (the quantity Figs. 5 and 14 normalize).
    pub fn activation_bytes(&self) -> u64 {
        self.imap_read_bytes + self.omap_write_bytes
    }
}

/// Signedness of a tensor's population, detected from its values: one
/// branch-free OR over the raw bits, whose sign bit is set iff some value
/// is negative. A tensor of at least 2^20 values is ORed in bands on the
/// cores ([`bands::count`]), and the bands' ORs are ORed.
pub fn tensor_signedness(t: &Tensor3<i16>) -> Signedness {
    tensor_signedness_in_bands(t, bands::count(t.len()))
}

/// [`tensor_signedness`] over `bands` contiguous bands of the flat
/// values.
fn tensor_signedness_in_bands(t: &Tensor3<i16>, bands: usize) -> Signedness {
    let values = t.as_slice();
    let parts = values.chunks(bands::rows_per(values.len(), bands));
    let ors = bands::run(parts, |band| band.iter().fold(0u16, |or, &v| or | v as u16));
    if ors.into_iter().fold(0, |or, band| or | band) & 0x8000 != 0 {
        Signedness::Signed
    } else {
        Signedness::Unsigned
    }
}

/// Encoded size of a tensor under a scheme, in bytes (rounded up).
pub fn encoded_bytes(t: &Tensor3<i16>, scheme: StorageScheme) -> u64 {
    // Only RawD's footprint depends on the population's signedness, so
    // only RawD pays for the detection pass.
    let sign = match scheme {
        StorageScheme::RawDynamic { .. } => tensor_signedness(t),
        _ => Signedness::Signed,
    };
    scheme.tensor_bits(t, sign).div_ceil(8)
}

/// Per-layer traffic of a whole network trace: imap read + omap write +
/// weights, under the given activation storage scheme.
pub fn network_traffic(trace: &NetworkTrace, scheme: StorageScheme) -> Vec<LayerTraffic> {
    traffic_of_tensors(trace, |t| encoded_bytes(t, scheme))
}

/// Per-layer traffic where the `Profiled` scheme derives its per-layer
/// precision from the layer's own activation population (the per-layer
/// profiling of Table III). For other schemes this equals
/// [`network_traffic`].
pub fn network_traffic_profiled(trace: &NetworkTrace, quantile: f64) -> Vec<LayerTraffic> {
    use diffy_encoding::precision::profiled_precision;
    use diffy_tensor::stats::MagnitudeHistogram;
    traffic_of_tensors(trace, |t| {
        let mut h = MagnitudeHistogram::new();
        h.extend_from_slice(t.as_slice());
        let bits = profiled_precision(&h, tensor_signedness(t), quantile);
        encoded_bytes(t, StorageScheme::Profiled { bits })
    })
}

/// Per-layer traffic from the encoded size of each activation tensor.
/// Layer `i`'s omap is layer `i + 1`'s imap ([`NetworkTrace::omap`]), so
/// each of the L + 1 distinct tensors is encoded once, not twice.
fn traffic_of_tensors(
    trace: &NetworkTrace,
    bytes: impl Fn(&Tensor3<i16>) -> u64,
) -> Vec<LayerTraffic> {
    let tensor_bytes: Vec<u64> =
        trace.layers.iter().map(|l| &l.imap).chain([&trace.output]).map(bytes).collect();
    trace
        .layers
        .iter()
        .zip(tensor_bytes.windows(2))
        .map(|(l, b)| LayerTraffic {
            imap_read_bytes: b[0],
            omap_write_bytes: b[1],
            weight_bytes: l.fmaps.len() as u64 * 2,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_models::LayerTrace;
    use diffy_tensor::{ConvGeometry, Tensor4};

    fn mk_trace(imap: Tensor3<i16>) -> LayerTrace {
        let c = imap.shape().c;
        LayerTrace {
            name: "t".into(),
            index: 0,
            imap,
            fmaps: Tensor4::<i16>::filled(4, c, 3, 3, 1),
            geom: ConvGeometry::same(3, 3),
            relu: true,
            requant_shift: 12,
            requant_bias: 0,
            next_stride: 1,
        }
    }

    fn smooth_imap() -> Tensor3<i16> {
        let data: Vec<i16> = (0..4 * 8 * 32)
            .map(|i| 500 + ((i % 32) as i16) * 2)
            .collect();
        Tensor3::from_vec(4, 8, 32, data)
    }

    /// Traffic of a one-layer trace from `imap` to `omap`.
    fn one_layer(imap: Tensor3<i16>, omap: Tensor3<i16>, scheme: StorageScheme) -> LayerTraffic {
        let nt = NetworkTrace { model: "m".into(), layers: vec![mk_trace(imap)], output: omap };
        network_traffic(&nt, scheme)[0]
    }

    #[test]
    fn no_compression_is_two_bytes_per_value() {
        let omap = Tensor3::<i16>::filled(4, 8, 32, 3);
        let tr = one_layer(smooth_imap(), omap, StorageScheme::NoCompression);
        assert_eq!(tr.imap_read_bytes, (4 * 8 * 32) * 2);
        assert_eq!(tr.omap_write_bytes, (4 * 8 * 32) * 2);
        assert_eq!(tr.weight_bytes, (4 * 4 * 9) * 2);
        assert_eq!(tr.total_bytes(), tr.activation_bytes() + tr.weight_bytes);
    }

    #[test]
    fn delta_scheme_beats_raw_on_smooth_data() {
        let raw = one_layer(smooth_imap(), smooth_imap(), StorageScheme::raw_d(16));
        let delta = one_layer(smooth_imap(), smooth_imap(), StorageScheme::delta_d(16));
        assert!(delta.activation_bytes() < raw.activation_bytes());
    }

    #[test]
    fn signedness_detection() {
        assert_eq!(
            tensor_signedness(&Tensor3::from_vec(1, 1, 2, vec![0i16, 5])),
            Signedness::Unsigned
        );
        assert_eq!(
            tensor_signedness(&Tensor3::from_vec(1, 1, 2, vec![0i16, -5])),
            Signedness::Signed
        );
    }

    #[test]
    fn banded_signedness_sees_a_lone_negative_anywhere() {
        // 3·5 = 15 values: one band, two bands of 8 and 7, three of 5.
        // The only negative value sits first, last, and on each side of
        // every band boundary.
        let n = 15;
        for bands in [1, 2, 3] {
            let per = bands::rows_per(n, bands);
            let boundaries = (1..bands).flat_map(|b| [b * per - 1, b * per]);
            for at in [0, n - 1].into_iter().chain(boundaries) {
                let mut data = vec![7i16; n];
                data[at] = -1;
                let t = Tensor3::from_vec(3, 1, 5, data);
                let got = tensor_signedness_in_bands(&t, bands);
                assert_eq!(got, Signedness::Signed, "negative at {at}, {bands} bands");
            }
            let all_positive = Tensor3::from_vec(3, 1, 5, vec![i16::MAX; n]);
            assert_eq!(tensor_signedness_in_bands(&all_positive, bands), Signedness::Unsigned);
        }
        let empty = Tensor3::<i16>::new(0, 4, 4);
        assert_eq!(tensor_signedness_in_bands(&empty, 2), Signedness::Unsigned);
    }

    #[test]
    fn network_traffic_uses_next_imap_as_omap() {
        let l0 = mk_trace(smooth_imap());
        let l1 = mk_trace(Tensor3::<i16>::filled(4, 8, 32, 9));
        let out = Tensor3::<i16>::filled(4, 8, 32, 1);
        let nt = NetworkTrace { model: "m".into(), layers: vec![l0, l1], output: out };
        let traffic = network_traffic(&nt, StorageScheme::NoCompression);
        assert_eq!(traffic.len(), 2);
        // Layer 0 writes layer 1's imap.
        assert_eq!(traffic[0].omap_write_bytes, (4 * 8 * 32) * 2);
    }

    #[test]
    fn profiled_traffic_is_below_no_compression() {
        let l0 = mk_trace(smooth_imap());
        let out = smooth_imap();
        let nt = NetworkTrace { model: "m".into(), layers: vec![l0], output: out };
        let profiled = network_traffic_profiled(&nt, 0.999);
        let none = network_traffic(&nt, StorageScheme::NoCompression);
        // Values max out near 563 -> 11 unsigned bits < 16.
        assert!(profiled[0].activation_bytes() < none[0].activation_bytes());
    }
}
