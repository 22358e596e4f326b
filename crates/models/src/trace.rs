//! Activation traces: the imaps every simulator and compression
//! experiment consumes.

use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};

/// The recorded execution of one conv layer.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    /// Layer name from the spec.
    pub name: String,
    /// Conv-layer index (0-based).
    pub index: usize,
    /// The imap this layer consumed (post-activation output of the
    /// previous layer, or the prepared network input).
    pub imap: Tensor3<i16>,
    /// The layer's filters.
    pub fmaps: Tensor4<i16>,
    /// Convolution geometry.
    pub geom: ConvGeometry,
    /// Whether a ReLU followed (determines the omap's signedness).
    pub relu: bool,
    /// The requantization shift the calibration chose for this layer.
    pub requant_shift: u32,
    /// Accumulator-domain bias added before requantization (the
    /// data-dependent sparsity bias of the synthetic weights; zero when
    /// the knob is off). Recorded so downstream emulators can reproduce
    /// the omap bit-exactly.
    pub requant_bias: i64,
    /// Stride of the *next* conv layer, used by Delta_out when writing
    /// this layer's omap as deltas (1 for the last layer).
    pub next_stride: usize,
}

impl LayerTrace {
    /// Output spatial shape of this layer.
    pub fn out_shape(&self) -> diffy_tensor::Shape3 {
        self.geom.out_shape(self.imap.shape(), self.fmaps.shape())
    }

    /// MACs this layer performs.
    pub fn macs(&self) -> u64 {
        let o = self.out_shape();
        let f = self.fmaps.shape();
        (o.c * o.h * o.w) as u64 * (f.c * f.h * f.w) as u64
    }
}

/// The recorded execution of a whole network on one input.
#[derive(Debug, Clone)]
pub struct NetworkTrace {
    /// Model name.
    pub model: String,
    /// Conv layers in execution order.
    pub layers: Vec<LayerTrace>,
    /// The network's final output (after the last layer's activation).
    pub output: Tensor3<i16>,
}

impl NetworkTrace {
    /// Total MACs across all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs()).sum()
    }

    /// The omap of layer `i`: the imap of layer `i + 1`, or the network
    /// output for the last layer.
    ///
    /// The inference engine guarantees adjacency (pool/upsample stages
    /// between convs are folded into the next layer's imap), so the omap
    /// as written to AM by Delta_out is approximated by the next imap —
    /// exact for all CI-DNNs, which are purely convolutional.
    pub fn omap(&self, i: usize) -> &Tensor3<i16> {
        if i + 1 < self.layers.len() {
            &self.layers[i + 1].imap
        } else {
            &self.output
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_tensor::Shape3;

    fn mk_layer(index: usize, imap: Tensor3<i16>) -> LayerTrace {
        let c = imap.shape().c;
        LayerTrace {
            name: format!("conv_{index}"),
            index,
            imap,
            fmaps: Tensor4::<i16>::filled(2, c, 3, 3, 1),
            geom: ConvGeometry::same(3, 3),
            relu: true,
            requant_shift: 12,
            requant_bias: 0,
            next_stride: 1,
        }
    }

    #[test]
    fn out_shape_and_macs() {
        let l = mk_layer(0, Tensor3::<i16>::new(3, 4, 5));
        assert_eq!(l.out_shape(), Shape3::new(2, 4, 5));
        assert_eq!(l.macs(), (2 * 4 * 5) as u64 * 27);
    }

    #[test]
    fn network_trace_accessors() {
        let l0 = mk_layer(0, Tensor3::<i16>::filled(3, 4, 4, 1));
        let l1 = mk_layer(1, Tensor3::<i16>::filled(2, 4, 4, 2));
        let out = Tensor3::<i16>::filled(2, 4, 4, 3);
        let t = NetworkTrace { model: "m".into(), layers: vec![l0, l1], output: out };
        assert_eq!(t.omap(0).as_slice()[0], 2);
        assert_eq!(t.omap(1).as_slice()[0], 3);
        assert!(t.total_macs() > 0);
    }
}
