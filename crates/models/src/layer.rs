//! Layer specifications.

use diffy_tensor::ConvGeometry;

/// A convolutional layer: `k` square `f × f` filters over the incoming
/// channel count, with optional fused ReLU.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Human-readable layer name (e.g. `conv_3`).
    pub name: String,
    /// Number of output channels `K`.
    pub out_channels: usize,
    /// Square filter side `F` (`Fh == Fw == F`).
    pub filter: usize,
    /// Stride / padding / dilation.
    pub geom: ConvGeometry,
    /// Whether a ReLU follows the convolution.
    pub relu: bool,
}

impl ConvSpec {
    /// A 3×3 stride-1 same-padded conv — the CI-DNN workhorse.
    pub fn same3(name: impl Into<String>, out_channels: usize, relu: bool) -> Self {
        Self {
            name: name.into(),
            out_channels,
            filter: 3,
            geom: ConvGeometry::same(3, 3),
            relu,
        }
    }

    /// A dilated 3×3 same-padded conv (IRCNN style).
    pub fn dilated3(name: impl Into<String>, out_channels: usize, dilation: usize, relu: bool) -> Self {
        Self {
            name: name.into(),
            out_channels,
            filter: 3,
            geom: ConvGeometry::same_dilated(3, dilation),
            relu,
        }
    }

    /// Size in bytes of a single filter at 16-bit weights.
    pub fn filter_bytes(&self, in_channels: usize) -> usize {
        in_channels * self.filter * self.filter * 2
    }

    /// Size in bytes of all this layer's filters at 16-bit weights
    /// (Table I's "total filter size per layer").
    pub fn total_filter_bytes(&self, in_channels: usize) -> usize {
        self.out_channels * self.filter_bytes(in_channels)
    }
}

/// One layer of a model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LayerSpec {
    /// A convolution (the only layer kind the accelerators execute).
    Conv(ConvSpec),
    /// Non-overlapping max pooling (classification models).
    MaxPool {
        /// Square window/stride.
        window: usize,
    },
    /// 2× nearest-neighbour upsampling (decoder halves).
    Upsample2x,
}

impl LayerSpec {
    /// Convenience accessor: the conv spec if this is a conv layer.
    pub fn as_conv(&self) -> Option<&ConvSpec> {
        match self {
            LayerSpec::Conv(c) => Some(c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same3_has_unit_stride_and_pad_one() {
        let c = ConvSpec::same3("c", 64, true);
        assert_eq!(c.geom.stride, 1);
        assert_eq!(c.geom.pad, 1);
        assert_eq!(c.geom.dilation, 1);
        assert!(c.relu);
    }

    #[test]
    fn dilated3_pads_to_preserve_size() {
        let c = ConvSpec::dilated3("c", 64, 4, true);
        assert_eq!(c.geom.dilation, 4);
        assert_eq!(c.geom.pad, 4);
        assert_eq!(c.geom.out_dim(57, 3), 57);
    }

    #[test]
    fn table1_filter_sizes() {
        // 64-channel 3x3 filter = 1.125 KB; 64 of them = 72 KB (Table I,
        // DnCNN/IRCNN/VDSR columns).
        let c = ConvSpec::same3("c", 64, true);
        assert_eq!(c.filter_bytes(64), 1152);
        assert_eq!(c.total_filter_bytes(64), 73_728);
    }

    #[test]
    fn as_conv_filters_non_conv_layers() {
        assert!(LayerSpec::MaxPool { window: 2 }.as_conv().is_none());
        assert!(LayerSpec::Conv(ConvSpec::same3("c", 8, false)).as_conv().is_some());
    }
}
