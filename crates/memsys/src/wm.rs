//! Weight-memory (WM) sizing.
//!
//! §III-F: the WM holds all fmaps processed concurrently, doubled so the
//! next set (same layer or next layer) loads behind the current one. The
//! paper's Table V arrives at 324 KB for the Table I networks — twice
//! FFDNet's 162 KB maximum per-layer filter set — rounded up to 512 KB
//! when provisioned.

use diffy_models::NetworkTrace;

/// WM bytes one network needs: double the largest per-layer filter set.
pub fn network_wm_bytes(trace: &NetworkTrace) -> u64 {
    2 * trace
        .layers
        .iter()
        .map(|l| l.fmaps.len() as u64 * 2)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_models::LayerTrace;
    use diffy_tensor::{ConvGeometry, Tensor3, Tensor4};

    fn mk_trace(k: usize, c: usize) -> LayerTrace {
        LayerTrace {
            name: "t".into(),
            index: 0,
            imap: Tensor3::<i16>::new(c, 4, 4),
            fmaps: Tensor4::<i16>::new(k, c, 3, 3),
            geom: ConvGeometry::same(3, 3),
            relu: true,
            requant_shift: 12,
            requant_bias: 0,
            next_stride: 1,
        }
    }

    fn mk_net(layers: Vec<LayerTrace>) -> NetworkTrace {
        NetworkTrace { model: "m".into(), layers, output: Tensor3::<i16>::new(1, 1, 1) }
    }

    #[test]
    fn doubles_the_largest_layer() {
        let net = mk_net(vec![mk_trace(8, 4), mk_trace(16, 8)]);
        // Largest: 16*8*9 weights * 2 B = 2304 B; doubled = 4608.
        assert_eq!(network_wm_bytes(&net), 2 * 16 * 8 * 9 * 2);
    }

    #[test]
    fn ffdnet_shaped_layer_gives_paper_wm() {
        // 96 filters x 96 channels x 3x3 x 2 B = 162 KB; doubled = 324 KB.
        let net = mk_net(vec![mk_trace(96, 96)]);
        assert_eq!(network_wm_bytes(&net), 331_776);
    }
}
