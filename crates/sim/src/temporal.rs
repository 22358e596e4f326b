//! Temporal and spatio-temporal differential processing — the combination
//! of Diffy with CBInfer-style cross-frame deltas the paper's related
//! work motivates (§V: "the two concepts could potentially be combined").
//!
//! For video, each layer's imap at frame *t* can be expressed relative to
//! frame *t−1*: the temporal delta `a_t − a_{t−1}` is small wherever the
//! scene is static. Processing those deltas term-serially is the
//! temporal analogue of Diffy; applying Diffy's *spatial* delta transform
//! on top of the temporal deltas handles panning content where both
//! correlations exist. Unlike CBInfer (a GPU software technique keyed on
//! thresholded changes), this stays bit-exact: the previous frame's
//! outputs are buffered and updated, trading extra storage for work —
//! exactly the trade-off the paper sketches.

use crate::config::AcceleratorConfig;
use crate::report::NetworkCycles;
use crate::term_serial::{term_serial_layer, ValueMode};
use diffy_models::{LayerTrace, NetworkTrace};
use diffy_tensor::Tensor3;

/// How cross-frame information is exploited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemporalMode {
    /// Process raw temporal deltas (`a_t − a_{t−1}` element-wise).
    TemporalOnly,
    /// Diffy's spatial delta transform applied to the temporal deltas.
    SpatioTemporal,
}

impl TemporalMode {
    /// Both modes.
    pub const ALL: [TemporalMode; 2] = [TemporalMode::TemporalOnly, TemporalMode::SpatioTemporal];

    /// The mode's wire name in session requests.
    pub fn name(&self) -> &'static str {
        match self {
            TemporalMode::TemporalOnly => "temporal",
            TemporalMode::SpatioTemporal => "spatiotemporal",
        }
    }

    /// The §V architecture label: what a result of this mode reports as
    /// its architecture.
    pub fn label(&self) -> &'static str {
        match self {
            TemporalMode::TemporalOnly => "Diffy-T",
            TemporalMode::SpatioTemporal => "Diffy-ST",
        }
    }
}

/// The wrapped element-wise temporal delta of two imaps.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn temporal_imap(prev: &Tensor3<i16>, cur: &Tensor3<i16>) -> Tensor3<i16> {
    assert_eq!(prev.shape(), cur.shape(), "frame shape mismatch");
    let data = cur
        .iter()
        .zip(prev.iter())
        .map(|(&c, &p)| c.wrapping_sub(p))
        .collect();
    Tensor3::from_vec(cur.shape().c, cur.shape().h, cur.shape().w, data)
}

/// Simulates frame `cur` given frame `prev` of the same network under
/// temporal differential processing.
///
/// The cycle model is the term-serial engine run over the temporal-delta
/// imaps; [`TemporalMode::SpatioTemporal`] additionally applies Diffy's
/// row-anchored spatial delta on top.
///
/// # Panics
///
/// Panics if the two traces have different layer structure.
pub fn temporal_network(
    prev: &NetworkTrace,
    cur: &NetworkTrace,
    cfg: &AcceleratorConfig,
    mode: TemporalMode,
) -> NetworkCycles {
    assert_eq!(prev.layers.len(), cur.layers.len(), "trace structure mismatch");
    let layers = prev
        .layers
        .iter()
        .zip(cur.layers.iter())
        .map(|(p, c)| {
            assert_eq!(p.imap.shape(), c.imap.shape(), "layer {} shape mismatch", c.name);
            let fake = LayerTrace {
                name: c.name.clone(),
                index: c.index,
                imap: temporal_imap(&p.imap, &c.imap),
                fmaps: c.fmaps.clone(),
                geom: c.geom,
                relu: c.relu,
                requant_shift: c.requant_shift,
                requant_bias: c.requant_bias,
                next_stride: c.next_stride,
            };
            let value_mode = match mode {
                TemporalMode::TemporalOnly => ValueMode::Raw,
                TemporalMode::SpatioTemporal => ValueMode::Differential,
            };
            term_serial_layer(&fake, cfg, value_mode)
        })
        .collect();
    NetworkCycles { arch: mode.label(), layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term_serial::term_serial_network;
    use diffy_tensor::{ConvGeometry, Tensor4};

    fn mk_layer(imap: Tensor3<i16>) -> LayerTrace {
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

    fn mk_net(imap: Tensor3<i16>) -> NetworkTrace {
        NetworkTrace {
            model: "m".into(),
            layers: vec![mk_layer(imap)],
            output: Tensor3::<i16>::new(1, 1, 1),
        }
    }

    fn busy_imap(shift: i16) -> Tensor3<i16> {
        let data: Vec<i16> = (0..4 * 8 * 32)
            .map(|i| 300 + ((i * 37) % 251) as i16 + shift)
            .collect();
        Tensor3::from_vec(4, 8, 32, data)
    }

    #[test]
    fn temporal_imap_wraps_exactly() {
        let a = Tensor3::from_vec(1, 1, 3, vec![i16::MAX, 0, -5]);
        let b = Tensor3::from_vec(1, 1, 3, vec![i16::MIN, 7, -5]);
        let d = temporal_imap(&a, &b);
        assert_eq!(d.as_slice(), &[1, 7, 0]); // MIN - MAX wraps to 1
    }

    #[test]
    fn static_video_is_nearly_free_temporally() {
        let frame = busy_imap(0);
        let prev = mk_net(frame.clone());
        let cur = mk_net(frame);
        let cfg = AcceleratorConfig::table4();
        let spatial = term_serial_network(&cur.clone(), &cfg, ValueMode::Differential);
        let temporal = temporal_network(&prev, &cur, &cfg, TemporalMode::TemporalOnly);
        assert_eq!(temporal.total_cycles(), 0, "identical frames cost nothing");
        assert!(spatial.total_cycles() > 0);
    }

    #[test]
    fn slowly_changing_video_favors_temporal_processing() {
        // Uniform brightness drift: temporal deltas are a constant +2,
        // spatial structure unchanged (and busy).
        let prev = mk_net(busy_imap(0));
        let cur = mk_net(busy_imap(2));
        let cfg = AcceleratorConfig::table4();
        let spatial = term_serial_network(&cur.clone(), &cfg, ValueMode::Differential);
        let temporal = temporal_network(&prev, &cur, &cfg, TemporalMode::TemporalOnly);
        assert!(
            temporal.total_cycles() < spatial.total_cycles(),
            "temporal {} !< spatial {}",
            temporal.total_cycles(),
            spatial.total_cycles()
        );
    }

    #[test]
    fn spatiotemporal_wins_when_temporal_deltas_are_spatially_smooth() {
        // Temporal deltas form a smooth gradient: combining both axes
        // compresses further than temporal alone.
        let base = busy_imap(0);
        let mut cur_imap = base.clone();
        let s = cur_imap.shape();
        for c in 0..s.c {
            for y in 0..s.h {
                for x in 0..s.w {
                    // Change slowly along x: delta(x) - delta(x-1) is tiny.
                    *cur_imap.at_mut(c, y, x) =
                        cur_imap.at(c, y, x).wrapping_add(100 + (x as i16) / 4);
                }
            }
        }
        let prev = mk_net(base);
        let cur = mk_net(cur_imap);
        let cfg = AcceleratorConfig::table4();
        let t = temporal_network(&prev, &cur, &cfg, TemporalMode::TemporalOnly);
        let st = temporal_network(&prev, &cur, &cfg, TemporalMode::SpatioTemporal);
        assert!(
            st.total_cycles() < t.total_cycles(),
            "spatio-temporal {} !< temporal {}",
            st.total_cycles(),
            t.total_cycles()
        );
    }

    #[test]
    #[should_panic(expected = "frame shape mismatch")]
    fn shape_mismatch_rejected() {
        let a = Tensor3::<i16>::new(1, 2, 2);
        let b = Tensor3::<i16>::new(1, 2, 3);
        let _ = temporal_imap(&a, &b);
    }
}
