//! End-to-end evaluation of a network trace on one architecture:
//! cycle model + activation storage scheme + off-chip memory.
//!
//! This is the composition the paper's performance figures are built
//! from: per layer, `time = max(compute, transfer)` under the
//! double-buffered row dataflow, with the storage scheme setting the
//! transfer volume.

use diffy_encoding::StorageScheme;
use diffy_memsys::overlap::{combine, fps, LayerTiming};
use diffy_memsys::traffic::{layer_traffic, network_traffic_profiled, LayerTraffic};
use diffy_memsys::MemorySystem;
use diffy_models::{LayerTrace, NetworkTrace};
use diffy_sim::scnn::{scnn_network, ScnnConfig};
use diffy_sim::{
    term_serial_network_with_terms, vaa_network, AcceleratorConfig, Architecture, LayerCycles,
    PaddedTerms, ValueMode,
};
use std::sync::Arc;

/// A per-layer source of prebuilt [`PaddedTerms`], shared across the
/// evaluations of one trace so N architectures/configurations pay the
/// expensive term-plane build once per layer (see `diffy_sim`'s
/// group-reduced term planes). Must be callable from several workers.
pub type TermPlaneSource<'a> = &'a (dyn Fn(usize, &LayerTrace) -> Arc<PaddedTerms> + Sync);

/// Activation storage scheme selection, including the paper's "Ideal"
/// (infinite bandwidth) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeChoice {
    /// A concrete storage scheme (NoCompression, RawD16, DeltaD16, …).
    Scheme(StorageScheme),
    /// Per-layer profile-derived precisions at the given magnitude
    /// quantile (Table III / the "Profiled" bars).
    Profiled {
        /// Quantile of the magnitude distribution the precision covers.
        quantile: f64,
    },
    /// Infinite off-chip bandwidth — isolates compute.
    Ideal,
}

impl SchemeChoice {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            SchemeChoice::Scheme(s) => s.to_string(),
            SchemeChoice::Profiled { .. } => "Profiled".to_string(),
            SchemeChoice::Ideal => "Ideal".to_string(),
        }
    }
}

/// Options for one evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// Which architecture to model.
    pub arch: Architecture,
    /// Tile configuration.
    pub cfg: AcceleratorConfig,
    /// Activation storage scheme.
    pub scheme: SchemeChoice,
    /// Off-chip memory system.
    pub memory: MemorySystem,
}

impl EvalOptions {
    /// Paper-default evaluation: Table IV config, DDR4-3200, the given
    /// architecture and scheme.
    pub fn new(arch: Architecture, scheme: SchemeChoice) -> Self {
        Self {
            arch,
            cfg: AcceleratorConfig::table4(),
            scheme,
            memory: MemorySystem::single(diffy_memsys::MemoryNode::Ddr4_3200),
        }
    }
}

/// Per-layer evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    /// Layer name.
    pub name: String,
    /// Compute-cycle accounting.
    pub compute: LayerCycles,
    /// Off-chip traffic.
    pub traffic: LayerTraffic,
    /// Combined timing.
    pub timing: LayerTiming,
}

/// Whole-network evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkResult {
    /// Model name.
    pub model: String,
    /// Architecture name.
    pub arch: &'static str,
    /// Scheme label.
    pub scheme: String,
    /// Per-layer results.
    pub layers: Vec<LayerResult>,
    /// The configuration's clock, for FPS conversions.
    pub frequency_ghz: f64,
}

impl NetworkResult {
    /// Total execution cycles (compute and stalls).
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.timing.total_cycles).sum()
    }

    /// Total compute cycles.
    pub fn compute_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.timing.compute_cycles).sum()
    }

    /// Total stall cycles.
    pub fn stall_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.timing.stall_cycles).sum()
    }

    /// Fraction of execution spent stalled on off-chip memory.
    pub fn stall_fraction(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            0.0
        } else {
            self.stall_cycles() as f64 / t as f64
        }
    }

    /// Total off-chip traffic in bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.traffic.total_bytes()).sum()
    }

    /// Activation-only off-chip traffic in bytes.
    pub fn activation_traffic_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.traffic.activation_bytes()).sum()
    }

    /// Frames per second at the traced resolution.
    pub fn fps(&self) -> f64 {
        fps(self.total_cycles(), self.frequency_ghz)
    }

    /// Frames per second projected to a different source resolution.
    ///
    /// CI-DNNs are fully convolutional, so per-frame work scales linearly
    /// with pixel count (DESIGN.md §2.3): cycles scale by
    /// `target_pixels / traced_pixels`.
    pub fn fps_scaled(&self, traced_pixels: u64, target_pixels: u64) -> f64 {
        assert!(traced_pixels > 0, "traced pixel count must be positive");
        let scale = target_pixels as f64 / traced_pixels as f64;
        let cycles = (self.total_cycles() as f64 * scale).ceil();
        if cycles == 0.0 {
            f64::INFINITY
        } else {
            self.frequency_ghz * 1e9 / cycles
        }
    }
}

/// Evaluates a network trace under the given options, building every
/// artifact fresh. Batches that price one trace many times go through
/// [`crate::runner::SweepCache::evaluate_points`] instead.
pub fn evaluate_network(trace: &NetworkTrace, opts: &EvalOptions) -> NetworkResult {
    evaluate_network_with_artifacts(trace, opts, None, None)
}

/// Per-layer off-chip traffic of a whole trace under one scheme choice.
///
/// A pure function of `(trace, scheme)` — the bitstream encodings it
/// counts never depend on the architecture, memory node, or any prior
/// evaluation. Extracted so callers that price one trace repeatedly (the
/// serve/sweep cache) can memoize it: for the concrete schemes this
/// re-encodes every layer's input and output activation maps, which is
/// the dominant cost of a warm evaluation.
pub fn network_scheme_traffic(trace: &NetworkTrace, scheme: SchemeChoice) -> Vec<LayerTraffic> {
    match scheme {
        SchemeChoice::Scheme(s) => trace
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| layer_traffic(l, trace.omap(i), s))
            .collect(),
        SchemeChoice::Profiled { quantile } => network_traffic_profiled(trace, quantile),
        SchemeChoice::Ideal => trace
            .layers
            .iter()
            .map(|_| LayerTraffic::default())
            .collect(),
    }
}

/// A shared source of the per-layer traffic vector for the trace being
/// evaluated, under the scheme in the caller's [`EvalOptions`]. Must
/// return exactly [`network_scheme_traffic`] of that pair; callers use
/// it to serve memoized traffic. Must be callable from several workers.
pub type TrafficSource<'a> = &'a (dyn Fn() -> Arc<Vec<LayerTraffic>> + Sync);

/// [`evaluate_network`] over optional shared artifact sources.
///
/// The term-serial architectures (PRA, Diffy) draw each layer's
/// [`PaddedTerms`] from `terms`, and the memory model draws the
/// storage-scheme traffic vector from `traffic`, so callers evaluating
/// one trace many times amortize both builds. `None` builds the
/// artifact fresh: planes once per layer per evaluation, traffic once
/// per evaluation. Results are bit-identical either way, because both
/// artifacts are pure functions of the trace (and the scheme).
pub fn evaluate_network_with_artifacts(
    trace: &NetworkTrace,
    opts: &EvalOptions,
    terms: Option<TermPlaneSource<'_>>,
    traffic: Option<TrafficSource<'_>>,
) -> NetworkResult {
    let _eval_span = crate::trace::span_args("evaluate_network", || {
        vec![
            ("model", trace.model.clone().into()),
            ("arch", opts.arch.name().into()),
            ("scheme", opts.scheme.label().into()),
        ]
    });
    let terms_for = |i: usize, layer: &LayerTrace| match terms {
        Some(source) => source(i, layer),
        None => {
            let _s = crate::trace::span_args("term_plane_build", || vec![("layer", i.into())]);
            Arc::new(PaddedTerms::for_layer(layer))
        }
    };
    let compute = {
        let _s = crate::trace::span_args("tile_sim", || vec![("arch", opts.arch.name().into())]);
        match opts.arch {
            Architecture::Vaa => vaa_network(trace, &opts.cfg),
            Architecture::Pra => {
                term_serial_network_with_terms(trace, &opts.cfg, ValueMode::Raw, terms_for)
            }
            Architecture::Diffy => {
                term_serial_network_with_terms(trace, &opts.cfg, ValueMode::Differential, terms_for)
            }
            Architecture::Scnn => scnn_network(
                trace,
                &ScnnConfig { frequency_ghz: opts.cfg.frequency_ghz, ..Default::default() },
            ),
        }
    };

    let _memsys_span = crate::trace::span("memsys_model");
    let traffic: Arc<Vec<LayerTraffic>> = match traffic {
        Some(source) => source(),
        None => Arc::new(network_scheme_traffic(trace, opts.scheme)),
    };

    let memory = match opts.scheme {
        SchemeChoice::Ideal => MemorySystem::ideal(),
        _ => opts.memory,
    };

    let layers = trace
        .layers
        .iter()
        .zip(compute.layers.iter())
        .zip(traffic.iter())
        .map(|((lt, lc), tr)| LayerResult {
            name: lt.name.clone(),
            compute: *lc,
            traffic: *tr,
            timing: combine(lc.cycles, tr, &memory, opts.cfg.frequency_ghz),
        })
        .collect();

    NetworkResult {
        model: trace.model.clone(),
        arch: compute.arch,
        scheme: opts.scheme.label(),
        layers,
        frequency_ghz: opts.cfg.frequency_ghz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_memsys::MemoryNode;
    use diffy_models::{
        run_network, ConvSpec, LayerSpec, ModelSpec, NetworkWeights, WeightGen,
    };
    use diffy_tensor::{Quantizer, Tensor3};

    fn smooth_trace() -> NetworkTrace {
        let spec = ModelSpec::new(
            "t",
            1,
            vec![
                LayerSpec::Conv(ConvSpec::same3("c0", 8, true)),
                LayerSpec::Conv(ConvSpec::same3("c1", 1, false)),
            ],
        );
        let w = NetworkWeights::generate(&spec, WeightGen::new(1), Quantizer::default());
        let data: Vec<i16> = (0..32 * 32)
            .map(|i| {
                let x = (i % 32) as f32;
                let y = (i / 32) as f32;
                (120.0 + 50.0 * ((x / 7.0).sin() + (y / 9.0).cos())) as i16
            })
            .collect();
        run_network(&spec, &w, &Tensor3::from_vec(1, 32, 32, data))
    }

    #[test]
    fn diffy_beats_pra_beats_vaa_on_smooth_input() {
        let trace = smooth_trace();
        let scheme = SchemeChoice::Scheme(StorageScheme::delta_d(16));
        let vaa = evaluate_network(&trace, &EvalOptions::new(Architecture::Vaa, scheme));
        let pra = evaluate_network(&trace, &EvalOptions::new(Architecture::Pra, scheme));
        let diffy = evaluate_network(&trace, &EvalOptions::new(Architecture::Diffy, scheme));
        assert!(pra.total_cycles() < vaa.total_cycles());
        assert!(diffy.total_cycles() < pra.total_cycles());
        assert!(diffy.fps() > vaa.fps());
    }

    #[test]
    fn ideal_scheme_removes_stalls() {
        let trace = smooth_trace();
        let mut opts = EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal);
        opts.memory = MemorySystem::single(MemoryNode::Lpddr3_1600);
        let r = evaluate_network(&trace, &opts);
        assert_eq!(r.stall_cycles(), 0);
        assert_eq!(r.total_traffic_bytes(), 0);
    }

    #[test]
    fn compression_reduces_traffic_and_stalls() {
        let trace = smooth_trace();
        let mut none = EvalOptions::new(
            Architecture::Diffy,
            SchemeChoice::Scheme(StorageScheme::NoCompression),
        );
        // A deliberately weak memory so stalls appear at this tiny size.
        none.memory = MemorySystem { node: MemoryNode::Lpddr3_1600, channels: 1 };
        let mut delta = none;
        delta.scheme = SchemeChoice::Scheme(StorageScheme::delta_d(16));
        let r_none = evaluate_network(&trace, &none);
        let r_delta = evaluate_network(&trace, &delta);
        assert!(r_delta.activation_traffic_bytes() < r_none.activation_traffic_bytes());
        assert!(r_delta.total_cycles() <= r_none.total_cycles());
    }

    #[test]
    fn profiled_traffic_sits_between_none_and_dynamic() {
        let trace = smooth_trace();
        let mk = |scheme| {
            evaluate_network(&trace, &EvalOptions::new(Architecture::Diffy, scheme))
                .activation_traffic_bytes()
        };
        let none = mk(SchemeChoice::Scheme(StorageScheme::NoCompression));
        let prof = mk(SchemeChoice::Profiled { quantile: 0.999 });
        let delta = mk(SchemeChoice::Scheme(StorageScheme::delta_d(16)));
        assert!(prof < none);
        assert!(delta < prof);
    }

    #[test]
    fn fps_scaling_is_linear_in_pixels() {
        let trace = smooth_trace();
        let r = evaluate_network(
            &trace,
            &EvalOptions::new(Architecture::Vaa, SchemeChoice::Ideal),
        );
        let base = r.fps_scaled(1024, 1024);
        let quarter = r.fps_scaled(1024, 4096);
        assert!((base / quarter - 4.0).abs() < 0.01, "{base} vs {quarter}");
    }

    #[test]
    fn layer_results_align_with_trace() {
        let trace = smooth_trace();
        let r = evaluate_network(
            &trace,
            &EvalOptions::new(Architecture::Pra, SchemeChoice::Ideal),
        );
        assert_eq!(r.layers.len(), trace.layers.len());
        assert_eq!(r.layers[0].name, "c0");
        assert_eq!(r.arch, "PRA");
    }
}
