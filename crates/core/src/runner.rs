//! Workload orchestration: datasets → prepared inputs → traces.
//!
//! Traces are gathered at moderate resolutions and projected to HD
//! analytically (DESIGN.md §2.3): CI-DNNs are fully convolutional so
//! their per-pixel work and value statistics are resolution-stationary.
//! A [`TraceBundle`] carries the traced source-pixel count so projections
//! stay honest.

use crate::accelerator::{
    evaluate_network, evaluate_network_with_artifacts, network_scheme_traffic, EvalOptions,
    NetworkResult, SchemeChoice,
};
use crate::artifact::{result_key, DiskStats, DiskTier, EvalArtifact};
use crate::parallel::{run_jobs, Cache, CacheCounters, Jobs};
use diffy_encoding::StorageScheme;
use diffy_imaging::datasets::DatasetId;
use diffy_memsys::traffic::LayerTraffic;
use diffy_imaging::scenes::{render_scene, SceneKind};
use diffy_imaging::video::pan_frame;
use diffy_models::{run_network, CiModel, ClassModel, LayerTrace, NetworkTrace, NetworkWeights};
use diffy_sim::{
    temporal_network, term_serial_network, AcceleratorConfig, NetworkCycles, PaddedTerms,
    TemporalMode, ValueMode,
};
use diffy_tensor::Quantizer;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// Full-HD pixel count (1920 × 1080), the paper's headline resolution.
pub const HD_PIXELS: u64 = 1920 * 1080;

/// A trace plus the provenance needed to scale results.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// The recorded execution.
    pub trace: NetworkTrace,
    /// Pixels of the *source image* the input was prepared from.
    pub source_pixels: u64,
    /// Dataset the source image came from, if any.
    pub dataset: Option<DatasetId>,
    /// Sample index within the dataset.
    pub sample: usize,
}

impl TraceBundle {
    /// Evaluates this trace and returns the result together with the
    /// source pixel count (convenience for FPS projections).
    pub fn evaluate(&self, opts: &EvalOptions) -> NetworkResult {
        evaluate_network(&self.trace, opts)
    }

    /// FPS at HD resolution for an evaluation of this bundle.
    pub fn hd_fps(&self, result: &NetworkResult) -> f64 {
        result.fps_scaled(self.source_pixels, HD_PIXELS)
    }
}

/// Workload options shared by the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadOptions {
    /// Square trace resolution for the source images.
    pub resolution: usize,
    /// Samples drawn per dataset (the original corpora are larger; every
    /// bench prints this cap — no silent truncation).
    pub samples_per_dataset: usize,
    /// Base seed for weights and degradations.
    pub seed: u64,
}

impl WorkloadOptions {
    /// Bench defaults: 96×96 traces, 2 samples per dataset.
    pub fn bench_default() -> Self {
        Self { resolution: 96, samples_per_dataset: 2, seed: 1 }
    }

    /// Small configuration for tests.
    pub fn test_small() -> Self {
        Self { resolution: 32, samples_per_dataset: 1, seed: 1 }
    }
}

/// Traces one CI model on one dataset sample.
///
/// Weights are regenerated deterministically from the model and seed, so
/// repeated calls are consistent; callers tracing many samples should
/// reuse [`ci_weights`].
pub fn ci_trace_bundle(
    model: CiModel,
    dataset: DatasetId,
    sample: usize,
    opts: &WorkloadOptions,
) -> TraceBundle {
    let weights = ci_weights(model, opts.seed);
    ci_trace_bundle_with_weights(model, &weights, dataset, sample, opts)
}

/// Weights for a CI model (cacheable across samples).
pub fn ci_weights(model: CiModel, seed: u64) -> NetworkWeights {
    let _span = crate::trace::span_args("weight_gen", || vec![("model", model.to_string().into())]);
    NetworkWeights::generate(&model.spec(), model.weight_gen(seed), Quantizer::default())
}

/// Traces one CI model with pre-generated weights.
pub fn ci_trace_bundle_with_weights(
    model: CiModel,
    weights: &NetworkWeights,
    dataset: DatasetId,
    sample: usize,
    opts: &WorkloadOptions,
) -> TraceBundle {
    let _span = crate::trace::span_args("trace_synthesis", || {
        vec![
            ("model", model.to_string().into()),
            ("dataset", dataset.to_string().into()),
            ("sample", sample.into()),
            ("resolution", opts.resolution.into()),
        ]
    });
    let img = dataset.sample_scaled(sample, opts.resolution, opts.resolution);
    let input = model.prepare_input(&img, opts.seed ^ sample as u64);
    let trace = run_network(&model.spec(), weights, &input);
    TraceBundle {
        trace,
        source_pixels: (opts.resolution * opts.resolution) as u64,
        dataset: Some(dataset),
        sample,
    }
}

/// Traces a classification/detection model on a synthetic scene at the
/// given square resolution (its inputs are photographic scenes, so the
/// nature/city mix is used).
///
/// # Panics
///
/// Panics if `resolution` is below the model's
/// [`ClassModel::min_resolution`].
pub fn class_trace_bundle(model: ClassModel, resolution: usize, seed: u64) -> TraceBundle {
    assert!(
        resolution >= model.min_resolution(),
        "{model} needs at least {} px",
        model.min_resolution()
    );
    let kind = if seed.is_multiple_of(2) { SceneKind::Nature } else { SceneKind::City };
    let img = render_scene(kind, resolution, resolution, seed ^ 0x000C_1A55);
    let input = diffy_imaging::to_fixed(&img, Quantizer::default());
    let spec = model.spec();
    let weights = NetworkWeights::generate(
        &spec,
        diffy_models::WeightGen::new(seed ^ 0xC0DE).with_bias_shift(-0.25),
        Quantizer::default(),
    );
    let trace = run_network(&spec, &weights, &input);
    TraceBundle {
        trace,
        source_pixels: (resolution * resolution) as u64,
        dataset: None,
        sample: 0,
    }
}

/// Identity of one synthetic video stream: everything a frame — and
/// therefore its trace and its cycle results — is a pure function of.
///
/// The total `frames` horizon is part of the identity on purpose:
/// [`diffy_imaging::video::pan_sequence`] renders the underlying wide
/// scene at `w + pan_px * (frames − 1)`, so the *content* of frame `f`
/// depends on how long the stream will run. A streaming consumer fixes
/// the horizon up front and then every frame is a pure function of
/// `(spec, frame index)` — which is what makes per-frame artifacts
/// cacheable and shareable across concurrent sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VideoSpec {
    /// Model each frame runs through.
    pub model: CiModel,
    /// Scene category of the panning content.
    pub scene: SceneKind,
    /// Square frame resolution.
    pub resolution: usize,
    /// Total frame horizon of the stream (fixed at stream start).
    pub frames: usize,
    /// Horizontal camera pan in pixels per frame.
    pub pan_px: usize,
    /// Per-frame sensor-noise amplitude, keyed by its `f32` bit pattern
    /// so the spec stays `Eq + Hash` (see [`VideoSpec::noise`]).
    pub noise_bits: u32,
    /// Seed for the scene, the sensor noise, and the model weights.
    pub seed: u64,
}

impl VideoSpec {
    /// Builds a spec from a plain `f32` noise amplitude.
    pub fn new(
        model: CiModel,
        scene: SceneKind,
        resolution: usize,
        frames: usize,
        pan_px: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        Self { model, scene, resolution, frames, pan_px, noise_bits: noise.to_bits(), seed }
    }

    /// The sensor-noise amplitude as a float.
    pub fn noise(&self) -> f32 {
        f32::from_bits(self.noise_bits)
    }
}

/// Traces frame `frame` of the video stream `spec`: renders the frame
/// via [`pan_frame`] (bit-identical to the batch `pan_sequence` path),
/// degrades it with the model's input preparation, and runs the network.
///
/// The degradation seed is `spec.seed` for every frame — a temporally
/// static sensor pattern, the regime where cross-frame deltas are
/// meaningful (per-frame *scene* noise is still applied by `pan_frame`).
///
/// # Panics
///
/// Panics if `frame >= spec.frames`.
pub fn video_frame_bundle(spec: &VideoSpec, frame: usize) -> TraceBundle {
    let weights = ci_weights(spec.model, spec.seed);
    video_frame_bundle_with_weights(spec, &weights, frame)
}

/// [`video_frame_bundle`] with pre-generated weights (cacheable across
/// frames and sessions).
pub fn video_frame_bundle_with_weights(
    spec: &VideoSpec,
    weights: &NetworkWeights,
    frame: usize,
) -> TraceBundle {
    let _span = crate::trace::span_args("video_frame_trace", || {
        vec![
            ("model", spec.model.to_string().into()),
            ("frame", frame.into()),
            ("resolution", spec.resolution.into()),
        ]
    });
    let img = pan_frame(
        spec.scene,
        spec.resolution,
        spec.resolution,
        spec.frames,
        spec.pan_px,
        spec.noise(),
        spec.seed,
        frame,
    );
    let input = spec.model.prepare_input(&img, spec.seed);
    let trace = run_network(&spec.model.spec(), weights, &input);
    TraceBundle {
        trace,
        source_pixels: (spec.resolution * spec.resolution) as u64,
        dataset: None,
        sample: frame,
    }
}

/// Cache key for a trace: everything [`ci_trace_bundle`] derives its
/// output from — model, dataset, sample, trace resolution, and seed.
pub type TraceKey = (CiModel, DatasetId, usize, usize, u64);

/// Hashable identity of a [`SchemeChoice`] for the traffic memo.
/// `Profiled`'s f64 quantile is keyed by its bit pattern — distinct bit
/// patterns may never share a traffic vector, and identical ones are
/// the same pure computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SchemeKey {
    Scheme(StorageScheme),
    Profiled(u64),
    Ideal,
}

impl From<SchemeChoice> for SchemeKey {
    fn from(scheme: SchemeChoice) -> Self {
        match scheme {
            SchemeChoice::Scheme(s) => SchemeKey::Scheme(s),
            SchemeChoice::Profiled { quantile } => SchemeKey::Profiled(quantile.to_bits()),
            SchemeChoice::Ideal => SchemeKey::Ideal,
        }
    }
}

/// Compute-once store for the expensive artifacts of a sweep: network
/// weights keyed by `(model, seed)`, trace bundles keyed by
/// `(model, dataset, sample, resolution, seed)`, per-layer term planes
/// (`diffy_sim::PaddedTerms`) keyed by `(trace key, layer)`, and
/// per-trace storage-scheme traffic vectors keyed by
/// `(trace key, scheme)`.
///
/// All artifact kinds are pure functions of their keys, so cached
/// values are interchangeable with fresh regeneration — the cache only
/// removes the déjà vu of recomputing them for every consumer. Safe to
/// share across threads; concurrent requests for the same key compute it
/// once (see [`Cache`]).
///
/// With [`SweepCache::with_disk`] the cache becomes *tiered*: completed
/// evaluations ([`EvalArtifact`]s, keyed by the canonical
/// [`result_key`]) are looked up memory-first, then on the disk
/// artifact store, and only then computed — with a write-through so the
/// next cold start finds them. See [`SweepCache::evaluate_keyed`].
#[derive(Default)]
pub struct SweepCache {
    weights: Cache<(CiModel, u64), NetworkWeights>,
    traces: Cache<TraceKey, TraceBundle>,
    term_planes: Cache<(TraceKey, usize), PaddedTerms>,
    traffic: Cache<(TraceKey, SchemeKey), Vec<LayerTraffic>>,
    video_frames: Cache<(VideoSpec, usize), TraceBundle>,
    video_cycles: Cache<(VideoSpec, usize, VideoEval), NetworkCycles>,
    results: Cache<String, EvalArtifact>,
    disk: Option<DiskTier>,
}

/// Which cycle model a cached per-frame video result came from: the full
/// single-frame spatial re-evaluation, or the temporal engine against
/// the previous frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum VideoEval {
    Baseline,
    Temporal(TemporalMode),
}

/// `store.get_or_compute`, marking a request served without building —
/// a hit, or a wait on another thread's in-flight build — with a
/// `cache_hit` trace instant labelled `kind`.
fn get_or_build<K: Eq + Hash + Clone, V>(
    store: &Cache<K, V>,
    kind: &'static str,
    key: K,
    build: impl FnOnce() -> V,
) -> Arc<V> {
    let mut built = false;
    let v = store.get_or_compute(key, || {
        built = true;
        build()
    });
    if !built {
        crate::trace::instant("cache_hit", || vec![("kind", kind.into())]);
    }
    v
}

/// A point-in-time summary of a [`SweepCache`]'s counters: request
/// counts summed over all seven stores, and each store's residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from a completed cached artifact.
    pub hits: u64,
    /// Requests that computed their artifact.
    pub misses: u64,
    /// Artifacts evicted to make room (always 0 for an unbounded cache).
    pub evictions: u64,
    /// Distinct weight sets currently materialized.
    pub cached_weights: usize,
    /// Distinct traces currently materialized.
    pub cached_traces: usize,
    /// Distinct per-layer term planes currently materialized.
    pub cached_term_planes: usize,
    /// Distinct `(trace, scheme)` traffic vectors currently materialized.
    pub cached_traffic: usize,
    /// Distinct video frame traces currently materialized.
    pub cached_video_frames: usize,
    /// Distinct per-frame cycle results (baseline and temporal)
    /// currently materialized.
    pub cached_video_cycles: usize,
    /// Requests that waited on another thread's in-flight computation
    /// (neither a clean hit nor a fresh miss).
    pub shared: u64,
    /// Distinct complete evaluation results currently materialized in
    /// the memory tier.
    pub cached_results: usize,
    /// Disk artifact tier counters (all zero when no tier is attached).
    pub disk: DiskStats,
}

impl SweepCache {
    /// An empty, *unbounded* cache — the sweep default: every artifact is
    /// kept for the lifetime of the cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty, *size-bounded* cache for long-lived processes: at most
    /// `traces` trace bundles (and weight sets) and `term_planes`
    /// per-layer plane sets stay resident; least-recently-used artifacts
    /// are evicted to admit new keys. Evictions only ever cost
    /// recomputation — results are pure functions of their keys either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn bounded(traces: usize, term_planes: usize) -> Self {
        Self {
            weights: Cache::bounded(traces),
            traces: Cache::bounded(traces),
            term_planes: Cache::bounded(term_planes),
            // Traffic vectors are small (a few structs per layer); keep
            // several schemes' worth per resident trace.
            traffic: Cache::bounded(traces.saturating_mul(8)),
            // Video frame bundles are trace-sized; cycle results are a
            // handful of counters per layer.
            video_frames: Cache::bounded(traces),
            video_cycles: Cache::bounded(traces.saturating_mul(8)),
            // Complete results are small (a few counters per layer);
            // keep several schemes/architectures' worth per resident
            // trace.
            results: Cache::bounded(traces.saturating_mul(8)),
            disk: None,
        }
    }

    /// Attaches a disk artifact tier: [`SweepCache::evaluate_keyed`]
    /// reads through it on memory misses and writes computed results
    /// back, so a future cold start (or a sibling process sharing the
    /// directory) serves them by lookup.
    pub fn with_disk(mut self, tier: DiskTier) -> Self {
        self.disk = Some(tier);
        self
    }

    /// The attached disk tier, if any.
    pub fn disk(&self) -> Option<&DiskTier> {
        self.disk.as_ref()
    }

    /// Loads every valid artifact from the disk tier into the memory
    /// result tier (for `serve --warmup`); invalid files are counted
    /// corrupt by the tier and skipped. Warm-up is not request traffic,
    /// so no hit or miss is counted. Returns the number of results
    /// warmed; 0 when no tier is attached or the directory is
    /// unreadable.
    pub fn warm_from_disk(&self) -> usize {
        let Some(disk) = &self.disk else { return 0 };
        let Ok(artifacts) = disk.load_all() else { return 0 };
        let warmed = artifacts.len();
        for (key, artifact) in artifacts {
            self.results.insert(key, artifact);
        }
        warmed
    }

    /// The process-wide cache shared by the CLI and report paths.
    pub fn global() -> &'static SweepCache {
        static GLOBAL: OnceLock<SweepCache> = OnceLock::new();
        GLOBAL.get_or_init(SweepCache::new)
    }

    /// Weights for `(model, seed)`, computed once.
    pub fn weights(&self, model: CiModel, seed: u64) -> Arc<NetworkWeights> {
        get_or_build(&self.weights, "weights", (model, seed), || ci_weights(model, seed))
    }

    /// The trace bundle for `(model, dataset, sample)` under `opts`,
    /// computed once per `(…, resolution, seed)` key.
    pub fn bundle(
        &self,
        model: CiModel,
        dataset: DatasetId,
        sample: usize,
        opts: &WorkloadOptions,
    ) -> Arc<TraceBundle> {
        let key = (model, dataset, sample, opts.resolution, opts.seed);
        get_or_build(&self.traces, "trace", key, || {
            let weights = self.weights(model, opts.seed);
            ci_trace_bundle_with_weights(model, &weights, dataset, sample, opts)
        })
    }

    /// The term planes of layer `index` of the trace identified by
    /// `key`, built at most once per `(key, index)` no matter how many
    /// architectures, value modes or configurations evaluate the trace.
    pub fn layer_terms(
        &self,
        key: TraceKey,
        index: usize,
        layer: &LayerTrace,
    ) -> Arc<PaddedTerms> {
        get_or_build(&self.term_planes, "term_planes", (key, index), || {
            let _s = crate::trace::span_args("term_plane_build", || vec![("layer", index.into())]);
            PaddedTerms::for_layer(layer)
        })
    }

    /// Per-layer off-chip traffic of the trace identified by `key` under
    /// `scheme`, computed once per `(trace, scheme)` pair.
    ///
    /// For the concrete storage schemes this is the memory-system model's
    /// dominant cost — re-encoding every layer's activation bitstreams —
    /// yet it is a pure function of the cached trace, so serving it from
    /// the cache changes warm-evaluation latency, never results.
    pub fn traffic(
        &self,
        key: TraceKey,
        trace: &NetworkTrace,
        scheme: SchemeChoice,
    ) -> Arc<Vec<LayerTraffic>> {
        get_or_build(&self.traffic, "traffic", (key, SchemeKey::from(scheme)), || {
            network_scheme_traffic(trace, scheme)
        })
    }

    /// The trace bundle of frame `frame` of the video stream `spec`,
    /// computed once per `(spec, frame)` — N concurrent sessions over
    /// the same stream pay each frame's trace build exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `frame >= spec.frames`.
    pub fn video_frame(&self, spec: &VideoSpec, frame: usize) -> Arc<TraceBundle> {
        get_or_build(&self.video_frames, "video_frame", (*spec, frame), || {
            let weights = self.weights(spec.model, spec.seed);
            video_frame_bundle_with_weights(spec, &weights, frame)
        })
    }

    /// The full single-frame re-evaluation cost of frame `frame`: the
    /// spatial-Diffy term-serial engine (Table IV configuration,
    /// differential value mode) over the frame's own activations — what
    /// a stateless server would pay for this frame. Memoized per
    /// `(spec, frame)`; the per-session savings ledger measures the
    /// temporal engine against this.
    pub fn video_frame_baseline(&self, spec: &VideoSpec, frame: usize) -> Arc<NetworkCycles> {
        let key = (*spec, frame, VideoEval::Baseline);
        get_or_build(&self.video_cycles, "video_cycles", key, || {
            let bundle = self.video_frame(spec, frame);
            let _s = crate::trace::span_args("frame_baseline", || vec![("frame", frame.into())]);
            term_serial_network(&bundle.trace, &AcceleratorConfig::table4(), ValueMode::Differential)
        })
    }

    /// Temporal (Diffy-T / Diffy-ST, Table IV configuration) cycles of
    /// frame `frame` evaluated against the previous frame, memoized per
    /// `(spec, frame, mode)`.
    ///
    /// `prev` must be the bundle of frame `frame − 1` of the *same*
    /// `spec` — the retained state a streaming session carries — so the
    /// result is a pure function of the key and cached values are
    /// interchangeable with fresh evaluation. Bit-identical to calling
    /// [`temporal_network`] directly on the two frame traces.
    ///
    /// # Panics
    ///
    /// Panics if `frame == 0` (nothing to difference against) or
    /// `frame >= spec.frames`.
    pub fn video_frame_temporal(
        &self,
        spec: &VideoSpec,
        frame: usize,
        mode: TemporalMode,
        prev: &TraceBundle,
    ) -> Arc<NetworkCycles> {
        assert!(frame >= 1, "frame 0 has no previous frame");
        let key = (*spec, frame, VideoEval::Temporal(mode));
        get_or_build(&self.video_cycles, "video_cycles", key, || {
            let cur = self.video_frame(spec, frame);
            let _s = crate::trace::span_args("frame_temporal", || vec![("frame", frame.into())]);
            temporal_network(&prev.trace, &cur.trace, &AcceleratorConfig::table4(), mode)
        })
    }

    /// Evaluates `(model, dataset, sample)` under `eval`, drawing the
    /// bundle, every layer's term planes, **and** the scheme's traffic
    /// vector from this cache: a sweep that prices N architectures on one
    /// trace pays the trace build and each plane build exactly once, and
    /// repeated evaluations under one scheme pay the traffic model once.
    /// Bit-identical to [`TraceBundle::evaluate`] on a fresh bundle.
    pub fn evaluate(
        &self,
        model: CiModel,
        dataset: DatasetId,
        sample: usize,
        opts: &WorkloadOptions,
        eval: &EvalOptions,
    ) -> NetworkResult {
        let bundle = self.bundle(model, dataset, sample, opts);
        let key: TraceKey = (model, dataset, sample, opts.resolution, opts.seed);
        let source =
            |i: usize, layer: &LayerTrace| self.layer_terms(key, i, layer);
        let traffic = || self.traffic(key, &bundle.trace, eval.scheme);
        evaluate_network_with_artifacts(&bundle.trace, eval, Some(&source), Some(&traffic))
    }

    /// Tiered evaluation of `(model, dataset, sample)` under `eval`:
    /// memory result tier first, then the disk artifact store (when one
    /// is attached via [`SweepCache::with_disk`]), then
    /// [`SweepCache::evaluate`] — with a best-effort write-through so
    /// the computed result is on disk for the next cold start.
    ///
    /// Every tier is bit-identical to fresh evaluation: the memory tier
    /// holds the value the compute path produced, and disk artifacts
    /// are fingerprint-validated on read ([`crate::artifact`]) — a
    /// corrupt, truncated or version-skewed file degrades to recompute
    /// (counted in [`DiskStats::corrupt`]), never serves wrong bits.
    pub fn evaluate_keyed(
        &self,
        model: CiModel,
        dataset: DatasetId,
        sample: usize,
        opts: &WorkloadOptions,
        eval: &EvalOptions,
    ) -> Arc<EvalArtifact> {
        let key = result_key(model, dataset, sample, opts, eval);
        self.results.get_or_compute(key.clone(), || {
            if let Some(disk) = &self.disk {
                match disk.load(&key) {
                    Ok(Some(artifact)) => {
                        crate::trace::instant("cache_hit", || vec![("kind", "disk".into())]);
                        return artifact;
                    }
                    Ok(None) => {}
                    // Counted corrupt by the tier; recompute below and
                    // let the write-through repair the file.
                    Err(_) => {}
                }
            }
            let source_pixels = self.bundle(model, dataset, sample, opts).source_pixels;
            let result = self.evaluate(model, dataset, sample, opts, eval);
            let artifact = EvalArtifact { result, source_pixels };
            if let Some(disk) = &self.disk {
                // Best-effort: a full or read-only disk degrades the
                // tier to memory + compute, never the request.
                let _ = disk.store(&key, &artifact);
            }
            artifact
        })
    }

    /// Number of distinct weight sets materialized so far.
    pub fn cached_weights(&self) -> usize {
        self.weights.counters().resident
    }

    /// Number of distinct traces materialized so far.
    pub fn cached_traces(&self) -> usize {
        self.traces.counters().resident
    }

    /// Number of distinct per-layer term planes materialized so far.
    pub fn cached_term_planes(&self) -> usize {
        self.term_planes.counters().resident
    }

    /// Number of distinct `(trace, scheme)` traffic vectors materialized
    /// so far.
    pub fn cached_traffic(&self) -> usize {
        self.traffic.counters().resident
    }

    /// Aggregate hit/miss/shared/eviction counters and residency, for
    /// the service's `/metrics` endpoint.
    pub fn stats(&self) -> CacheStats {
        let stores = [
            self.weights.counters(),
            self.traces.counters(),
            self.term_planes.counters(),
            self.traffic.counters(),
            self.video_frames.counters(),
            self.video_cycles.counters(),
            self.results.counters(),
        ];
        let total = |count: fn(&CacheCounters) -> u64| stores.iter().map(count).sum();
        let [weights, traces, term_planes, traffic, video_frames, video_cycles, results] = stores;
        CacheStats {
            hits: total(|c| c.hits),
            misses: total(|c| c.misses),
            evictions: total(|c| c.evictions),
            cached_weights: weights.resident,
            cached_traces: traces.resident,
            cached_term_planes: term_planes.resident,
            cached_traffic: traffic.resident,
            cached_video_frames: video_frames.resident,
            cached_video_cycles: video_cycles.resident,
            shared: total(|c| c.shared),
            cached_results: results.resident,
            disk: self.disk.as_ref().map(DiskTier::stats).unwrap_or_default(),
        }
    }

    /// Drops every cached artifact (counters are preserved). Subsequent
    /// requests recompute — results are unchanged, only cost.
    pub fn clear(&self) {
        self.weights.clear();
        self.traces.clear();
        self.term_planes.clear();
        self.traffic.clear();
        self.video_frames.clear();
        self.video_cycles.clear();
        self.results.clear();
    }

    /// Evaluates a batch of points, fanning out over `par` workers, and
    /// returns the results **in point order** — bit-identical to calling
    /// [`SweepCache::evaluate`] point by point, at any worker count (see
    /// [`crate::parallel`]).
    ///
    /// Every point carries its *own* workload, so one batch can mix
    /// resolutions, seeds, models and architectures; points that share
    /// keys still materialize each weight set, trace, term-plane set and
    /// traffic vector at most once through this cache, no matter which
    /// worker gets there first. This is the one batch-evaluation path:
    /// sweeps, architecture comparisons, tiles × memory grids and the
    /// report all run through it. (The service's batch endpoint fans
    /// [`SweepCache::evaluate_keyed`] out over [`run_jobs`] instead, so
    /// each item also goes through the result and disk tiers.)
    pub fn evaluate_points(&self, points: &[EvalPoint], par: Jobs) -> Vec<NetworkResult> {
        let tasks: Vec<_> = points
            .iter()
            .map(|p| {
                let p = *p;
                move || self.evaluate(p.model, p.dataset, p.sample, &p.workload, &p.eval)
            })
            .collect();
        run_jobs(tasks, par)
    }
}

/// One fully-specified evaluation point: a workload (what to trace) plus
/// an architecture (what to price it on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// Model to trace.
    pub model: CiModel,
    /// Dataset the sample comes from.
    pub dataset: DatasetId,
    /// Sample index within the dataset.
    pub sample: usize,
    /// Per-point workload (resolution, seed, sample cap).
    pub workload: WorkloadOptions,
    /// Architecture/scheme/memory to evaluate the trace under.
    pub eval: EvalOptions,
}

/// The datasets a CI model is evaluated on (all of Table II; callers cap
/// samples via [`WorkloadOptions::samples_per_dataset`]).
pub fn datasets_for(model: CiModel) -> Vec<DatasetId> {
    match model {
        // Denoisers: the denoising corpora.
        CiModel::DnCnn | CiModel::Ircnn => {
            vec![DatasetId::Cbsd68, DatasetId::Kodak24, DatasetId::Rni15, DatasetId::Hd33]
        }
        CiModel::FfdNet => vec![DatasetId::Cbsd68, DatasetId::Kodak24, DatasetId::Hd33],
        // Demosaicking.
        CiModel::JointNet => vec![DatasetId::McMaster, DatasetId::Kodak24, DatasetId::Hd33],
        // Super-resolution.
        CiModel::Vdsr => {
            vec![DatasetId::Live1, DatasetId::Set5Set14, DatasetId::Hd33]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::SchemeChoice;
    use diffy_sim::Architecture;

    #[test]
    fn ci_bundle_runs_end_to_end() {
        let opts = WorkloadOptions::test_small();
        let b = ci_trace_bundle(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts);
        assert_eq!(b.trace.layers.len(), 7);
        assert_eq!(b.source_pixels, 32 * 32);
        assert_eq!(b.dataset, Some(DatasetId::Kodak24));
    }

    #[test]
    fn half_resolution_models_trace_at_half_size() {
        let opts = WorkloadOptions::test_small();
        let b = ci_trace_bundle(CiModel::JointNet, DatasetId::McMaster, 0, &opts);
        let s = b.trace.layers[0].imap.shape();
        assert_eq!((s.h, s.w), (16, 16));
        assert_eq!(s.c, 4);
    }

    #[test]
    fn weights_are_reused_consistently() {
        let opts = WorkloadOptions::test_small();
        let w = ci_weights(CiModel::Ircnn, opts.seed);
        let a = ci_trace_bundle_with_weights(CiModel::Ircnn, &w, DatasetId::Cbsd68, 0, &opts);
        let b = ci_trace_bundle(CiModel::Ircnn, DatasetId::Cbsd68, 0, &opts);
        assert_eq!(a.trace.layers[3].imap, b.trace.layers[3].imap);

        // The shared cache is coherent with both paths: a cached weight
        // set equals fresh regeneration, and a cached bundle equals the
        // uncached trace of the same key.
        let cache = SweepCache::new();
        assert_eq!(*cache.weights(CiModel::Ircnn, opts.seed), w);
        let c = cache.bundle(CiModel::Ircnn, DatasetId::Cbsd68, 0, &opts);
        assert_eq!(c.trace.layers[3].imap, b.trace.layers[3].imap);
        assert_eq!(cache.cached_weights(), 1);
        assert_eq!(cache.cached_traces(), 1);
    }

    #[test]
    fn cache_hits_equal_fresh_regeneration_under_concurrency() {
        // Two threads request the same weights key at the same time: the
        // value must be computed once and equal a fresh regeneration.
        let opts = WorkloadOptions::test_small();
        let cache = SweepCache::new();
        let (a, b) = std::thread::scope(|s| {
            let ha = s.spawn(|| cache.weights(CiModel::Vdsr, opts.seed));
            let hb = s.spawn(|| cache.weights(CiModel::Vdsr, opts.seed));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "same key must share one computation");
        assert_eq!(*a, ci_weights(CiModel::Vdsr, opts.seed));
        assert_eq!(cache.cached_weights(), 1);

        // Same for traces: concurrent same-key bundles are one object and
        // equal the uncached path.
        let (ta, tb) = std::thread::scope(|s| {
            let ha = s.spawn(|| cache.bundle(CiModel::Vdsr, DatasetId::Hd33, 0, &opts));
            let hb = s.spawn(|| cache.bundle(CiModel::Vdsr, DatasetId::Hd33, 0, &opts));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert!(Arc::ptr_eq(&ta, &tb));
        let fresh = ci_trace_bundle(CiModel::Vdsr, DatasetId::Hd33, 0, &opts);
        assert_eq!(ta.trace.output, fresh.trace.output);
        assert_eq!(ta.source_pixels, fresh.source_pixels);
    }

    #[test]
    fn cache_distinguishes_resolution_and_seed() {
        let cache = SweepCache::new();
        let a = WorkloadOptions { resolution: 32, samples_per_dataset: 1, seed: 1 };
        let b = WorkloadOptions { resolution: 32, samples_per_dataset: 1, seed: 2 };
        let c = WorkloadOptions { resolution: 48, samples_per_dataset: 1, seed: 1 };
        for o in [a, b, c] {
            cache.bundle(CiModel::Ircnn, DatasetId::Hd33, 0, &o);
        }
        assert_eq!(cache.cached_traces(), 3, "distinct keys must not collide");
        assert_eq!(cache.cached_weights(), 2, "weights keyed by seed only");
    }

    #[test]
    fn heterogeneous_points_match_pointwise_serial_evaluation() {
        // evaluate_points mixes workloads (resolution, seed), models and
        // architectures in one batch; the fanned results must be
        // bit-identical to evaluating each point serially, in order.
        let small = WorkloadOptions::test_small();
        let other = WorkloadOptions { resolution: 48, seed: 7, ..small };
        let points = vec![
            EvalPoint {
                model: CiModel::Ircnn,
                dataset: DatasetId::Kodak24,
                sample: 0,
                workload: small,
                eval: EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal),
            },
            EvalPoint {
                model: CiModel::Vdsr,
                dataset: DatasetId::Hd33,
                sample: 0,
                workload: other,
                eval: EvalOptions::new(Architecture::Pra, SchemeChoice::Ideal),
            },
            EvalPoint {
                model: CiModel::Ircnn,
                dataset: DatasetId::Kodak24,
                sample: 0,
                workload: other,
                eval: EvalOptions::new(Architecture::Vaa, SchemeChoice::Ideal),
            },
        ];
        let cache = SweepCache::new();
        let fanned = cache.evaluate_points(&points, Jobs::new(3));
        let reference = SweepCache::new();
        for (p, got) in points.iter().zip(&fanned) {
            let want = reference.evaluate(p.model, p.dataset, p.sample, &p.workload, &p.eval);
            assert_eq!(*got, want, "point order and content must be fan-out invariant");
        }
    }

    #[test]
    fn cached_evaluate_matches_fresh_bundle_evaluate() {
        // SweepCache::evaluate draws the trace and every layer's term
        // planes from the cache; the result must be bit-identical to a
        // fresh, uncached TraceBundle::evaluate for every architecture.
        let opts = WorkloadOptions::test_small();
        let cache = SweepCache::new();
        let fresh = ci_trace_bundle(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts);
        for arch in [Architecture::Vaa, Architecture::Pra, Architecture::Diffy] {
            let eval = EvalOptions::new(arch, SchemeChoice::Ideal);
            let cached =
                cache.evaluate(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);
            assert_eq!(cached, fresh.evaluate(&eval), "{arch:?} must be cache-invariant");
        }
    }

    #[test]
    fn traffic_memo_is_result_invariant_and_computed_once() {
        // The traffic store must be invisible in results across scheme
        // kinds (concrete, profiled, ideal), and repeated evaluations
        // under one scheme must materialize exactly one traffic vector
        // per (trace, scheme) pair.
        let opts = WorkloadOptions::test_small();
        let cache = SweepCache::new();
        let fresh = ci_trace_bundle(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts);
        let schemes = [
            SchemeChoice::Scheme(StorageScheme::delta_d(16)),
            SchemeChoice::Scheme(StorageScheme::NoCompression),
            SchemeChoice::Profiled { quantile: 0.99 },
            SchemeChoice::Ideal,
        ];
        for (i, &scheme) in schemes.iter().enumerate() {
            let eval = EvalOptions::new(Architecture::Diffy, scheme);
            for _ in 0..2 {
                let cached =
                    cache.evaluate(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);
                assert_eq!(cached, fresh.evaluate(&eval), "{scheme:?} must be memo-invariant");
            }
            assert_eq!(cache.cached_traffic(), i + 1, "one traffic vector per scheme");
        }
    }

    #[test]
    fn term_planes_built_once_per_layer_across_architectures() {
        // Pricing N architectures on one trace must build each layer's
        // term planes exactly once: the plane count equals the layer
        // count after the first term-serial evaluation and stays flat.
        let opts = WorkloadOptions::test_small();
        let cache = SweepCache::new();
        assert_eq!(cache.cached_term_planes(), 0);

        // VAA never touches term planes.
        let vaa = EvalOptions::new(Architecture::Vaa, SchemeChoice::Ideal);
        cache.evaluate(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &vaa);
        assert_eq!(cache.cached_term_planes(), 0, "VAA needs no term planes");

        let layers =
            cache.bundle(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts).trace.layers.len();
        let pra = EvalOptions::new(Architecture::Pra, SchemeChoice::Ideal);
        cache.evaluate(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &pra);
        assert_eq!(cache.cached_term_planes(), layers, "one build per layer");

        // Diffy (and a repeated PRA run) reuse the same planes.
        let diffy = EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal);
        cache.evaluate(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &diffy);
        cache.evaluate(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &pra);
        assert_eq!(cache.cached_term_planes(), layers, "no rebuilds across modes");

        // A different trace key gets its own planes.
        cache.evaluate(CiModel::Ircnn, DatasetId::Cbsd68, 0, &opts, &diffy);
        assert_eq!(cache.cached_term_planes(), 2 * layers);
    }

    #[test]
    fn evaluate_points_shares_planes_and_matches_serial() {
        // A sweep of several architectures over one sample: results must
        // match point-by-point serial evaluation, and the cache must hold
        // one plane set per layer regardless of worker count.
        let opts = WorkloadOptions::test_small();
        let points = [Architecture::Pra, Architecture::Diffy, Architecture::Pra].map(|arch| {
            EvalPoint {
                model: CiModel::Ircnn,
                dataset: DatasetId::Hd33,
                sample: 0,
                workload: opts,
                eval: EvalOptions::new(arch, SchemeChoice::Ideal),
            }
        });
        let cache = SweepCache::new();
        let par = cache.evaluate_points(&points, Jobs::new(3));
        let fresh = ci_trace_bundle(CiModel::Ircnn, DatasetId::Hd33, 0, &opts);
        for (r, point) in par.iter().zip(&points) {
            assert_eq!(*r, fresh.evaluate(&point.eval));
        }
        assert_eq!(cache.cached_traces(), 1);
        assert_eq!(cache.cached_term_planes(), fresh.trace.layers.len());
    }

    #[test]
    fn bounded_cache_results_match_unbounded() {
        // The bounded cache must be invisible in results: evaluating
        // through a tiny bounded cache (which is forced to evict and
        // recompute) gives bit-identical output to the unbounded path.
        let opts = WorkloadOptions::test_small();
        let bounded = SweepCache::bounded(1, 4);
        let eval = EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal);
        let specs =
            [(CiModel::Ircnn, DatasetId::Kodak24), (CiModel::Ircnn, DatasetId::Cbsd68)];
        // Two passes over two traces through a 1-trace cache: the second
        // pass re-misses everything.
        for _ in 0..2 {
            for (model, dataset) in specs {
                let fresh = ci_trace_bundle(model, dataset, 0, &opts);
                let served = bounded.evaluate(model, dataset, 0, &opts, &eval);
                assert_eq!(served, fresh.evaluate(&eval));
            }
        }
        let stats = bounded.stats();
        assert!(stats.evictions > 0, "1-trace capacity must evict: {stats:?}");
        assert!(stats.cached_traces <= 1);
    }

    #[test]
    fn sweep_cache_stats_and_clear() {
        let opts = WorkloadOptions::test_small();
        let cache = SweepCache::new();
        cache.bundle(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts);
        cache.bundle(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts);
        let s = cache.stats();
        assert_eq!(s.cached_traces, 1);
        assert_eq!(s.evictions, 0, "unbounded stores never evict");
        // 1 weights miss + 1 trace miss, then 1 trace hit (the second
        // bundle call never touches the weights store).
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 1);
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.cached_traces, 0);
        assert_eq!(s.cached_weights, 0);
        assert_eq!((s.hits, s.misses), (1, 2), "counters survive clear");
    }

    #[test]
    fn hd_projection_uses_source_pixels() {
        let opts = WorkloadOptions::test_small();
        let b = ci_trace_bundle(CiModel::Ircnn, DatasetId::Hd33, 0, &opts);
        let r = b.evaluate(&EvalOptions::new(Architecture::Vaa, SchemeChoice::Ideal));
        let hd = b.hd_fps(&r);
        let native = r.fps();
        let expect = native * (32.0 * 32.0) / HD_PIXELS as f64;
        assert!((hd / expect - 1.0).abs() < 0.01, "hd {hd} expect {expect}");
    }

    #[test]
    fn class_bundle_respects_min_resolution() {
        let b = class_trace_bundle(ClassModel::Vgg16, 32, 3);
        assert_eq!(b.trace.layers.len(), 13);
    }

    #[test]
    #[should_panic(expected = "needs at least")]
    fn class_bundle_rejects_tiny_inputs() {
        let _ = class_trace_bundle(ClassModel::AlexNet, 16, 1);
    }

    #[test]
    fn video_frame_cache_matches_fresh_path() {
        // The cached frame store must be invisible in results: frames
        // served through the cache are bit-identical to the free-function
        // path, which in turn builds on the pan_sequence-identical
        // pan_frame renderer.
        let spec = VideoSpec::new(CiModel::Ircnn, SceneKind::City, 24, 3, 2, 0.02, 5);
        let cache = SweepCache::new();
        for frame in 0..spec.frames {
            let cached = cache.video_frame(&spec, frame);
            let fresh = video_frame_bundle(&spec, frame);
            assert_eq!(cached.trace.output, fresh.trace.output, "frame {frame}");
            assert_eq!(cached.sample, frame);
            assert_eq!(cached.source_pixels, 24 * 24);
        }
        let stats = cache.stats();
        assert_eq!(stats.cached_video_frames, spec.frames);
        // A repeated request is a hit, not a rebuild.
        cache.video_frame(&spec, 0);
        assert_eq!(cache.stats().cached_video_frames, spec.frames);
    }

    #[test]
    fn video_cycle_memos_match_direct_evaluation() {
        // Baseline and temporal memos must be bit-identical to calling
        // the sim engines directly on fresh traces, for both modes.
        let spec = VideoSpec::new(CiModel::Ircnn, SceneKind::Nature, 24, 3, 1, 0.0, 7);
        let cache = SweepCache::new();
        let cfg = AcceleratorConfig::table4();
        let fresh: Vec<TraceBundle> =
            (0..spec.frames).map(|f| video_frame_bundle(&spec, f)).collect();
        for (f, bundle) in fresh.iter().enumerate() {
            let baseline = cache.video_frame_baseline(&spec, f);
            assert_eq!(
                *baseline,
                term_serial_network(&bundle.trace, &cfg, ValueMode::Differential),
                "baseline frame {f}"
            );
        }
        for mode in [TemporalMode::TemporalOnly, TemporalMode::SpatioTemporal] {
            for f in 1..spec.frames {
                let prev = cache.video_frame(&spec, f - 1);
                let served = cache.video_frame_temporal(&spec, f, mode, &prev);
                let direct =
                    temporal_network(&fresh[f - 1].trace, &fresh[f].trace, &cfg, mode);
                assert_eq!(*served, direct, "{mode:?} frame {f}");
                // A second request must serve the memo, not recompute.
                let again = cache.video_frame_temporal(&spec, f, mode, &prev);
                assert!(Arc::ptr_eq(&served, &again));
            }
        }
    }

    #[test]
    #[should_panic(expected = "no previous frame")]
    fn temporal_frame_zero_is_rejected() {
        let spec = VideoSpec::new(CiModel::Ircnn, SceneKind::City, 16, 2, 1, 0.0, 1);
        let cache = SweepCache::new();
        let prev = cache.video_frame(&spec, 0);
        let _ = cache.video_frame_temporal(&spec, 0, TemporalMode::TemporalOnly, &prev);
    }

    #[test]
    fn every_model_has_datasets_including_hd33() {
        for m in CiModel::ALL {
            let ds = datasets_for(m);
            assert!(!ds.is_empty());
            assert!(ds.contains(&DatasetId::Hd33), "{m} must include HD33");
        }
    }

    fn scratch_artifact_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("diffy-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_hit_is_bit_identical_to_fresh_compute() {
        // The tentpole invariant: a result served from a disk artifact
        // written by one cache must be bit-identical to a fresh
        // evaluation in another — both the NetworkResult and the
        // serving metadata (source_pixels).
        let dir = scratch_artifact_dir("bitident");
        let opts = WorkloadOptions::test_small();
        let eval = EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal);

        let writer = SweepCache::bounded(4, 64)
            .with_disk(crate::artifact::DiskTier::open(&dir).unwrap());
        let computed =
            writer.evaluate_keyed(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);
        assert_eq!(writer.stats().disk.misses, 1, "first request misses the empty tier");

        // A brand-new cache over the same directory: the only shared
        // state is the artifact file.
        let reader = SweepCache::bounded(4, 64)
            .with_disk(crate::artifact::DiskTier::open(&dir).unwrap());
        let served =
            reader.evaluate_keyed(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);
        assert_eq!(*served, *computed, "disk hit must serve identical bits");
        let stats = reader.stats();
        assert_eq!(stats.disk.hits, 1, "second process hits the artifact");
        assert_eq!(stats.disk.misses, 0);

        let fresh = SweepCache::new()
            .evaluate(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);
        assert_eq!(served.result, fresh, "disk tier must be invisible in results");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_degrades_to_recompute_and_repairs() {
        let dir = scratch_artifact_dir("corrupt");
        let opts = WorkloadOptions::test_small();
        let eval = EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal);

        let writer = SweepCache::bounded(4, 64)
            .with_disk(crate::artifact::DiskTier::open(&dir).unwrap());
        let computed =
            writer.evaluate_keyed(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);

        // Truncate the artifact on disk to simulate a torn file.
        let key = result_key(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);
        let path = writer.disk().unwrap().path_for(&key);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        let reader = SweepCache::bounded(4, 64)
            .with_disk(crate::artifact::DiskTier::open(&dir).unwrap());
        let served =
            reader.evaluate_keyed(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);
        assert_eq!(*served, *computed, "recompute after corruption, same bits");
        assert_eq!(reader.stats().disk.corrupt, 1, "the torn file is counted");

        // The write-through repaired the artifact: a third cache hits.
        let repaired = SweepCache::bounded(4, 64)
            .with_disk(crate::artifact::DiskTier::open(&dir).unwrap());
        let again =
            repaired.evaluate_keyed(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);
        assert_eq!(*again, *computed);
        assert_eq!(repaired.stats().disk.hits, 1, "repair makes the next read a hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_from_disk_populates_memory_tier() {
        let dir = scratch_artifact_dir("warmup");
        let opts = WorkloadOptions::test_small();
        let evals = [
            EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal),
            EvalOptions::new(Architecture::Pra, SchemeChoice::Ideal),
        ];
        let writer = SweepCache::bounded(4, 64)
            .with_disk(crate::artifact::DiskTier::open(&dir).unwrap());
        let expected: Vec<_> = evals
            .iter()
            .map(|e| writer.evaluate_keyed(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, e))
            .collect();

        let warmed_cache = SweepCache::bounded(4, 64)
            .with_disk(crate::artifact::DiskTier::open(&dir).unwrap());
        assert_eq!(warmed_cache.warm_from_disk(), 2, "both artifacts warm");
        let stats = warmed_cache.stats();
        assert_eq!(stats.cached_results, 2);
        assert_eq!(stats.disk.hits, 0, "warmup is not request traffic");
        assert_eq!((stats.hits, stats.misses), (0, 0), "nor is it memory-tier traffic");

        // Warmed requests are pure memory hits: no disk read, no compute
        // (the trace/weight stores stay empty).
        for (e, want) in evals.iter().zip(&expected) {
            let got =
                warmed_cache.evaluate_keyed(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, e);
            assert_eq!(*got, **want);
        }
        let after = warmed_cache.stats();
        assert_eq!(after.disk.hits + after.disk.misses, 0, "served from memory");
        assert_eq!(after.cached_traces, 0, "no compute path was taken");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evaluate_keyed_without_disk_matches_evaluate() {
        let opts = WorkloadOptions::test_small();
        let eval = EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal);
        let cache = SweepCache::new();
        let keyed = cache.evaluate_keyed(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);
        let plain = cache.evaluate(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts, &eval);
        assert_eq!(keyed.result, plain);
        assert_eq!(
            keyed.source_pixels,
            cache.bundle(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts).source_pixels
        );
        assert_eq!(cache.stats().disk, crate::artifact::DiskStats::default());
    }
}
