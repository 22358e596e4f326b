//! The service's wire protocol: JSON evaluation requests in, the exact
//! runner results out.
//!
//! [`EvalRequest`] names the same knobs the CLI exposes — model, dataset,
//! sample, resolution, seed, architecture, storage scheme, memory node —
//! and [`result_to_json`] (defined beside the artifact codec in
//! `diffy_core::artifact`, and re-exported here) renders a result with
//! full fidelity: every per-layer counter the runner produces, integers
//! as integers (`u64`-exact, see `diffy_core::json`), floats in
//! shortest-roundtrip form. Serialization is deterministic, so two
//! evaluations that are bit-identical in memory are byte-identical on
//! the wire — the property the end-to-end tests assert.

use diffy_core::accelerator::{EvalOptions, SchemeChoice};
use diffy_core::artifact::layer_cycles_to_json;
pub use diffy_core::artifact::result_to_json;
use diffy_core::json::{parse, JsonValue};
use diffy_core::runner::{VideoSpec, WorkloadOptions};
use diffy_imaging::datasets::DatasetId;
use diffy_imaging::scenes::SceneKind;
use diffy_memsys::{MemoryNode, MemorySystem};
use diffy_models::CiModel;
use diffy_sim::{AcceleratorConfig, Architecture, NetworkCycles, TemporalMode};

/// Bounds on the requested trace resolution: wide enough for every
/// experiment in the paper, tight enough that one request cannot pin a
/// worker for minutes.
pub const MIN_RESOLUTION: usize = 16;
/// See [`MIN_RESOLUTION`].
pub const MAX_RESOLUTION: usize = 512;

/// One parsed evaluation request.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Model to trace.
    pub model: CiModel,
    /// Dataset the sample comes from.
    pub dataset: DatasetId,
    /// Sample index within the dataset.
    pub sample: usize,
    /// Square trace resolution.
    pub resolution: usize,
    /// Workload seed.
    pub seed: u64,
    /// Architecture to price.
    pub arch: Architecture,
    /// Activation storage scheme.
    pub scheme: SchemeChoice,
    /// Off-chip memory node.
    pub memory: MemoryNode,
    /// Per-request deadline in milliseconds; the server clamps it to its
    /// configured maximum.
    pub deadline_ms: Option<u64>,
    /// Artificial pre-evaluation sleep, honored only when the server was
    /// built with test hooks — lets tests exercise queueing and deadline
    /// paths deterministically.
    pub test_sleep_ms: Option<u64>,
}

impl EvalRequest {
    /// Parses and validates a request from its JSON body.
    pub fn from_json(v: &JsonValue) -> Result<EvalRequest, String> {
        if !matches!(v, JsonValue::Object(_)) {
            return Err("request body must be a JSON object".to_string());
        }
        let model = parse_model(required_str(v, "model")?)?;
        let dataset = parse_dataset(required_str(v, "dataset")?)?;
        // Range-check in u64 *before* narrowing to usize: `as usize`
        // truncates on 32-bit targets, so a huge value could wrap into
        // the valid range and evaluate the wrong sample.
        let sample_u64 = optional_u64(v, "sample")?.unwrap_or(0);
        if sample_u64 >= dataset.samples() as u64 {
            return Err(format!(
                "sample {sample_u64} out of range: {dataset} has {} samples",
                dataset.samples()
            ));
        }
        Ok(EvalRequest {
            model,
            dataset,
            sample: sample_u64 as usize, // < samples(): usize-exact
            resolution: resolution(v)?,
            seed: optional_u64(v, "seed")?.unwrap_or(WorkloadOptions::DEFAULT.seed),
            arch: optional_str(v, "arch")?.map_or(Ok(Architecture::DEFAULT), parse_arch)?,
            scheme: optional_str(v, "scheme")?.map_or(Ok(SchemeChoice::DEFAULT), parse_scheme)?,
            memory: optional_str(v, "memory")?.map_or(Ok(MemoryNode::DEFAULT), parse_memory)?,
            deadline_ms: optional_u64(v, "deadline_ms")?,
            test_sleep_ms: optional_u64(v, "test_sleep_ms")?,
        })
    }

    /// The workload options this request traces under.
    pub fn workload(&self) -> WorkloadOptions {
        WorkloadOptions { resolution: self.resolution, seed: self.seed, ..WorkloadOptions::DEFAULT }
    }

    /// The evaluation options this request prices under (Table IV
    /// configuration, like the CLI).
    pub fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            arch: self.arch,
            cfg: AcceleratorConfig::table4(),
            scheme: self.scheme,
            memory: MemorySystem::single(self.memory),
        }
    }
}

fn required_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .ok_or_else(|| format!("missing required field `{key}`"))?
        .as_str()
        .ok_or_else(|| format!("field `{key}` must be a string"))
}

fn optional_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(n) => {
            n.as_u64().map(Some).ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
        }
    }
}

fn optional_str<'a>(v: &'a JsonValue, key: &str) -> Result<Option<&'a str>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(s) => s.as_str().map(Some).ok_or_else(|| format!("{key} must be a string")),
    }
}

/// The optional `resolution` field, defaulted and range-checked in u64
/// *before* narrowing to usize: `as usize` truncates on 32-bit targets,
/// so a huge value could wrap into the valid range.
fn resolution(v: &JsonValue) -> Result<usize, String> {
    let r = optional_u64(v, "resolution")?.unwrap_or(WorkloadOptions::DEFAULT.resolution as u64);
    if !(MIN_RESOLUTION as u64..=MAX_RESOLUTION as u64).contains(&r) {
        return Err(format!("resolution {r} out of range [{MIN_RESOLUTION}, {MAX_RESOLUTION}]"));
    }
    Ok(r as usize) // ≤ MAX_RESOLUTION: usize-exact
}

/// Decodes a request body: parses `text` as JSON and validates it with
/// `from_json`. Every route and session handler decodes through here, so
/// a malformed body always answers `bad JSON: …`.
pub(crate) fn decode<T>(
    text: &str,
    from_json: fn(&JsonValue) -> Result<T, String>,
) -> Result<T, String> {
    from_json(&parse(text).map_err(|e| format!("bad JSON: {e}"))?)
}

/// Finds `name` among a type's `(name, value)` list, ignoring ASCII case.
/// A match allocates nothing; only a miss builds the error, which lists
/// every accepted name.
fn lookup<T>(
    what: &str,
    name: &str,
    list: impl IntoIterator<Item = (&'static str, T)> + Clone,
) -> Result<T, String> {
    match list.clone().into_iter().find(|(n, _)| n.eq_ignore_ascii_case(name)) {
        Some((_, value)) => Ok(value),
        None => {
            let names: Vec<&str> = list.into_iter().map(|(n, _)| n).collect();
            Err(format!("unknown {what} `{name}` ({})", names.join("/")))
        }
    }
}

/// Parses a model name (Table I spelling, any case).
pub fn parse_model(name: &str) -> Result<CiModel, String> {
    lookup("model", name, CiModel::ALL.map(|m| (m.name(), m)))
}

/// Parses a dataset name (Table II spelling, any case).
pub fn parse_dataset(name: &str) -> Result<DatasetId, String> {
    lookup("dataset", name, DatasetId::ALL.map(|d| (d.name(), d)))
}

/// Parses an architecture name (any case).
pub fn parse_arch(name: &str) -> Result<Architecture, String> {
    lookup("arch", name, Architecture::ALL.map(|a| (a.name(), a)))
}

/// Parses a storage-scheme choice (any case).
pub fn parse_scheme(name: &str) -> Result<SchemeChoice, String> {
    lookup("scheme", name, SchemeChoice::NAMED)
}

/// Parses a memory-node name (any case).
pub fn parse_memory(name: &str) -> Result<MemoryNode, String> {
    lookup("memory node", name, MemoryNode::ALL.map(|m| (m.name(), m)))
}

/// Parses a scene name (any case).
fn parse_scene(name: &str) -> Result<SceneKind, String> {
    lookup("scene", name, SceneKind::ALL.map(|k| (k.name(), k)))
}

/// Parses a temporal mode: its wire name or its §V label, any case.
fn parse_mode(name: &str) -> Result<TemporalMode, String> {
    let names = TemporalMode::ALL.into_iter().flat_map(|m| [(m.name(), m), (m.label(), m)]);
    lookup("mode", name, names)
}

/// Largest accepted streaming-session frame horizon. The horizon is
/// part of the stream's identity (pan content depends on it), so it is
/// fixed at session create; this cap bounds both the wide-scene render
/// and the per-session state a client can pin.
pub const MAX_SESSION_FRAMES: usize = 64;
/// Largest accepted per-frame camera pan, in pixels.
pub const MAX_PAN_PX: usize = 32;
/// Frame horizon of a session that names none.
const DEFAULT_SESSION_FRAMES: usize = 8;
/// Per-frame camera pan of a session that names none, in pixels.
const DEFAULT_PAN_PX: usize = 1;

/// One parsed `POST /session` body: the identity of a streaming video
/// session — which synthetic stream to run and how to exploit the
/// cross-frame correlation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionRequest {
    /// Model every frame runs through.
    pub model: CiModel,
    /// Scene category of the panning content (the video "dataset").
    pub scene: SceneKind,
    /// Square frame resolution.
    pub resolution: usize,
    /// Total frame horizon, fixed for the session's lifetime.
    pub frames: usize,
    /// Horizontal camera pan in pixels per frame.
    pub pan_px: usize,
    /// Per-frame sensor-noise amplitude in `[0, 1]`.
    pub noise: f32,
    /// Seed for scene, noise, and weights.
    pub seed: u64,
    /// Temporal engine mode (Diffy-T or Diffy-ST).
    pub mode: TemporalMode,
}

impl SessionRequest {
    /// Parses and validates a session-create request from its JSON body.
    pub fn from_json(v: &JsonValue) -> Result<SessionRequest, String> {
        if !matches!(v, JsonValue::Object(_)) {
            return Err("request body must be a JSON object".to_string());
        }
        let model = parse_model(required_str(v, "model")?)?;
        let scene = optional_str(v, "scene")?.map_or(Ok(SceneKind::City), parse_scene)?;
        let resolution = resolution(v)?;
        let frames_u64 = optional_u64(v, "frames")?.unwrap_or(DEFAULT_SESSION_FRAMES as u64);
        if !(1..=MAX_SESSION_FRAMES as u64).contains(&frames_u64) {
            return Err(format!("frames {frames_u64} out of range [1, {MAX_SESSION_FRAMES}]"));
        }
        let pan_u64 = optional_u64(v, "pan_px")?.unwrap_or(DEFAULT_PAN_PX as u64);
        if pan_u64 > MAX_PAN_PX as u64 {
            return Err(format!("pan_px {pan_u64} out of range [0, {MAX_PAN_PX}]"));
        }
        let noise = match v.get("noise") {
            None | Some(JsonValue::Null) => 0.0f32,
            Some(n) => {
                let f = n
                    .as_f64()
                    .or_else(|| n.as_u64().map(|u| u as f64))
                    .ok_or("field `noise` must be a number")?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!("noise {f} out of range [0, 1]"));
                }
                f as f32
            }
        };
        Ok(SessionRequest {
            model,
            scene,
            resolution,
            frames: frames_u64 as usize, // range-checked above
            pan_px: pan_u64 as usize,
            noise,
            seed: optional_u64(v, "seed")?.unwrap_or(WorkloadOptions::DEFAULT.seed),
            mode: optional_str(v, "mode")?.map_or(Ok(TemporalMode::SpatioTemporal), parse_mode)?,
        })
    }

    /// The video-stream identity this session evaluates.
    pub fn spec(&self) -> VideoSpec {
        VideoSpec::new(
            self.model,
            self.scene,
            self.resolution,
            self.frames,
            self.pan_px,
            self.noise,
            self.seed,
        )
    }
}

/// One parsed `POST /session/{id}/frame` body. Both fields are optional
/// guards: when present they must match the session's configuration and
/// expected next frame, so a client can detect drift (a frame posted to
/// the wrong session, a lost response) instead of silently advancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameRequest {
    /// Expected frame resolution; rejected if it differs from the
    /// session's.
    pub resolution: Option<u64>,
    /// Expected frame index; rejected if it differs from the session's
    /// next frame.
    pub frame: Option<u64>,
}

impl FrameRequest {
    /// Parses a frame request from its JSON body. An empty body is the
    /// common case (no guards) — callers map it to `{}` before parsing.
    pub fn from_json(v: &JsonValue) -> Result<FrameRequest, String> {
        if !matches!(v, JsonValue::Object(_)) {
            return Err("request body must be a JSON object".to_string());
        }
        Ok(FrameRequest {
            resolution: optional_u64(v, "resolution")?,
            frame: optional_u64(v, "frame")?,
        })
    }
}

/// Serializes a [`NetworkCycles`] with full fidelity: every per-layer
/// counter the term-serial engines produce, plus the derived totals.
/// Deterministic, like [`result_to_json`] — equal results serialize to
/// equal strings, so "session frame == direct `temporal_network`" can be
/// asserted bytewise.
pub fn cycles_to_json(cycles: &NetworkCycles) -> JsonValue {
    JsonValue::object(vec![
        ("arch", JsonValue::from(cycles.arch)),
        ("layers", JsonValue::Array(cycles.layers.iter().map(layer_cycles_to_json).collect())),
        (
            "totals",
            JsonValue::object(vec![
                ("cycles", cycles.total_cycles().into()),
                ("macs", cycles.total_macs().into()),
                ("utilization", JsonValue::from(cycles.utilization())),
            ]),
        ),
    ])
}

/// The standard error body: `{"error": <message>}`.
pub fn error_body(message: &str) -> String {
    JsonValue::object(vec![("error", JsonValue::from(message))]).to_json()
}

/// Largest accepted `POST /evaluate/batch` item count: big enough for a
/// full grid row (every model × dataset pair), small enough that one
/// batch cannot pin the pool for minutes.
pub const MAX_BATCH_ITEMS: usize = 64;

/// A parsed `POST /evaluate/batch` request: shared defaults merged under
/// per-item overrides, each item parsed with the exact same rules (and
/// rejection reasons) as a standalone `POST /evaluate` body.
///
/// Item parse failures do not fail the batch — they land in their item's
/// slot so the response can report per-item errors while the valid items
/// still evaluate. Structural problems (body not an object, `items`
/// missing/empty/oversized) reject the whole batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Per-item parse outcome, in request order.
    pub items: Vec<Result<EvalRequest, String>>,
    /// Batch-level deadline in milliseconds, clamped by the server like
    /// a standalone request's. Item-level `deadline_ms` fields are
    /// ignored — one budget governs the whole batch.
    pub deadline_ms: Option<u64>,
}

impl BatchRequest {
    /// Parses `{"defaults": {...}?, "items": [{...}, ...], "deadline_ms": n?}`.
    pub fn from_json(v: &JsonValue) -> Result<BatchRequest, String> {
        if !matches!(v, JsonValue::Object(_)) {
            return Err("batch body must be a JSON object".to_string());
        }
        let defaults = match v.get("defaults") {
            None => None,
            Some(d @ JsonValue::Object(_)) => Some(d),
            Some(_) => return Err("field `defaults` must be a JSON object".to_string()),
        };
        let items = match v.get("items") {
            None => return Err("missing required field `items`".to_string()),
            Some(JsonValue::Array(items)) => items,
            Some(_) => return Err("field `items` must be an array".to_string()),
        };
        if items.is_empty() {
            return Err("field `items` must not be empty".to_string());
        }
        if items.len() > MAX_BATCH_ITEMS {
            return Err(format!("too many items: {} > {MAX_BATCH_ITEMS}", items.len()));
        }
        let deadline_ms = optional_u64(v, "deadline_ms")?;
        let items = items
            .iter()
            .map(|item| {
                if !matches!(item, JsonValue::Object(_)) {
                    return Err("item must be a JSON object".to_string());
                }
                EvalRequest::from_json(&merge_objects(defaults, item))
            })
            .collect();
        Ok(BatchRequest { items, deadline_ms })
    }
}

/// Shallow object merge: `base`'s members in order, overridden by
/// `overrides` where keys collide, with `overrides`-only keys appended.
/// Member order is deterministic, so two items with the same effective
/// fields parse — and therefore evaluate and serialize — identically.
fn merge_objects(base: Option<&JsonValue>, overrides: &JsonValue) -> JsonValue {
    let mut members: Vec<(String, JsonValue)> = match base {
        Some(JsonValue::Object(m)) => m.clone(),
        _ => Vec::new(),
    };
    if let JsonValue::Object(over) = overrides {
        for (k, v) in over {
            match members.iter_mut().find(|(name, _)| name == k) {
                Some(slot) => slot.1 = v.clone(),
                None => members.push((k.clone(), v.clone())),
            }
        }
    }
    JsonValue::Object(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_core::runner::ci_trace_bundle;
    use diffy_encoding::StorageScheme;

    #[test]
    fn every_name_parses_in_any_case_and_a_miss_lists_them_all() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(
            list: &[(&str, T)],
            parse: fn(&str) -> Result<T, String>,
        ) {
            for &(name, value) in list {
                for spelling in [name.to_string(), name.to_lowercase(), name.to_uppercase()] {
                    assert_eq!(parse(&spelling), Ok(value), "{spelling}");
                }
            }
            let names: Vec<&str> = list.iter().map(|&(n, _)| n).collect();
            let err = parse("nope").unwrap_err();
            assert!(err.ends_with(&format!(" `nope` ({})", names.join("/"))), "{err}");
        }
        check(&CiModel::ALL.map(|m| (m.name(), m)), parse_model);
        check(&DatasetId::ALL.map(|d| (d.name(), d)), parse_dataset);
        check(&Architecture::ALL.map(|a| (a.name(), a)), parse_arch);
        check(&SchemeChoice::NAMED, parse_scheme);
        check(&MemoryNode::ALL.map(|m| (m.name(), m)), parse_memory);
        check(&SceneKind::ALL.map(|k| (k.name(), k)), parse_scene);
        check(&TemporalMode::ALL.map(|m| [(m.name(), m), (m.label(), m)]).concat(), parse_mode);
    }

    #[test]
    fn minimal_request_gets_defaults() {
        let v = parse(r#"{"model": "IRCNN", "dataset": "Kodak24"}"#).unwrap();
        let r = EvalRequest::from_json(&v).unwrap();
        assert_eq!(r.model, CiModel::Ircnn);
        assert_eq!(r.dataset, DatasetId::Kodak24);
        assert_eq!((r.sample, r.resolution, r.seed), (0, 64, 1));
        assert_eq!(r.arch, Architecture::Diffy);
        assert_eq!(r.scheme, SchemeChoice::Scheme(StorageScheme::delta_d(16)));
        assert_eq!(r.memory, MemoryNode::Ddr4_3200);
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn full_request_parses_case_insensitively() {
        let v = parse(
            r#"{"model": "dncnn", "dataset": "hd33", "sample": 2, "resolution": 32,
                "seed": 9, "arch": "vaa", "scheme": "Ideal", "memory": "HBM2",
                "deadline_ms": 250}"#,
        )
        .unwrap();
        let r = EvalRequest::from_json(&v).unwrap();
        assert_eq!(r.model, CiModel::DnCnn);
        assert_eq!(r.dataset, DatasetId::Hd33);
        assert_eq!((r.sample, r.resolution, r.seed), (2, 32, 9));
        assert_eq!(r.arch, Architecture::Vaa);
        assert_eq!(r.scheme, SchemeChoice::Ideal);
        assert_eq!(r.memory, MemoryNode::Hbm2);
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn invalid_requests_are_rejected_with_reasons() {
        let cases = [
            (r#"{"dataset": "Kodak24"}"#, "missing required field `model`"),
            (r#"{"model": "IRCNN"}"#, "missing required field `dataset`"),
            (r#"{"model": "nope", "dataset": "Kodak24"}"#, "unknown model"),
            (r#"{"model": "IRCNN", "dataset": "nope"}"#, "unknown dataset"),
            (r#"{"model": "IRCNN", "dataset": "Kodak24", "sample": 24}"#, "out of range"),
            // 2^32: would truncate to sample 0 (in range!) on a 32-bit
            // `as usize` — the u64 range check must reject it first.
            (r#"{"model": "IRCNN", "dataset": "Kodak24", "sample": 4294967296}"#, "out of range"),
            (r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 8}"#, "out of range"),
            (r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 4096}"#, "out of range"),
            // 2^32 + 64: would truncate to the valid resolution 64 on a
            // 32-bit `as usize`.
            (
                r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 4294967360}"#,
                "out of range",
            ),
            (r#"{"model": "IRCNN", "dataset": "Kodak24", "arch": "TPU"}"#, "unknown arch"),
            (r#"{"model": "IRCNN", "dataset": "Kodak24", "scheme": "zip"}"#, "unknown scheme"),
            (r#"{"model": "IRCNN", "dataset": "Kodak24", "memory": "SRAM"}"#, "unknown memory"),
            (r#"{"model": "IRCNN", "dataset": "Kodak24", "seed": -1}"#, "non-negative"),
            (r#"[1]"#, "must be a JSON object"),
        ];
        for (body, needle) in cases {
            let err = EvalRequest::from_json(&parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn result_serialization_is_deterministic_and_faithful() {
        let opts = WorkloadOptions::test_small();
        let bundle = ci_trace_bundle(CiModel::Ircnn, DatasetId::Kodak24, 0, &opts);
        let eval = EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal);
        let result = bundle.evaluate(&eval);

        let a = result_to_json(&result, bundle.source_pixels).to_json();
        let b = result_to_json(&bundle.evaluate(&eval), bundle.source_pixels).to_json();
        assert_eq!(a, b, "equal results must serialize identically");

        let v = parse(&a).unwrap();
        assert_eq!(v.get("arch").unwrap().as_str(), Some("Diffy"));
        assert_eq!(
            v.get("totals").unwrap().get("total_cycles").unwrap().as_u64(),
            Some(result.total_cycles())
        );
        let layers = v.get("layers").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), result.layers.len());
        assert_eq!(
            layers[0].get("compute").unwrap().get("macs").unwrap().as_u64(),
            Some(result.layers[0].compute.macs)
        );
        assert_eq!(
            layers[0].get("timing").unwrap().get("stall_cycles").unwrap().as_u64(),
            Some(result.layers[0].timing.stall_cycles)
        );
    }

    #[test]
    fn error_body_is_json() {
        assert_eq!(error_body("queue full"), r#"{"error":"queue full"}"#);
    }

    #[test]
    fn batch_items_merge_defaults_under_overrides() {
        let v = parse(
            r#"{"defaults": {"model": "IRCNN", "dataset": "Kodak24", "seed": 3},
                "items": [{}, {"model": "VDSR"}, {"seed": 9, "resolution": 32}],
                "deadline_ms": 500}"#,
        )
        .unwrap();
        let b = BatchRequest::from_json(&v).unwrap();
        assert_eq!(b.deadline_ms, Some(500));
        assert_eq!(b.items.len(), 3);
        let r0 = b.items[0].as_ref().unwrap();
        assert_eq!((r0.model, r0.seed, r0.resolution), (CiModel::Ircnn, 3, 64));
        let r1 = b.items[1].as_ref().unwrap();
        assert_eq!((r1.model, r1.dataset, r1.seed), (CiModel::Vdsr, DatasetId::Kodak24, 3));
        let r2 = b.items[2].as_ref().unwrap();
        assert_eq!((r2.model, r2.seed, r2.resolution), (CiModel::Ircnn, 9, 32));
    }

    #[test]
    fn batch_item_parses_exactly_like_a_standalone_request() {
        // The merged item must go through the same parser as a
        // standalone body — same defaults, same rejection reasons.
        let standalone =
            parse(r#"{"model": "dncnn", "dataset": "hd33", "resolution": 32, "arch": "vaa"}"#)
                .unwrap();
        let expect = EvalRequest::from_json(&standalone).unwrap();
        let batch = parse(
            r#"{"defaults": {"model": "dncnn", "dataset": "hd33"},
                "items": [{"resolution": 32, "arch": "vaa"}]}"#,
        )
        .unwrap();
        let b = BatchRequest::from_json(&batch).unwrap();
        assert_eq!(b.items[0].as_ref().unwrap(), &expect);
    }

    #[test]
    fn batch_item_errors_are_per_item_not_fatal() {
        let v = parse(
            r#"{"defaults": {"dataset": "Kodak24"},
                "items": [{"model": "IRCNN"}, {"model": "nope"}, {}, [1]]}"#,
        )
        .unwrap();
        let b = BatchRequest::from_json(&v).unwrap();
        assert!(b.items[0].is_ok());
        assert!(b.items[1].as_ref().unwrap_err().contains("unknown model"));
        assert!(b.items[2].as_ref().unwrap_err().contains("missing required field `model`"));
        assert!(b.items[3].as_ref().unwrap_err().contains("must be a JSON object"));
    }

    #[test]
    fn minimal_session_request_gets_defaults() {
        let v = parse(r#"{"model": "DnCNN"}"#).unwrap();
        let r = SessionRequest::from_json(&v).unwrap();
        assert_eq!(r.model, CiModel::DnCnn);
        assert_eq!(r.scene, SceneKind::City);
        assert_eq!((r.resolution, r.frames, r.pan_px), (64, 8, 1));
        assert_eq!((r.noise, r.seed), (0.0, 1));
        assert_eq!(r.mode, TemporalMode::SpatioTemporal);
        let spec = r.spec();
        assert_eq!((spec.resolution, spec.frames, spec.seed), (64, 8, 1));
    }

    #[test]
    fn full_session_request_parses_case_insensitively() {
        let v = parse(
            r#"{"model": "ircnn", "scene": "nature", "resolution": 32, "frames": 4,
                "pan_px": 2, "noise": 0.05, "seed": 9, "mode": "Diffy-T"}"#,
        )
        .unwrap();
        let r = SessionRequest::from_json(&v).unwrap();
        assert_eq!(r.model, CiModel::Ircnn);
        assert_eq!(r.scene, SceneKind::Nature);
        assert_eq!((r.resolution, r.frames, r.pan_px, r.seed), (32, 4, 2, 9));
        assert_eq!(r.mode, TemporalMode::TemporalOnly);
        assert!((r.noise - 0.05).abs() < 1e-6);
    }

    #[test]
    fn invalid_session_requests_are_rejected_with_reasons() {
        let cases = [
            (r#"{}"#, "missing required field `model`"),
            (r#"{"model": "nope"}"#, "unknown model"),
            (r#"{"model": "IRCNN", "scene": "desert"}"#, "unknown scene"),
            (r#"{"model": "IRCNN", "resolution": 8}"#, "out of range"),
            (r#"{"model": "IRCNN", "resolution": 4096}"#, "out of range"),
            (r#"{"model": "IRCNN", "frames": 0}"#, "out of range"),
            (r#"{"model": "IRCNN", "frames": 65}"#, "out of range"),
            // 2^32 + 4: would truncate into range on a 32-bit `as usize`.
            (r#"{"model": "IRCNN", "frames": 4294967300}"#, "out of range"),
            (r#"{"model": "IRCNN", "pan_px": 33}"#, "out of range"),
            (r#"{"model": "IRCNN", "noise": 1.5}"#, "out of range"),
            (r#"{"model": "IRCNN", "noise": -0.1}"#, "out of range"),
            (r#"{"model": "IRCNN", "noise": "loud"}"#, "must be a number"),
            (r#"{"model": "IRCNN", "seed": -1}"#, "non-negative"),
            (r#"{"model": "IRCNN", "mode": "psychic"}"#, "unknown mode"),
            (r#"[1]"#, "must be a JSON object"),
        ];
        for (body, needle) in cases {
            let err = SessionRequest::from_json(&parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn frame_request_guards_parse() {
        let r = FrameRequest::from_json(&parse("{}").unwrap()).unwrap();
        assert_eq!(r, FrameRequest::default());
        let r =
            FrameRequest::from_json(&parse(r#"{"resolution": 32, "frame": 3}"#).unwrap()).unwrap();
        assert_eq!((r.resolution, r.frame), (Some(32), Some(3)));
        let err = FrameRequest::from_json(&parse(r#"{"frame": -1}"#).unwrap()).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = FrameRequest::from_json(&parse("[]").unwrap()).unwrap_err();
        assert!(err.contains("JSON object"), "{err}");
    }

    #[test]
    fn cycles_serialization_is_deterministic_and_faithful() {
        use diffy_core::runner::{video_frame_bundle, VideoSpec};
        use diffy_sim::temporal_network;
        let spec = VideoSpec::new(CiModel::Ircnn, SceneKind::City, 24, 2, 1, 0.0, 3);
        let prev = video_frame_bundle(&spec, 0);
        let cur = video_frame_bundle(&spec, 1);
        let cycles = temporal_network(
            &prev.trace,
            &cur.trace,
            &AcceleratorConfig::table4(),
            TemporalMode::SpatioTemporal,
        );
        let a = cycles_to_json(&cycles).to_json();
        let b = cycles_to_json(&cycles.clone()).to_json();
        assert_eq!(a, b);
        let v = parse(&a).unwrap();
        assert_eq!(v.get("arch").unwrap().as_str(), Some("Diffy-ST"));
        assert_eq!(
            v.get("totals").unwrap().get("cycles").unwrap().as_u64(),
            Some(cycles.total_cycles())
        );
        let layers = v.get("layers").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), cycles.layers.len());
        assert_eq!(
            layers[0].get("macs").unwrap().as_u64(),
            Some(cycles.layers[0].macs)
        );
    }

    #[test]
    fn batch_structural_errors_reject_the_whole_batch() {
        let cases = [
            (r#"[1]"#, "must be a JSON object"),
            (r#"{"defaults": 5, "items": [{}]}"#, "`defaults` must be a JSON object"),
            (r#"{"items": {}}"#, "`items` must be an array"),
            (r#"{"items": []}"#, "must not be empty"),
            (r#"{"defaults": {}}"#, "missing required field `items`"),
            (r#"{"items": [{}], "deadline_ms": -5}"#, "non-negative"),
        ];
        for (body, needle) in cases {
            let err = BatchRequest::from_json(&parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
        let many = format!(r#"{{"items": [{}]}}"#, vec!["{}"; MAX_BATCH_ITEMS + 1].join(","));
        let err = BatchRequest::from_json(&parse(&many).unwrap()).unwrap_err();
        assert!(err.contains("too many items"), "{err}");
    }
}
