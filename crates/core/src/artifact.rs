//! Disk artifact store: the persistent tier of the sweep cache.
//!
//! The experiment grid is finite and enumerable, so a serving process
//! can treat evaluation as computation *reuse* rather than computation:
//! every `(workload, architecture, scheme, memory)` point maps to a
//! canonical key ([`result_key`]), and a completed evaluation can be
//! materialized as one JSON artifact file and served later by any
//! process — `diffy precompute` fills a directory, `diffy serve
//! --artifact-dir` reads through it.
//!
//! **Format.** One file per key, named by the FNV-1a 64 hash of the key
//! (`<16 hex digits>.json`), containing a version-headed document:
//!
//! ```json
//! {"format": "diffy-artifact", "version": 1,
//!  "key": "<canonical key>", "fingerprint": <u64>,
//!  "payload": {…full evaluation result…}}
//! ```
//!
//! The `key` echo guards against filename hash collisions and renamed
//! files; the `fingerprint` is the FNV-1a 64 hash of the payload's
//! canonical serialization (`diffy_core::json` is deterministic and
//! u64-exact, so re-serializing the parsed payload reproduces the
//! written bytes). A reader validates format marker, version,
//! fingerprint and key before trusting a single payload field.
//!
//! **Corruption discipline.** Any torn, truncated, mangled or
//! version-skewed artifact is a *reasoned* [`ArtifactError`] — never a
//! panic, never an accepted-but-wrong result. The tier degrades to
//! recompute and the next write-through repairs the file.
//!
//! **Atomicity.** Writes go to a unique dot-prefixed `.tmp` file in the
//! same directory and are published with `rename`, which is atomic on
//! POSIX filesystems: a reader sees the old artifact, the new artifact,
//! or no artifact — never a half-written one. A crash between write and
//! rename leaves an orphan temp file that readers ignore (only
//! `<16 hex>.json` names are ever opened or scanned).

use crate::accelerator::{EvalOptions, LayerResult, NetworkResult, SchemeChoice};
use crate::json::{parse, JsonValue};
use crate::runner::{WorkloadOptions, HD_PIXELS};
use diffy_imaging::datasets::DatasetId;
use diffy_memsys::overlap::LayerTiming;
use diffy_memsys::traffic::LayerTraffic;
use diffy_models::CiModel;
use diffy_sim::{Architecture, LayerCycles};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format marker every artifact document must carry.
pub const ARTIFACT_FORMAT: &str = "diffy-artifact";

/// Current artifact format version. Bump on any payload shape change;
/// readers reject other versions ([`ArtifactError::VersionSkew`]) and
/// recompute.
pub const ARTIFACT_VERSION: u64 = 1;

/// FNV-1a 64-bit hash (offset basis / prime per the reference spec).
/// Used for artifact filenames and content fingerprints — fast, stable
/// across platforms, and dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        acc ^= b as u64;
        acc = acc.wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// A complete, servable evaluation: the network result, the traced
/// source-pixel count (what FPS projections need alongside the result),
/// and the served response body, rendered once by [`EvalArtifact::new`]
/// so that every request for a cached result answers with stored bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalArtifact {
    /// The evaluation result.
    pub result: NetworkResult,
    /// Pixels of the source image the trace was prepared from.
    pub source_pixels: u64,
    /// [`result_to_json`] of `result` and `source_pixels`, as text.
    body: Box<str>,
}

impl EvalArtifact {
    /// The artifact of `result`, traced from `source_pixels` pixels, with
    /// its response body rendered.
    pub fn new(result: NetworkResult, source_pixels: u64) -> Self {
        let body = result_to_json(&result, source_pixels).to_json().into_boxed_str();
        Self { result, source_pixels, body }
    }

    /// The served `/evaluate` body: [`result_to_json`] of the result,
    /// rendered when the artifact was made.
    pub fn body(&self) -> &str {
        &self.body
    }
}

/// Canonical key of one evaluation point: injective over everything the
/// result is a pure function of — model, dataset, sample, trace
/// resolution, seed, architecture, tile configuration (floats keyed by
/// bit pattern), storage scheme, and memory system.
///
/// `samples_per_dataset` is deliberately excluded: it caps sweep
/// enumeration but never changes an individual result.
pub fn result_key(
    model: CiModel,
    dataset: DatasetId,
    sample: usize,
    workload: &WorkloadOptions,
    eval: &EvalOptions,
) -> String {
    let cfg = &eval.cfg;
    format!(
        "model={model};dataset={dataset};sample={sample};res={};seed={};arch={};\
         cfg={}T{}F{}L{}W{}G:{:016x};scheme={};mem={}x{}",
        workload.resolution,
        workload.seed,
        eval.arch.name(),
        cfg.tiles,
        cfg.filters_per_tile,
        cfg.lanes,
        cfg.windows,
        cfg.terms_per_group,
        cfg.frequency_ghz.to_bits(),
        scheme_token(eval.scheme),
        eval.memory.node.name(),
        eval.memory.channels,
    )
}

/// Injective text form of a [`SchemeChoice`]. `Profiled`'s quantile is
/// keyed by its f64 bit pattern — distinct bit patterns are distinct
/// computations.
fn scheme_token(scheme: SchemeChoice) -> String {
    match scheme {
        SchemeChoice::Scheme(s) => s.to_string(),
        SchemeChoice::Profiled { quantile } => format!("ProfiledQ:{:016x}", quantile.to_bits()),
        SchemeChoice::Ideal => "Ideal".to_string(),
    }
}

/// Why an artifact was rejected. Every variant degrades to recompute;
/// none is ever a panic.
#[derive(Debug)]
pub enum ArtifactError {
    /// The file could not be read (permissions, torn filesystem, …).
    Io(io::Error),
    /// The bytes are not a well-formed JSON document.
    Json(String),
    /// The document parses but is not an artifact: wrong or missing
    /// format marker, or a malformed header field.
    BadHeader(String),
    /// The artifact was written by a different format version.
    VersionSkew(i128),
    /// The payload bytes do not hash to the recorded fingerprint —
    /// interior corruption.
    FingerprintMismatch {
        /// Fingerprint recorded in the header.
        expected: u64,
        /// Fingerprint of the payload as stored.
        actual: u64,
    },
    /// The embedded key is not the key that was requested (filename
    /// hash collision or a renamed file).
    KeyMismatch {
        /// The key the caller asked for.
        expected: String,
        /// The key the file claims to hold.
        actual: String,
    },
    /// Header checks passed but the payload is not a decodable
    /// evaluation result.
    Payload(String),
}

impl ArtifactError {
    /// Stable short name of the failure class (used by the fuzz lane's
    /// classification tables).
    pub fn kind(&self) -> &'static str {
        match self {
            ArtifactError::Io(_) => "io",
            ArtifactError::Json(_) => "json",
            ArtifactError::BadHeader(_) => "bad-header",
            ArtifactError::VersionSkew(_) => "version-skew",
            ArtifactError::FingerprintMismatch { .. } => "fingerprint-mismatch",
            ArtifactError::KeyMismatch { .. } => "key-mismatch",
            ArtifactError::Payload(_) => "payload",
        }
    }
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact unreadable: {e}"),
            ArtifactError::Json(e) => write!(f, "artifact is not valid JSON: {e}"),
            ArtifactError::BadHeader(e) => write!(f, "artifact header invalid: {e}"),
            ArtifactError::VersionSkew(v) => {
                write!(f, "artifact version {v} (this build reads {ARTIFACT_VERSION})")
            }
            ArtifactError::FingerprintMismatch { expected, actual } => write!(
                f,
                "payload fingerprint {actual:016x} does not match header {expected:016x}"
            ),
            ArtifactError::KeyMismatch { expected, actual } => {
                write!(f, "artifact holds key `{actual}`, requested `{expected}`")
            }
            ArtifactError::Payload(e) => write!(f, "artifact payload invalid: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, ArtifactError> {
    v.get(key).ok_or_else(|| ArtifactError::Payload(format!("missing field `{key}`")))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, ArtifactError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| ArtifactError::Payload(format!("field `{key}` is not a u64")))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, ArtifactError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| ArtifactError::Payload(format!("field `{key}` is not a string")))
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, ArtifactError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| ArtifactError::Payload(format!("field `{key}` is not a number")))
}

/// Serializes one layer's compute counters: the `compute` object of a
/// payload layer, and one layer of a served session frame.
pub fn layer_cycles_to_json(c: &LayerCycles) -> JsonValue {
    JsonValue::object(vec![
        ("cycles", c.cycles.into()),
        ("useful_slots", c.useful_slots.into()),
        ("total_slots", c.total_slots.into()),
        ("compute_events", c.compute_events.into()),
        ("filter_passes", c.filter_passes.into()),
        ("macs", c.macs.into()),
    ])
}

/// Serializes one layer's result, an entry of the payload's `layers`.
fn layer_to_json(l: &LayerResult) -> JsonValue {
    JsonValue::object(vec![
        ("name", l.name.as_str().into()),
        ("compute", layer_cycles_to_json(&l.compute)),
        (
            "traffic",
            JsonValue::object(vec![
                ("imap_read_bytes", l.traffic.imap_read_bytes.into()),
                ("omap_write_bytes", l.traffic.omap_write_bytes.into()),
                ("weight_bytes", l.traffic.weight_bytes.into()),
            ]),
        ),
        (
            "timing",
            JsonValue::object(vec![
                ("compute_cycles", l.timing.compute_cycles.into()),
                ("memory_cycles", l.timing.memory_cycles.into()),
                ("total_cycles", l.timing.total_cycles.into()),
                ("stall_cycles", l.timing.stall_cycles.into()),
            ]),
        ),
    ])
}

fn layer_from_json(v: &JsonValue) -> Result<LayerResult, ArtifactError> {
    let compute = field(v, "compute")?;
    let traffic = field(v, "traffic")?;
    let timing = field(v, "timing")?;
    Ok(LayerResult {
        name: str_field(v, "name")?.to_string(),
        compute: LayerCycles {
            cycles: u64_field(compute, "cycles")?,
            useful_slots: u64_field(compute, "useful_slots")?,
            total_slots: u64_field(compute, "total_slots")?,
            compute_events: u64_field(compute, "compute_events")?,
            filter_passes: u64_field(compute, "filter_passes")?,
            macs: u64_field(compute, "macs")?,
        },
        traffic: LayerTraffic {
            imap_read_bytes: u64_field(traffic, "imap_read_bytes")?,
            omap_write_bytes: u64_field(traffic, "omap_write_bytes")?,
            weight_bytes: u64_field(traffic, "weight_bytes")?,
        },
        timing: LayerTiming {
            compute_cycles: u64_field(timing, "compute_cycles")?,
            memory_cycles: u64_field(timing, "memory_cycles")?,
            total_cycles: u64_field(timing, "total_cycles")?,
            stall_cycles: u64_field(timing, "stall_cycles")?,
        },
    })
}

/// The members of an evaluation's payload document: the network header
/// (`model`, `arch`, `scheme`, `frequency_ghz`, `source_pixels`) and
/// every layer. The served body ([`result_to_json`]) is these members
/// plus `totals`, so stored and served results share these bytes.
fn payload_members(result: &NetworkResult, source_pixels: u64) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("model", result.model.as_str().into()),
        ("arch", result.arch.into()),
        ("scheme", result.scheme.as_str().into()),
        ("frequency_ghz", result.frequency_ghz.into()),
        ("source_pixels", source_pixels.into()),
        ("layers", JsonValue::Array(result.layers.iter().map(layer_to_json).collect())),
    ]
}

/// Serializes a [`NetworkResult`] with full fidelity: the artifact
/// payload's members (header and per-layer counters) plus the derived
/// totals the CLI prints. `source_pixels` drives the HD FPS projection.
/// This is the `/evaluate` response body, which [`EvalArtifact::new`]
/// renders once per artifact.
///
/// Deterministic: equal results (and pixel counts) serialize to equal
/// strings, so "served response == direct evaluation" can be asserted
/// bytewise.
pub fn result_to_json(result: &NetworkResult, source_pixels: u64) -> JsonValue {
    let mut members = payload_members(result, source_pixels);
    members.push((
        "totals",
        JsonValue::object(vec![
            ("total_cycles", result.total_cycles().into()),
            ("compute_cycles", result.compute_cycles().into()),
            ("stall_cycles", result.stall_cycles().into()),
            ("total_traffic_bytes", result.total_traffic_bytes().into()),
            ("activation_traffic_bytes", result.activation_traffic_bytes().into()),
            ("fps", JsonValue::from(result.fps())),
            ("hd_fps", JsonValue::from(result.fps_scaled(source_pixels, HD_PIXELS))),
        ]),
    ));
    JsonValue::object(members)
}

/// Serializes an evaluation to the artifact payload document. Every
/// integer stays integral (u64-exact) and the float fields use the
/// deterministic shortest-roundtrip rendering, so
/// `payload_from_json(payload_to_json(a)) == a` bit-for-bit.
pub fn payload_to_json(a: &EvalArtifact) -> JsonValue {
    JsonValue::object(payload_members(&a.result, a.source_pixels))
}

/// Decodes an artifact payload back into an evaluation. Any shape
/// mismatch is a reasoned [`ArtifactError::Payload`].
pub fn payload_from_json(v: &JsonValue) -> Result<EvalArtifact, ArtifactError> {
    // The result structs carry the interned `Architecture::name`; the
    // name set is closed, so an unknown one is a payload error.
    let arch_name = str_field(v, "arch")?;
    let arch = Architecture::ALL
        .iter()
        .map(|a| a.name())
        .find(|&n| n == arch_name)
        .ok_or_else(|| ArtifactError::Payload(format!("unknown architecture `{arch_name}`")))?;
    let layers = field(v, "layers")?
        .as_array()
        .ok_or_else(|| ArtifactError::Payload("field `layers` is not an array".into()))?
        .iter()
        .map(layer_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let result = NetworkResult {
        model: str_field(v, "model")?.to_string(),
        arch,
        scheme: str_field(v, "scheme")?.to_string(),
        layers,
        frequency_ghz: f64_field(v, "frequency_ghz")?,
    };
    Ok(EvalArtifact::new(result, u64_field(v, "source_pixels")?))
}

/// Renders the complete on-disk artifact document for `key`.
pub fn artifact_document(key: &str, artifact: &EvalArtifact) -> String {
    let payload = payload_to_json(artifact);
    let fingerprint = fnv1a64(payload.to_json().as_bytes());
    JsonValue::object(vec![
        ("format", ARTIFACT_FORMAT.into()),
        ("version", JsonValue::Int(ARTIFACT_VERSION as i128)),
        ("key", key.into()),
        ("fingerprint", fingerprint.into()),
        ("payload", payload),
    ])
    .to_json()
}

/// Parses and fully validates an artifact document: format marker,
/// version, key echo (when `expect_key` is given), content fingerprint,
/// then payload shape — in that order, so each failure class carries its
/// most specific reason. Returns the embedded key and the decoded
/// evaluation.
pub fn decode_artifact(
    text: &str,
    expect_key: Option<&str>,
) -> Result<(String, EvalArtifact), ArtifactError> {
    let doc = parse(text).map_err(|e| ArtifactError::Json(e.to_string()))?;
    let format = doc
        .get("format")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ArtifactError::BadHeader("missing `format` marker".into()))?;
    if format != ARTIFACT_FORMAT {
        return Err(ArtifactError::BadHeader(format!("format marker `{format}`")));
    }
    let version = match doc.get("version") {
        Some(JsonValue::Int(i)) => *i,
        _ => return Err(ArtifactError::BadHeader("missing integral `version`".into())),
    };
    if version != ARTIFACT_VERSION as i128 {
        return Err(ArtifactError::VersionSkew(version));
    }
    let key = doc
        .get("key")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ArtifactError::BadHeader("missing `key`".into()))?;
    if let Some(want) = expect_key {
        if key != want {
            return Err(ArtifactError::KeyMismatch {
                expected: want.to_string(),
                actual: key.to_string(),
            });
        }
    }
    let fingerprint = doc
        .get("fingerprint")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| ArtifactError::BadHeader("missing `fingerprint`".into()))?;
    let payload = doc
        .get("payload")
        .ok_or_else(|| ArtifactError::BadHeader("missing `payload`".into()))?;
    let actual = fnv1a64(payload.to_json().as_bytes());
    if actual != fingerprint {
        return Err(ArtifactError::FingerprintMismatch { expected: fingerprint, actual });
    }
    let artifact = payload_from_json(payload)?;
    Ok((key.to_string(), artifact))
}

/// A point-in-time summary of a [`DiskTier`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Loads that validated and served an artifact.
    pub hits: u64,
    /// Loads that found no artifact on disk.
    pub misses: u64,
    /// Loads that found an unreadable or invalid artifact (degraded to
    /// recompute).
    pub corrupt: u64,
    /// Artifact bytes moved through the tier (reads served + writes
    /// published).
    pub bytes: u64,
}

/// The disk tier of the sweep cache: a directory of validated artifact
/// files, written atomically and safe to share between concurrent
/// processes (`precompute` writers and `serve` readers included).
pub struct DiskTier {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    bytes: AtomicU64,
}

/// Process-wide sequence for unique temp names. Combined with the pid,
/// no two writers collide on a temp file: not two threads, not two
/// tiers over one directory, not two processes.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn next_temp_seq() -> u64 {
    TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
}

impl DiskTier {
    /// Opens (creating if needed) an artifact directory, probing
    /// writability up front: a read-only or otherwise unusable path is
    /// an immediate error, not a latent per-request failure.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let probe =
            dir.join(format!(".writable-probe-{}.{}.tmp", std::process::id(), next_temp_seq()));
        fs::write(&probe, b"probe")?;
        fs::remove_file(&probe)?;
        Ok(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path the artifact for `key` lives at.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", fnv1a64(key.as_bytes())))
    }

    /// Whether an artifact file for `key` exists (no validation — a
    /// corrupt file still heals on its first read-through).
    pub fn contains(&self, key: &str) -> bool {
        self.path_for(key).is_file()
    }

    /// Loads and validates the artifact for `key`.
    ///
    /// `Ok(Some(_))` is a disk hit; `Ok(None)` means no artifact exists
    /// (miss — compute it); `Err(_)` means an artifact exists but failed
    /// validation (corrupt — compute it, and a write-through repairs the
    /// file). Counters are updated accordingly; this never panics.
    pub fn load(&self, key: &str) -> Result<Option<EvalArtifact>, ArtifactError> {
        let path = self.path_for(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                return Err(ArtifactError::Io(e));
            }
        };
        match decode_artifact(&text, Some(key)) {
            Ok((_, artifact)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(text.len() as u64, Ordering::Relaxed);
                Ok(Some(artifact))
            }
            Err(e) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Atomically publishes the artifact for `key`: the document is
    /// written to a unique temp file in the same directory and `rename`d
    /// over the final name. Readers never observe a partial file; a
    /// crash in between leaves only an ignored orphan temp. Returns the
    /// artifact size in bytes.
    pub fn store(&self, key: &str, artifact: &EvalArtifact) -> io::Result<u64> {
        let doc = artifact_document(key, artifact);
        let path = self.path_for(key);
        let tmp = self.dir.join(format!(
            ".{:016x}.{}.{}.tmp",
            fnv1a64(key.as_bytes()),
            std::process::id(),
            next_temp_seq(),
        ));
        fs::write(&tmp, doc.as_bytes())?;
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        self.bytes.fetch_add(doc.len() as u64, Ordering::Relaxed);
        Ok(doc.len() as u64)
    }

    /// Reads every valid artifact in the directory (for `--warmup`),
    /// in deterministic filename order. Invalid or unreadable files are
    /// counted as corrupt and skipped — a half-populated or damaged
    /// directory warms what it can. Does not touch the hit/miss
    /// counters: warmup is not request traffic.
    pub fn load_all(&self) -> io::Result<Vec<(String, EvalArtifact)>> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
            .collect();
        paths.sort();
        let mut out = Vec::new();
        for path in paths {
            match fs::read_to_string(&path) {
                Ok(text) => match decode_artifact(&text, None) {
                    Ok((key, artifact)) => out.push((key, artifact)),
                    Err(_) => {
                        self.corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                },
                Err(_) => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(out)
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_memsys::{MemoryNode, MemorySystem};

    fn sample_artifact() -> EvalArtifact {
        EvalArtifact::new(
            NetworkResult {
                model: "IRCNN".to_string(),
                arch: Architecture::Diffy.name(),
                scheme: "DeltaD16".to_string(),
                layers: vec![LayerResult {
                    name: "conv1".to_string(),
                    compute: LayerCycles {
                        cycles: 123,
                        useful_slots: 456,
                        total_slots: 789,
                        compute_events: 10,
                        filter_passes: 2,
                        macs: u64::MAX - 7, // above 2^53: must stay exact
                    },
                    traffic: LayerTraffic {
                        imap_read_bytes: 1,
                        omap_write_bytes: 2,
                        weight_bytes: 3,
                    },
                    timing: LayerTiming {
                        compute_cycles: 123,
                        memory_cycles: 99,
                        total_cycles: 123,
                        stall_cycles: 0,
                    },
                }],
                frequency_ghz: 1.0,
            },
            96 * 96,
        )
    }

    #[test]
    fn payload_round_trips_bit_exactly() {
        let a = sample_artifact();
        let doc = payload_to_json(&a).to_json();
        let back = payload_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(back, a);
        // Canonical serialization is a fixed point: the fingerprint of
        // the re-serialized payload equals the fingerprint of the
        // original bytes.
        assert_eq!(payload_to_json(&back).to_json(), doc);
    }

    #[test]
    fn document_round_trips_through_decode() {
        let a = sample_artifact();
        let doc = artifact_document("some-key", &a);
        let (key, back) = decode_artifact(&doc, Some("some-key")).unwrap();
        assert_eq!(key, "some-key");
        assert_eq!(back, a);
    }

    #[test]
    fn decode_classifies_each_failure() {
        let a = sample_artifact();
        let doc = artifact_document("k", &a);

        assert_eq!(decode_artifact("{", None).unwrap_err().kind(), "json");
        assert_eq!(decode_artifact("{}", None).unwrap_err().kind(), "bad-header");
        let wrong_format = doc.replace("diffy-artifact", "other-format");
        assert_eq!(decode_artifact(&wrong_format, None).unwrap_err().kind(), "bad-header");
        let skewed = doc.replace("\"version\":1", "\"version\":2");
        assert_eq!(decode_artifact(&skewed, None).unwrap_err().kind(), "version-skew");
        assert_eq!(decode_artifact(&doc, Some("other-key")).unwrap_err().kind(), "key-mismatch");
        // Flip a payload digit: the fingerprint no longer matches.
        let mangled = doc.replace("\"cycles\":123", "\"cycles\":124");
        assert_eq!(
            decode_artifact(&mangled, Some("k")).unwrap_err().kind(),
            "fingerprint-mismatch"
        );
    }

    #[test]
    fn result_key_is_injective_over_its_inputs() {
        let base_w = WorkloadOptions { resolution: 96, samples_per_dataset: 2, seed: 1 };
        let base_e = EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal);
        let base = result_key(CiModel::Ircnn, DatasetId::Kodak24, 0, &base_w, &base_e);

        // samples_per_dataset never affects the key…
        let more_samples = WorkloadOptions { samples_per_dataset: 5, ..base_w };
        assert_eq!(
            base,
            result_key(CiModel::Ircnn, DatasetId::Kodak24, 0, &more_samples, &base_e)
        );

        // …and every result-relevant input does.
        let variants = [
            result_key(CiModel::DnCnn, DatasetId::Kodak24, 0, &base_w, &base_e),
            result_key(CiModel::Ircnn, DatasetId::Cbsd68, 0, &base_w, &base_e),
            result_key(CiModel::Ircnn, DatasetId::Kodak24, 1, &base_w, &base_e),
            result_key(
                CiModel::Ircnn,
                DatasetId::Kodak24,
                0,
                &WorkloadOptions { resolution: 128, ..base_w },
                &base_e,
            ),
            result_key(
                CiModel::Ircnn,
                DatasetId::Kodak24,
                0,
                &WorkloadOptions { seed: 2, ..base_w },
                &base_e,
            ),
            result_key(
                CiModel::Ircnn,
                DatasetId::Kodak24,
                0,
                &base_w,
                &EvalOptions::new(Architecture::Pra, SchemeChoice::Ideal),
            ),
            result_key(
                CiModel::Ircnn,
                DatasetId::Kodak24,
                0,
                &base_w,
                &EvalOptions::new(
                    Architecture::Diffy,
                    SchemeChoice::Profiled { quantile: 0.999 },
                ),
            ),
            result_key(
                CiModel::Ircnn,
                DatasetId::Kodak24,
                0,
                &base_w,
                &EvalOptions {
                    memory: MemorySystem::with_channels(MemoryNode::Hbm2, 2),
                    ..EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal)
                },
            ),
        ];
        let mut all = variants.to_vec();
        all.push(base);
        let unique: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(unique.len(), all.len(), "keys must not collide: {all:#?}");
    }

    #[test]
    fn disk_tier_store_load_and_counters() {
        let dir = std::env::temp_dir().join(format!("diffy-art-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let tier = DiskTier::open(&dir).unwrap();
        let a = sample_artifact();

        assert_eq!(tier.load("k1").unwrap(), None, "empty tier misses");
        let bytes = tier.store("k1", &a).unwrap();
        assert!(bytes > 0);
        assert!(tier.contains("k1"));
        assert_eq!(tier.load("k1").unwrap(), Some(a.clone()), "stored artifact round-trips");

        // Corrupt the file in place: load degrades to a reasoned error.
        fs::write(tier.path_for("k1"), b"{\"format\":\"diffy-artifact\"").unwrap();
        assert!(tier.load("k1").is_err());
        // A re-store repairs it.
        tier.store("k1", &a).unwrap();
        assert_eq!(tier.load("k1").unwrap(), Some(a.clone()));

        let s = tier.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (2, 1, 1));
        assert!(s.bytes >= 2 * bytes);

        // load_all sees the one valid artifact and ignores orphan temps.
        fs::write(dir.join(".orphan.123.0.tmp"), b"torn write").unwrap();
        let all = tier.load_all().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, "k1");
        assert_eq!(all[0].1, a);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiers_over_one_directory_never_share_a_temp_file() {
        // Two tiers in one process, opened and storing the same key at
        // once: every open succeeds and the published file is whole.
        let dir = std::env::temp_dir().join(format!("diffy-art-shared-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = sample_artifact();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let tier = DiskTier::open(&dir).expect("concurrent open");
                        tier.store("k1", &a).expect("concurrent store");
                    }
                });
            }
        });
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.load("k1").unwrap(), Some(a));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Reference FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
