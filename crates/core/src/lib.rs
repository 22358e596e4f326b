//! The paper's primary contribution as a library: **differential
//! convolution** and the **Diffy** accelerator evaluation stack.
//!
//! * [`dc`] — differential convolution (Eqs. 3/4): computing each output
//!   from its left neighbour plus an inner product with the window
//!   *deltas*, with an exactness guarantee against direct convolution.
//! * [`accelerator`] — the end-to-end evaluation of one network trace on
//!   one architecture: cycle model + storage scheme + off-chip memory →
//!   execution time, stalls, traffic, FPS.
//! * [`runner`] — workload orchestration: datasets → prepared inputs →
//!   traces (with weight caching), plus the resolution-scaling rules for
//!   HD projections (DESIGN.md §2.3).
//! * [`scaling`] — the Fig. 17/18 studies: FPS across resolutions and the
//!   minimum tiles × memory-node search for real-time HD.
//! * [`experiment`] — the registry mapping every table and figure of the
//!   paper to its bench target.
//! * [`artifact`] — the disk tier of the sweep cache: validated,
//!   atomically-written artifact files that let `diffy precompute` and
//!   `diffy serve --artifact-dir` turn evaluation into lookup.
//! * [`json`] — the hand-rolled JSON document model: the deterministic
//!   emitter behind the committed `BENCH_*.json` files and the strict
//!   parser the evaluation service reads requests with.
//! * [`parallel`] — the deterministic sweep engine: a std-only
//!   scoped-thread job pool with order-stable results and the one
//!   compute-once keyed cache, unbounded or LRU-bounded.
//! * [`summary`] — fixed-width table formatting shared by the bench
//!   harness.
//! * [`trace`] — span tracing across the evaluation pipeline: per-stage
//!   timing with Chrome trace-event export (`--trace-out`, `GET /trace`).
//!
//! # Quickstart
//!
//! ```
//! use diffy_core::dc::differential_conv2d;
//! use diffy_tensor::{conv2d, ConvGeometry, Tensor3, Tensor4};
//!
//! let imap = Tensor3::from_vec(1, 2, 4, vec![3i16, 4, 4, 5, 9, 9, 8, 7]);
//! let fmaps = Tensor4::from_vec(1, 1, 2, 2, vec![1i16, -1, 2, 1]);
//! let direct = conv2d(&imap, &fmaps, None, ConvGeometry::unit());
//! let differential = differential_conv2d(&imap, &fmaps, None, ConvGeometry::unit());
//! assert_eq!(direct, differential); // bit-exact, by construction
//! ```


#![warn(missing_docs)]

pub mod accelerator;
pub mod artifact;
pub mod datapath;
pub mod dc;
pub mod experiment;
pub mod json;
pub mod parallel;
pub mod reporting;
pub mod runner;
pub mod scaling;
pub mod summary;
pub mod system;
pub mod tile;
pub mod trace;

pub use accelerator::{
    evaluate_network, evaluate_network_with_artifacts, network_scheme_traffic, EvalOptions,
    NetworkResult, SchemeChoice, TermPlaneSource, TrafficSource,
};
pub use artifact::{
    decode_artifact, result_key, ArtifactError, DiskStats, DiskTier, EvalArtifact,
};
pub use diffy_imaging::datasets::DatasetId;
pub use diffy_models::CiModel;
pub use dc::differential_conv2d;
pub use json::{bench_json_string, json_escape, json_number, BenchRecord, JsonValue};
pub use parallel::{run_jobs, Cache, CacheCounters, Jobs};
pub use runner::{
    ci_trace_bundle, class_trace_bundle, video_frame_bundle, CacheStats, EvalPoint, SweepCache,
    TraceBundle, TraceKey, VideoSpec, WorkloadOptions,
};
