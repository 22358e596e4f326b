//! Shared plumbing for the table/figure benches.
//!
//! Every bench target under `benches/` regenerates one artefact of the
//! paper (see `diffy_core::experiment::ExperimentId`). The workload size
//! is configurable without recompiling:
//!
//! * `DIFFY_BENCH_RES` — square trace resolution (default 96).
//! * `DIFFY_BENCH_SAMPLES` — samples per dataset (default 1; the original
//!   corpora are larger — the cap is printed, never silent).
//! * `DIFFY_BENCH_JOBS` — worker threads for trace generation (default:
//!   available parallelism). Results are bit-identical and in the same
//!   order at any job count; see `diffy_core::parallel`.
//! * `DIFFY_BENCH_JSON` — when set, benches that measure wall time (the
//!   term-serial section of `micro_kernels`) also write their records to
//!   this path as JSON (see [`bench_json_string`]).
//! * `DIFFY_BENCH_SMOKE` — when set, wall-time benches shrink to a
//!   seconds-scale smoke workload (used by CI to exercise the emitter).

#![warn(missing_docs)]

use diffy_core::accelerator::SchemeChoice;
use diffy_core::parallel::{run_jobs, Jobs};
use diffy_core::runner::{datasets_for, SweepCache, TraceBundle, WorkloadOptions};
use diffy_models::CiModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads the bench workload options from the environment.
pub fn bench_options() -> WorkloadOptions {
    let resolution = std::env::var("DIFFY_BENCH_RES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96);
    let samples_per_dataset = std::env::var("DIFFY_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    WorkloadOptions { resolution, samples_per_dataset, seed: 1 }
}

/// The compression schemes Figs. 11, 13, 15 and 18 compare, in column
/// order (Fig. 11 adds Ideal).
pub const COMPRESSION_SCHEMES: [SchemeChoice; 3] =
    [SchemeChoice::NO_COMPRESSION, SchemeChoice::PROFILED, SchemeChoice::DELTA_D16];

/// A table header: the `first` columns, then one per scheme label.
pub fn scheme_header(first: &[&str], schemes: &[SchemeChoice]) -> Vec<String> {
    first.iter().map(|s| s.to_string()).chain(schemes.iter().map(SchemeChoice::label)).collect()
}

/// Reads the bench worker count from `DIFFY_BENCH_JOBS` (default:
/// available parallelism). Job count never changes bench output — only
/// how fast the traces materialize.
pub fn bench_jobs() -> Jobs {
    std::env::var("DIFFY_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_default()
}

/// Prints the standard bench banner: which artefact this regenerates and
/// the workload cap.
pub fn banner(artefact: &str, what: &str, opts: &WorkloadOptions) {
    println!("== {artefact}: {what} ==");
    println!(
        "workload: {}x{} synthetic traces, {} sample(s) per dataset \
         (original corpora are larger; cap set by DIFFY_BENCH_SAMPLES)",
        opts.resolution, opts.resolution, opts.samples_per_dataset
    );
    println!();
}

/// The `(model, dataset, sample)` work-list of one or all models, in the
/// canonical (model-major, dataset-major) order every consumer sees.
fn work_list(models: &[CiModel], opts: &WorkloadOptions) -> Vec<(CiModel, diffy_imaging::datasets::DatasetId, usize)> {
    let mut specs = Vec::new();
    for &model in models {
        for dataset in datasets_for(model) {
            for sample in 0..opts.samples_per_dataset.min(dataset.samples()) {
                specs.push((model, dataset, sample));
            }
        }
    }
    specs
}

/// Traces every Table I model over its datasets at the bench workload,
/// fanning trace generation out over [`bench_jobs`] workers.
///
/// Returns `(model, bundles)` pairs in `CiModel::ALL` order; weights are
/// generated once per model and each trace exactly once, whatever the
/// job count (results are bit-identical to the serial path).
pub fn all_ci_bundles(opts: &WorkloadOptions) -> Vec<(CiModel, Vec<TraceBundle>)> {
    let specs = work_list(&CiModel::ALL, opts);
    let bundles = trace_bundles(&specs, opts, bench_jobs());
    let mut out: Vec<(CiModel, Vec<TraceBundle>)> =
        CiModel::ALL.into_iter().map(|m| (m, Vec::new())).collect();
    for ((model, _, _), bundle) in specs.into_iter().zip(bundles) {
        let slot = out
            .iter_mut()
            .find(|(m, _)| *m == model)
            .expect("model from CiModel::ALL");
        slot.1.push(bundle);
    }
    out
}

/// Traces one model over its datasets at the bench workload (parallel,
/// same order and bit-identical content as the historical serial loop).
pub fn ci_bundles(model: CiModel, opts: &WorkloadOptions) -> Vec<TraceBundle> {
    trace_bundles(&work_list(&[model], opts), opts, bench_jobs())
}

/// Traces an explicit work-list across `par` workers, returning owned
/// bundles in work-list order.
pub fn trace_bundles(
    specs: &[(CiModel, diffy_imaging::datasets::DatasetId, usize)],
    opts: &WorkloadOptions,
    par: Jobs,
) -> Vec<TraceBundle> {
    let cache = SweepCache::new();
    let tasks: Vec<_> = specs
        .iter()
        .map(|&(model, dataset, sample)| {
            let cache = &cache;
            move || cache.bundle(model, dataset, sample, opts)
        })
        .collect();
    run_jobs(tasks, par)
        .into_iter()
        .map(|arc: Arc<TraceBundle>| (*arc).clone())
        .collect()
}

/// Whether wall-time benches should run their seconds-scale smoke
/// workload instead of the full one (`DIFFY_BENCH_SMOKE` set non-empty).
pub fn bench_smoke() -> bool {
    std::env::var("DIFFY_BENCH_SMOKE").is_ok_and(|v| !v.is_empty())
}

// The JSON emitter grew a parser and moved to `diffy_core::json` so the
// evaluation service can share it; re-exported here so existing callers
// (benches, tests) are untouched.
pub use diffy_core::json::{bench_json_string, json_escape, json_number, BenchRecord};

/// Times `f`: one unmeasured warmup call, then iterations until both
/// `min_iters` and `min_total` are reached. Returns the record and the
/// last output, so callers can assert on results without a separate run.
///
/// The vendored criterion stub prints timings but exposes no measurement
/// API, so wall-time benches that feed the JSON emitter measure here.
pub fn time_kernel<T>(
    name: &str,
    min_iters: u64,
    min_total: Duration,
    work_units: Option<u64>,
    mut f: impl FnMut() -> T,
) -> (BenchRecord, T) {
    let _ = f(); // warmup, not measured
    let start = Instant::now();
    let mut last = Some(f());
    let mut iters = 1u64;
    while iters < min_iters.max(1) || start.elapsed() < min_total {
        // Drop the previous output before recomputing: peak memory stays
        // 1× the output size, and the allocator can hand the freed pages
        // straight back instead of faulting in fresh ones.
        drop(last.take());
        last = Some(f());
        iters += 1;
    }
    let last = last.expect("at least one measured iteration");
    let total = start.elapsed().as_secs_f64();
    let record = BenchRecord {
        name: name.to_string(),
        wall_ms: total * 1e3 / iters as f64,
        iters,
        per_second: work_units.map(|u| u as f64 * iters as f64 / total),
    };
    (record, last)
}

/// Writes [`bench_json_string`] to the path named by `DIFFY_BENCH_JSON`,
/// if that variable is set. Returns the path written to, if any.
pub fn write_bench_json(
    bench: &str,
    meta: &[(&str, String)],
    records: &[BenchRecord],
    summary: &[(&str, f64)],
) -> Option<std::path::PathBuf> {
    let path = std::path::PathBuf::from(std::env::var_os("DIFFY_BENCH_JSON")?);
    let doc = bench_json_string(bench, meta, records, summary);
    std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    Some(path)
}

/// Geometric mean of a non-empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_core::runner::{ci_trace_bundle, datasets_for};

    #[test]
    fn json_emitter_renders_valid_structure() {
        let records = vec![
            BenchRecord {
                name: "ref".into(),
                wall_ms: 1200.5,
                iters: 3,
                per_second: Some(2.0e6),
            },
            BenchRecord { name: "opt".into(), wall_ms: 80.0, iters: 10, per_second: None },
        ];
        let doc = bench_json_string(
            "term_serial",
            &[("resolution", "16x1080x1920".to_string())],
            &records,
            &[("speedup_hd", 15.0)],
        );
        assert!(doc.contains("\"bench\": \"term_serial\""));
        assert!(doc.contains("\"resolution\": \"16x1080x1920\""));
        assert!(doc.contains("\"name\": \"ref\", \"wall_ms_per_iter\": 1200.5, \"iters\": 3"));
        assert!(doc.contains("\"per_second\": 2000000.0"));
        assert!(doc.contains("\"speedup_hd\": 15.0"));
        // Integral floats must still read as JSON numbers with a decimal
        // point, and the optional per_second key is really optional.
        assert!(doc.contains("\"wall_ms_per_iter\": 80.0, \"iters\": 10}"));
        // Balanced braces/brackets — cheap well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = doc.matches(open).count();
            let closes = doc.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn json_emitter_escapes_strings() {
        let doc = bench_json_string(
            "a\"b\\c\nd",
            &[("k\t", "v\u{1}".to_string())],
            &[],
            &[],
        );
        assert!(doc.contains("\"bench\": \"a\\\"b\\\\c\\nd\""));
        assert!(doc.contains("\"k\\t\": \"v\\u0001\""));
        assert!(doc.contains("\"records\": []"));
    }

    #[test]
    fn time_kernel_measures_and_returns_last_output() {
        let mut calls = 0u64;
        let (rec, out) = time_kernel("tick", 4, Duration::ZERO, Some(100), || {
            calls += 1;
            calls
        });
        assert_eq!(rec.iters, 4);
        assert_eq!(out, 5, "warmup + 4 measured iterations");
        assert_eq!(calls, 5);
        assert!(rec.wall_ms >= 0.0);
        let ps = rec.per_second.expect("work units given");
        assert!(ps > 0.0);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[7.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn options_default_sanely() {
        let o = bench_options();
        assert!(o.resolution >= 16);
        assert!(o.samples_per_dataset >= 1);
        assert!(bench_jobs().get() >= 1);
    }

    #[test]
    fn small_bundle_generation_works() {
        let opts = WorkloadOptions::test_small();
        let bundles = ci_bundles(CiModel::Ircnn, &opts);
        assert_eq!(bundles.len(), datasets_for(CiModel::Ircnn).len());
    }

    #[test]
    fn parallel_bundles_match_serial_reference() {
        let opts = WorkloadOptions::test_small();
        let bundles = ci_bundles(CiModel::JointNet, &opts);
        let mut i = 0;
        for dataset in datasets_for(CiModel::JointNet) {
            for sample in 0..opts.samples_per_dataset.min(dataset.samples()) {
                let fresh = ci_trace_bundle(CiModel::JointNet, dataset, sample, &opts);
                assert_eq!(bundles[i].dataset, fresh.dataset);
                assert_eq!(bundles[i].trace.output, fresh.trace.output);
                i += 1;
            }
        }
        assert_eq!(i, bundles.len());
    }

    #[test]
    fn all_models_grouped_in_table_order() {
        let opts = WorkloadOptions::test_small();
        let all = all_ci_bundles(&opts);
        let models: Vec<CiModel> = all.iter().map(|(m, _)| *m).collect();
        assert_eq!(models, CiModel::ALL.to_vec());
        for (m, bundles) in &all {
            assert_eq!(bundles.len(), datasets_for(*m).len(), "{m}");
        }
    }
}
