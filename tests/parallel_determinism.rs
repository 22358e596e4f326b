//! Cross-validation of the parallel sweep engine against the serial
//! path: every figure/table of the paper is reproduced from
//! `NetworkResult`s, so the engine must produce **bit-identical** results
//! in a **stable order** at any job count.
//!
//! The serial reference regenerates every artifact from scratch with the
//! historical one-call-at-a-time API; the parallel runs share a
//! [`SweepCache`] and fan out over 1, 2, and 8 workers. Cycles and
//! traffic are compared exactly as integers, FPS as exact f64 bit
//! patterns.

use diffy::core::accelerator::{evaluate_network, EvalOptions, SchemeChoice};
use diffy::core::parallel::Jobs;
use diffy::core::runner::{ci_trace_bundle, datasets_for, EvalPoint, SweepCache, WorkloadOptions};
use diffy::encoding::StorageScheme;
use diffy::models::CiModel;
use diffy::sim::Architecture;

/// The architectures cross-validated per model (the ISSUE floor is two;
/// PRA rides along since term-serial evaluation is cheap).
const ARCHS: [Architecture; 3] = [Architecture::Vaa, Architecture::Pra, Architecture::Diffy];

/// One job per `CiModel` × first dataset × architecture, in a fixed,
/// meaningful order (model-major). Deeper dataset/sample coverage lives
/// in the runner's own unit tests; this file is about engine identity.
fn job_list() -> Vec<EvalPoint> {
    let scheme = SchemeChoice::Scheme(StorageScheme::delta_d(16));
    let mut jobs = Vec::new();
    for model in CiModel::ALL {
        let dataset = datasets_for(model)[0];
        for arch in ARCHS {
            jobs.push(EvalPoint {
                model,
                dataset,
                sample: 0,
                workload: WorkloadOptions::test_small(),
                eval: EvalOptions::new(arch, scheme),
            });
        }
    }
    jobs
}

/// The comparable fingerprint of a result: every number a figure or
/// table could be built from, with floats captured bit-exactly.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Fingerprint {
    model: String,
    arch: &'static str,
    total_cycles: u64,
    compute_cycles: u64,
    stall_cycles: u64,
    total_traffic: u64,
    activation_traffic: u64,
    fps_bits: u64,
    per_layer_cycles: Vec<u64>,
}

fn fingerprint(r: &diffy::core::accelerator::NetworkResult) -> Fingerprint {
    Fingerprint {
        model: r.model.clone(),
        arch: r.arch,
        total_cycles: r.total_cycles(),
        compute_cycles: r.compute_cycles(),
        stall_cycles: r.stall_cycles(),
        total_traffic: r.total_traffic_bytes(),
        activation_traffic: r.activation_traffic_bytes(),
        fps_bits: r.fps().to_bits(),
        per_layer_cycles: r.layers.iter().map(|l| l.timing.total_cycles).collect(),
    }
}

#[test]
fn parallel_results_are_bit_identical_to_serial_at_jobs_1_2_8() {
    let opts = WorkloadOptions::test_small();
    let jobs = job_list();

    // Serial reference: fresh trace + evaluation per job, one at a time,
    // through the historical non-cached API.
    let serial: Vec<Fingerprint> = jobs
        .iter()
        .map(|j| {
            let bundle = ci_trace_bundle(j.model, j.dataset, j.sample, &opts);
            fingerprint(&evaluate_network(&bundle.trace, &j.eval))
        })
        .collect();

    // Parallel runs at every mandated job count share one cache: traces
    // must come out equal whether computed fresh (serial path) or once
    // via the cache, and evaluation must not depend on worker count.
    let cache = SweepCache::new();
    for n in [1usize, 2, 8] {
        let par: Vec<Fingerprint> = cache.evaluate_points(&jobs, Jobs::new(n))
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(par.len(), serial.len(), "jobs={n}");
        for (i, (p, s)) in par.iter().zip(&serial).enumerate() {
            assert_eq!(p, s, "jobs={n}, job #{i} ({} on {})", s.model, s.arch);
        }
    }
}

#[test]
fn output_ordering_is_stable_across_runs() {
    let jobs = job_list();
    let cache = SweepCache::new();
    let run1: Vec<Fingerprint> =
        cache.evaluate_points(&jobs, Jobs::new(8)).iter().map(fingerprint).collect();
    let run2: Vec<Fingerprint> =
        cache.evaluate_points(&jobs, Jobs::new(8)).iter().map(fingerprint).collect();
    assert_eq!(run1, run2, "same jobs, same cache, same order — always");

    // And against a fresh cache (forces recomputation of every trace).
    let run3: Vec<Fingerprint> = SweepCache::new()
        .evaluate_points(&jobs, Jobs::new(8))
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(run1, run3, "cache reuse must not change results");

    // Results line up with the job list positionally.
    for (job, fp) in jobs.iter().zip(&run1) {
        assert_eq!(fp.arch, job.eval.arch.name());
    }
}

#[test]
fn sweep_reuses_each_trace_across_architectures() {
    let jobs = job_list();
    let cache = SweepCache::new();
    let _ = cache.evaluate_points(&jobs, Jobs::new(4));
    // One trace per (model, dataset) pair — not one per job.
    assert_eq!(cache.cached_traces(), jobs.len() / ARCHS.len());
    assert_eq!(cache.cached_weights(), CiModel::ALL.len());
}
