//! Trace-structure determinism: the span tree a run produces must not
//! depend on `--jobs`. Timestamps move, thread ids move, but the set of
//! spans, their names, and their nesting are a function of the work
//! alone — otherwise traces from parallel runs could not be compared
//! against each other or against the serial reference.
//!
//! All tests share the process-global collector, so they serialize on a
//! file-local lock and drain the ring before every capture.

use diffy::core::accelerator::{EvalOptions, SchemeChoice};
use diffy::core::parallel::Jobs;
use diffy::core::runner::{EvalPoint, SweepCache, WorkloadOptions};
use diffy::core::trace::{ArgValue, Collector, TraceLog};
use diffy::encoding::StorageScheme;
use diffy::models::CiModel;
use diffy::sim::Architecture;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Serializes tests touching the global collector (one per process, but
/// the test harness runs tests in this file on multiple threads).
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `jobs` through a fresh cache at `n` workers and captures the
/// resulting trace. The collector is drained before and after so each
/// capture stands alone.
fn capture(jobs: &[EvalPoint], n: usize) -> TraceLog {
    let collector = Collector::global();
    collector.drain();
    collector.start();
    let _ = SweepCache::new().evaluate_points(jobs, Jobs::new(n));
    collector.stop();
    collector.drain()
}

fn job(model: CiModel, arch: Architecture) -> EvalPoint {
    let dataset = diffy::core::runner::datasets_for(model)[0];
    let scheme = SchemeChoice::Scheme(StorageScheme::delta_d(16));
    let workload = WorkloadOptions::test_small();
    EvalPoint { model, dataset, sample: 0, workload, eval: EvalOptions::new(arch, scheme) }
}

/// `cache_hit` instant count per store `kind` arg.
fn cache_hits_by_kind(log: &TraceLog) -> BTreeMap<String, usize> {
    let mut hits = BTreeMap::new();
    for r in log.spans.iter().filter(|r| r.name == "cache_hit") {
        let kind = r.args.iter().find_map(|(k, v)| match (k, v) {
            (&"kind", ArgValue::Str(kind)) => Some(kind.clone()),
            _ => None,
        });
        *hits.entry(kind.expect("cache_hit carries a kind")).or_insert(0) += 1;
    }
    hits
}

#[test]
fn single_grid_point_tree_is_identical_at_any_job_count() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let jobs = vec![job(CiModel::Ircnn, Architecture::Diffy)];

    let reference = capture(&jobs, 1);
    assert_eq!(reference.dropped, 0, "capture must not overflow the ring");
    let tree = reference.canonical_tree();
    // The one job must carry the full stage pipeline.
    for name in
        ["job", "evaluate_network", "weight_gen", "trace_synthesis", "tile_sim", "memsys_model"]
    {
        assert!(tree.contains(name), "missing {name:?} in tree:\n{tree}");
    }

    for n in [2usize, 8] {
        let log = capture(&jobs, n);
        assert_eq!(
            log.canonical_tree(),
            tree,
            "span tree changed between jobs=1 and jobs={n}"
        );
    }
}

#[test]
fn disjoint_jobs_produce_the_same_tree_serial_and_parallel() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Distinct models => distinct cache keys => no races over who builds
    // a shared artifact; the whole tree must match, not just counts.
    let jobs = vec![
        job(CiModel::Ircnn, Architecture::Diffy),
        job(CiModel::DnCnn, Architecture::Vaa),
    ];

    let serial = capture(&jobs, 1).canonical_tree();
    for n in [2usize, 4] {
        assert_eq!(
            capture(&jobs, n).canonical_tree(),
            serial,
            "disjoint jobs must trace identically at jobs={n}"
        );
    }
}

#[test]
fn shared_key_jobs_conserve_span_counts() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Three architectures over one (model, dataset): the trace and the
    // weights are built exactly once (compute-once cache) and hit twice,
    // whichever worker gets there first. The *placement* of the build
    // spans races under parallelism, but the multiset of span names is
    // an invariant of the work.
    let jobs = vec![
        job(CiModel::Ircnn, Architecture::Vaa),
        job(CiModel::Ircnn, Architecture::Pra),
        job(CiModel::Ircnn, Architecture::Diffy),
    ];

    let serial = capture(&jobs, 1);
    let counts = serial.name_counts();
    assert_eq!(counts.get("weight_gen"), Some(&1), "counts: {counts:?}");
    assert_eq!(counts.get("trace_synthesis"), Some(&1), "counts: {counts:?}");
    assert_eq!(counts.get("job"), Some(&3), "counts: {counts:?}");
    // Two jobs find the trace already built and share the DeltaD16
    // traffic vector; one of PRA and Diffy builds IRCNN's 7 layers of
    // term planes and the other reuses all of them. The weights are only
    // read by the one trace build, so they never hit.
    let hits: BTreeMap<String, usize> =
        [("term_planes", 7), ("trace", 2), ("traffic", 2)].map(|(k, n)| (k.to_string(), n)).into();
    assert_eq!(cache_hits_by_kind(&serial), hits);

    for n in [2usize, 8] {
        let log = capture(&jobs, n);
        assert_eq!(log.name_counts(), counts, "span-name multiset changed at jobs={n}");
        assert_eq!(cache_hits_by_kind(&log), hits, "cache_hit kinds changed at jobs={n}");
    }
}
