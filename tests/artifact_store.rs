//! Crash-consistency and end-to-end tests of the disk artifact tier.
//!
//! The tier's write protocol is temp-file + rename: a crash between the
//! two leaves an orphan temp that readers must ignore (and writers must
//! not trip over), never a half-visible artifact. These tests simulate
//! the torn states directly — an orphan temp from a dead writer, a
//! truncated artifact from bit rot — and assert the recovery story:
//! recompute, serve right bits, repair the disk copy. The live-server
//! tests pin the end-to-end guarantee: a response served off the disk
//! tier is byte-identical to a direct in-process evaluation.

use diffy::core::artifact::DiskTier;
use diffy::core::json::parse;
use diffy::core::runner::{ci_trace_bundle, SweepCache};
use diffy::serve::protocol::EvalRequest;
use diffy::serve::{get, post, result_to_json, ServeConfig, Server, ServerHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

/// A fresh scratch directory for one test; removed and recreated so
/// reruns start clean.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diffy-artifact-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boots a server on an ephemeral port and runs it on its own thread.
fn boot(config: ServeConfig) -> (SocketAddr, ServerHandle, JoinHandle<()>) {
    let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..config })
        .expect("bind on an ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

/// The exact body a correct server must serve for `body`: evaluate
/// directly (no server, no cache, no disk) and serialize
/// deterministically.
fn direct_evaluation(body: &str) -> String {
    let parsed = parse(body).expect("test body is valid JSON");
    let req = EvalRequest::from_json(&parsed).expect("test body is a valid request");
    let bundle = ci_trace_bundle(req.model, req.dataset, req.sample, &req.workload());
    let result = bundle.evaluate(&req.eval_options());
    result_to_json(&result, bundle.source_pixels).to_json()
}

/// Parses `body` and returns its canonical result key plus the pieces
/// needed to evaluate it through a cache.
fn request_for(body: &str) -> (EvalRequest, String) {
    let req = EvalRequest::from_json(&parse(body).unwrap()).unwrap();
    let key = diffy::core::result_key(
        req.model,
        req.dataset,
        req.sample,
        &req.workload(),
        &req.eval_options(),
    );
    (req, key)
}

/// Precomputes `bodies` into `dir` the same way `diffy precompute` does.
fn precompute(dir: &PathBuf, bodies: &[&str]) {
    let tier = DiskTier::open(dir).expect("open artifact dir");
    let cache = SweepCache::new().with_disk(tier);
    for body in bodies {
        let (req, _) = request_for(body);
        cache.evaluate_keyed(req.model, req.dataset, req.sample, &req.workload(), &req.eval_options());
    }
}

const BODY: &str = r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32}"#;

#[test]
fn orphan_temp_from_a_torn_write_is_ignored_and_the_artifact_repaired() {
    let dir = scratch_dir("torn-write");
    std::fs::create_dir_all(&dir).unwrap();

    // A writer died between writing its temp file and renaming it: the
    // artifact must be invisible — not half-read, not half-trusted.
    let (req, key) = request_for(BODY);
    let orphan = dir.join(format!(".{:016x}.{}.0.tmp", 0xdead_beefu64, 99999));
    std::fs::write(&orphan, b"{\"format\":\"diffy-artifact\",\"vers").unwrap();

    let tier = DiskTier::open(&dir).expect("open artifact dir");
    assert!(!tier.contains(&key), "orphan temp must not satisfy an existence probe");
    let cache = SweepCache::new().with_disk(tier);
    let artifact =
        cache.evaluate_keyed(req.model, req.dataset, req.sample, &req.workload(), &req.eval_options());
    let stats = cache.stats().disk;
    assert_eq!((stats.hits, stats.misses, stats.corrupt), (0, 1, 0), "{stats:?}");

    // The recompute repaired the directory: a second cold reader gets a
    // disk hit, bit-identical to a fresh no-disk evaluation…
    let reader = SweepCache::new().with_disk(DiskTier::open(&dir).unwrap());
    let reread =
        reader.evaluate_keyed(req.model, req.dataset, req.sample, &req.workload(), &req.eval_options());
    assert_eq!(reader.stats().disk.hits, 1);
    let fresh = SweepCache::new()
        .evaluate(req.model, req.dataset, req.sample, &req.workload(), &req.eval_options());
    assert!(reread.result == fresh, "disk-hit result must be bit-identical to fresh compute");
    assert!(artifact.result == fresh);

    // …and the orphan is still there, untouched: open() must never reap
    // temp files, because a *live* concurrent writer looks identical to
    // a dead one.
    assert!(orphan.exists(), "open() must not delete temp files it cannot attribute");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_precompute_and_warmup_share_a_directory_safely() {
    let dir = scratch_dir("concurrent");
    std::fs::create_dir_all(&dir).unwrap();

    let bodies = [
        r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32}"#,
        r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32, "seed": 7}"#,
        r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32, "arch": "VAA"}"#,
        r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32, "scheme": "Ideal"}"#,
    ];

    // One thread precomputes the grid into the directory while another
    // repeatedly cold-opens it and warms a memory tier — the reader must
    // only ever observe fully-published artifacts (rename is the commit
    // point), in any interleaving.
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| precompute(&dir, &bodies));
        let reader = scope.spawn(|| {
            let mut observed = 0usize;
            for _ in 0..50 {
                let cache = SweepCache::new().with_disk(DiskTier::open(&dir).unwrap());
                let warmed = cache.warm_from_disk();
                assert!(warmed >= observed, "published artifacts must never un-publish");
                observed = warmed;
                assert_eq!(cache.stats().disk.corrupt, 0, "reader saw a torn artifact");
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    });

    // Quiescent state: everything precomputed is warm-loadable and
    // bit-identical to fresh compute.
    let cache = SweepCache::new().with_disk(DiskTier::open(&dir).unwrap());
    assert_eq!(cache.warm_from_disk(), bodies.len());
    for body in bodies {
        let (req, _) = request_for(body);
        let warmed = cache
            .evaluate_keyed(req.model, req.dataset, req.sample, &req.workload(), &req.eval_options());
        let fresh = SweepCache::new()
            .evaluate(req.model, req.dataset, req.sample, &req.workload(), &req.eval_options());
        assert!(warmed.result == fresh, "warmed result diverged for {body}");
    }
    let stats = cache.stats();
    assert_eq!(stats.disk.hits + stats.disk.misses, 0, "warm serve must not touch disk");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warmed_cold_start_serves_disk_artifacts_bit_identically_from_memory() {
    let dir = scratch_dir("warmed-serve");
    precompute(&dir, &[BODY]);
    let expected = direct_evaluation(BODY);

    // Cold-start a *fresh* server process-equivalent over the directory:
    // nothing in memory but what warmup loaded.
    let (addr, handle, thread) = boot(ServeConfig {
        artifact_dir: Some(dir.to_string_lossy().into_owned()),
        warmup: true,
        ..ServeConfig::default()
    });

    let resp = post(addr, "/evaluate", BODY, TIMEOUT).expect("post");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.body, expected, "disk-tier result must equal the direct evaluation");

    let m = parse(&get(addr, "/metrics", TIMEOUT).unwrap().body).unwrap();
    let cache = m.get("cache").unwrap();
    let disk = cache.get("disk").unwrap();
    assert!(cache.get("hits").unwrap().as_u64().unwrap() >= 1, "memory tier must serve");
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(0), "warmup is not request traffic");
    assert_eq!(disk.get("hits").unwrap().as_u64(), Some(0), "warmed serve must skip disk");
    assert_eq!(disk.get("corrupt").unwrap().as_u64(), Some(0));

    handle.shutdown();
    thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_artifact_is_served_by_recompute_and_repaired_on_disk() {
    let dir = scratch_dir("corrupt-serve");
    precompute(&dir, &[BODY]);
    let expected = direct_evaluation(BODY);

    // Bit rot: truncate the published artifact to half its size.
    let (_, key) = request_for(BODY);
    let path = DiskTier::open(&dir).unwrap().path_for(&key);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    // Read-through (no warmup): the first request finds the corrupt
    // artifact, recomputes, and must still answer 200 with right bits.
    let (addr, handle, thread) = boot(ServeConfig {
        artifact_dir: Some(dir.to_string_lossy().into_owned()),
        warmup: false,
        ..ServeConfig::default()
    });

    let resp = post(addr, "/evaluate", BODY, TIMEOUT).expect("post");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.body, expected, "recomputed result must equal the direct evaluation");

    let m = parse(&get(addr, "/metrics", TIMEOUT).unwrap().body).unwrap();
    let disk = m.get("cache").unwrap().get("disk").unwrap();
    assert_eq!(disk.get("corrupt").unwrap().as_u64(), Some(1), "corruption must be counted");

    handle.shutdown();
    thread.join().unwrap();

    // The write-through repaired the file: a cold reader now disk-hits.
    let reader = SweepCache::new().with_disk(DiskTier::open(&dir).unwrap());
    let (req, _) = request_for(BODY);
    reader.evaluate_keyed(req.model, req.dataset, req.sample, &req.workload(), &req.eval_options());
    let stats = reader.stats().disk;
    assert_eq!((stats.hits, stats.corrupt), (1, 0), "{stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
