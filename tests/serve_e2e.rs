//! End-to-end tests of the evaluation service: a real server on an
//! ephemeral loopback port, driven by real TCP clients.
//!
//! The load-bearing assertion is *bit-identity*: the body served for an
//! evaluation request must equal, byte for byte, the serialization of a
//! direct in-process `evaluate` of the same request — under concurrency,
//! in any completion order. The rest covers the production semantics:
//! 503 under overload, 504 past the deadline, graceful drain.

use diffy::core::parallel::{run_jobs, Jobs};
use diffy::core::runner::ci_trace_bundle;
use diffy::serve::protocol::EvalRequest;
use diffy::serve::{get, post, result_to_json, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Generous client-side timeout; tests assert on statuses, not latency.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Boots a server on an ephemeral port and runs it on its own thread.
fn boot(config: ServeConfig) -> (SocketAddr, ServerHandle, JoinHandle<()>) {
    let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..config })
        .expect("bind on an ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

/// The exact body a correct server must serve for `body`: parse the
/// request the same way, evaluate directly (no server, no cache), and
/// serialize deterministically.
fn direct_evaluation(body: &str) -> String {
    let parsed = diffy::core::json::parse(body).expect("test body is valid JSON");
    let req = EvalRequest::from_json(&parsed).expect("test body is a valid request");
    let bundle = ci_trace_bundle(req.model, req.dataset, req.sample, &req.workload());
    let result = bundle.evaluate(&req.eval_options());
    result_to_json(&result, bundle.source_pixels).to_json()
}

#[test]
fn served_results_are_bit_identical_across_concurrent_clients() {
    // Four distinct requests spanning models, architectures and schemes.
    let bodies = [
        r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32}"#,
        r#"{"model": "DnCNN", "dataset": "Kodak24", "resolution": 32, "arch": "VAA"}"#,
        r#"{"model": "IRCNN", "dataset": "McMaster", "resolution": 32, "scheme": "Ideal"}"#,
        r#"{"model": "VDSR", "dataset": "Kodak24", "resolution": 32, "seed": 7}"#,
    ];
    let expected: Vec<String> = bodies.iter().map(|b| direct_evaluation(b)).collect();

    let (addr, handle, thread) = boot(ServeConfig::default());

    // Eight concurrent clients (two per request body), each issuing the
    // same request twice — so every body is served cold and warm, with
    // completions interleaving across all clients.
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let body = bodies[i % bodies.len()];
            move || {
                let mut responses = Vec::new();
                for _ in 0..2 {
                    responses.push(post(addr, "/evaluate", body, TIMEOUT).expect("post"));
                }
                (i % bodies.len(), responses)
            }
        })
        .collect();
    for (which, responses) in run_jobs(clients, Jobs::new(8)) {
        for resp in responses {
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            assert_eq!(
                resp.body, expected[which],
                "served bytes must equal the direct evaluation (request {which})"
            );
        }
    }

    // The cache served the repeats: metrics must show hits and all 200s.
    let metrics = get(addr, "/metrics", TIMEOUT).expect("metrics");
    assert_eq!(metrics.status, 200);
    let m = diffy::core::json::parse(&metrics.body).expect("metrics body is JSON");
    assert_eq!(m.get("responses").unwrap().get("200").unwrap().as_u64(), Some(16));
    assert!(m.get("cache").unwrap().get("hits").unwrap().as_u64().unwrap() > 0);
    // The result store computed each of the four keys once and served
    // the other twelve requests: as hits, or by sharing an in-flight
    // computation.
    let results = m.get("cache").unwrap().get("stores").unwrap().get("results").unwrap();
    let count = |k: &str| results.get(k).unwrap().as_u64().unwrap();
    assert_eq!(count("misses"), 4, "results store: {}", results.to_json());
    assert_eq!(count("hits") + count("shared"), 12, "results store: {}", results.to_json());
    assert!(m.get("latency_ms").unwrap().get("count").unwrap().as_u64().unwrap() >= 16);

    handle.shutdown();
    thread.join().expect("server thread joins after drain");
}

#[test]
fn malformed_requests_get_4xx_not_a_hang() {
    let (addr, handle, thread) = boot(ServeConfig::default());

    let resp = post(addr, "/evaluate", "not json", TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("bad JSON"), "body: {}", resp.body);

    let resp = post(addr, "/evaluate", r#"{"model": "IRCNN"}"#, TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("dataset"), "body: {}", resp.body);

    let resp = get(addr, "/evaluate", TIMEOUT).unwrap();
    assert_eq!(resp.status, 405, "GET on a POST endpoint");

    let resp = get(addr, "/nope", TIMEOUT).unwrap();
    assert_eq!(resp.status, 404);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn overload_sheds_with_503_and_counts_rejections() {
    // One worker, queue of one: with six concurrent slow requests, at
    // most two are admitted at a time and the rest must shed as 503.
    let (addr, handle, thread) = boot(ServeConfig {
        workers: Jobs::new(1),
        queue_depth: 1,
        test_hooks: true,
        ..ServeConfig::default()
    });

    let body = r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32,
                   "test_sleep_ms": 300}"#;
    let clients: Vec<_> = (0..6)
        .map(|_| move || post(addr, "/evaluate", body, TIMEOUT).expect("post").status)
        .collect();
    let statuses = run_jobs(clients, Jobs::new(6));

    assert!(statuses.iter().all(|s| *s == 200 || *s == 503), "statuses: {statuses:?}");
    assert!(statuses.contains(&200), "someone must be served: {statuses:?}");
    assert!(statuses.contains(&503), "someone must be shed: {statuses:?}");

    let m = diffy::core::json::parse(&get(addr, "/metrics", TIMEOUT).unwrap().body).unwrap();
    assert!(m.get("queue_rejected_total").unwrap().as_u64().unwrap() >= 1);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn expired_deadline_answers_504() {
    let (addr, handle, thread) =
        boot(ServeConfig { test_hooks: true, ..ServeConfig::default() });

    let body = r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32,
                   "deadline_ms": 50, "test_sleep_ms": 250}"#;
    let resp = post(addr, "/evaluate", body, TIMEOUT).unwrap();
    assert_eq!(resp.status, 504, "body: {}", resp.body);
    assert!(resp.body.contains("deadline exceeded"), "body: {}", resp.body);

    let m = diffy::core::json::parse(&get(addr, "/metrics", TIMEOUT).unwrap().body).unwrap();
    assert_eq!(m.get("deadline_expired_total").unwrap().as_u64(), Some(1));
    assert_eq!(m.get("responses").unwrap().get("504").unwrap().as_u64(), Some(1));

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn slow_loris_is_cut_off_at_the_deadline_not_the_read_grace() {
    // A peer that sends a partial head and stalls used to hold a worker
    // for the full fixed 10 s socket read timeout, regardless of
    // --deadline-ms. The read budget must be the deadline remaining at
    // dequeue: with a 500 ms deadline the loris is cut off (and counted
    // as an abort) in well under the old grace.
    let (addr, handle, thread) = boot(ServeConfig {
        workers: Jobs::new(1),
        deadline_ms: 500,
        ..ServeConfig::default()
    });

    let mut loris = TcpStream::connect(addr).expect("connect");
    loris.write_all(b"POST /evaluate HTTP/1.1\r\nContent-Le").unwrap();
    loris.flush().unwrap();
    // If the server still indulged the fixed 10 s grace, this read would
    // outlast its own 8 s timeout and the elapsed assertion would fail.
    loris.set_read_timeout(Some(Duration::from_secs(8))).unwrap();
    let waiting = Instant::now();
    let mut sink = [0u8; 64];
    let outcome = loris.read(&mut sink);
    let held = waiting.elapsed();
    assert!(
        matches!(outcome, Ok(0) | Err(_)),
        "server must sever the stalled connection, got {outcome:?}"
    );
    assert!(held < Duration::from_secs(5), "loris held its worker for {held:?}");

    // The sole worker is free again, and the abort is accounted — the
    // attempt neither vanished nor masqueraded as a response.
    let m = diffy::core::json::parse(&get(addr, "/metrics", TIMEOUT).unwrap().body).unwrap();
    let conns = m.get("connections").unwrap();
    assert_eq!(conns.get("aborted").unwrap().as_u64(), Some(1), "{conns:?}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn trickling_slow_loris_is_cut_off_at_the_deadline() {
    // A loris that keeps every individual read *succeeding* — one head
    // byte every 100 ms — used to evade the deadline-derived read
    // timeout entirely (the timeout was armed once, and each arriving
    // byte reset the clock), holding a worker for up to MAX_HEAD_BYTES
    // reads. The read budget must be wall-clock: checked and re-armed
    // before every read, severing the trickle once the deadline (plus
    // the short answer grace) passes.
    let (addr, handle, thread) = boot(ServeConfig {
        workers: Jobs::new(1),
        deadline_ms: 500,
        ..ServeConfig::default()
    });

    let mut loris = TcpStream::connect(addr).expect("connect");
    loris.set_read_timeout(Some(Duration::from_secs(8))).unwrap();
    let waiting = Instant::now();
    let writer = {
        let mut loris = loris.try_clone().unwrap();
        std::thread::spawn(move || {
            // ~8 s worth of trickle — far past the 500 ms deadline, far
            // under each per-read timeout; stops at the server's close.
            let head = b"POST /evaluate HTTP/1.1\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
                         aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
            for b in head {
                if loris.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };
    let mut sink = [0u8; 64];
    let outcome = loris.read(&mut sink);
    let held = waiting.elapsed();
    writer.join().unwrap();
    assert!(
        matches!(outcome, Ok(0) | Err(_)),
        "server must sever the trickling connection, got {outcome:?}"
    );
    assert!(held < Duration::from_secs(5), "trickling loris held its worker for {held:?}");

    // The sole worker is free again, and the abort is accounted.
    let m = diffy::core::json::parse(&get(addr, "/metrics", TIMEOUT).unwrap().body).unwrap();
    let conns = m.get("connections").unwrap();
    assert_eq!(conns.get("aborted").unwrap().as_u64(), Some(1), "{conns:?}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn shutdown_endpoint_drains_gracefully() {
    let (addr, handle, thread) = boot(ServeConfig::default());

    let health = get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"), "body: {}", health.body);

    let resp = post(addr, "/shutdown", "", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("draining"), "body: {}", resp.body);

    // run() must return: the acceptor stops, the backlog drains, the
    // worker pool joins.
    thread.join().expect("server drains and exits after /shutdown");
    assert!(handle.is_shutting_down());
}
