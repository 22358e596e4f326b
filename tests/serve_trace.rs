//! End-to-end check of the serve-layer trace: one real request against a
//! live server must yield a Chrome-loadable trace whose per-stage spans
//! tile the request span, and whose request span agrees with the
//! `/metrics` latency histogram for the same request. Every other traced
//! route (a batch, a session's create, frame and close) must then yield
//! one request span of its kind whose stages tile it the same way.
//!
//! This is the acceptance gate of the tracing work: if a stage were
//! missed (or double-counted), the stage sum would drift away from the
//! observed wall-clock latency.

use diffy::core::json::JsonValue;
use diffy::serve::{get, post, ServeConfig, Server, SessionClient};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

/// Milliseconds of slack allowed between two measurements of the same
/// request: generous for CI noise, tight enough to catch a missing stage
/// (evaluation alone is tens of milliseconds).
fn close(a_ms: f64, b_ms: f64, what: &str) {
    let tol = (a_ms.max(b_ms) * 0.25).max(15.0);
    assert!(
        (a_ms - b_ms).abs() <= tol,
        "{what}: {a_ms:.3}ms vs {b_ms:.3}ms differ by more than {tol:.3}ms"
    );
}

fn events(trace: &JsonValue) -> &[JsonValue] {
    trace.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array")
}

fn arg_u64(ev: &JsonValue, key: &str) -> Option<u64> {
    ev.get("args")?.get(key)?.as_u64()
}

fn name_of(ev: &JsonValue) -> Option<&str> {
    ev.get("name")?.as_str()
}

fn dur_ms(ev: &JsonValue) -> f64 {
    ev.get("dur").unwrap().as_f64().unwrap() / 1000.0
}

/// Asserts that `trace` holds exactly one request span of `kind`, that
/// each of `stages` appears once under it, and that they sum to it.
fn assert_route_tiles(trace: &JsonValue, kind: &str, stages: &[&str]) {
    let requests: Vec<&JsonValue> = events(trace)
        .iter()
        .filter(|e| {
            name_of(e) == Some("request")
                && e.get("args").and_then(|a| a.get("kind")).and_then(|k| k.as_str()) == Some(kind)
        })
        .collect();
    assert_eq!(requests.len(), 1, "expected one {kind:?} request span");
    let request_id = arg_u64(requests[0], "span_id").expect("request span_id");
    let mut stage_sum_ms = 0.0;
    for &name in stages {
        let stage: Vec<&JsonValue> = events(trace)
            .iter()
            .filter(|e| name_of(e) == Some(name) && arg_u64(e, "parent") == Some(request_id))
            .collect();
        assert_eq!(stage.len(), 1, "{kind}: stage {name:?} must appear once under the request");
        stage_sum_ms += dur_ms(stage[0]);
    }
    close(stage_sum_ms, dur_ms(requests[0]), &format!("{kind}: stage sum vs request span"));
}

#[test]
fn one_request_yields_a_consistent_stage_breakdown() {
    // One worker so the single request owns the pipeline end to end.
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: diffy::core::parallel::Jobs::new(1),
        trace_capture: true,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));

    let body = r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32}"#;
    let resp = post(addr, "/evaluate", body, TIMEOUT).expect("post");
    assert_eq!(resp.status, 200, "body: {}", resp.body);

    let metrics = diffy::core::json::parse(&get(addr, "/metrics", TIMEOUT).unwrap().body)
        .expect("metrics JSON");
    let latency = metrics.get("latency_ms").unwrap();
    assert_eq!(latency.get("count").unwrap().as_u64(), Some(1));
    let latency_ms = latency.get("mean").unwrap().as_f64().unwrap();

    let trace_body = get(addr, "/trace", TIMEOUT).expect("trace").body;
    let trace = diffy::core::json::parse(&trace_body).expect("trace endpoint serves JSON");

    // Chrome trace-event shape: every event has name/ph/ts/pid/tid, and
    // complete events carry a duration.
    for ev in events(&trace) {
        assert!(ev.get("name").and_then(|n| n.as_str()).is_some(), "event without name");
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph:?}");
        assert!(ev.get("ts").is_some() && ev.get("pid").is_some() && ev.get("tid").is_some());
        if ph == "X" {
            assert!(ev.get("dur").and_then(|d| d.as_f64()).is_some(), "X event without dur");
        }
    }

    // Exactly one request span (metrics and health probes are untraced).
    let requests: Vec<&JsonValue> = events(&trace)
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("request"))
        .collect();
    assert_eq!(requests.len(), 1, "expected one request span in:\n{trace_body}");
    let request = requests[0];
    let request_id = arg_u64(request, "span_id").expect("request span_id");
    let request_ms = request.get("dur").unwrap().as_f64().unwrap() / 1000.0;

    // The five stages tile the request span: their durations must sum to
    // the request duration, and that must match the /metrics latency.
    let stage_names = ["queue_wait", "parse", "evaluate", "serialize", "write"];
    let mut stage_sum_ms = 0.0;
    for name in stage_names {
        let stage: Vec<&JsonValue> = events(&trace)
            .iter()
            .filter(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some(name)
                    && arg_u64(e, "parent") == Some(request_id)
            })
            .collect();
        assert_eq!(stage.len(), 1, "stage {name:?} must appear once under the request");
        stage_sum_ms += stage[0].get("dur").unwrap().as_f64().unwrap() / 1000.0;
    }

    close(stage_sum_ms, request_ms, "stage sum vs request span");
    close(request_ms, latency_ms, "request span vs /metrics latency");

    // The stage histograms saw the same single request.
    let stages_ms = metrics.get("stages_ms").unwrap();
    for name in stage_names {
        let count = stages_ms.get(name).unwrap().get("count").unwrap().as_u64();
        assert_eq!(count, Some(1), "stage {name:?} histogram count");
    }

    // Every other traced route goes through the same request frame.
    let batch = r#"{"defaults": {"model": "IRCNN", "dataset": "Kodak24", "resolution": 32},
                    "items": [{}, {"seed": 7}]}"#;
    let resp = post(addr, "/evaluate/batch", batch, TIMEOUT).expect("batch");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let mut session = SessionClient::new(addr, TIMEOUT);
    let created = session.create(r#"{"model": "IRCNN", "resolution": 16, "frames": 2}"#);
    assert_eq!(created.expect("create").status, 200);
    assert_eq!(session.frame("").expect("frame").status, 200);
    assert_eq!(session.close().expect("close").status, 200);

    let trace = diffy::core::json::parse(&get(addr, "/trace", TIMEOUT).expect("trace").body)
        .expect("trace endpoint serves JSON");
    assert_route_tiles(&trace, "evaluate", &stage_names);
    assert_route_tiles(&trace, "batch", &stage_names);
    // Session handlers parse and serialize their own bodies, inside the
    // evaluate stage.
    let session_stages = ["queue_wait", "parse", "evaluate", "write"];
    for kind in ["session_create", "session_frame", "session_close"] {
        assert_route_tiles(&trace, kind, &session_stages);
    }

    handle.shutdown();
    thread.join().expect("server drains");
}
