//! End-to-end tests of keep-alive connections and batched evaluation:
//! a real server on an ephemeral loopback port, driven by persistent
//! TCP clients, pipelined raw sockets, and batch requests.
//!
//! The load-bearing assertions are (a) *bit-identity* — a response
//! served over a reused connection, and every item of a batch, must
//! equal byte-for-byte the standalone one-shot `POST /evaluate`
//! response — and (b) *conservation* — every admitted request attempt
//! ends as exactly one response, abort, or idle close.

use diffy::core::json::{parse as parse_json, JsonValue};
use diffy::core::parallel::Jobs;
use diffy::core::runner::ci_trace_bundle;
use diffy::serve::protocol::EvalRequest;
use diffy::serve::{
    get, post, result_to_json, KeepAliveClient, ServeConfig, Server, ServerHandle,
};
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
    direct_result(body).to_json()
}

/// [`direct_evaluation`] before it is rendered to text.
fn direct_result(body: &str) -> JsonValue {
    let parsed = parse_json(body).expect("test body is valid JSON");
    let req = EvalRequest::from_json(&parsed).expect("test body is a valid request");
    let bundle = ci_trace_bundle(req.model, req.dataset, req.sample, &req.workload());
    let result = bundle.evaluate(&req.eval_options());
    result_to_json(&result, bundle.source_pixels)
}

/// Fetches and parses `/metrics` over a one-shot connection.
fn metrics(addr: SocketAddr) -> JsonValue {
    let resp = get(addr, "/metrics", TIMEOUT).expect("metrics");
    assert_eq!(resp.status, 200);
    parse_json(&resp.body).expect("metrics body is JSON")
}

/// Whether a `/metrics` snapshot satisfies the request-attempt
/// conservation law: every attempt ended as a response, an abort, or an
/// idle close — except the in-flight `/metrics` attempt itself, which
/// is admitted but not yet answered when the snapshot renders.
fn is_conserved(m: &JsonValue) -> bool {
    let requests = m.get("requests_total").unwrap().as_u64().unwrap();
    let responses: u64 = {
        let r = m.get("responses").unwrap();
        let JsonValue::Object(members) = r else { panic!("responses is an object") };
        members.iter().map(|(_, v)| v.as_u64().unwrap()).sum()
    };
    let conns = m.get("connections").unwrap();
    let aborted = conns.get("aborted").unwrap().as_u64().unwrap();
    let idle = conns.get("idle_closed").unwrap().as_u64().unwrap();
    requests == responses + aborted + idle + 1
}

/// Asserts conservation once the server quiesces. Clients must have
/// closed their connections already; the server then needs a few poll
/// cycles to notice the closes and retire the parked attempts, so this
/// samples `/metrics` until the law holds (bounded wait).
fn assert_conserved_once_quiesced(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = metrics(addr);
    while !is_conserved(&last) {
        assert!(Instant::now() < deadline, "conservation never converged: {last:?}");
        std::thread::sleep(Duration::from_millis(50));
        last = metrics(addr);
    }
}

#[test]
fn keepalive_responses_are_bit_identical_to_one_shot() {
    let bodies = [
        r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32}"#,
        r#"{"model": "DnCNN", "dataset": "Kodak24", "resolution": 32, "arch": "VAA"}"#,
        r#"{"model": "IRCNN", "dataset": "McMaster", "resolution": 32, "scheme": "Ideal"}"#,
    ];
    let (addr, handle, thread) = boot(ServeConfig::default());

    // One-shot reference responses, served by the same process.
    let one_shot: Vec<String> = bodies
        .iter()
        .map(|b| {
            let resp = post(addr, "/evaluate", b, TIMEOUT).expect("one-shot post");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            resp.body
        })
        .collect();

    // Two rounds over ONE persistent connection: six requests, zero
    // reconnects, every response byte-equal to both the one-shot
    // response and the direct in-process evaluation.
    let mut client = KeepAliveClient::new(addr, TIMEOUT);
    for round in 0..2 {
        for (i, body) in bodies.iter().enumerate() {
            let resp = client.post("/evaluate", body).expect("keep-alive post");
            assert_eq!(resp.status, 200, "round {round} body: {}", resp.body);
            assert_eq!(resp.body, one_shot[i], "keep-alive vs one-shot (request {i})");
            assert_eq!(resp.body, direct_evaluation(body), "keep-alive vs direct (request {i})");
        }
    }
    assert_eq!(client.connects(), 1, "all six requests must share one connection");
    assert_eq!(client.requests_on_conn(), 6);

    let m = metrics(addr);
    let conns = m.get("connections").unwrap();
    assert!(
        conns.get("keepalive_reuses").unwrap().as_u64().unwrap() >= 5,
        "six requests on one connection are at least five reuses: {conns:?}"
    );

    drop(client);
    assert_conserved_once_quiesced(addr);
    handle.shutdown();
    thread.join().expect("server drains");
}

#[test]
fn batch_items_are_bit_identical_to_standalone_evaluations() {
    let (addr, handle, thread) = boot(ServeConfig::default());

    // Defaults + overrides, including one invalid item: the batch still
    // answers 200, the bad item reports its own error, and every good
    // item's result is byte-identical to its standalone evaluation.
    let batch = r#"{"defaults": {"model": "IRCNN", "dataset": "Kodak24", "resolution": 32},
                    "items": [{}, {"arch": "VAA"}, {"model": "VDSR", "seed": 7}, {"model": "nope"}]}"#;
    let standalone = [
        r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32}"#,
        r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32, "arch": "VAA"}"#,
        r#"{"model": "VDSR", "dataset": "Kodak24", "resolution": 32, "seed": 7}"#,
    ];

    let resp = post(addr, "/evaluate/batch", batch, TIMEOUT).expect("batch post");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let v = parse_json(&resp.body).expect("batch response is JSON");
    assert_eq!(v.get("count").unwrap().as_u64(), Some(4));
    assert_eq!(v.get("errors").unwrap().as_u64(), Some(1));
    let items = v.get("items").unwrap().as_array().unwrap();
    assert_eq!(items.len(), 4);

    for (i, body) in standalone.iter().enumerate() {
        assert_eq!(items[i].get("status").unwrap().as_u64(), Some(200), "item {i}");
        // Bit-identity, asserted on the raw bytes: the serialized item
        // must embed the standalone response verbatim, and the server's
        // own one-shot answer must equal the direct evaluation.
        let expected = direct_evaluation(body);
        let embedded = format!("{{\"status\":200,\"result\":{expected}}}");
        assert!(
            resp.body.contains(&embedded),
            "batch item {i} must embed the standalone body verbatim"
        );
        let one_shot = post(addr, "/evaluate", body, TIMEOUT).expect("one-shot post");
        assert_eq!(one_shot.body, expected, "one-shot vs direct (item {i})");
    }
    assert_eq!(items[3].get("status").unwrap().as_u64(), Some(400));
    assert!(
        items[3].get("error").unwrap().as_str().unwrap().contains("unknown model"),
        "item 3: {:?}",
        items[3]
    );

    // The whole body, envelope and error item included, is the one
    // `JsonValue` rendering of the batch.
    let bad_item = r#"{"model": "nope", "dataset": "Kodak24", "resolution": 32}"#;
    let error = EvalRequest::from_json(&parse_json(bad_item).unwrap()).unwrap_err();
    let mut expected_items: Vec<JsonValue> = standalone
        .iter()
        .map(|body| {
            JsonValue::object(vec![("status", 200u64.into()), ("result", direct_result(body))])
        })
        .collect();
    expected_items.push(JsonValue::object(vec![
        ("status", 400u64.into()),
        ("error", error.as_str().into()),
    ]));
    let expected_batch = JsonValue::object(vec![
        ("count", 4u64.into()),
        ("errors", 1u64.into()),
        ("items", JsonValue::Array(expected_items)),
    ]);
    assert_eq!(resp.body, expected_batch.to_json(), "whole batch body");

    let m = metrics(addr);
    assert_eq!(m.get("batch_items_total").unwrap().as_u64(), Some(4));
    assert_conserved_once_quiesced(addr);

    handle.shutdown();
    thread.join().expect("server drains");
}

#[test]
fn keepalive_connection_turns_over_at_the_request_cap() {
    let (addr, handle, thread) = boot(ServeConfig {
        max_requests_per_conn: 3,
        ..ServeConfig::default()
    });

    // Seven requests with a cap of three per connection: the server
    // closes after every third response (announcing it), the client
    // reconnects, and service is seamless — 3 + 3 + 1.
    let mut client = KeepAliveClient::new(addr, TIMEOUT);
    for i in 0..7 {
        let resp = client.get("/healthz").expect("healthz");
        assert_eq!(resp.status, 200, "request {i}");
    }
    assert_eq!(client.connects(), 3, "cap of 3 must split 7 requests over 3 connections");

    let m = metrics(addr);
    let conns = m.get("connections").unwrap();
    assert_eq!(
        conns.get("requests_per_conn_max").unwrap().as_u64(),
        Some(3),
        "no connection may exceed the cap: {conns:?}"
    );

    drop(client);
    assert_conserved_once_quiesced(addr);
    handle.shutdown();
    thread.join().expect("server drains");
}

#[test]
fn idle_keepalive_connection_is_closed_and_accounted() {
    let (addr, handle, thread) = boot(ServeConfig {
        idle_timeout_ms: 100,
        ..ServeConfig::default()
    });

    // A raw keep-alive connection: one request, then silence. The
    // server must close it shortly after the idle window — not hold it
    // forever, and not count it as an abort.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(TIMEOUT)).unwrap();
    conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let waiting = Instant::now();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("server closes the idle connection");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "got: {text}");
    assert!(
        waiting.elapsed() < Duration::from_secs(5),
        "idle close took {:?}, idle window is 100ms",
        waiting.elapsed()
    );

    let m = metrics(addr);
    let conns = m.get("connections").unwrap();
    let poller = m.get("poller").unwrap();
    // The connection was parked between requests and its idle window
    // passed without another byte, so the event loop retires it: that's
    // a poller expiry, not a request-ledger event — no request was ever
    // counted for the silence, so there is nothing to account as closed.
    assert!(
        poller.get("expired").unwrap().as_u64().unwrap() >= 1,
        "the idle retirement must show in the poller ledger: {poller:?}"
    );
    assert_eq!(
        conns.get("aborted").unwrap().as_u64(),
        Some(0),
        "a politely idle peer is not an abort: {conns:?}"
    );
    assert_conserved_once_quiesced(addr);

    handle.shutdown();
    thread.join().expect("server drains");
}

#[test]
fn idle_parked_connections_do_not_occupy_the_admission_queue() {
    // queue_depth 1: when idle keep-alive connections cycled through the
    // admission queue, a handful of idle clients kept it full — fresh
    // connections shed 503 while the worker sat idle, and every idle
    // connection cost a continuous pop/peek/re-push churn. Parked
    // connections must wait in the lot instead, leaving the queue free.
    let (addr, handle, thread) = boot(ServeConfig {
        workers: Jobs::new(1),
        queue_depth: 1,
        ..ServeConfig::default()
    });

    // Three clients each serve one request, then sit idle.
    let mut idlers: Vec<KeepAliveClient> =
        (0..3).map(|_| KeepAliveClient::new(addr, TIMEOUT)).collect();
    for c in idlers.iter_mut() {
        assert_eq!(c.get("/healthz").expect("healthz").status, 200);
    }
    // Give the server a few sweep cycles to park all three.
    std::thread::sleep(Duration::from_millis(100));

    // Fresh one-shot connections must be admitted and served, every
    // time — the idle clients hold no admission slot.
    for i in 0..5 {
        let resp = get(addr, "/healthz", TIMEOUT).expect("fresh connection served");
        assert_eq!(resp.status, 200, "fresh connection {i} shed by idle parked clients");
    }

    // And the parked clients resume on their original connections.
    for c in idlers.iter_mut() {
        assert_eq!(c.get("/healthz").expect("parked client resumes").status, 200);
        assert_eq!(c.connects(), 1, "resuming must not need a reconnect");
    }
    drop(idlers);
    assert_conserved_once_quiesced(addr);
    handle.shutdown();
    thread.join().expect("server drains");
}

#[test]
fn pipelined_request_after_body_level_400_is_served() {
    let (addr, handle, thread) = boot(ServeConfig::default());

    // Framing-valid but semantically bad first request (its body is not
    // JSON): the connection stays trustworthy, so the pipelined second
    // request must still be answered.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(TIMEOUT)).unwrap();
    conn.write_all(
        b"POST /evaluate HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json\
          GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("both responses then close");
    let text = String::from_utf8_lossy(&raw);
    let first = text.find("HTTP/1.1 400").expect("first response is 400");
    let second = text.find("HTTP/1.1 200").expect("pipelined second request is served");
    assert!(first < second, "responses in request order:\n{text}");
    assert!(text.contains("bad JSON"), "{text}");
    assert!(text.contains("ok"), "{text}");

    handle.shutdown();
    thread.join().expect("server drains");
}

#[test]
fn pipelined_request_after_framing_level_400_is_not_served() {
    let (addr, handle, thread) = boot(ServeConfig::default());

    // Transfer-Encoding poisons the framing: the server must answer 400
    // and close, never attempting to parse the pipelined bytes (which a
    // lenient parser would misread as living inside the chunked body).
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(TIMEOUT)).unwrap();
    conn.write_all(
        b"POST /evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
          GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("response then close");
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(
        text.matches("HTTP/1.1 ").count(),
        1,
        "exactly one response before the close:\n{text}"
    );
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");

    handle.shutdown();
    thread.join().expect("server drains");
}

#[test]
fn drain_mid_keepalive_finishes_inflight_then_closes() {
    let (addr, handle, thread) = boot(ServeConfig {
        workers: Jobs::new(1),
        test_hooks: true,
        ..ServeConfig::default()
    });

    // A keep-alive client with an in-flight slow request when drain
    // lands: the request must still be answered (drain finishes the
    // backlog), and the parked connection must not block shutdown.
    let mut client = KeepAliveClient::new(addr, TIMEOUT);
    let warm = client.get("/healthz").expect("healthz");
    assert_eq!(warm.status, 200);

    let stopper = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            handle.shutdown();
        })
    };
    let body = r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 32,
                   "test_sleep_ms": 300}"#;
    let resp = client.post("/evaluate", body).expect("in-flight request is finished");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.body, direct_evaluation(body), "drained response is still bit-identical");
    stopper.join().unwrap();

    // The parked keep-alive connection must not wedge the drain.
    thread.join().expect("drain completes with a keep-alive connection open");
}
