//! Service throughput/latency: closed-loop load against an in-process
//! `diffy-serve` server at several client concurrency levels, in four
//! transport modes: one-shot (connection per request), keep-alive (one
//! persistent connection per client), batch (eight evaluations per
//! `POST /evaluate/batch`) and streaming (one video session per client,
//! each "request" a `POST /session/{id}/frame`).
//!
//! Methodology (see EXPERIMENTS.md §"Service throughput and latency"):
//! an ephemeral-port server is booted in-process with its default worker
//! pool, the cache is warmed with one untimed request, then each
//! (mode, concurrency) cell runs a fixed total number of evaluations
//! split across closed-loop clients (a client issues its next request
//! the moment the previous response lands). Latencies are exact
//! client-side samples; percentiles are nearest-rank over the sorted
//! run. In batch mode a latency sample covers a whole batch.
//!
//! `DIFFY_BENCH_SMOKE` shrinks the request budget to a seconds-scale
//! smoke run; `DIFFY_BENCH_JSON` writes the records to disk (this is the
//! source of the committed `BENCH_serve.json`).

use diffy_bench::{bench_options, bench_smoke, write_bench_json, BenchRecord};
use diffy_core::summary::TextTable;
use diffy_serve::{closed_loop_mode, get, post, LoadMode, ServeConfig, Server, SessionClient};
use std::time::Duration;

/// Evaluations per `/evaluate/batch` request in batch mode.
const BATCH_SIZE: usize = 8;

/// Client-side timeout: generous, so slow levels report latency rather
/// than erroring out.
const TIMEOUT: Duration = Duration::from_secs(60);

fn main() {
    let opts = bench_options();
    let resolution = opts.resolution.clamp(16, 512);
    let (levels, total_requests): (&[usize], usize) =
        if bench_smoke() { (&[1, 2, 4], 12) } else { (&[1, 2, 4, 8], 120) };

    println!("== serve_load: evaluation-service throughput and latency ==");
    println!(
        "workload: IRCNN/Kodak24 at {resolution}x{resolution}, {total_requests} evaluations \
         per cell, closed-loop clients at concurrency {levels:?}, \
         modes: one-shot / keep-alive / batch({BATCH_SIZE}) / streaming"
    );
    println!();

    let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() })
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let workers = server.config().workers.get();
    let thread = std::thread::spawn(move || server.run().expect("server run"));

    let body = format!(
        r#"{{"model": "IRCNN", "dataset": "Kodak24", "resolution": {resolution}}}"#
    );

    // Warm the trace/term-plane cache (untimed): every measured level
    // then sees the same warm-cache steady state.
    let warm = post(addr, "/evaluate", &body, TIMEOUT).expect("warm-up request");
    assert_eq!(warm.status, 200, "warm-up failed: {}", warm.body);

    let modes: [(&str, &str, LoadMode); 3] = [
        ("one-shot", "", LoadMode::OneShot),
        ("keep-alive", "keepalive_", LoadMode::KeepAlive),
        ("batch", "batch8_", LoadMode::Batch(BATCH_SIZE)),
    ];
    let mut table = TextTable::new(vec![
        "mode", "clients", "ok", "errors", "rps", "mean ms", "p50 ms", "p90 ms", "p99 ms",
    ]);
    let mut records = Vec::new();
    let mut summary: Vec<(String, f64)> = Vec::new();
    let mut oneshot_p50_c1 = None;
    for (mode_name, key_prefix, mode) in modes {
        let mut rps_c1 = None;
        for &concurrency in levels {
            let per_client = (total_requests / concurrency).max(1);
            let report =
                closed_loop_mode(addr, &body, concurrency, per_client, TIMEOUT, mode);
            assert_eq!(report.errors, 0, "load run must not shed at depth-32 defaults");
            table.row(vec![
                mode_name.to_string(),
                concurrency.to_string(),
                report.ok.to_string(),
                report.errors.to_string(),
                format!("{:.2}", report.throughput_rps),
                format!("{:.2}", report.mean_ms),
                format!("{:.2}", report.p50_ms),
                format!("{:.2}", report.p90_ms),
                format!("{:.2}", report.p99_ms),
            ]);
            records.push(BenchRecord {
                name: format!("serve_{key_prefix}c{concurrency}"),
                wall_ms: report.mean_ms,
                iters: report.ok,
                per_second: Some(report.throughput_rps),
            });
            summary.push((format!("rps_{key_prefix}c{concurrency}"), report.throughput_rps));
            summary.push((format!("p50_ms_{key_prefix}c{concurrency}"), report.p50_ms));
            summary.push((format!("p99_ms_{key_prefix}c{concurrency}"), report.p99_ms));
            if concurrency == 1 {
                rps_c1 = Some(report.throughput_rps);
                if mode == LoadMode::OneShot {
                    oneshot_p50_c1 = Some(report.p50_ms);
                }
            } else if let Some(base) = rps_c1 {
                summary.push((
                    format!("speedup_{key_prefix}c{concurrency}_vs_c1"),
                    report.throughput_rps / base,
                ));
            }
        }
    }

    // Streaming sessions get their own frame budget: a session's `frames`
    // horizon caps how many frames one client can post, so per-client
    // frames are fixed per cell (concurrency scales total work) rather
    // than splitting one shared budget.
    let stream_frames: usize = if bench_smoke() { 4 } else { 16 };
    let stream_body = format!(
        r#"{{"model": "IRCNN", "resolution": {resolution}, "frames": {stream_frames}, "seed": 1}}"#
    );
    // Warm the video-frame cache with one untimed session; its last frame
    // carries the cumulative savings ledger for the whole sequence.
    let savings_pct = {
        let mut warm = SessionClient::new(addr, TIMEOUT);
        let created = warm.create(&stream_body).expect("warm-up session create");
        assert_eq!(created.status, 200, "warm-up session failed: {}", created.body);
        let mut last = String::new();
        for _ in 0..stream_frames {
            let resp = warm.frame("").expect("warm-up frame");
            assert_eq!(resp.status, 200, "warm-up frame failed: {}", resp.body);
            last = resp.body;
        }
        warm.close().expect("warm-up session close");
        diffy_core::json::parse(&last)
            .expect("frame body parses")
            .get("cumulative")
            .and_then(|c| c.get("savings_pct"))
            .and_then(|v| v.as_f64())
            .expect("frame response carries cumulative savings")
    };
    let mut stream_rps_c1 = None;
    for &concurrency in levels {
        let report = closed_loop_mode(
            addr,
            &stream_body,
            concurrency,
            stream_frames,
            TIMEOUT,
            LoadMode::Streaming,
        );
        assert_eq!(report.errors, 0, "streaming run must not shed");
        table.row(vec![
            "streaming".to_string(),
            concurrency.to_string(),
            report.ok.to_string(),
            report.errors.to_string(),
            format!("{:.2}", report.throughput_rps),
            format!("{:.2}", report.mean_ms),
            format!("{:.2}", report.p50_ms),
            format!("{:.2}", report.p90_ms),
            format!("{:.2}", report.p99_ms),
        ]);
        records.push(BenchRecord {
            name: format!("serve_stream_c{concurrency}"),
            wall_ms: report.mean_ms,
            iters: report.ok,
            per_second: Some(report.throughput_rps),
        });
        summary.push((format!("fps_stream_c{concurrency}"), report.throughput_rps));
        summary.push((format!("p50_ms_stream_c{concurrency}"), report.p50_ms));
        summary.push((format!("p99_ms_stream_c{concurrency}"), report.p99_ms));
        if concurrency == 1 {
            stream_rps_c1 = Some(report.throughput_rps);
            if let Some(oneshot) = oneshot_p50_c1 {
                // The headline comparison: a streamed frame (persistent
                // connection + temporal evaluation) vs a one-shot
                // evaluation of the same resolution.
                summary.push(("stream_p50_vs_oneshot_c1".to_string(), report.p50_ms / oneshot));
            }
        } else if let Some(base) = stream_rps_c1 {
            summary
                .push((format!("speedup_stream_c{concurrency}_vs_c1"), report.throughput_rps / base));
        }
    }
    summary.push(("stream_savings_pct".to_string(), savings_pct));
    println!("{}", table.render());
    println!(
        "streaming: {stream_frames} frames per session per client; cumulative temporal \
         savings over per-frame spatial re-evaluation: {savings_pct:.1}%"
    );

    // Scrape the server's own view before drain: the cache must have
    // served the repeats, and every measured request must be a 200.
    let metrics = get(addr, "/metrics", TIMEOUT).expect("scrape /metrics");
    assert_eq!(metrics.status, 200);
    let m = diffy_core::json::parse(&metrics.body).expect("metrics body parses");
    let hits = m.get("cache").unwrap().get("hits").unwrap().as_u64().unwrap();
    let oks = m.get("responses").unwrap().get("200").unwrap().as_u64().unwrap();
    assert!(hits > 0, "warm levels must hit the cache");
    let s = m.get("sessions").unwrap();
    let sget = |k: &str| s.get(k).unwrap().as_u64().unwrap();
    assert!(sget("created") > 0, "streaming levels must have opened sessions");
    assert_eq!(
        sget("created"),
        sget("closed") + sget("expired") + sget("evicted") + sget("open"),
        "session accounting must conserve: {s:?}"
    );
    println!(
        "server metrics: {oks} 200s, {hits} cache hits, {} sessions created/closed",
        sget("created")
    );
    println!();

    handle.shutdown();
    thread.join().expect("server drains");

    // -- Disk-tier cold start -------------------------------------------
    // Precompute the workload into a scratch artifact directory, then
    // boot a *fresh* server over it with warmup: its very first request
    // is served off the memory tier loaded from disk — no trace build,
    // no evaluation — which is the cold-start story `diffy precompute`
    // + `diffy serve --artifact-dir --warmup` sells. Measured one-shot
    // and keep-alive at c1, so p50 is the honest per-request latency.
    let art_dir =
        std::env::temp_dir().join(format!("diffy-bench-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&art_dir);
    {
        use diffy_serve::protocol::EvalRequest;
        let req = EvalRequest::from_json(&diffy_core::json::parse(&body).unwrap())
            .expect("bench body is a valid request");
        let tier = diffy_core::DiskTier::open(&art_dir).expect("open scratch artifact dir");
        let cache = diffy_core::SweepCache::new().with_disk(tier);
        cache.evaluate_keyed(
            req.model,
            req.dataset,
            req.sample,
            &req.workload(),
            &req.eval_options(),
        );
    }
    let cold_server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        artifact_dir: Some(art_dir.to_string_lossy().into_owned()),
        warmup: true,
        ..Default::default()
    })
    .expect("bind cold-start server");
    let cold_addr = cold_server.local_addr();
    let cold_handle = cold_server.handle();
    let cold_thread = std::thread::spawn(move || cold_server.run().expect("cold server run"));
    let cold_requests = if bench_smoke() { 12 } else { 60 };
    let mut cold_table = TextTable::new(vec![
        "mode", "clients", "ok", "errors", "rps", "mean ms", "p50 ms", "p90 ms", "p99 ms",
    ]);
    for (mode_name, key_prefix, mode) in
        [("disk-cold", "disk_cold_", LoadMode::OneShot), ("disk-warm-ka", "disk_ka_", LoadMode::KeepAlive)]
    {
        let report = closed_loop_mode(cold_addr, &body, 1, cold_requests, TIMEOUT, mode);
        assert_eq!(report.errors, 0, "cold-start run must not shed");
        cold_table.row(vec![
            mode_name.to_string(),
            "1".to_string(),
            report.ok.to_string(),
            report.errors.to_string(),
            format!("{:.2}", report.throughput_rps),
            format!("{:.2}", report.mean_ms),
            format!("{:.2}", report.p50_ms),
            format!("{:.2}", report.p90_ms),
            format!("{:.2}", report.p99_ms),
        ]);
        records.push(BenchRecord {
            name: format!("serve_{key_prefix}c1"),
            wall_ms: report.mean_ms,
            iters: report.ok,
            per_second: Some(report.throughput_rps),
        });
        summary.push((format!("rps_{key_prefix}c1"), report.throughput_rps));
        summary.push((format!("p50_ms_{key_prefix}c1"), report.p50_ms));
        summary.push((format!("p99_ms_{key_prefix}c1"), report.p99_ms));
    }
    println!("disk-tier cold start: precomputed artifacts, fresh server, --warmup");
    println!("{}", cold_table.render());
    // The server's own view: warmup means the requests above never went
    // back to disk, and nothing was corrupt.
    let m = diffy_core::json::parse(&get(cold_addr, "/metrics", TIMEOUT).unwrap().body).unwrap();
    let disk = m.get("cache").unwrap().get("disk").unwrap();
    assert_eq!(disk.get("hits").unwrap().as_u64(), Some(0), "warmed serve must skip disk");
    assert_eq!(disk.get("corrupt").unwrap().as_u64(), Some(0));
    cold_handle.shutdown();
    cold_thread.join().expect("cold server drains");
    let _ = std::fs::remove_dir_all(&art_dir);

    // -- Poller: measured load beside an idle keep-alive fleet ----------
    // The event-driven core's claim is that parked connections are free:
    // a fleet of idle keep-alive sockets sits in the epoll watch set
    // while keep-alive load runs at c2, and throughput should match the
    // fleetless keep-alive row above. The scrape afterwards proves the
    // fleet stayed parked (never handed to a worker) and that poller
    // wakeups tracked the poll tick, not the connection count.
    let idle_conns: usize = if bench_smoke() { 64 } else { 512 };
    let idle_server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        idle_timeout_ms: 300_000,
        ..Default::default()
    })
    .expect("bind idle-fleet server");
    let idle_addr = idle_server.local_addr();
    let idle_handle = idle_server.handle();
    let idle_thread = std::thread::spawn(move || idle_server.run().expect("idle server run"));
    let warm = post(idle_addr, "/evaluate", &body, TIMEOUT).expect("idle-fleet warm-up");
    assert_eq!(warm.status, 200, "idle-fleet warm-up failed: {}", warm.body);
    let fleet: Vec<_> = (0..idle_conns).map(|_| park_idle_conn(idle_addr, TIMEOUT)).collect();
    // Wait for the event loop to absorb the whole fleet into its watch
    // set before measuring (the hand-off rides the parking inbox).
    let parked_deadline = std::time::Instant::now() + Duration::from_secs(10);
    while poller_counter(idle_addr, "parked") < idle_conns as u64 {
        assert!(std::time::Instant::now() < parked_deadline, "idle fleet never parked");
        std::thread::sleep(Duration::from_millis(25));
    }
    let wakeups_before = poller_counter(idle_addr, "wakeups");
    let idle_report = closed_loop_mode(
        idle_addr,
        &body,
        2,
        (total_requests / 2).max(1),
        TIMEOUT,
        LoadMode::KeepAlive,
    );
    assert_eq!(idle_report.errors, 0, "idle-fleet run must not shed");
    let wakeups_per_s =
        (poller_counter(idle_addr, "wakeups") - wakeups_before) as f64 / idle_report.wall_s;
    assert!(
        poller_counter(idle_addr, "parked") >= idle_conns as u64,
        "the idle fleet must still be parked after the measured run"
    );
    println!(
        "poller: {idle_conns} idle keep-alive connections parked; keep-alive c2 under the \
         fleet: {:.2} rps, p50 {:.2} ms, {wakeups_per_s:.0} poller wakeups/s",
        idle_report.throughput_rps, idle_report.p50_ms
    );
    println!();
    records.push(BenchRecord {
        name: format!("serve_idle{idle_conns}_keepalive_c2"),
        wall_ms: idle_report.mean_ms,
        iters: idle_report.ok,
        per_second: Some(idle_report.throughput_rps),
    });
    summary.push(("rps_idle_fleet_keepalive_c2".to_string(), idle_report.throughput_rps));
    summary.push(("p50_ms_idle_fleet_keepalive_c2".to_string(), idle_report.p50_ms));
    summary.push(("poller_wakeups_per_s_under_idle_fleet".to_string(), wakeups_per_s));
    drop(fleet);
    idle_handle.shutdown();
    idle_thread.join().expect("idle server drains");

    let meta = [
        ("model", "IRCNN".to_string()),
        ("dataset", "Kodak24".to_string()),
        ("resolution", format!("{resolution}x{resolution}")),
        ("requests_per_level", total_requests.to_string()),
        ("batch_size", BATCH_SIZE.to_string()),
        ("stream_frames_per_session", stream_frames.to_string()),
        ("modes", "one-shot,keep-alive,batch,streaming,disk-cold,idle-fleet".to_string()),
        ("disk_cold_requests", cold_requests.to_string()),
        ("idle_fleet_conns", idle_conns.to_string()),
        ("server_workers", workers.to_string()),
        ("host_parallelism", num_cores().to_string()),
    ];
    let summary_refs: Vec<(&str, f64)> =
        summary.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    if let Some(path) = write_bench_json("serve_load", &meta, &records, &summary_refs) {
        println!("wrote {}", path.display());
    }
}

fn num_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Opens one raw keep-alive connection, serves a `/healthz` on it, and
/// returns the socket idle — parked in the server's epoll watch set.
fn park_idle_conn(addr: std::net::SocketAddr, timeout: Duration) -> std::net::TcpStream {
    use std::io::{BufRead, Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).expect("connect idle conn");
    conn.set_read_timeout(Some(timeout)).expect("read timeout");
    conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .expect("write healthz");
    let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone socket"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        if line == "\r\n" {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().expect("content length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("response body");
    conn
}

/// One counter out of the server's `/metrics` poller block.
fn poller_counter(addr: std::net::SocketAddr, key: &str) -> u64 {
    let resp = get(addr, "/metrics", TIMEOUT).expect("scrape /metrics");
    diffy_core::json::parse(&resp.body)
        .expect("metrics body parses")
        .get("poller")
        .and_then(|p| p.get(key))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("metrics missing poller.{key}"))
}
