//! Closed-loop load generation against a running server.
//!
//! `closed_loop_mode` runs `concurrency` clients, each issuing its requests
//! back-to-back (a new request the moment the previous response lands —
//! the classic closed-loop model, so offered load scales with measured
//! throughput). Latencies are exact client-side samples; percentiles are
//! computed by sorting, not from histogram buckets, because these are the
//! numbers that get committed to `BENCH_serve.json`.

use crate::client::{post, KeepAliveClient, SessionClient};
use diffy_core::json::parse as parse_json;
use diffy_core::parallel::{run_jobs, Jobs};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How each closed-loop client talks to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// One connection per request (`Connection: close`) — PR 3's model.
    OneShot,
    /// One persistent connection per client; requests reuse it.
    KeepAlive,
    /// One persistent connection per client, posting
    /// `POST /evaluate/batch` with `size` identical items per request.
    /// Throughput still counts *evaluations* per second; the latency
    /// samples are per *batch* (each covers `size` evaluations).
    Batch(usize),
    /// One streaming session per client: the load body is the `POST
    /// /session` request (its `frames` horizon must cover
    /// `requests_per_client`), then each "request" is one `POST
    /// /session/{id}/frame`, closed-loop, and the session is deleted at
    /// the end. Latency samples cover the frame posts only — the
    /// create/close bookkeeping is not part of the measured stream —
    /// so `throughput_rps` reads as frames per second.
    Streaming,
}

/// Results of one closed-loop run at a fixed concurrency.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent clients.
    pub concurrency: usize,
    /// Evaluations answered 200 (batch items count individually).
    pub ok: u64,
    /// Evaluations answered anything else, or failed at the socket level.
    pub errors: u64,
    /// Wall-clock duration of the whole run, in seconds.
    pub wall_s: f64,
    /// Successful evaluations per second (closed-loop throughput).
    pub throughput_rps: f64,
    /// Mean latency over successful requests, ms.
    pub mean_ms: f64,
    /// Latency percentiles over successful requests, ms (nearest-rank).
    pub p50_ms: f64,
    /// 90th percentile, ms.
    pub p90_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Slowest successful request, ms.
    pub max_ms: f64,
}

/// Nearest-rank percentile of a sorted sample, in the sample's units.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs `concurrency` closed-loop clients, each issuing
/// `requests_per_client` evaluations of `body` in `mode`, and aggregates
/// the outcome. `requests_per_client` always counts *evaluations*, so
/// reports are comparable across modes; [`LoadMode::Batch`] groups them
/// into ceil(requests/size) batch posts (last batch possibly short).
///
/// Client fan-out rides the same deterministic pool the sweeps use
/// (`run_jobs`); each client is self-contained, so the report is a pure
/// aggregation over per-request samples.
pub fn closed_loop_mode(
    addr: SocketAddr,
    body: &str,
    concurrency: usize,
    requests_per_client: usize,
    timeout: Duration,
    mode: LoadMode,
) -> LoadReport {
    assert!(concurrency >= 1 && requests_per_client >= 1);
    if let LoadMode::Batch(size) = mode {
        assert!(size >= 1, "batch size must be at least 1");
    }
    let started = Instant::now();
    let clients: Vec<_> = (0..concurrency)
        .map(|_| move || run_client(addr, body, requests_per_client, timeout, mode))
        .collect();
    let outcomes = run_jobs(clients, Jobs::new(concurrency));
    let wall_s = started.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = Vec::new();
    let mut ok = 0u64;
    let mut errors = 0u64;
    for (l, k, e) in outcomes {
        latencies.extend(l);
        ok += k;
        errors += e;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mean_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    LoadReport {
        concurrency,
        ok,
        errors,
        wall_s,
        throughput_rps: if wall_s > 0.0 { ok as f64 / wall_s } else { 0.0 },
        mean_ms,
        p50_ms: percentile(&latencies, 0.50),
        p90_ms: percentile(&latencies, 0.90),
        p99_ms: percentile(&latencies, 0.99),
        max_ms: latencies.last().copied().unwrap_or(0.0),
    }
}

/// One closed-loop client: issues its evaluations in `mode`, returning
/// (latency samples in ms, ok-evaluation count, failed-evaluation
/// count). In batch mode there are fewer latency samples than
/// evaluations — each sample covers one whole batch.
fn run_client(
    addr: SocketAddr,
    body: &str,
    requests: usize,
    timeout: Duration,
    mode: LoadMode,
) -> (Vec<f64>, u64, u64) {
    let mut latencies = Vec::with_capacity(requests);
    let mut ok = 0u64;
    let mut errors = 0u64;
    match mode {
        LoadMode::OneShot => {
            for _ in 0..requests {
                let t0 = Instant::now();
                match post(addr, "/evaluate", body, timeout) {
                    Ok(resp) if resp.status == 200 => {
                        ok += 1;
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    _ => errors += 1,
                }
            }
        }
        LoadMode::KeepAlive => {
            let mut client = KeepAliveClient::new(addr, timeout);
            for _ in 0..requests {
                let t0 = Instant::now();
                match client.post("/evaluate", body) {
                    Ok(resp) if resp.status == 200 => {
                        ok += 1;
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    _ => errors += 1,
                }
            }
        }
        LoadMode::Streaming => {
            let mut client = SessionClient::new(addr, timeout);
            match client.create(body) {
                Ok(resp) if resp.status == 200 && client.id().is_some() => {}
                // No session, no frames: the whole allotment failed.
                _ => return (latencies, ok, requests as u64),
            }
            for _ in 0..requests {
                let t0 = Instant::now();
                match client.frame("") {
                    Ok(resp) if resp.status == 200 => {
                        ok += 1;
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    _ => errors += 1,
                }
            }
            let _ = client.close();
        }
        LoadMode::Batch(size) => {
            let mut client = KeepAliveClient::new(addr, timeout);
            let mut remaining = requests;
            while remaining > 0 {
                let n = remaining.min(size) as u64;
                remaining -= n as usize;
                let batch = batch_body(body, n as usize);
                let t0 = Instant::now();
                match client.post("/evaluate/batch", &batch) {
                    Ok(resp) if resp.status == 200 => {
                        let failed = batch_errors(&resp.body).unwrap_or(n).min(n);
                        errors += failed;
                        ok += n - failed;
                        if failed < n {
                            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    _ => errors += n,
                }
            }
        }
    }
    (latencies, ok, errors)
}

/// A `POST /evaluate/batch` body: `body` as the shared defaults, with
/// `n` empty items inheriting everything from them.
pub fn batch_body(defaults: &str, n: usize) -> String {
    let mut out = String::with_capacity(defaults.len() + 16 + 3 * n);
    out.push_str("{\"defaults\":");
    out.push_str(defaults);
    out.push_str(",\"items\":[");
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{}");
    }
    out.push_str("]}");
    out
}

/// The `errors` counter out of a batch response body.
fn batch_errors(body: &str) -> Option<u64> {
    parse_json(body).ok()?.get("errors")?.as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_body_wraps_defaults_with_empty_items() {
        assert_eq!(
            batch_body("{\"model\":\"lenet\"}", 3),
            "{\"defaults\":{\"model\":\"lenet\"},\"items\":[{},{},{}]}"
        );
        assert_eq!(batch_body("{}", 1), "{\"defaults\":{},\"items\":[{}]}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
