//! The real `diffy-serve` server, run in-process on a loopback port, and
//! what the benchmark reads back from its `/metrics`.

use diffy_core::json::{parse, JsonValue};
use diffy_serve::{client, ServeConfig, Server, ServerHandle};
use std::io;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client socket timeout: far above any op, so a hang fails the op
/// instead of the run.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server and the thread that runs it.
pub struct BenchServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl BenchServer {
    /// Binds `config` on an ephemeral loopback port and starts serving.
    pub fn start(config: ServeConfig) -> Result<BenchServer, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..config
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(BenchServer {
            addr,
            handle,
            thread: Some(thread),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `/metrics` snapshot once the server is quiet, with every
    /// broken conservation law as a message. Call after all clients
    /// closed their connections: the server needs a few poll cycles to
    /// retire them, so the laws are re-checked for up to five seconds.
    pub fn quiesced_metrics(&self) -> Result<(JsonValue, Vec<String>), String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let resp = client::get(self.addr, "/metrics", CLIENT_TIMEOUT)
                .map_err(|e| format!("GET /metrics: {e}"))?;
            if resp.status != 200 {
                return Err(format!("GET /metrics answered {}", resp.status));
            }
            let m = parse(&resp.body).map_err(|e| format!("/metrics body: {e}"))?;
            let broken = broken_laws(&m);
            if broken.is_empty() || Instant::now() >= deadline {
                return Ok((m, broken));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Drains the server and joins its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server: {e}")),
            Some(Err(_)) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for BenchServer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Reads the unsigned integer at `path` (object keys) in `m`, 0 if absent.
pub fn count(m: &JsonValue, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(m, |v, k| v.get(k))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

/// Responses counted across every status, and those that were not 200.
fn responses(m: &JsonValue) -> (u64, u64) {
    let Some(JsonValue::Object(by_status)) = m.get("responses") else {
        return (0, 0);
    };
    by_status
        .iter()
        .fold((0, 0), |(all, non_200), (status, n)| {
            let n = n.as_u64().unwrap_or(0);
            (
                all + n,
                if status == "200" {
                    non_200
                } else {
                    non_200 + n
                },
            )
        })
}

/// Responses that were not 200.
pub fn non_200(m: &JsonValue) -> u64 {
    responses(m).1
}

/// The `/metrics` conservation laws a snapshot breaks:
/// `requests == responses + aborted + idle_closed` (plus the scrape in
/// flight, counted as a request but not yet answered) and
/// `created == closed + expired + evicted + open` for sessions.
pub fn broken_laws(m: &JsonValue) -> Vec<String> {
    let mut broken = Vec::new();
    let requests = count(m, &["requests_total"]);
    let ended = responses(m).0
        + count(m, &["connections", "aborted"])
        + count(m, &["connections", "idle_closed"]);
    if requests != ended + 1 {
        broken.push(format!(
            "requests {requests} != responses + aborted + idle_closed {ended} (+1 scrape)"
        ));
    }
    let s = |k: &str| count(m, &["sessions", k]);
    let exits = s("closed") + s("expired") + s("evicted") + s("open");
    if s("created") != exits {
        broken.push(format!(
            "sessions created {} != closed + expired + evicted + open {exits}",
            s("created")
        ));
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laws_hold_on_a_fresh_server_and_break_on_a_lost_request() {
        let server = BenchServer::start(ServeConfig::default()).unwrap();
        let (m, broken) = server.quiesced_metrics().unwrap();
        assert!(broken.is_empty(), "{broken:?}");
        server.stop().unwrap();
        let JsonValue::Object(mut members) = m else {
            panic!()
        };
        for (k, v) in members.iter_mut() {
            if k == "requests_total" {
                *v = JsonValue::from(v.as_u64().unwrap() + 1);
            }
        }
        assert_eq!(broken_laws(&JsonValue::Object(members)).len(), 1);
    }
}
