//! A minimal blocking HTTP/1.1 client for the service's protocol —
//! one-shot (`Connection: close`) helpers plus a persistent
//! [`KeepAliveClient`] that frames responses by `Content-Length` so many
//! requests can share one connection.
//!
//! Shared by the end-to-end tests, the bench load generator, and the CI
//! smoke driver, so every consumer speaks to the server the same way.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Hard cap on a response head read by [`KeepAliveClient`]; the server's
/// responses are a handful of short headers.
const MAX_RESPONSE_HEAD: usize = 16 * 1024;

/// A response from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// The response body.
    pub body: String,
}

/// Issues one request and reads the full response. `body` of `None`
/// sends no payload (GET); `Some` posts it with a `Content-Length`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let _ = stream.set_nodelay(true);
    let mut stream = stream;

    // One write for the whole request: `write!` straight at a TcpStream
    // emits one syscall per format fragment, and those small segmented
    // writes stall on Nagle + delayed-ACK.
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(request.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<HttpResponse> {
    request(addr, "GET", path, None, timeout)
}

/// `POST path` with a JSON body.
pub fn post(
    addr: SocketAddr,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    request(addr, "POST", path, Some(body), timeout)
}

/// Splits a raw close-framed response into status and body.
///
/// All slicing is on *bytes*: `Content-Length` is a byte count, and
/// slicing the decoded string at that offset panics when it lands inside
/// a multi-byte UTF-8 sequence (regression:
/// `content_length_mid_utf8_boundary_is_not_a_panic`).
fn parse_response(raw: &[u8]) -> io::Result<HttpResponse> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let split = find_blank_line(raw).ok_or_else(|| bad("no header/body split"))?;
    let (head, body) = (&raw[..split], &raw[split + 4..]);
    let head = String::from_utf8_lossy(head);
    let status = parse_status_line(&head).ok_or_else(|| bad("malformed status line"))?;
    // Connection: close — the body is everything after the head. Honor
    // Content-Length if present to strip trailing bytes defensively.
    let body = match content_length(&head) {
        Some(n) if n <= body.len() => &body[..n],
        _ => body,
    };
    Ok(HttpResponse { status, body: String::from_utf8_lossy(body).into_owned() })
}

/// Byte offset of the first `\r\n\r\n`, if any.
fn find_blank_line(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Status code out of `"HTTP/1.1 200 OK"`.
fn parse_status_line(head: &str) -> Option<u16> {
    head.lines().next()?.split(' ').nth(1)?.parse::<u16>().ok()
}

/// The head's `Content-Length`, if present and well-formed.
fn content_length(head: &str) -> Option<usize> {
    head.lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
}

/// Whether the head carries `Connection: close`.
fn says_close(head: &str) -> bool {
    head.lines()
        .filter_map(|l| l.split_once(':'))
        .filter(|(k, _)| k.eq_ignore_ascii_case("connection"))
        .any(|(_, v)| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")))
}

/// A persistent HTTP/1.1 connection to the server: requests reuse one
/// socket, and responses are framed by `Content-Length` instead of EOF.
///
/// The server may close the connection at any time (idle timeout,
/// per-connection request cap, drain); the client transparently
/// reconnects and retries once when a *reused* connection fails before a
/// response arrives. (Evaluation is pure, so a replayed request returns
/// the identical answer.)
pub struct KeepAliveClient {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    /// Requests answered over the current socket (diagnostic).
    on_conn: u64,
    /// Sockets opened over this client's lifetime (diagnostic).
    connects: u64,
}

impl KeepAliveClient {
    /// A client for `addr`; connects lazily on the first request.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self { addr, timeout, conn: None, on_conn: 0, connects: 0 }
    }

    /// `POST path` with a JSON body over the persistent connection.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request("POST", path, Some(body))
    }

    /// `GET path` over the persistent connection.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, None)
    }

    /// Sockets this client has opened so far.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Requests answered on the current socket.
    pub fn requests_on_conn(&self) -> u64 {
        self.on_conn
    }

    /// Issues one request, reusing the open connection when possible.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        let body = body.unwrap_or("");
        let reused = self.conn.is_some();
        match self.attempt(method, path, body) {
            // A reused socket may have been closed under us (idle
            // timeout, request cap, drain) — retry once on a fresh one.
            Err(_) if reused => {
                self.conn = None;
                self.attempt(method, path, body)
            }
            outcome => outcome,
        }
    }

    fn attempt(&mut self, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            let _ = stream.set_nodelay(true);
            self.conn = Some(BufReader::new(stream));
            self.connects += 1;
            self.on_conn = 0;
        }
        let outcome = self.exchange(method, path, body);
        match &outcome {
            Ok((_, close)) => {
                self.on_conn += 1;
                if *close {
                    self.conn = None;
                }
            }
            Err(_) => self.conn = None,
        }
        outcome.map(|(resp, _)| resp)
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(HttpResponse, bool)> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let reader = self.conn.as_mut().expect("connected");
        let addr = self.addr;
        {
            // Single write for head + body: segmented writes on a warm
            // connection stall on Nagle + delayed-ACK.
            let request = format!(
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                body.len()
            );
            let stream = reader.get_mut();
            stream.write_all(request.as_bytes())?;
            stream.flush()?;
        }

        // Head: bytes up to the blank line (reads are buffered).
        let mut head = Vec::with_capacity(256);
        let mut byte = [0u8; 1];
        loop {
            if reader.read(&mut byte)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a response",
                ));
            }
            head.push(byte[0]);
            if head.ends_with(b"\r\n\r\n") {
                break;
            }
            if head.len() > MAX_RESPONSE_HEAD {
                return Err(bad("response head too large"));
            }
        }
        let head = String::from_utf8_lossy(&head[..head.len() - 4]).into_owned();
        let status = parse_status_line(&head).ok_or_else(|| bad("malformed status line"))?;
        // Keep-alive framing *requires* an exact length.
        let len = content_length(&head).ok_or_else(|| bad("response without Content-Length"))?;
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        let close = says_close(&head);
        Ok((
            HttpResponse { status, body: String::from_utf8_lossy(&body).into_owned() },
            close,
        ))
    }
}

/// A streaming-session handle over one persistent connection: `create`
/// opens a session (`POST /session`) and remembers the returned id, and
/// `frame`/`close` address it (`POST /session/{id}/frame`,
/// `DELETE /session/{id}`) without the caller threading the id around.
///
/// Frames within one session are strictly ordered, so they ride a single
/// [`KeepAliveClient`]; distinct sessions get distinct `SessionClient`s.
pub struct SessionClient {
    http: KeepAliveClient,
    id: Option<String>,
}

impl SessionClient {
    /// A session client for `addr`; connects lazily on the first request.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self { http: KeepAliveClient::new(addr, timeout), id: None }
    }

    /// Opens a session with the given JSON body and remembers its id on
    /// success. Returns the server's response either way — a 4xx leaves
    /// the client without a session.
    pub fn create(&mut self, body: &str) -> io::Result<HttpResponse> {
        let resp = self.http.post("/session", body)?;
        if resp.status == 200 {
            self.id = diffy_core::json::parse(&resp.body)
                .ok()
                .and_then(|v| v.get("session").and_then(|s| s.as_str().map(String::from)));
        }
        Ok(resp)
    }

    /// The open session's id, if `create` has succeeded.
    pub fn id(&self) -> Option<&str> {
        self.id.as_deref()
    }

    /// Submits the next frame of the open session.
    pub fn frame(&mut self, body: &str) -> io::Result<HttpResponse> {
        let id = self.id.clone().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no open session: call create first")
        })?;
        self.http.post(&format!("/session/{id}/frame"), body)
    }

    /// Closes the open session and forgets its id.
    pub fn close(&mut self) -> io::Result<HttpResponse> {
        let id = self.id.take().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no open session: call create first")
        })?;
        self.http.request("DELETE", &format!("/session/{id}"), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_well_formed_response() {
        let r = parse_response(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 16\r\n\r\n{\"error\":\"busy\"}",
        )
        .unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, "{\"error\":\"busy\"}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }

    #[test]
    fn content_length_mid_utf8_boundary_is_not_a_panic() {
        // Content-Length points one byte into a two-byte UTF-8 sequence
        // ("é" = 0xC3 0xA9). Slicing the decoded string there panicked;
        // byte slicing + lossy conversion must yield a replacement char.
        let r = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nab\xC3\xA9").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "ab\u{FFFD}");
        // And a length that covers the full sequence round-trips intact.
        let r = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nab\xC3\xA9").unwrap();
        assert_eq!(r.body, "abé");
    }

    #[test]
    fn session_client_requires_create_before_frame_or_close() {
        // No connection is ever made — the guard fires before any I/O.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut c = SessionClient::new(addr, Duration::from_millis(10));
        assert!(c.id().is_none());
        assert_eq!(c.frame("{}").unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(c.close().unwrap_err().kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn close_token_is_detected_in_connection_lists() {
        assert!(says_close("HTTP/1.1 200 OK\r\nConnection: close"));
        assert!(says_close("HTTP/1.1 200 OK\r\nConnection: Keep-Alive, Close"));
        assert!(!says_close("HTTP/1.1 200 OK\r\nConnection: keep-alive"));
        assert!(!says_close("HTTP/1.1 200 OK\r\nContent-Length: 2"));
    }
}
