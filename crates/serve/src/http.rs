//! Minimal HTTP/1.1 framing on std I/O: request parsing with hard size
//! limits and response writing.
//!
//! The service speaks exactly the subset it needs — `Content-Length`
//! bodies on persistent (keep-alive) or one-shot connections. Keeping the
//! parser tiny keeps the failure surface auditable: anything outside the
//! subset is a clean 400, never undefined behaviour. Under keep-alive the
//! framing rules are load-bearing, not cosmetic: a byte miscounted on one
//! request becomes the *head of the next request* on the same connection,
//! so everything ambiguous (whitespace-padded header names,
//! `Transfer-Encoding`, conflicting lengths, unterminated lines) is
//! rejected outright and the connection closed.

use std::io::{self, BufRead, Write};

/// Largest accepted request head (request line + headers), in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest accepted request body, in bytes. Evaluation requests are a few
/// hundred bytes and batches a few KiB; anything close to this limit is
/// abuse, not traffic.
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// Number of leading empty lines tolerated before the request line
/// (RFC 9112 §2.2: a server SHOULD ignore at least one).
const MAX_LEADING_BLANKS: usize = 4;

/// The HTTP version a request was framed under. Keep-alive defaults
/// differ: HTTP/1.1 persists unless `Connection: close`, HTTP/1.0 closes
/// unless `Connection: keep-alive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0`.
    Http10,
    /// `HTTP/1.1`.
    Http11,
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as received.
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Protocol version from the request line.
    pub version: Version,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to keep the connection open after the
    /// response: `Connection: close` always closes, `Connection:
    /// keep-alive` always persists, otherwise the version's default
    /// applies (persist on 1.1, close on 1.0). Each `Connection` value is
    /// a comma-separated token list per RFC 9110 §7.6.1, and repeated
    /// `Connection` field lines combine into one list (RFC 9110 §5.3) —
    /// consulting only the first line would let `Connection: keep-alive`
    /// followed by `Connection: close` hold a connection the peer asked
    /// to close.
    pub fn keep_alive(&self) -> bool {
        let mut keep = false;
        for (k, v) in &self.headers {
            if k != "connection" {
                continue;
            }
            for token in v.split(',').map(str::trim) {
                if token.eq_ignore_ascii_case("close") {
                    return false;
                }
                if token.eq_ignore_ascii_case("keep-alive") {
                    keep = true;
                }
            }
        }
        keep || self.version == Version::Http11
    }

    /// The request path split into its non-empty segments — the routing
    /// substrate for parameterized paths like `/session/{id}/frame`.
    /// See [`path_segments`].
    pub fn path_segments(&self) -> Vec<&str> {
        path_segments(&self.path)
    }
}

/// Splits a request path into its non-empty `/`-separated segments:
/// `"/session/s-1/frame"` → `["session", "s-1", "frame"]`. Empty
/// segments (leading, trailing, or doubled slashes) are dropped, so
/// `"/session//s-1/"` routes like `"/session/s-1"` — match arms see one
/// canonical shape per route.
pub fn path_segments(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// A request the parser rejected, with the HTTP status the server should
/// answer with (400 or 413). Framing-level rejections poison the
/// connection — the next request's boundary can no longer be trusted —
/// so the server answers and then closes, never keeps alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// Status code to respond with.
    pub status: u16,
    /// Human-readable reason, included in the error body.
    pub message: String,
}

impl BadRequest {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self { status, message: message.into() }
    }
}

/// How reading a request off a connection failed before a request (or a
/// rejectable `BadRequest`) materialized.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed — or stayed silent past the read timeout — before
    /// sending a single request byte. Under keep-alive this is the
    /// *normal* end of a connection, not an error to alarm on.
    Idle,
    /// The connection failed mid-request: reset, timeout or EOF after
    /// some head bytes had already arrived. Nothing can be answered.
    Io(io::Error),
}

/// Outcome of reading one request off a connection.
pub type ParseResult = Result<Result<Request, BadRequest>, ReadError>;

/// Outcome of reading one head line.
enum Line {
    /// The empty line ending the head (or a tolerated leading blank).
    Blank,
    /// A non-empty line, stripped of its terminator, left in `line`.
    Text,
    /// The line ran past the head limit without a terminator.
    TooLong,
    /// The line carried a control byte outside the CRLF terminator — a
    /// bare CR, a NUL, an embedded LF-smuggle — which RFC 9112 §2.2
    /// requires rejecting rather than reinterpreting.
    Ctl,
    /// Clean EOF before any byte of this line.
    Eof,
}

/// Reads one HTTP/1.1 request. [`ReadError::Idle`] means the peer closed
/// (or timed out) between requests; [`ReadError::Io`] means the
/// connection failed mid-request; `Ok(Err(BadRequest))` means the peer
/// sent something the subset rejects and should be answered with its
/// status — and, because framing is no longer trustworthy, closed.
pub fn read_request(reader: &mut impl BufRead) -> ParseResult {
    read_request_with(reader, &mut || Ok(()))
}

/// [`read_request`] with a `tick` hook that runs before **every** socket
/// read — each head-line refill and each body chunk. The hook can re-arm
/// a shrinking read timeout and abort the request by returning `Err`
/// once an absolute deadline has passed. A per-read timeout alone cannot
/// bound a request's wall-clock cost: a peer trickling one byte just
/// under the timeout keeps every individual read succeeding, so only a
/// check *between* reads cuts it off.
pub fn read_request_with(
    reader: &mut impl BufRead,
    tick: &mut dyn FnMut() -> io::Result<()>,
) -> ParseResult {
    let mut head_bytes = 0usize;
    let mut line = String::new();

    // Request line: METHOD SP PATH SP HTTP/1.x — after at most a few
    // tolerated leading CRLFs (RFC 9112 §2.2).
    let mut blanks = 0usize;
    loop {
        let first = blanks == 0 && head_bytes == 0;
        match read_head_line(reader, &mut line, &mut head_bytes, first, tick)? {
            Line::Eof => return Err(ReadError::Idle),
            Line::TooLong => return Ok(Err(BadRequest::new(413, "request line too long"))),
            Line::Ctl => return Ok(Err(BadRequest::new(400, "control byte in request head"))),
            Line::Blank => {
                blanks += 1;
                if blanks > MAX_LEADING_BLANKS {
                    return Ok(Err(BadRequest::new(400, "empty request")));
                }
            }
            Line::Text => break,
        }
    }
    let mut parts = line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => {
            (m.to_string(), p.to_string(), v)
        }
        _ => return Ok(Err(BadRequest::new(400, "malformed request line"))),
    };
    let version = match version {
        "HTTP/1.1" => Version::Http11,
        "HTTP/1.0" => Version::Http10,
        _ => return Ok(Err(BadRequest::new(400, "unsupported HTTP version"))),
    };

    // Headers until the empty line.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        if head_bytes > MAX_HEAD_BYTES {
            return Ok(Err(BadRequest::new(413, "request head too large")));
        }
        match read_head_line(reader, &mut line, &mut head_bytes, false, tick)? {
            Line::Eof => return Err(ReadError::Io(closed_mid_head())),
            Line::TooLong => return Ok(Err(BadRequest::new(413, "header line too long"))),
            Line::Ctl => return Ok(Err(BadRequest::new(400, "control byte in request head"))),
            Line::Blank => break,
            Line::Text => {
                let Some((name, value)) = line.split_once(':') else {
                    return Ok(Err(BadRequest::new(400, "malformed header")));
                };
                // RFC 9112 §5.1: no whitespace between the field name and
                // the colon. `Content-Length : 5` is a smuggling desync
                // vector — a lenient parser reads a length this parser
                // ignored — so the name must be an exact token. This also
                // rejects obs-fold continuations (leading whitespace).
                if !is_token(name) {
                    return Ok(Err(BadRequest::new(400, "malformed header name")));
                }
                // Trim OWS only (SP / HTAB, RFC 9110 §5.6.3). `str::trim`
                // strips every Unicode White_Space character, so a
                // Content-Length of "\u{a0}5" would quietly become "5"
                // here while a byte-exact parser elsewhere rejects it —
                // two framings of one message.
                let value = value.trim_matches([' ', '\t']);
                headers.push((name.to_ascii_lowercase(), value.to_string()));
            }
        }
    }

    // Transfer-Encoding is not part of the subset. Ignoring it would be
    // fatal under keep-alive: a chunked body this parser never consumed
    // would be replayed as the head of the "next request".
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Ok(Err(BadRequest::new(400, "transfer-encoding not supported")));
    }

    // Body: exactly Content-Length bytes, if given. Multiple
    // Content-Length headers with conflicting values are the classic
    // request-smuggling shape (two parsers picking different framings) —
    // reject them; byte-identical repeats are tolerated per RFC 9110.
    let lengths: Vec<&str> =
        headers.iter().filter(|(k, _)| k == "content-length").map(|(_, v)| v.as_str()).collect();
    let body = match lengths.first() {
        None => Vec::new(),
        Some(&first) => {
            if lengths.iter().any(|&v| v != first) {
                return Ok(Err(BadRequest::new(400, "conflicting content-length headers")));
            }
            let Some(len) = parse_content_length(first) else {
                return Ok(Err(BadRequest::new(400, "bad content-length")));
            };
            if len > MAX_BODY_BYTES as u128 {
                return Ok(Err(BadRequest::new(413, "request body too large")));
            }
            let len = len as usize; // ≤ MAX_BODY_BYTES: usize-exact on any target
            // Chunked (not `read_exact`) so `tick` runs between reads:
            // `read_exact` loops internally and would let a trickling
            // peer stretch one body across MAX_BODY_BYTES timeouts.
            let mut body = vec![0u8; len];
            let mut filled = 0usize;
            while filled < len {
                tick().map_err(ReadError::Io)?;
                match reader.read(&mut body[filled..]) {
                    Ok(0) => {
                        return Err(ReadError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-body",
                        )))
                    }
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(ReadError::Io(e)),
                }
            }
            body
        }
    };

    Ok(Ok(Request { method, path, version, headers, body }))
}

fn closed_mid_head() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-head")
}

/// RFC 9110 token: the only characters legal in a header field name.
fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().all(|b| {
            b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
        })
}

/// Parses a `Content-Length` value: ASCII digits only. Stricter than
/// `usize::from_str`, which accepts a leading `+` ("+5" parses to 5) —
/// a sign is not valid header framing and another parser in the chain
/// may read it differently, so it is rejected outright.
///
/// Returns the value in `u128` so the *caller* classifies magnitude: a
/// syntactically valid length that merely overflows the native integer
/// is "body too large" (413), not "malformed" (400) — `parse::<usize>()`
/// conflated the two, and on a 32-bit target would have 400'd lengths a
/// 64-bit peer considers well-formed. Values past even `u128` saturate,
/// which the 413 comparison classifies identically.
fn parse_content_length(v: &str) -> Option<u128> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(v.parse::<u128>().unwrap_or(u128::MAX))
}

/// Reads one `\r\n`-terminated head line into `line` (stripped),
/// consulting `tick` before every underlying read.
///
/// The per-line read is capped at `MAX_HEAD_BYTES + 1` bytes; hitting the
/// cap *without* a terminator is [`Line::TooLong`] — previously the
/// capped tail was silently parsed as a separate header (a framing split
/// no two parsers would ever agree on). EOF after partial bytes is an
/// I/O error, never a valid line. `first` marks the very first read of a
/// request, where a timeout with nothing buffered means "peer idle", not
/// "request truncated".
fn read_head_line(
    reader: &mut impl BufRead,
    line: &mut String,
    head_bytes: &mut usize,
    first: bool,
    tick: &mut dyn FnMut() -> io::Result<()>,
) -> Result<Line, ReadError> {
    line.clear();
    let mut raw: Vec<u8> = Vec::new();
    // Loop over `fill_buf` (not `read_line`, whose internal loop would
    // run read after read without ever consulting `tick`): each pass
    // ticks, refills, and consumes up to the line terminator.
    let terminated = loop {
        if let Err(e) = tick() {
            return Err(ReadError::Io(e));
        }
        let available = match reader.fill_buf() {
            Ok(a) => a,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // A timeout (or reset) before any byte of the first line
                // is the idle end of a keep-alive connection; partial
                // bytes mark a genuinely truncated request.
                let idle_kind = matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::UnexpectedEof
                );
                return if first && raw.is_empty() && idle_kind {
                    Err(ReadError::Idle)
                } else {
                    Err(ReadError::Io(e))
                };
            }
        };
        if available.is_empty() {
            if raw.is_empty() {
                return Ok(Line::Eof);
            }
            break false; // EOF mid-line
        }
        let cap_left = (MAX_HEAD_BYTES + 1).saturating_sub(raw.len());
        if cap_left == 0 {
            break false; // cap exhausted without a terminator
        }
        let chunk = &available[..available.len().min(cap_left)];
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            raw.extend_from_slice(&chunk[..=pos]);
            reader.consume(pos + 1);
            break true;
        }
        let taken = chunk.len();
        raw.extend_from_slice(chunk);
        reader.consume(taken);
    };
    *head_bytes += raw.len();
    if !terminated {
        // No terminator: either the per-line cap was hit (overlong line)
        // or the peer died mid-line. Distinguish by whether the cap was
        // exhausted.
        return if raw.len() > MAX_HEAD_BYTES {
            Ok(Line::TooLong)
        } else {
            Err(ReadError::Io(closed_mid_head()))
        };
    }
    let Ok(text) = std::str::from_utf8(&raw) else {
        return Err(ReadError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "non-UTF-8 bytes in request head",
        )));
    };
    line.push_str(text);
    // Strip exactly one terminator: `\r\n` or a tolerated bare `\n`.
    // Anything else — a stray trailing `\r\r\n`, an interior bare CR, a
    // NUL — is a control byte a lenient parser downstream might treat as
    // a line break or a truncation point, i.e. a framing desync vector.
    // RFC 9112 §2.2: bare CR outside the terminator must be rejected.
    if line.ends_with('\n') {
        line.pop();
    }
    if line.ends_with('\r') {
        line.pop();
    }
    if line.bytes().any(|b| b < 0x20 && b != b'\t') {
        return Ok(Line::Ctl);
    }
    Ok(if line.is_empty() { Line::Blank } else { Line::Text })
}

/// Reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one JSON response and flushes, announcing the connection
/// disposition the server decided: `Connection: keep-alive` when the
/// connection will serve another request, `Connection: close` when the
/// server will close after this response.
pub fn write_json_response_conn(
    writer: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    // Render first, write once: `write!` at an unbuffered socket emits a
    // syscall per format fragment, and on a keep-alive connection those
    // small segmented writes stall on Nagle + delayed-ACK.
    let response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        body
    );
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    fn read(raw: &[u8]) -> ParseResult {
        read_request(&mut BufReader::new(Cursor::new(raw.to_vec())))
    }

    fn parse(raw: &str) -> Result<Request, BadRequest> {
        match read(raw.as_bytes()) {
            Ok(r) => r,
            Err(e) => panic!("unexpected read error on in-memory input: {e:?}"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            "POST /evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"k\": true}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/evaluate");
        assert_eq!(req.version, Version::Http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"{\"k\": true}");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let req =
            parse("POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nok").unwrap();
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_header() {
        // (request, expected keep_alive)
        let cases = [
            ("GET / HTTP/1.1\r\n\r\n", true),
            ("GET / HTTP/1.0\r\n\r\n", false),
            ("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            ("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
            ("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", true),
            // Token lists: close anywhere wins.
            ("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: foo, keep-alive\r\n\r\n", true),
            // Unknown tokens fall back to the version default.
            ("GET / HTTP/1.1\r\nConnection: upgrade\r\n\r\n", true),
            ("GET / HTTP/1.0\r\nConnection: upgrade\r\n\r\n", false),
        ];
        for (raw, want) in cases {
            assert_eq!(parse(raw).unwrap().keep_alive(), want, "{raw:?}");
        }
    }

    #[test]
    fn leading_blank_lines_are_tolerated() {
        let req = parse("\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/metrics");
        // …but not without bound.
        let raw = format!("{}GET / HTTP/1.1\r\n\r\n", "\r\n".repeat(MAX_LEADING_BLANKS + 1));
        assert_eq!(parse(&raw).unwrap_err().status, 400);
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET  /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            " / HTTP/1.1\r\n\r\n",
        ] {
            let e = parse(raw).unwrap_err();
            assert_eq!(e.status, 400, "{raw:?}");
        }
    }

    #[test]
    fn rejects_bad_headers_and_lengths() {
        assert_eq!(parse("GET / HTTP/1.1\r\nnocolon\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err().status,
            400
        );
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(parse(&huge).unwrap_err().status, 413);
    }

    #[test]
    fn rejects_whitespace_before_header_colon() {
        // RFC 9112 §5.1: `Content-Length : 5` must be 400, not silently
        // re-trimmed into a length a downstream parser may disagree on.
        for raw in [
            "POST / HTTP/1.1\r\nContent-Length : 2\r\n\r\nok",
            "POST / HTTP/1.1\r\nContent-Length\t: 2\r\n\r\nok",
            "POST / HTTP/1.1\r\n Content-Length: 2\r\n\r\nok", // obs-fold shape
            "GET / HTTP/1.1\r\nx y: z\r\n\r\n",
        ] {
            let e = parse(raw).unwrap_err();
            assert_eq!(e.status, 400, "{raw:?}");
            assert!(e.message.contains("header"), "{raw:?}: {}", e.message);
        }
    }

    #[test]
    fn rejects_transfer_encoding_outright() {
        // An unconsumed chunked body would be replayed as the next
        // request's head under keep-alive.
        for te in ["chunked", "identity", "gzip"] {
            let raw = format!("POST / HTTP/1.1\r\nTransfer-Encoding: {te}\r\n\r\n");
            let e = parse(&raw).unwrap_err();
            assert_eq!(e.status, 400, "Transfer-Encoding: {te}");
            assert!(e.message.contains("transfer-encoding"), "{}", e.message);
        }
        // Even alongside a Content-Length (the classic TE.CL smuggle).
        let e = parse(
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nok",
        )
        .unwrap_err();
        assert_eq!(e.status, 400);
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        // Two different framings of the same body: a smuggling probe.
        let e = parse(
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 11\r\n\r\nok",
        )
        .unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.contains("conflicting"), "{}", e.message);
    }

    #[test]
    fn tolerates_repeated_identical_content_lengths() {
        // RFC 9110 §8.6: identical repeated values may be accepted.
        let req = parse(
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok",
        )
        .unwrap();
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn rejects_signed_content_lengths() {
        // usize::from_str accepts "+2"; header framing must not.
        for v in ["+2", "-2", " +2", "2 2", "0x2", "2.0"] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {v}\r\n\r\nok");
            let e = parse(&raw).unwrap_err();
            assert_eq!(e.status, 400, "value {v:?} must be rejected");
        }
    }

    #[test]
    fn fuzz_regression_bare_cr_in_head_is_400() {
        // Found by the structured HTTP fuzzer (CRLF games): an interior
        // bare CR survived into the parsed header value (and a trailing
        // run of CRs was silently stripped), so `val\rX-Smuggled: y` was
        // one header to this parser and two to any CR-tolerant parser
        // downstream. RFC 9112 §2.2: bare CR must be rejected.
        for raw in [
            "GET / HTTP/1.1\r\nx: val\rX-Smuggled: y\r\n\r\n",
            "GET / HTTP/1.1\r\r\n\r\n",
            "GET / HTTP/1.1\r\nx: y\r\r\n\r\n",
            "GET \r/ HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1\r\nx: a\u{0}b\r\n\r\n", // NUL is just as toxic
        ] {
            let e = parse(raw).unwrap_err();
            assert_eq!(e.status, 400, "{raw:?}");
            assert!(e.message.contains("control byte"), "{raw:?}: {}", e.message);
        }
        // Tabs are legal OWS inside header values, not control noise.
        let req = parse("GET / HTTP/1.1\r\nx: a\tb\r\n\r\n").unwrap();
        assert_eq!(req.header("x"), Some("a\tb"));
    }

    #[test]
    fn fuzz_regression_repeated_connection_headers_combine() {
        // Found by the protocol-object fuzzer: `keep_alive()` consulted
        // only the *first* Connection field line, so `Connection:
        // keep-alive` + `Connection: close` kept a connection the peer
        // asked to close. RFC 9110 §5.3: repeated field lines combine.
        let cases = [
            ("GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close\r\n\r\n", false),
            ("GET / HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: foo\r\nConnection: keep-alive\r\n\r\n", true),
            ("GET / HTTP/1.0\r\nConnection: keep-alive\r\nConnection: Close\r\n\r\n", false),
        ];
        for (raw, want) in cases {
            assert_eq!(parse(raw).unwrap().keep_alive(), want, "{raw:?}");
        }
    }

    #[test]
    fn fuzz_regression_content_length_overflow_is_413_not_400() {
        // Found by the Content-Length corruption mutator: a digits-only
        // value too large for the native integer fell out of
        // `parse::<usize>()` as "malformed" (400). It is well-formed and
        // huge — the same class as MAX_BODY_BYTES + 1, which already
        // answered 413 — and on a 32-bit target the old path reclassified
        // lengths a 64-bit peer parses fine.
        for v in [
            "18446744073709551616",                     // 2^64
            "99999999999999999999999999999999999999",   // > u128 parse width
            &format!("{}", u64::MAX),
        ] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {v}\r\n\r\n");
            let e = parse(&raw).unwrap_err();
            assert_eq!(e.status, 413, "value {v:?}: {}", e.message);
        }
    }

    #[test]
    fn fuzz_regression_unicode_whitespace_is_not_ows() {
        // Found by the header-splice mutator: `str::trim` stripped any
        // Unicode White_Space from header values, so "\u{a0}5" became a
        // framing length this parser accepted and byte-exact parsers
        // reject. Only SP and HTAB are OWS (RFC 9110 §5.6.3).
        let raw = "POST / HTTP/1.1\r\nContent-Length:\u{a0}5\r\n\r\nhello";
        let e = parse(raw).unwrap_err();
        assert_eq!(e.status, 400, "{}", e.message);
        // NBSP inside a non-framing value is preserved, not trimmed.
        let req = parse("GET / HTTP/1.1\r\nx: \u{a0}y\r\n\r\n").unwrap();
        assert_eq!(req.header("x"), Some("\u{a0}y"));
    }

    #[test]
    fn rejects_oversized_head() {
        let raw = format!(
            "GET / HTTP/1.1\r\nx-pad: {}\r\nx: y\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(parse(&raw).unwrap_err().status, 413);
    }

    #[test]
    fn header_line_exactly_at_the_limit_is_413_not_split() {
        // One header line of exactly MAX_HEAD_BYTES bytes including its
        // CRLF: a complete line, but the head is over budget — 413.
        let req_line = "GET / HTTP/1.1\r\n";
        let pad = MAX_HEAD_BYTES - "x-pad: ".len() - 2; // 2 = CRLF
        let raw = format!("{req_line}x-pad: {}\r\n\r\n", "a".repeat(pad));
        let e = parse(&raw).unwrap_err();
        assert_eq!(e.status, 413, "{}", e.message);
    }

    #[test]
    fn header_line_past_the_limit_is_413_not_two_headers() {
        // A single unterminated line longer than the per-line cap used to
        // be silently split in two, with the tail parsed as a separate
        // header. It must be one 413, never two headers.
        let raw = format!(
            "GET / HTTP/1.1\r\nx-pad: {}\r\nx-smuggled: y\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES + 10)
        );
        let e = parse(&raw).unwrap_err();
        assert_eq!(e.status, 413, "{}", e.message);
        assert!(e.message.contains("too long"), "{}", e.message);
    }

    #[test]
    fn overlong_request_line_is_413() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES + 10));
        let e = parse(&raw).unwrap_err();
        assert_eq!(e.status, 413);
    }

    #[test]
    fn clean_eof_before_any_byte_is_idle() {
        assert!(matches!(read(b""), Err(ReadError::Idle)));
    }

    #[test]
    fn eof_mid_head_is_an_io_error() {
        for raw in [&b"GET / HT"[..], b"GET / HTTP/1.1\r\nHost: x"] {
            assert!(matches!(read(raw), Err(ReadError::Io(_))), "{raw:?}");
        }
    }

    #[test]
    fn truncated_request_is_an_io_error() {
        let r = read(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert!(matches!(r, Err(ReadError::Io(_))));
    }

    #[test]
    fn tick_runs_before_every_read_and_a_clean_parse_is_unaffected() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut calls = 0usize;
        let mut tick = || {
            calls += 1;
            Ok(())
        };
        let req = read_request_with(&mut BufReader::new(Cursor::new(raw.to_vec())), &mut tick)
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
        // One tick per head line (request line, one header, the blank)
        // plus at least one for the body.
        assert!(calls >= 4, "tick ran {calls} times");
    }

    #[test]
    fn tick_abort_severs_a_trickled_head() {
        // A deadline hook that fails on its first consultation: the read
        // must abort as an I/O error before parsing anything.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut tick =
            || Err(io::Error::new(io::ErrorKind::TimedOut, "deadline exceeded during read"));
        let r = read_request_with(&mut BufReader::new(Cursor::new(raw.to_vec())), &mut tick);
        match r {
            Err(ReadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected an I/O abort, got {other:?}"),
        }
    }

    #[test]
    fn tick_abort_severs_a_trickled_body() {
        // Head parses under budget (ticks 1–3: request line, header,
        // blank line), then the deadline passes before the body read.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut calls = 0usize;
        let mut tick = || {
            calls += 1;
            if calls >= 4 {
                Err(io::Error::new(io::ErrorKind::TimedOut, "deadline exceeded during read"))
            } else {
                Ok(())
            }
        };
        let r = read_request_with(&mut BufReader::new(Cursor::new(raw.to_vec())), &mut tick);
        assert!(matches!(r, Err(ReadError::Io(_))), "body read must abort, got {r:?}");
    }

    #[test]
    fn response_framing_is_exact() {
        let mut out = Vec::new();
        write_json_response_conn(&mut out, 503, "{\"error\":\"busy\"}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"busy\"}"));
    }

    #[test]
    fn keep_alive_response_announces_disposition() {
        let mut out = Vec::new();
        write_json_response_conn(&mut out, 200, "{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Connection: close"));
    }

    #[test]
    fn path_segments_canonicalize_slashes() {
        assert_eq!(path_segments("/session/s-1/frame"), vec!["session", "s-1", "frame"]);
        assert_eq!(path_segments("/session//s-1/"), vec!["session", "s-1"]);
        assert_eq!(path_segments("/"), Vec::<&str>::new());
        assert_eq!(path_segments(""), Vec::<&str>::new());
        assert_eq!(path_segments("evaluate"), vec!["evaluate"]);
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        // Two requests in one byte stream: after the first is read, the
        // reader must sit exactly at the head of the second.
        let raw = b"POST /evaluate HTTP/1.1\r\nContent-Length: 2\r\n\r\nokGET /metrics HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(Cursor::new(raw.to_vec()));
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!((first.method.as_str(), first.body.as_slice()), ("POST", &b"ok"[..]));
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!((second.method.as_str(), second.path.as_str()), ("GET", "/metrics"));
        assert!(matches!(read_request(&mut reader), Err(ReadError::Idle)));
    }
}
