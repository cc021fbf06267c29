//! A minimal, strict HTTP/1.1 layer on `std::io` — just enough protocol
//! for the campaign API, with hard limits instead of panics.
//!
//! Connections are persistent by default (HTTP/1.1 keep-alive): a
//! request carries a [`Request::close`] flag decoded from its
//! `Connection` header (and the HTTP/1.0 default), and the response
//! writer echoes the matching `connection:` header so both sides agree
//! on reuse. Requests are parsed defensively — an oversized line, a
//! missing `Content-Length`, a stray control byte all become a typed
//! [`HttpError`] that the server maps to a 4xx response; nothing in this
//! module can panic on wire input.

use std::io::{self, BufRead, Write};

/// Longest accepted request line or header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most header lines accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes (campaign creation bodies are
/// a few hundred bytes; this is pure headroom).
pub const MAX_BODY: usize = 1024 * 1024;

/// Why a request could not be parsed (maps to a 4xx).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The connection died mid-request.
    Io(String),
    /// The request violates the supported HTTP subset.
    Malformed(String),
    /// A line or the body exceeds the fixed limits.
    TooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(msg) => write!(f, "i/o error: {msg}"),
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge(msg) => write!(f, "request too large: {msg}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed request: method, decoded path segments and query pairs, and
/// the raw body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercase as sent).
    pub method: String,
    /// The path, percent-decoded, always starting with `/`.
    pub path: String,
    /// Decoded `key=value` query pairs, in order.
    pub query: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection must close after this request
    /// (`Connection: close`, or HTTP/1.0 without
    /// `Connection: keep-alive`).
    pub close: bool,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Whether the caller asked for indented JSON (`?pretty=1`).
    pub fn wants_pretty(&self) -> bool {
        matches!(self.query_value("pretty"), Some("1") | Some("true"))
    }
}

/// Reads one request from the stream. `Ok(None)` means the peer closed
/// the connection cleanly before sending anything.
pub fn read_request<R: BufRead>(stream: &mut R) -> Result<Option<Request>, HttpError> {
    let line = match read_line(stream)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::Malformed(format!("bad request line {line:?}"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }

    let mut content_length: usize = 0;
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut close = version == "HTTP/1.0";
    for _ in 0..MAX_HEADERS {
        let header = read_line(stream)?
            .ok_or_else(|| HttpError::Io("connection closed inside headers".into()))?;
        if header.is_empty() {
            let body = read_body(stream, content_length)?;
            return parse_target(method, target, body, close).map(Some);
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Malformed(format!("header without colon: {header:?}")));
        };
        if name.eq_ignore_ascii_case("connection") {
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        }
        if name.eq_ignore_ascii_case("content-length") {
            let n: usize = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?;
            if n > MAX_BODY {
                return Err(HttpError::TooLarge(format!("body of {n} bytes (max {MAX_BODY})")));
            }
            content_length = n;
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed("chunked bodies are not supported".into()));
        }
    }
    Err(HttpError::TooLarge(format!("more than {MAX_HEADERS} header lines")))
}

fn read_body<R: BufRead>(stream: &mut R, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; len];
    if len > 0 {
        io::Read::read_exact(stream, &mut body)
            .map_err(|e| HttpError::Io(format!("reading body: {e}")))?;
    }
    Ok(body)
}

/// Reads one CRLF- (or LF-) terminated line; `None` on immediate EOF.
fn read_line<R: BufRead>(stream: &mut R) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 1];
    loop {
        match io::Read::read(stream, &mut chunk) {
            Ok(0) => {
                if raw.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Io("connection closed mid-line".into()));
            }
            Ok(_) => {
                if chunk[0] == b'\n' {
                    if raw.last() == Some(&b'\r') {
                        raw.pop();
                    }
                    let text = String::from_utf8(raw)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()))?;
                    return Ok(Some(text));
                }
                raw.push(chunk[0]);
                if raw.len() > MAX_LINE {
                    return Err(HttpError::TooLarge(format!("line beyond {MAX_LINE} bytes")));
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
}

fn parse_target(
    method: &str,
    target: &str,
    body: Vec<u8>,
    close: bool,
) -> Result<Request, HttpError> {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if !raw_path.starts_with('/') {
        return Err(HttpError::Malformed(format!("path {raw_path:?} must start with '/'")));
    }
    let path = percent_decode(raw_path)?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k)?, percent_decode(v)?));
        }
    }
    Ok(Request { method: method.to_owned(), path, query, body, close })
}

/// Decodes `%XX` escapes and `+`-as-space; rejects truncated escapes and
/// embedded NULs rather than guessing.
fn percent_decode(raw: &str) -> Result<String, HttpError> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| {
                        HttpError::Malformed(format!("bad percent escape in {raw:?}"))
                    })?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    if out.contains(&0) {
        return Err(HttpError::Malformed("NUL byte in request target".into()));
    }
    String::from_utf8(out)
        .map_err(|_| HttpError::Malformed(format!("non-UTF-8 request target {raw:?}")))
}

/// Standard reason phrase for the status codes the server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response and flushes. `keep_alive` decides
/// the `connection:` header — echo the request's [`Request::close`]
/// negation so both sides agree on reuse.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write_response_typed(stream, status, "application/json", body, keep_alive)
}

/// [`write_response`] with an explicit `Content-Type` — `/metrics`
/// answers Prometheus text exposition, not JSON.
///
/// The whole message goes to `stream` in one `write_all`, so on a
/// socket it leaves in one `write(2)`: with `TCP_NODELAY` on, each
/// separate write would be its own segment and its own reader wake-up.
pub fn write_response_typed<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut message = Vec::with_capacity(128 + body.len());
    write!(
        message,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason_phrase(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )?;
    message.extend_from_slice(body.as_bytes());
    stream.write_all(&message)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse("GET /campaigns/c0/next?worker=w%201&pretty=1 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/campaigns/c0/next");
        assert_eq!(req.query_value("worker"), Some("w 1"));
        assert!(req.wants_pretty());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse("POST /campaigns HTTP/1.1\r\nContent-Length: 7\r\nHost: x\r\n\r\n{\"a\":1}")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for (raw, what) in [
            ("BLAH\r\n\r\n", "one-token request line"),
            ("GET /x HTTP/2.0\r\n\r\n", "unsupported version"),
            ("GET x HTTP/1.1\r\n\r\n", "relative path"),
            ("GET /x HTTP/1.1\r\nbadheader\r\n\r\n", "colonless header"),
            ("GET /%zz HTTP/1.1\r\n\r\n", "bad escape"),
            ("POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n", "non-numeric length"),
            ("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", "chunked"),
        ] {
            assert!(parse(raw).is_err(), "{what}: {raw:?} should fail to parse");
        }
    }

    #[test]
    fn oversized_inputs_are_rejected() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 1));
        assert!(matches!(parse(&long), Err(HttpError::TooLarge(_))));
        let big = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(parse(&big), Err(HttpError::TooLarge(_))));
        let many = format!("GET /x HTTP/1.1\r\n{}\r\n", "h: v\r\n".repeat(MAX_HEADERS + 1));
        assert!(matches!(parse(&many), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(parse(raw), Err(HttpError::Io(_))));
    }

    #[test]
    fn responses_have_the_right_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 409, "{\"error\":{}}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 409 Conflict\r\n"), "{text}");
        assert!(text.contains("content-length: 12\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"error\":{}}"), "{text}");

        let mut out = Vec::new();
        write_response(&mut out, 200, "{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
    }

    /// A sink that records every `write` call separately.
    #[derive(Default)]
    struct CountingWrite {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_one_write_of_the_same_bytes() {
        let mut sink = CountingWrite::default();
        write_response(&mut sink, 409, "{\"error\":{}}", false).unwrap();
        assert_eq!(sink.writes.len(), 1, "head and body must leave in one write");
        assert_eq!(
            sink.writes[0],
            b"HTTP/1.1 409 Conflict\r\ncontent-type: application/json\r\ncontent-length: 12\r\nconnection: close\r\n\r\n{\"error\":{}}"
        );

        let mut sink = CountingWrite::default();
        write_response_typed(&mut sink, 200, "text/plain; version=0.0.4", "up 1\n", true).unwrap();
        assert_eq!(sink.writes.len(), 1, "head and body must leave in one write");
        assert_eq!(
            sink.writes[0],
            b"HTTP/1.1 200 OK\r\ncontent-type: text/plain; version=0.0.4\r\ncontent-length: 5\r\nconnection: keep-alive\r\n\r\nup 1\n"
        );

        // An empty body is still one write, not a head plus a no-op.
        let mut sink = CountingWrite::default();
        write_response(&mut sink, 200, "", true).unwrap();
        assert_eq!(sink.writes.len(), 1);
        assert!(sink.writes[0].ends_with(b"content-length: 0\r\nconnection: keep-alive\r\n\r\n"));
    }

    #[test]
    fn connection_reuse_follows_version_and_header() {
        for (raw, close, what) in [
            ("GET /x HTTP/1.1\r\n\r\n", false, "1.1 defaults to keep-alive"),
            ("GET /x HTTP/1.0\r\n\r\n", true, "1.0 defaults to close"),
            ("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n", true, "explicit close"),
            ("GET /x HTTP/1.1\r\nCONNECTION: Close\r\n\r\n", true, "case-insensitive close"),
            ("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", false, "1.0 opt-in"),
        ] {
            let req = parse(raw).unwrap().unwrap();
            assert_eq!(req.close, close, "{what}: {raw:?}");
        }
    }

    #[test]
    fn requests_on_one_connection_parse_back_to_back() {
        let raw = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut stream = BufReader::new(raw.as_bytes());
        let a = read_request(&mut stream).unwrap().unwrap();
        let b = read_request(&mut stream).unwrap().unwrap();
        let c = read_request(&mut stream).unwrap().unwrap();
        assert_eq!((a.path.as_str(), a.close), ("/a", false));
        assert_eq!((b.path.as_str(), b.body.as_slice()), ("/b", &b"hi"[..]));
        assert_eq!((c.path.as_str(), c.close), ("/c", true));
        assert_eq!(read_request(&mut stream).unwrap(), None);
    }
}
