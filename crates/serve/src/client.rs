//! A minimal HTTP client for the campaign API — what `rempctl drive`,
//! the tests and remote tooling use to talk to `rempd`.
//!
//! The client keeps its TCP connection open across calls (HTTP/1.1
//! keep-alive) and reconnects transparently when the server has idle-
//! closed it between requests. JSON in and out, with API errors
//! surfaced as typed [`ClientError::Api`] values carrying the server's
//! status and error code. Clones share the reuse counter but each get
//! their own cached connection, so a clone per thread is the natural
//! way to fan out.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use remp_json::Json;

/// Largest accepted response head (status line + headers), in bytes.
const MAX_RESPONSE_HEAD: usize = 16 * 1024;

/// Why a client call failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientError {
    /// Could not reach the server or the connection broke.
    Io(String),
    /// The response violated the protocol (not HTTP, not JSON, ...).
    Protocol(String),
    /// The server answered with a non-2xx API error.
    Api {
        /// HTTP status.
        status: u16,
        /// Machine-readable error code.
        code: String,
        /// Human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "connection error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Api { status, code, message } => {
                write!(f, "server error {status} ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// The API error code, if this is an API error.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Api { code, .. } => Some(code),
            _ => None,
        }
    }

    /// The HTTP status, if this is an API error.
    pub fn status(&self) -> Option<u16> {
        match self {
            ClientError::Api { status, .. } => Some(*status),
            _ => None,
        }
    }
}

/// How an attempt on one connection failed — a retryable failure means
/// the request can safely be replayed on a fresh connection because no
/// response byte was received (the server closed an idle keep-alive
/// connection before reading the request).
enum ExchangeError {
    Retryable(String),
    Fatal(ClientError),
}

/// A campaign-API client bound to one server address.
///
/// Every request asks for keep-alive. The client gives a connection up
/// only when the server answers `connection: close`, sends a response
/// without a length, or closes it while idle.
pub struct ServeClient {
    addr: String,
    conn: Mutex<Option<BufReader<TcpStream>>>,
    reused: Arc<AtomicU64>,
}

impl Clone for ServeClient {
    fn clone(&self) -> ServeClient {
        // Each clone gets its own cached connection (a TCP stream can't
        // be shared across concurrent requests) but shares the reuse
        // counter, so per-process totals stay meaningful.
        ServeClient {
            addr: self.addr.clone(),
            conn: Mutex::new(None),
            reused: Arc::clone(&self.reused),
        }
    }
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl ServeClient {
    /// Accepts `host:port` or `http://host:port`.
    pub fn new(addr: impl Into<String>) -> ServeClient {
        let addr = addr.into();
        let addr = addr.strip_prefix("http://").unwrap_or(&addr).trim_end_matches('/').to_owned();
        ServeClient { addr, conn: Mutex::new(None), reused: Arc::new(AtomicU64::new(0)) }
    }

    /// The `host:port` this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many requests (across this client and its clones) were
    /// served on an already-established connection.
    pub fn reuse_count(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// `GET path`, expecting a 2xx JSON response.
    pub fn get(&self, path: &str) -> Result<Json, ClientError> {
        self.request("GET", path, None).and_then(expect_ok)
    }

    /// `POST path` with a JSON body, expecting a 2xx JSON response.
    pub fn post(&self, path: &str, body: &Json) -> Result<Json, ClientError> {
        self.request("POST", path, Some(body)).and_then(expect_ok)
    }

    /// Raw request: returns `(status, parsed body)` without turning
    /// non-2xx into an error (the malformed-input tests need this).
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Json), ClientError> {
        let body = body.map(|b| b.to_string());
        self.request_raw(method, path, body.as_deref().map(str::as_bytes))
    }

    /// `GET path` returning `(status, raw body text)` with no JSON
    /// parsing — `/metrics` answers Prometheus text exposition, not
    /// JSON.
    pub fn get_text(&self, path: &str) -> Result<(u16, String), ClientError> {
        let raw = self.exchange("GET", path, b"")?;
        let (status, body) = split_response(&raw)?;
        let text = std::str::from_utf8(body)
            .map_err(|_| ClientError::Protocol("non-UTF-8 response body".into()))?;
        Ok((status, text.to_owned()))
    }

    /// Like [`request`](Self::request) but with an arbitrary byte body —
    /// lets tests send deliberately broken JSON.
    pub fn request_raw(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<(u16, Json), ClientError> {
        let raw = self.exchange(method, path, body.unwrap_or(b""))?;
        parse_response(&raw)
    }

    /// One full request/response cycle, returning the raw response
    /// bytes. Tries the cached connection first; if the server closed
    /// it while idle (EOF or reset before any response byte), retries
    /// once on a fresh connection.
    fn exchange(&self, method: &str, path: &str, body: &[u8]) -> Result<Vec<u8>, ClientError> {
        let mut cached = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(mut reader) = cached.take() {
            match self.try_exchange(&mut reader, method, path, body) {
                Ok((raw, reuse)) => {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    if reuse {
                        *cached = Some(reader);
                    }
                    return Ok(raw);
                }
                Err(ExchangeError::Retryable(_)) => {} // fall through to a fresh dial
                Err(ExchangeError::Fatal(e)) => return Err(e),
            }
        }
        let stream = TcpStream::connect(&self.addr).map_err(|e| ClientError::Io(e.to_string()))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        // Each request leaves in one write; nodelay keeps Nagle from
        // ever holding one back for a delayed ACK.
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(stream);
        match self.try_exchange(&mut reader, method, path, body) {
            Ok((raw, reuse)) => {
                if reuse {
                    *cached = Some(reader);
                }
                Ok(raw)
            }
            Err(ExchangeError::Retryable(msg))
            | Err(ExchangeError::Fatal(ClientError::Io(msg))) => Err(ClientError::Io(msg)),
            Err(ExchangeError::Fatal(e)) => Err(e),
        }
    }

    /// Writes one request and reads one complete response off `reader`.
    /// Returns the raw response bytes and whether the connection can be
    /// reused for the next request.
    fn try_exchange<S: Read + Write>(
        &self,
        reader: &mut BufReader<S>,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(Vec<u8>, bool), ExchangeError> {
        // Head and body in one buffer, so the request leaves in one
        // write(2).
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        let stream = reader.get_mut();
        if let Err(e) = stream.write_all(&request).and_then(|()| stream.flush()) {
            return Err(ExchangeError::Retryable(e.to_string()));
        }

        // Read the response head byte-by-byte off the buffered reader
        // until the blank line; the body length then comes from
        // `content-length`, so the connection stays positioned at the
        // next response.
        let mut raw = Vec::with_capacity(256);
        let mut byte = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            match reader.read(&mut byte) {
                Ok(0) => {
                    return Err(if raw.is_empty() {
                        ExchangeError::Retryable("connection closed before response".into())
                    } else {
                        ExchangeError::Fatal(ClientError::Io(
                            "connection closed mid-response".into(),
                        ))
                    });
                }
                Ok(_) => {
                    raw.push(byte[0]);
                    if raw.len() > MAX_RESPONSE_HEAD {
                        return Err(ExchangeError::Fatal(ClientError::Protocol(format!(
                            "response head beyond {MAX_RESPONSE_HEAD} bytes"
                        ))));
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(if raw.is_empty() {
                        ExchangeError::Retryable(e.to_string())
                    } else {
                        ExchangeError::Fatal(ClientError::Io(e.to_string()))
                    });
                }
            }
        }

        let head_text = std::str::from_utf8(&raw[..raw.len() - 4]).map_err(|_| {
            ExchangeError::Fatal(ClientError::Protocol("non-UTF-8 response head".into()))
        })?;
        let mut content_length: Option<usize> = None;
        let mut server_close = false;
        for line in head_text.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else { continue };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                server_close = true;
            }
        }
        let reuse = match content_length {
            Some(len) => {
                let mut body = vec![0u8; len];
                reader
                    .read_exact(&mut body)
                    .map_err(|e| ExchangeError::Fatal(ClientError::Io(e.to_string())))?;
                raw.extend_from_slice(&body);
                !server_close
            }
            None => {
                // No length means the body runs to EOF; the connection
                // is spent either way.
                reader
                    .read_to_end(&mut raw)
                    .map_err(|e| ExchangeError::Fatal(ClientError::Io(e.to_string())))?;
                false
            }
        };
        Ok((raw, reuse))
    }
}

fn expect_ok((status, doc): (u16, Json)) -> Result<Json, ClientError> {
    if (200..300).contains(&status) {
        return Ok(doc);
    }
    let error = doc.get("error");
    Err(ClientError::Api {
        status,
        code: error
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned(),
        message: error
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("(no message)")
            .to_owned(),
    })
}

/// Splits a raw response into `(status, body bytes)`.
fn split_response(raw: &[u8]) -> Result<(u16, &[u8]), ClientError> {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| ClientError::Protocol("response without header terminator".into()))?;
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| ClientError::Protocol("non-UTF-8 response head".into()))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line {status_line:?}")))?;
    Ok((status, &raw[header_end + 4..]))
}

fn parse_response(raw: &[u8]) -> Result<(u16, Json), ClientError> {
    let (status, body) = split_response(raw)?;
    let text = std::str::from_utf8(body)
        .map_err(|_| ClientError::Protocol("non-UTF-8 response body".into()))?;
    let doc = if text.trim().is_empty() {
        Json::Null
    } else {
        Json::parse(text)
            .map_err(|e| ClientError::Protocol(format!("response body is not JSON: {e}")))?
    };
    Ok((status, doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn addr_normalisation() {
        assert_eq!(ServeClient::new("http://127.0.0.1:80/").addr(), "127.0.0.1:80");
        assert_eq!(ServeClient::new("127.0.0.1:80").addr(), "127.0.0.1:80");
    }

    #[test]
    fn responses_parse_and_api_errors_are_typed() {
        let raw = b"HTTP/1.1 409 Conflict\r\ncontent-type: application/json\r\n\r\n{\"error\":{\"code\":\"dup\",\"message\":\"no\"}}";
        let (status, doc) = parse_response(raw).unwrap();
        assert_eq!(status, 409);
        let err = expect_ok((status, doc)).unwrap_err();
        assert_eq!(err.code(), Some("dup"));
        assert_eq!(err.status(), Some(409));

        assert!(parse_response(b"garbage").is_err());
        assert!(parse_response(b"HTTP/1.1 ??\r\n\r\n").is_err());
    }

    /// An in-memory connection: every `write` call is recorded on its
    /// own, reads come from a canned response.
    struct ScriptedConn {
        writes: Vec<Vec<u8>>,
        response: std::io::Cursor<Vec<u8>>,
    }

    impl Read for ScriptedConn {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.response.read(buf)
        }
    }

    impl Write for ScriptedConn {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_post_reaches_the_connection_as_one_write() {
        let client = ServeClient::new("127.0.0.1:8787");
        let conn = ScriptedConn {
            writes: Vec::new(),
            response: std::io::Cursor::new(
                b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{}".to_vec(),
            ),
        };
        let mut reader = BufReader::new(conn);
        let body = br#"{"worker":"w0","question":"q3","says_match":true}"#;
        let Ok((raw, reuse)) =
            client.try_exchange(&mut reader, "POST", "/campaigns/c0/answers", body)
        else {
            panic!("exchange over a scripted connection failed");
        };
        assert!(reuse);
        assert!(raw.ends_with(b"\r\n\r\n{}"));
        let writes = &reader.get_ref().writes;
        assert_eq!(writes.len(), 1, "head and body must leave in one write");
        let mut expected = format!(
            "POST /campaigns/c0/answers HTTP/1.1\r\nhost: 127.0.0.1:8787\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            body.len()
        )
        .into_bytes();
        expected.extend_from_slice(body);
        assert_eq!(writes[0], expected);
    }

    /// Serves `per_conn` canned keep-alive responses on each of `conns`
    /// accepted connections, then closes. Returns the total number of
    /// requests it saw.
    fn canned_server(
        listener: TcpListener,
        conns: usize,
        per_conn: usize,
    ) -> thread::JoinHandle<usize> {
        thread::spawn(move || {
            let mut served = 0usize;
            for _ in 0..conns {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for _ in 0..per_conn {
                    let req = crate::http::read_request(&mut reader).unwrap();
                    if req.is_none() {
                        break;
                    }
                    served += 1;
                    stream
                        .write_all(
                            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{}",
                        )
                        .unwrap();
                }
                // Dropping the stream closes the connection.
            }
            served
        })
    }

    #[test]
    fn keepalive_reuses_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = canned_server(listener, 1, 3);
        let client = ServeClient::new(addr);
        for _ in 0..3 {
            client.get("/x").unwrap();
        }
        assert_eq!(client.reuse_count(), 2, "requests 2 and 3 should reuse the connection");
        assert_eq!(server.join().unwrap(), 3);
    }

    #[test]
    fn reconnects_transparently_when_the_server_drops_an_idle_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // One response per connection: after each response the server
        // hangs up, so the client's cached connection is dead on the
        // next call and it must redial without surfacing an error.
        let server = canned_server(listener, 2, 1);
        let client = ServeClient::new(addr);
        client.get("/a").unwrap();
        client.get("/b").unwrap();
        assert_eq!(client.reuse_count(), 0, "every request needed a fresh connection");
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn clones_share_the_reuse_counter_but_not_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = canned_server(listener, 2, 2);
        let client = ServeClient::new(addr);
        let clone = client.clone();
        client.get("/a").unwrap();
        client.get("/a").unwrap();
        clone.get("/b").unwrap();
        clone.get("/b").unwrap();
        assert_eq!(client.reuse_count(), 2);
        assert_eq!(clone.reuse_count(), 2, "clones share the counter");
        assert_eq!(server.join().unwrap(), 4);
    }
}
