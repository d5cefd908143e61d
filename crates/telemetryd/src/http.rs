//! A hand-rolled, minimal HTTP/1.1 layer — the build environment is
//! offline, so there is no async runtime or HTTP crate to lean on. The
//! server only ever answers small GET requests and closes the connection
//! after each response, which keeps this to a request-line parser and a
//! response writer. Closing is part of the contract: clients here read a
//! response to EOF rather than by its `Content-Length`, so a connection
//! kept alive would hang them. Each request holds one pool worker from
//! accept to close, under the server's I/O timeout.

use std::io::{BufRead, Read, Write};

/// The longest line the server reads: an ingest frame, a request line or a
/// header. Every frame the fleet load generator emits is a few hundred
/// bytes at most.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`read_line`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Line {
    /// The stream ended before another byte.
    Eof,
    /// A line of at most [`MAX_LINE_BYTES`], now in the buffer.
    Fits,
    /// A longer line, consumed through its newline but not kept.
    TooLong,
}

/// Read one `\n`-terminated line (the last may lack it) into `line`, newline
/// included, holding at most [`MAX_LINE_BYTES`] of it in memory.
pub fn read_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<Line> {
    line.clear();
    let cap = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(cap).read_until(b'\n', line)? == 0 {
        return Ok(Line::Eof);
    }
    if line.len() <= MAX_LINE_BYTES || line.ends_with(b"\n") {
        return Ok(Line::Fits);
    }
    line.clear();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(Line::TooLong);
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                return Ok(Line::TooLong);
            }
            None => {
                let n = buf.len();
                reader.consume(n);
            }
        }
    }
}

fn invalid(why: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why)
}

/// The parsed request line (headers are drained and discarded — no
/// endpoint needs them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, e.g. `GET`.
    pub method: String,
    /// The request target, e.g. `/query/topk?k=5`.
    pub path: String,
}

impl Request {
    /// The path without its query string.
    pub fn route(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }

    /// The value of query parameter `key`, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        let qs = self.path.split_once('?')?.1;
        qs.split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Read one HTTP request head off `reader`: parse the request line, drain
/// headers to the blank line. `Ok(None)` means the peer closed before
/// sending anything. A request line or header longer than
/// [`MAX_LINE_BYTES`] is an error.
pub fn read_request(reader: &mut impl BufRead) -> std::io::Result<Option<Request>> {
    let mut line = Vec::new();
    match read_line(reader, &mut line)? {
        Line::Eof => return Ok(None),
        Line::TooLong => return Err(invalid("request line too long".into())),
        Line::Fits => {}
    }
    let text = String::from_utf8_lossy(&line);
    let mut parts = text.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Err(invalid(format!("malformed request line: {text:?}"))),
    };
    loop {
        match read_line(reader, &mut line)? {
            Line::Eof => break,
            Line::TooLong => return Err(invalid("header too long".into())),
            Line::Fits if line == b"\r\n" || line == b"\n" => break,
            Line::Fits => {}
        }
    }
    Ok(Some(Request { method, path }))
}

/// Write a complete HTTP/1.1 response and flush. Always `Connection:
/// close` — the load is scrape- and query-shaped, and its clients read to
/// EOF.
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// JSON content type for the query endpoints.
pub const APPLICATION_JSON: &str = "application/json";
/// The Prometheus text exposition content type for `GET /metrics`.
pub const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_request_line_and_query_params() {
        let raw = b"GET /query/topk?k=5&x=1 HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .expect("a request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.route(), "/query/topk");
        assert_eq!(req.query("k"), Some("5"));
        assert_eq!(req.query("x"), Some("1"));
        assert_eq!(req.query("missing"), None);

        let plain = Request {
            method: "GET".into(),
            path: "/metrics".into(),
        };
        assert_eq!(plain.route(), "/metrics");
        assert_eq!(plain.query("k"), None);
    }

    #[test]
    fn empty_stream_is_a_clean_none() {
        let raw: &[u8] = b"";
        assert!(read_request(&mut BufReader::new(raw)).unwrap().is_none());
    }

    #[test]
    fn responses_carry_content_length_and_close() {
        let mut out = Vec::new();
        respond(&mut out, 200, "OK", APPLICATION_JSON, "{\"ok\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}
