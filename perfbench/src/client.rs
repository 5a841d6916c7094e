//! A keep-alive HTTP/1.1 client with `Content-Length` framing.
//!
//! The load generator needs exactly one thing from HTTP: send a request
//! in one write, then read one response whose body length the header
//! states. Chunked responses are refused (the endpoints driven here
//! never stream).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body accepted (a `/metrics` scrape is a few KiB).
const MAX_BODY: usize = 64 << 20;

/// Status and connection disposition of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    /// HTTP status code.
    pub status: u16,
    /// Whether the server keeps the connection open.
    pub keep_alive: bool,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Renders one request into `buf` (cleared first) so it goes out in a
/// single write.
pub fn encode_request(buf: &mut Vec<u8>, method: &str, target: &str, body: &str) {
    buf.clear();
    let _ = write!(buf, "{method} {target} HTTP/1.1\r\nHost: bench\r\n");
    if !body.is_empty() || method == "POST" {
        let _ = write!(buf, "Content-Type: application/json\r\nContent-Length: {}\r\n", body.len());
    }
    buf.extend_from_slice(b"\r\n");
    buf.extend_from_slice(body.as_bytes());
}

/// Reads one response from `r`: status line, headers, and exactly
/// `Content-Length` body bytes into `body` (cleared first).
pub fn read_response<R: BufRead>(r: &mut R, body: &mut Vec<u8>) -> io::Result<Head> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status_line = line.trim_end();
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(invalid(format!("bad status line {status_line:?}")));
    }
    let mut keep_alive = version == "HTTP/1.1";
    let mut length: Option<usize> = None;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed mid-headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) =
            header.split_once(':').ok_or_else(|| invalid(format!("bad header {header:?}")))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n: usize =
                value.parse().map_err(|_| invalid(format!("bad Content-Length {value:?}")))?;
            if n > MAX_BODY {
                return Err(invalid("response body too large"));
            }
            length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(invalid("chunked responses are not expected"));
        }
    }
    let n = length.ok_or_else(|| invalid("response without Content-Length"))?;
    body.clear();
    body.resize(n, 0);
    r.read_exact(body)?;
    Ok(Head { status, keep_alive })
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    /// Connects to `addr`. The client sets `TCP_NODELAY` and sends each
    /// request in one write, so any stall measured is the server's.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        Ok(Self { reader: BufReader::with_capacity(64 << 10, stream), writer, out: Vec::new() })
    }

    /// Sends one request and reads its response body into `body`.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        req_body: &str,
        body: &mut Vec<u8>,
    ) -> io::Result<Head> {
        encode_request(&mut self.out, method, target, req_body);
        self.writer.write_all(&self.out)?;
        read_response(&mut self.reader, body)
    }
}
