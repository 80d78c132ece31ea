//! The benchmark's HTTP/1.1 client: one request in flight per connection,
//! never pipelined, with each request split into the spans a socket sees
//! (connect, send, time to first byte, read).
//!
//! `gatherd::client` always sends `Connection: close`, so it cannot
//! measure a keep-alive hit; [`KeepAlive`] reuses one connection, and
//! [`one_shot`] opens a new one per request and reads to EOF, so the
//! server closes first and the client's ephemeral port is not parked in
//! TIME_WAIT.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Where one request's time went, as the client saw it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    pub connect: Duration,
    pub send: Duration,
    pub ttfb: Duration,
    pub read: Duration,
}

impl Spans {
    pub fn total(&self) -> Duration {
        self.connect + self.send + self.ttfb + self.read
    }
}

#[derive(Clone, Debug)]
pub struct Reply {
    pub status: u16,
    /// The `X-Gatherd-Cache` verdict, when the server gave one.
    pub cache: Option<String>,
    pub body: String,
    /// `false` when the server announced `Connection: close`.
    pub keep_alive: bool,
    pub spans: Spans,
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

/// Send one request on `stream` and read its whole response. With
/// `close`, the request asks the server to close and the body is read to
/// EOF.
fn exchange(
    stream: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    close: bool,
    spans: &mut Spans,
) -> io::Result<Reply> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    );
    let t = Instant::now();
    stream.write_all(request.as_bytes())?;
    spans.send = t.elapsed();

    let eof = || {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        )
    };
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let t = Instant::now();
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(eof());
    }
    raw.extend_from_slice(&chunk[..n]);
    spans.ttfb = t.elapsed();

    let t = Instant::now();
    let head_end = loop {
        if let Some(i) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(eof());
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| io::Error::other("non-utf8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other("bad status line"))?;
    let (mut length, mut cache, mut keep_alive) = (None, None, true);
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("x-gatherd-cache") {
            cache = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| io::Error::other("response without Content-Length"))?;
    let want = head_end + 4 + length;
    while raw.len() < want {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(eof());
        }
        raw.extend_from_slice(&chunk[..n]);
    }
    if close {
        // Wait for the server's FIN so the server side closes first.
        stream.read_to_end(&mut raw)?;
    }
    if raw.len() != want {
        return Err(io::Error::other("bytes beyond the response"));
    }
    spans.read = t.elapsed();
    let body = String::from_utf8(raw[head_end + 4..].to_vec())
        .map_err(|_| io::Error::other("non-utf8 response body"))?;
    Ok(Reply {
        status,
        cache,
        body,
        keep_alive,
        spans: *spans,
    })
}

/// One request on a fresh connection (`Connection: close`).
pub fn one_shot(addr: &str, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let mut spans = Spans::default();
    let t = Instant::now();
    let mut stream = connect(addr)?;
    spans.connect = t.elapsed();
    exchange(&mut stream, addr, method, path, body, true, &mut spans)
}

/// A sequential keep-alive client: connects on first use and after the
/// server closes, otherwise reuses its connection.
pub struct KeepAlive {
    addr: String,
    stream: Option<TcpStream>,
    /// Connections opened so far (1 for a healthy run).
    pub connects: u64,
}

impl KeepAlive {
    pub fn new(addr: &str) -> KeepAlive {
        KeepAlive {
            addr: addr.to_string(),
            stream: None,
            connects: 0,
        }
    }

    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        let mut spans = Spans::default();
        if self.stream.is_none() {
            let t = Instant::now();
            self.stream = Some(connect(&self.addr)?);
            spans.connect = t.elapsed();
            self.connects += 1;
        }
        let stream = self.stream.as_mut().expect("connected above");
        let reply = exchange(stream, &self.addr, method, path, body, false, &mut spans);
        if !matches!(&reply, Ok(r) if r.keep_alive) {
            self.stream = None;
        }
        reply
    }

    /// Close the connection, so the server need not wait out its idle
    /// read timeout on it when shutting down.
    pub fn close(&mut self) {
        self.stream = None;
    }
}
