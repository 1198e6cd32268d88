//! A keep-alive HTTP/1.1 client that behaves like a real one: requests go
//! out in a single write with `TCP_NODELAY` set (as curl does), the
//! connection is reused until the server closes it, and each request is
//! timed on the monotonic clock from its first byte written to the last
//! byte of its response read.
//!
//! `dr_serve::client::Connection` is not used: it writes the request head
//! and body in separate writes, which adds a Nagle/delayed-ACK stall of
//! its own (about 88 ms p50 instead of about 44 ms on `nobel_serve`) that
//! no real client pays.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One response, fully read.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// First request byte written → last response byte read.
    pub latency: Duration,
}

/// A persistent connection that reopens itself after the server closes it
/// (`connection: close`, e.g. at the per-connection request cap).
pub struct Conn {
    addr: SocketAddr,
    io: Option<(TcpStream, BufReader<TcpStream>)>,
    request: Vec<u8>,
    /// TCP connections opened so far.
    pub opened: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            io: None,
            request: Vec::new(),
            opened: 0,
        }
    }

    fn stream(&mut self) -> std::io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.io.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.opened += 1;
            self.io = Some((stream, reader));
        }
        Ok(self.io.as_mut().expect("connection was just opened"))
    }

    /// Sends one request and reads its whole response. An `Err` drops the
    /// connection; the next call reconnects.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<Reply> {
        self.request.clear();
        write!(
            self.request,
            "{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: {content_type}\r\n\
             content-length: {}\r\nconnection: keep-alive\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        let request = std::mem::take(&mut self.request);
        let result = (|| {
            let (stream, reader) = self.stream()?;
            let started = Instant::now();
            stream.write_all(&request)?;
            let (status, close, body) = read_response(reader)?;
            Ok((
                Reply {
                    status,
                    body,
                    latency: started.elapsed(),
                },
                close,
            ))
        })();
        self.request = request;
        match result {
            Ok((reply, close)) => {
                if close {
                    self.io = None;
                }
                Ok(reply)
            }
            Err(e) => {
                self.io = None;
                Err(e)
            }
        }
    }
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Reads one framed response: status, whether the server will close the
/// connection, and the de-chunked body.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, bool, Vec<u8>)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
    let mut chunked = false;
    let mut close = false;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed mid-headers".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            "content-length" => {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| invalid(format!("bad content-length {value:?}")))?,
                )
            }
            _ => {}
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size_field = line.trim_end().split(';').next().unwrap_or_default();
            let size = usize::from_str_radix(size_field.trim(), 16)
                .map_err(|_| invalid(format!("bad chunk size {line:?}")))?;
            if size == 0 {
                // Trailer section: ends with an empty line.
                loop {
                    line.clear();
                    if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
                        break;
                    }
                }
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            reader.read_exact(&mut body[start..])?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
            if &crlf != b"\r\n" {
                return Err(invalid("chunk not terminated by CRLF".into()));
            }
        }
    } else if let Some(len) = length {
        body.resize(len, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
        close = true;
    }
    Ok((status, close, body))
}
