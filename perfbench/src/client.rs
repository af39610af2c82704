//! A blocking HTTP/1.1 client over one keep-alive connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status and body text.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// A keep-alive connection that counts the bytes it moves.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Request bytes written so far.
    pub sent: u64,
    /// Response bytes read so far.
    pub received: u64,
}

impl HttpClient {
    /// Connects with Nagle off and a 30 s read timeout.
    ///
    /// # Errors
    /// The connect or socket-option error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            sent: 0,
            received: 0,
        })
    }

    /// One round trip.
    ///
    /// # Errors
    /// I/O errors, a closed connection, or an unframed response.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        self.sent += request.len() as u64;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())
                    .flatten()
            })
            .ok_or_else(|| bad("response without content-length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        self.received += (head_end + length) as u64;
        let body = String::from_utf8(self.buf[head_end..head_end + length].to_vec())
            .map_err(|_| bad("non-UTF-8 body"))?;
        Ok(Reply { status, body })
    }
}
