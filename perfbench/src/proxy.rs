//! A counting pass-through proxy for the traced run.
//!
//! It sits between an HTTP client and an edge, forwards every message
//! byte for byte, and counts what crosses it: connections accepted and
//! bytes in both directions. Optionally it keeps the first few request and
//! response bodies, so the codec can be timed on the run's real traffic.
//! Framing follows the edge's protocol (`Content-Length` bodies); a
//! connection lives as long as both peers keep it open, so keep-alive on
//! either side is mirrored, not imposed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// Worker threads forwarding connections; one per concurrent client.
const WORKERS: usize = 2;

/// What crossed the proxy.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Connections accepted from clients.
    pub connects: AtomicU64,
    /// Bytes forwarded, both directions, headers included.
    pub bytes: AtomicU64,
    /// `(request body, response body)` pairs, in completion order.
    captured: Mutex<Vec<(Vec<u8>, Vec<u8>)>>,
    capture_cap: usize,
}

impl ProxyStats {
    /// The bodies kept so far.
    pub fn take_captured(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        std::mem::take(&mut *self.captured.lock().expect("capture lock poisoned"))
    }
}

/// A running proxy; [`Proxy::shutdown`] (or drop) stops and joins it.
pub struct Proxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
    threads: Vec<JoinHandle<()>>,
}

impl Proxy {
    /// Listen on a loopback port and forward to `upstream`, keeping up to
    /// `capture_cap` body pairs.
    pub fn start(upstream: SocketAddr, capture_cap: usize) -> std::io::Result<Proxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats {
            capture_cap,
            ..ProxyStats::default()
        });
        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads: Vec<JoinHandle<()>> = (0..WORKERS)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let stats = Arc::clone(&stats);
                thread::spawn(move || worker(&rx, upstream, &stats))
            })
            .collect();
        let (accept_stop, accept_stats) = (Arc::clone(&stop), Arc::clone(&stats));
        threads.push(thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                accept_stats.connects.fetch_add(1, Ordering::Relaxed);
                if tx.send(stream).is_err() {
                    break;
                }
            }
            // Dropping `tx` here lets the workers drain and exit.
        }));
        Ok(Proxy {
            addr,
            stop,
            stats,
            threads,
        })
    }

    /// The address clients connect to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The counters.
    pub fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    /// Stop accepting, finish open connections, join every thread.
    /// Returns `false` if a proxy thread panicked.
    pub fn shutdown(&mut self) -> bool {
        if self.threads.is_empty() {
            return true;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept; the connection is never served.
        let _ = TcpStream::connect(self.addr);
        self.threads.drain(..).all(|t| t.join().is_ok())
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker(rx: &Mutex<Receiver<TcpStream>>, upstream: SocketAddr, stats: &ProxyStats) {
    loop {
        let next = rx.lock().expect("proxy queue lock poisoned").recv();
        match next {
            Ok(stream) => forward(stream, upstream, stats),
            Err(_) => return,
        }
    }
}

/// One framed HTTP message as it crossed the socket.
struct Message {
    raw: Vec<u8>,
    body_at: usize,
    close: bool,
}

/// Buffered reader that splits a byte stream into framed messages.
struct Framer {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Framer {
    fn new(stream: TcpStream) -> Framer {
        Framer {
            stream,
            buf: Vec::new(),
        }
    }

    fn fill(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n > 0)
    }

    /// The next message, or `None` on a clean EOF between messages.
    fn next(&mut self) -> std::io::Result<Option<Message>> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            if !self.fill()? {
                return if self.buf.is_empty() {
                    Ok(None)
                } else {
                    Err(std::io::ErrorKind::UnexpectedEof.into())
                };
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_ascii_lowercase();
        let mut len = 0usize;
        let mut close = false;
        for line in head.lines() {
            if let Some((name, value)) = line.split_once(':') {
                match name.trim() {
                    "content-length" => {
                        len = value.trim().parse().map_err(|_| {
                            std::io::Error::new(std::io::ErrorKind::InvalidData, "content-length")
                        })?
                    }
                    "connection" => close = value.trim() == "close",
                    _ => {}
                }
            }
        }
        while self.buf.len() < head_end + len {
            if !self.fill()? {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
        }
        let rest = self.buf.split_off(head_end + len);
        let raw = std::mem::replace(&mut self.buf, rest);
        Ok(Some(Message {
            raw,
            body_at: head_end,
            close,
        }))
    }
}

fn forward(client: TcpStream, upstream: SocketAddr, stats: &ProxyStats) {
    let _ = client.set_nodelay(true);
    let Ok(mut client_w) = client.try_clone() else {
        return;
    };
    let mut from_client = Framer::new(client);
    let mut up: Option<(TcpStream, Framer)> = None;
    while let Ok(Some(req)) = from_client.next() {
        if up.is_none() {
            let Ok(s) = TcpStream::connect(upstream) else {
                return;
            };
            let _ = s.set_nodelay(true);
            let Ok(w) = s.try_clone() else { return };
            up = Some((w, Framer::new(s)));
        }
        let (up_w, from_up) = up.as_mut().expect("connected above");
        if up_w.write_all(&req.raw).is_err() {
            return;
        }
        let Ok(Some(resp)) = from_up.next() else {
            return;
        };
        if client_w.write_all(&resp.raw).is_err() {
            return;
        }
        stats
            .bytes
            .fetch_add((req.raw.len() + resp.raw.len()) as u64, Ordering::Relaxed);
        if stats.capture_cap > 0 {
            let mut captured = stats.captured.lock().expect("capture lock poisoned");
            if captured.len() < stats.capture_cap {
                captured.push((
                    req.raw[req.body_at..].to_vec(),
                    resp.raw[resp.body_at..].to_vec(),
                ));
            }
        }
        if req.close || resp.close {
            return;
        }
    }
}
