//! The benchmark's own HTTP client and the closed-loop runner.
//!
//! The client sends each request head and body in a single `write`
//! and reads the response by `content-length`, over one keep-alive
//! connection per client thread. It deliberately differs from
//! `recdb_serve::client::Conn`, which splits its writes and so adds a
//! second Nagle/delayed-ACK wait of its own to every exchange.

use crate::workloads::{Expect, Workload};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one complete request (a single write) and reads the
    /// response: `(status, body)`.
    pub fn exchange(&mut self, raw: &[u8]) -> std::io::Result<(u16, String)> {
        self.writer.write_all(raw)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad_data("bad status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad_data("connection closed mid-head"));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| bad_data("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad_data("non-UTF-8 body"))?;
        Ok((status, body))
    }
}

fn bad_data(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The raw bytes of one keep-alive `POST`.
pub fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// How the server's result cache took part in a response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheLabel {
    /// Answered from the cache.
    Hit,
    /// Keyed, looked up, and missed.
    Miss,
    /// Cacheable, but the slice was too large to canonicalize.
    Bypass,
    /// Not cacheable, or no cache label in the body.
    Off,
}

impl CacheLabel {
    pub fn of(body: &str) -> CacheLabel {
        if body.contains("\"cache\":\"hit\"") {
            CacheLabel::Hit
        } else if body.contains("\"cache\":\"miss\"") {
            CacheLabel::Miss
        } else if body.contains("\"cache\":\"bypass\"") {
            CacheLabel::Bypass
        } else {
            CacheLabel::Off
        }
    }
}

/// One completed (or failed) exchange.
pub struct Op {
    /// Client thread index (one connection, so one server worker).
    pub client: usize,
    /// Request number within the phase, across clients (send order).
    pub id: usize,
    /// Start and end, as offsets from the phase start.
    pub start: Duration,
    /// End of the exchange (last response byte read).
    pub end: Duration,
    /// HTTP status (`0` for a transport failure).
    pub status: u16,
    /// `Some(ok)` once checked; `None` while a deferred reference
    /// check is pending.
    pub ok: Option<bool>,
    /// Cache participation, from the response.
    pub cache: CacheLabel,
    /// Rejected at admission or by the RA frontend.
    pub rejected: bool,
    /// The program holds a semi-naive-eligible `while empty` loop.
    pub eligible: bool,
    /// First use of an HS database on this connection, or a database
    /// outside the server's 64-entry registry.
    pub cold_shard: bool,
    /// An HS database's descriptor, and whether it is among the first
    /// 64 distinct ones, which the server's registry pins.
    pub hs: Option<(String, bool)>,
    /// The deferred reference check: request expectation and the
    /// `result` JSON the server sent.
    pub deferred: Option<(Expect, String)>,
    /// The request bytes and response body, kept for the traced
    /// in-process replay.
    pub wire: Option<(Vec<u8>, String)>,
}

impl Op {
    /// Latency in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The outcome of one closed-loop phase.
pub struct Phase {
    /// Every exchange, in completion order.
    pub ops: Vec<Op>,
    /// Wall time from phase start to the last completed exchange.
    pub wall: f64,
    /// Phase start; `Op` times are offsets from it.
    pub epoch: Instant,
}

/// Per-phase options of the closed loop.
pub struct LoopOpts {
    /// Client threads (one keep-alive connection each).
    pub clients: usize,
    /// How long new requests are issued; in-flight ones complete.
    pub seconds: f64,
    /// Exact request count per client instead of a time limit.
    pub requests_per_client: Option<usize>,
    /// Keep request and response bytes for replay.
    pub keep_wire: bool,
    /// Stream tag mixed into the per-client seeds, so warm-up and
    /// timed phases draw distinct streams.
    pub stream: u64,
}

/// HS databases the server has pinned in its process-global registry
/// (the first 64 distinct descriptors), mirrored client-side for the
/// cold-shard share. The server's registry outlives every `Server`, so
/// this mirror outlives every phase.
pub struct RegistryMirror {
    seen: Mutex<Vec<String>>,
}

/// The server's `HS_REGISTRY_CAP`.
const REGISTRY_CAP: usize = 64;

impl RegistryMirror {
    /// An empty mirror.
    pub fn new() -> Self {
        RegistryMirror {
            seen: Mutex::new(Vec::new()),
        }
    }

    fn pinned(&self, key: &str) -> bool {
        let mut seen = self.seen.lock().unwrap_or_else(|e| e.into_inner());
        if seen.iter().any(|k| k == key) {
            return true;
        }
        if seen.len() < REGISTRY_CAP {
            seen.push(key.to_string());
            return true;
        }
        false
    }
}

/// Runs `wl` in a closed loop: each client sends its next request only
/// after reading the previous response.
pub fn closed_loop(
    addr: SocketAddr,
    wl: &dyn Workload,
    seed: u64,
    opts: &LoopOpts,
    registry: &RegistryMirror,
) -> Phase {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(opts.seconds);
    let next_id = std::sync::atomic::AtomicUsize::new(0);
    let per_client: Vec<Vec<Op>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|client| {
                let next_id = &next_id;
                s.spawn(move || {
                    let mut gen = wl.client_stream(seed, opts.stream, client);
                    let mut conn = Conn::connect(addr).ok();
                    let mut shards: HashSet<String> = HashSet::new();
                    let mut ops = Vec::new();
                    loop {
                        let more = match opts.requests_per_client {
                            Some(n) => ops.len() < n,
                            None => Instant::now() < deadline,
                        };
                        if !more {
                            break;
                        }
                        let req = gen.next_req();
                        let raw = request_bytes(req.path, &req.body);
                        let hs = req.hs_key.map(|k| {
                            let pinned = registry.pinned(&k);
                            (k, pinned)
                        });
                        let cold_shard = hs
                            .as_ref()
                            .is_some_and(|(k, pinned)| !pinned | shards.insert(k.clone()));
                        let id = next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let start = epoch.elapsed();
                        let reply = match conn.as_mut() {
                            Some(c) => c.exchange(&raw),
                            None => Err(bad_data("not connected")),
                        };
                        let end = epoch.elapsed();
                        let (status, body) = match reply {
                            Ok(r) => r,
                            Err(_) => {
                                // Reconnect for the next request; a new
                                // connection may land on a new worker.
                                conn = Conn::connect(addr).ok();
                                shards.clear();
                                (0, String::new())
                            }
                        };
                        let (ok, deferred) = crate::workloads::check(&req.expect, status, &body);
                        ops.push(Op {
                            client,
                            id,
                            start,
                            end,
                            status,
                            ok,
                            cache: CacheLabel::of(&body),
                            rejected: status == 422 && body.contains("\"status\":\"rejected\""),
                            eligible: req.eligible,
                            cold_shard,
                            hs,
                            deferred,
                            wire: opts.keep_wire.then_some((raw, body)),
                        });
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut ops: Vec<Op> = per_client.into_iter().flatten().collect();
    ops.sort_by_key(|o| o.end);
    let wall = ops.last().map_or(0.0, |o| o.end.as_secs_f64());
    Phase { ops, wall, epoch }
}
