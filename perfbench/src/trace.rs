//! Tracing for the per-layer run: an in-memory span log written at
//! exit, and a recorder that files the program's own `recdb_obs`
//! counters and span samples under the server request they belong to.

use recdb_obs::{InMemoryRecorder, Recorder};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// One finished span.
pub struct SpanRec {
    /// The request (operation) it belongs to.
    pub req: u64,
    /// Span id (unique within the log, from 1).
    pub id: u64,
    /// The enclosing span's id (`0` for a root).
    pub parent: u64,
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, from the log's epoch.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
}

/// An open span (see [`SpanLog::begin`]).
pub struct Open {
    req: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, for children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Spans kept in memory for the whole run.
pub struct SpanLog {
    epoch: Instant,
    next: u64,
    /// Finished spans, in finishing order.
    pub spans: Vec<SpanRec>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            next: 1,
            spans: Vec::new(),
        }
    }

    /// Opens a span under `parent` (`0` for a root).
    pub fn begin(&mut self, req: u64, parent: u64, name: &'static str) -> Open {
        let id = self.next;
        self.next += 1;
        Open {
            req,
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Closes a span; returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        self.spans.push(SpanRec {
            req: open.req,
            id: open.id,
            parent: open.parent,
            name: open.name,
            start: open.start.saturating_duration_since(self.epoch),
            dur,
        });
        dur
    }

    /// `t` as an offset from the log's epoch.
    pub fn offset(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    /// Records an already-measured interval as a span.
    pub fn record(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        start: Duration,
        dur: Duration,
    ) {
        let id = self.next;
        self.next += 1;
        self.spans.push(SpanRec {
            req,
            id,
            parent,
            name,
            start,
            dur,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(req, parent, name);
        let out = f();
        (out, self.end(open))
    }

    /// Summed duration of every root span minus the part its direct
    /// children cover: the time no layer span accounts for.
    pub fn unattributed(&self, root: &str) -> (Duration, Duration) {
        let mut total = Duration::ZERO;
        let mut roots: HashMap<u64, Duration> = HashMap::new();
        for s in &self.spans {
            if s.name == root {
                total += s.dur;
                roots.insert(s.id, s.dur);
            }
        }
        let mut covered = Duration::ZERO;
        for s in &self.spans {
            if roots.contains_key(&s.parent) {
                covered += s.dur;
            }
        }
        (total, total.saturating_sub(covered))
    }

    /// Writes the log as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.req,
                s.id,
                s.parent,
                s.name,
                s.start.as_nanos(),
                s.dur.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// What the recorder saw on one server worker thread while it handled
/// one request: from the request's `serve.requests` count to its
/// `serve.request.ns` span, the two ends `recdb_serve::server` puts
/// around every request it reads.
pub struct Served {
    /// The worker thread.
    pub thread: ThreadId,
    /// When the request's `serve.requests` count arrived.
    pub start: Instant,
    /// When its `serve.request.ns` span closed.
    pub end: Instant,
    counters: HashMap<&'static str, u64>,
    observed: HashMap<&'static str, Vec<u64>>,
}

impl Served {
    /// Counter `name`, summed over the request.
    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The first value observed under `name` (a span's nanoseconds).
    pub fn first(&self, name: &str) -> Option<u64> {
        self.observed.get(name).and_then(|v| v.first().copied())
    }

    /// Every value observed under `name`.
    pub fn observed(&self, name: &str) -> &[u64] {
        self.observed.get(name).map_or(&[], Vec::as_slice)
    }
}

/// A `recdb_obs` recorder. Every event a server worker thread emits
/// while it handles a request is filed under that request (see
/// [`Served`]); every other event (other threads, or between requests)
/// goes to an [`InMemoryRecorder`]. Open requests are kept per thread,
/// so a worker's events never wait on a lock.
pub struct Tee {
    /// The counters and histograms outside server requests.
    pub mem: InMemoryRecorder,
    done: Mutex<Vec<Served>>,
}

thread_local! {
    /// The request this thread is handling, between its
    /// `serve.requests` count and its `serve.request.ns` span.
    static OPEN: RefCell<Option<Served>> = const { RefCell::new(None) };
}

impl Tee {
    /// Installs a fresh recorder process-wide.
    pub fn install() -> Arc<Tee> {
        let t = Arc::new(Tee {
            mem: InMemoryRecorder::new(),
            done: Mutex::new(Vec::new()),
        });
        recdb_obs::install(t.clone());
        t
    }

    /// Counter value, outside server requests.
    pub fn value(&self, name: &str) -> f64 {
        self.mem.counter_value(name) as f64
    }

    /// Every request handled so far, in the order they finished.
    pub fn take_served(&self) -> Vec<Served> {
        std::mem::take(&mut *self.done.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Recorder for Tee {
    fn counter(&self, name: &'static str, delta: u64) {
        if name == "serve.requests" {
            let now = Instant::now();
            OPEN.with(|o| {
                *o.borrow_mut() = Some(Served {
                    thread: std::thread::current().id(),
                    start: now,
                    end: now,
                    counters: HashMap::new(),
                    observed: HashMap::new(),
                })
            });
        }
        let filed = OPEN.with(|o| match o.borrow_mut().as_mut() {
            Some(s) => {
                *s.counters.entry(name).or_default() += delta;
                true
            }
            None => false,
        });
        if !filed {
            self.mem.counter(name, delta);
        }
    }

    fn observe(&self, name: &'static str, value: u64) {
        let closed = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let s = o.as_mut()?;
            s.observed.entry(name).or_default().push(value);
            if name != "serve.request.ns" {
                return Some(None);
            }
            let mut s = o.take()?;
            s.end = Instant::now();
            Some(Some(s))
        });
        match closed {
            None => self.mem.observe(name, value),
            Some(None) => {}
            Some(Some(s)) => self.done.lock().unwrap_or_else(|e| e.into_inner()).push(s),
        }
    }
}
