//! Bench-side tracing: spans around the calls the benchmark makes, and
//! frame-boundary events from `Conn`/`Listener` wrappers over `MemNet`.
//!
//! The wrappers feed every byte that crosses a connection through the
//! public [`FrameCodec`], so each completed frame becomes one event with
//! its kind, its batch/tile/query id and its size, stamped when the
//! frame was handed to the wire (send) or fully received (receive).
//! Everything stays in memory until [`Tracer::write`] at the end of the
//! run. Nothing here touches the program's own code paths: an untraced
//! run uses the bare `MemNet` endpoints.

use rck_serve::proto::{Frame, FrameCodec};
use rck_serve::{Conn, Listener};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frame kinds, as `Frame` variants (the wire codes of DESIGN §6).
pub mod kind {
    pub const JOB_BATCH: u8 = 3;
    pub const RESULT_BATCH: u8 = 4;
    pub const QUERY_SUBMIT: u8 = 7;
    pub const QUERY_DONE: u8 = 9;
    pub const QUERY_REJECT: u8 = 10;
    pub const TILE_GRANT: u8 = 11;
    pub const TILE_RESULT: u8 = 12;
}

/// Which end of a connection an event was seen on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The accepting side (master, frontend, gate).
    Server,
    /// The dialing side (worker, shard master, query client).
    Client,
}

/// One frame crossing one connection end.
#[derive(Debug, Clone, Copy)]
pub struct FrameEvent {
    /// The in-memory network the connection belongs to.
    pub net: u32,
    /// Connection-end id, shared by every clone of that end. The two
    /// ends of one link get different ids; the analysis pairs them up
    /// through batch/tile/query ids.
    pub link: u32,
    pub end: End,
    /// Sent (true) or received (false) at this end.
    pub tx: bool,
    pub kind: u8,
    /// batch_id, tile_id or query_id; 0 for frames without one.
    pub key: u64,
    /// For a JobBatch: a hash of the name of its highest-indexed chain
    /// (the query chain on the gate's pool plane).
    pub aux: u64,
    pub bytes: u64,
    /// Seconds since the tracer's epoch.
    pub t: f64,
}

/// One bench-side span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    /// batch_id, tile_id, query_id or pair index.
    pub key: u64,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory trace of one run.
pub struct Tracer {
    epoch: Instant,
    events: Mutex<Vec<FrameEvent>>,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    next_link: AtomicU32,
    /// A sample of the data frames sent, for codec timing.
    frames: Mutex<Vec<Frame>>,
}

/// Data frames kept per run for [`codec_us_per_kib`].
const FRAME_SAMPLE: usize = 64;

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            next_link: AtomicU32::new(1),
            frames: Mutex::new(Vec::new()),
        })
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span; returns its id.
    pub fn span(&self, parent: u64, name: &str, key: u64, start: f64, end: f64) -> u64 {
        let id = self.new_id();
        self.record(Span {
            id,
            parent,
            name: name.to_string(),
            key,
            start,
            end,
        });
        id
    }

    /// Record a span whose id was reserved earlier with [`Tracer::new_id`].
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(&self, parent: u64, name: &str, key: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.new_id();
        let start = self.now();
        let out = f(id);
        self.record(Span {
            id,
            parent,
            name: name.to_string(),
            key,
            start,
            end: self.now(),
        });
        out
    }

    pub fn events(&self) -> Vec<FrameEvent> {
        let mut v = self.events.lock().expect("event buffer poisoned").clone();
        v.sort_by(|a, b| a.t.total_cmp(&b.t));
        v
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// A listener whose accepted connections are traced on `net`.
    pub fn listener(self: &Arc<Self>, inner: Box<dyn Listener>, net: u32) -> Box<dyn Listener> {
        Box::new(TracedListener {
            inner,
            tracer: Arc::clone(self),
            net,
        })
    }

    /// Trace the dialing end of a connection on `net`.
    pub fn client(self: &Arc<Self>, inner: Box<dyn Conn>, net: u32) -> Box<dyn Conn> {
        let link = self.next_link.fetch_add(1, Ordering::Relaxed);
        Box::new(TracedConn::new(
            inner,
            Arc::clone(self),
            net,
            link,
            End::Client,
        ))
    }

    /// Write spans and frame events as JSON lines under `dir`.
    pub fn write(&self, dir: &str, file: &str, header: &str) -> io::Result<String> {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{file}");
        let mut out = String::new();
        out.push_str(header);
        out.push('\n');
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"span\": \"{}\", \"id\": {}, \"parent\": {}, \"key\": {}, \"start\": {}, \"end\": {}}}",
                s.name, s.id, s.parent, s.key, s.start, s.end
            );
        }
        for e in self.events() {
            let _ = writeln!(
                out,
                "{{\"frame\": {}, \"net\": {}, \"link\": {}, \"end\": \"{}\", \"dir\": \"{}\", \"key\": {}, \"bytes\": {}, \"t\": {}}}",
                e.kind,
                e.net,
                e.link,
                if e.end == End::Server { "server" } else { "client" },
                if e.tx { "tx" } else { "rx" },
                e.key,
                e.bytes,
                e.t
            );
        }
        std::fs::write(&path, out)?;
        Ok(path)
    }

    fn push(&self, e: FrameEvent) {
        self.events.lock().expect("event buffer poisoned").push(e);
    }
}

/// Frame identity: (kind, key, aux).
fn identify(frame: &Frame) -> (u8, u64, u64) {
    match frame {
        Frame::Hello(_) => (1, 0, 0),
        Frame::Welcome(_) => (2, 0, 0),
        Frame::JobBatch(b) => {
            let aux = b
                .chains
                .iter()
                .max_by_key(|(ix, _)| *ix)
                .map_or(0, |(_, c)| name_hash(&c.name));
            (kind::JOB_BATCH, b.batch_id, aux)
        }
        Frame::ResultBatch(r) => (kind::RESULT_BATCH, r.batch_id, 0),
        Frame::Heartbeat(_) => (5, 0, 0),
        Frame::Shutdown => (6, 0, 0),
        Frame::QuerySubmit(q) => (kind::QUERY_SUBMIT, q.query_id, 0),
        Frame::QueryPartial(q) => (8, q.query_id, 0),
        Frame::QueryDone(q) => (kind::QUERY_DONE, q.query_id, 0),
        Frame::QueryReject(q) => (kind::QUERY_REJECT, q.query_id, 0),
        Frame::TileGrant(g) => (kind::TILE_GRANT, u64::from(g.tile_id), 0),
        Frame::TileResult(r) => (kind::TILE_RESULT, u64::from(r.tile_id), 0),
        Frame::StealRequest(_) => (13, 0, 0),
    }
}

/// FNV-1a over a chain name (matches JobBatch `aux`).
pub fn name_hash(name: &str) -> u64 {
    rck_serve::proto::fnv1a64(0, name.as_bytes())
}

/// Per-link codec state, shared by every clone of one connection end.
struct LinkTap {
    tracer: Arc<Tracer>,
    net: u32,
    link: u32,
    end: End,
    rx: Mutex<FrameCodec>,
    tx: Mutex<FrameCodec>,
}

impl LinkTap {
    /// Decode whatever frames `codec` now holds and record them at `t`.
    fn drain(&self, codec: &mut FrameCodec, tx: bool, t: f64) {
        loop {
            let before = codec.consumed();
            match codec.next_frame() {
                Ok(Some(frame)) => {
                    let (kind, key, aux) = identify(&frame);
                    if tx && key != 0 {
                        let mut sample = self.tracer.frames.lock().expect("frame sample poisoned");
                        if sample.len() < FRAME_SAMPLE {
                            sample.push(frame);
                        }
                    }
                    self.tracer.push(FrameEvent {
                        net: self.net,
                        link: self.link,
                        end: self.end,
                        tx,
                        kind,
                        key,
                        aux,
                        bytes: codec.consumed() - before,
                        t,
                    });
                }
                // A corrupt stream is the program's business; the tap
                // stops decoding it and lets the bytes through.
                Ok(None) | Err(_) => return,
            }
        }
    }
}

/// A [`Conn`] that records frame boundaries in both directions.
pub struct TracedConn {
    inner: Box<dyn Conn>,
    tap: Arc<LinkTap>,
}

impl TracedConn {
    fn new(inner: Box<dyn Conn>, tracer: Arc<Tracer>, net: u32, link: u32, end: End) -> TracedConn {
        TracedConn {
            inner,
            tap: Arc::new(LinkTap {
                tracer,
                net,
                link,
                end,
                rx: Mutex::new(FrameCodec::new()),
                tx: Mutex::new(FrameCodec::new()),
            }),
        }
    }
}

impl Read for TracedConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            let t = self.tap.tracer.now();
            let mut codec = self.tap.rx.lock().expect("rx codec poisoned");
            codec.feed(&buf[..n]);
            self.tap.drain(&mut codec, false, t);
        }
        Ok(n)
    }
}

impl Write for TracedConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = self.tap.tracer.now();
        let n = self.inner.write(buf)?;
        let mut codec = self.tap.tx.lock().expect("tx codec poisoned");
        codec.feed(&buf[..n]);
        self.tap.drain(&mut codec, true, t);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Conn for TracedConn {
    fn try_clone(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(TracedConn {
            inner: self.inner.try_clone()?,
            tap: Arc::clone(&self.tap),
        }))
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
}

/// A [`Listener`] whose accepted connections are [`TracedConn`]s.
struct TracedListener {
    inner: Box<dyn Listener>,
    tracer: Arc<Tracer>,
    net: u32,
}

impl Listener for TracedListener {
    fn poll_accept(&self) -> io::Result<Option<Box<dyn Conn>>> {
        Ok(self.inner.poll_accept()?.map(|conn| {
            let link = self.tracer.next_link.fetch_add(1, Ordering::Relaxed);
            Box::new(TracedConn::new(
                conn,
                Arc::clone(&self.tracer),
                self.net,
                link,
                End::Server,
            )) as Box<dyn Conn>
        }))
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        self.inner.local_addr()
    }
}

/// Wraps listeners and dialed connections when tracing, or passes them
/// through untouched.
#[derive(Clone)]
pub struct Tap(pub Option<Arc<Tracer>>);

impl Tap {
    pub fn listener(&self, l: Box<dyn Listener>, net: u32) -> Box<dyn Listener> {
        match &self.0 {
            Some(t) => t.listener(l, net),
            None => l,
        }
    }

    pub fn client(&self, c: Box<dyn Conn>, net: u32) -> Box<dyn Conn> {
        match &self.0 {
            Some(t) => t.client(c, net),
            None => c,
        }
    }

    pub fn now(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |t| t.now())
    }
}

/// The events of one kind, direction and end on one network.
pub fn on(events: &[FrameEvent], net: u32, end: End, tx: bool, k: u8) -> Vec<FrameEvent> {
    events
        .iter()
        .filter(|e| e.net == net && e.end == end && e.tx == tx && e.kind == k)
        .copied()
        .collect()
}

/// Per-batch timings of one master–workers link set: `(rtt, busy, wire)`
/// in seconds, matched on batch id across both ends.
pub fn batch_timings(events: &[FrameEvent], net: u32) -> Vec<(f64, f64, f64)> {
    let sent = on(events, net, End::Server, true, kind::JOB_BATCH);
    let got = on(events, net, End::Server, false, kind::RESULT_BATCH);
    let w_got = on(events, net, End::Client, false, kind::JOB_BATCH);
    let w_sent = on(events, net, End::Client, true, kind::RESULT_BATCH);
    let find = |v: &[FrameEvent], key: u64| v.iter().find(|e| e.key == key).map(|e| e.t);
    sent.iter()
        .filter_map(|d| {
            let r = find(&got, d.key)?;
            let wr = find(&w_got, d.key)?;
            let wt = find(&w_sent, d.key)?;
            Some((r - d.t, wt - wr, (wr - d.t) + (r - wt)))
        })
        .collect()
}

/// Encode and decode cost of the sampled data frames through the public
/// codec (`encode_frame` / `decode_frame`), in microseconds per KiB of
/// frame bytes: `(encode, decode)`. Zero when nothing was sampled.
pub fn codec_us_per_kib(tracer: &Tracer) -> (f64, f64) {
    use rck_serve::proto::{decode_frame, encode_frame};
    let frames = tracer.frames.lock().expect("frame sample poisoned").clone();
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    // Repeat until the sample has been coded at least 4 MiB deep, so the
    // clock resolution does not matter.
    let bytes: usize = frames.iter().map(|f| encode_frame(f).len()).sum();
    let reps = (4 << 20) / bytes.max(1) + 1;
    let start = Instant::now();
    let mut encoded = Vec::with_capacity(frames.len());
    for _ in 0..reps {
        encoded.clear();
        encoded.extend(frames.iter().map(|f| std::hint::black_box(encode_frame(f))));
    }
    let enc = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..reps {
        for buf in &encoded {
            let decoded = decode_frame(buf).expect("a frame the codec just encoded decodes");
            std::hint::black_box(decoded);
        }
    }
    let dec = start.elapsed().as_secs_f64();
    let kib = (bytes * reps) as f64 / 1024.0;
    (enc * 1e6 / kib, dec * 1e6 / kib)
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<(u64, f64)> {
    let mut kids: std::collections::HashMap<u64, Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    for c in spans {
        kids.entry(c.parent).or_default().push((c.start, c.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = kids
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.dur() - covered).max(0.0))
        })
        .collect()
}
