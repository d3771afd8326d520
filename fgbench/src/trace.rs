//! In-memory span recording for the traced run, written out at exit
//! as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into each crate's public API; the one span source below the
//! API is [`TracedStore`], a benchmark-owned [`PageStore`] that the
//! simulated array calls for every device read.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fg_ssdsim::{MemStore, PageStore};
use fg_types::sync::{AtomicBool, Counter, Ordering};

use crate::json::Json;

/// Name of the span recorded for every device read.
pub const DEVICE_READ: &str = "device.read";

/// Device spans kept for the trace file; later ones are still summed
/// (see [`Tracer::device_totals`]) but not stored, bounding memory.
const MAX_STORED_DEVICE_SPANS: usize = 250_000;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one (0 = none).
    pub parent: u64,
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Device bytes charged (device spans only).
    pub bytes: u64,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Device-read totals under one parent span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceTotals {
    pub spans: u64,
    pub bytes: u64,
    pub ns: u64,
}

/// A span that has begun but not ended.
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The id children of this span name as their parent (0 when
    /// tracing was off at `begin`).
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    stored_device: usize,
    dropped_device: u64,
    device: HashMap<u64, DeviceTotals>,
    thread_names: HashMap<u64, String>,
}

/// The span recorder. Disabled, every call is a flag test.
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    next_id: Counter,
    /// Span id later device reads name as their parent. Set on the
    /// main thread before the reads it covers are submitted; the
    /// submission channel orders the store before the I/O thread's
    /// read, as the `Counter` contract requires.
    device_parent: Counter,
    /// Device bytes read by threads marked with
    /// [`mark_direct_reader`], traced or not.
    direct_bytes: Counter,
    store: Mutex<Store>,
}

static NEXT_TID: Counter = Counter::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.inc();
    static DIRECT_READER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as one whose device reads bypass the
/// engine: it reads the array itself (ingest canonicalization, a
/// compaction's read of the old image). The engine's own reads always
/// arrive on the mount's I/O threads.
pub fn mark_direct_reader() {
    DIRECT_READER.with(|d| d.set(true));
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

impl Tracer {
    /// A tracer, recording from the start when `enabled`.
    pub fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            enabled: AtomicBool::new(enabled),
            next_id: Counter::new(0),
            device_parent: Counter::new(0),
            direct_bytes: Counter::new(0),
            store: Mutex::new(Store::default()),
        })
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        // ordering: a mode flag that publishes no data; it flips only
        // between reps, while no span is being recorded.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (the traced run alternates, so it
    /// can measure its own overhead).
    pub fn set_enabled(&self, on: bool) {
        // ordering: see `enabled`.
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Names the calling thread in the trace file.
    pub fn name_thread(&self, name: &str) {
        self.lock().thread_names.insert(tid(), name.to_string());
    }

    /// Starts a span under `parent` (0 = top level).
    pub fn begin(&self, name: &'static str, parent: u64) -> Open {
        if !self.enabled() {
            return Open {
                id: 0,
                parent,
                name,
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.inc(),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open`; a span begun while tracing was off is discarded.
    pub fn end(&self, open: Open) {
        self.end_with_bytes(open, 0);
    }

    fn end_with_bytes(&self, open: Open, bytes: u64) {
        if open.id == 0 {
            return;
        }
        let end = self.now_ns();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tid: tid(),
            start_ns: open.start_ns,
            dur_ns: end.saturating_sub(open.start_ns),
            bytes,
        });
    }

    /// Records a child of `parent` that began with it and lasted
    /// `dur_ns` — a phase the program reports after the fact, such as
    /// a query's admission wait.
    pub fn record_leading(&self, name: &'static str, parent: &Open, dur_ns: u64) {
        if parent.id == 0 {
            return;
        }
        self.push(Span {
            id: self.next_id.inc(),
            parent: parent.id,
            name,
            tid: tid(),
            start_ns: parent.start_ns,
            dur_ns,
            bytes: 0,
        });
    }

    fn push(&self, span: Span) {
        let mut st = self.lock();
        if span.name == DEVICE_READ {
            // Device reads arrive on the mount's I/O threads, which
            // the benchmark does not spawn: name them on first sight.
            st.thread_names
                .entry(span.tid)
                .or_insert_with(|| format!("device-{}", span.tid));
            let t = st.device.entry(span.parent).or_default();
            t.spans += 1;
            t.bytes += span.bytes;
            t.ns += span.dur_ns;
            if st.stored_device >= MAX_STORED_DEVICE_SPANS {
                st.dropped_device += 1;
                return;
            }
            st.stored_device += 1;
        }
        st.spans.push(span);
    }

    /// Makes later device reads children of span `id`.
    pub fn set_device_parent(&self, id: u64) {
        self.device_parent.set(id);
    }

    /// Device bytes read so far by [`mark_direct_reader`] threads
    /// through a [`TracedStore`] of this tracer.
    pub fn direct_read_bytes(&self) -> u64 {
        self.direct_bytes.get()
    }

    /// Device-read totals of every read recorded under span `parent`.
    pub fn device_totals(&self, parent: u64) -> DeviceTotals {
        self.lock().device.get(&parent).copied().unwrap_or_default()
    }

    /// A copy of the stored spans.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Writes the stored spans as Chrome trace-event JSON to `path`,
    /// with `meta` under `otherData`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_chrome(&self, path: &Path, meta: Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome_to(&mut out, meta)?;
        out.flush()
    }

    /// [`Tracer::write_chrome`] into any writer.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_chrome_to(
        &self,
        out: &mut impl std::io::Write,
        meta: Json,
    ) -> std::io::Result<()> {
        let st = self.lock();
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let mut names: Vec<_> = st.thread_names.iter().collect();
        names.sort();
        let meta = meta.with("dropped_device_spans", st.dropped_device);
        write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{meta},\"traceEvents\":["
        )?;
        let mut first = true;
        let mut sep = |out: &mut dyn std::io::Write| -> std::io::Result<()> {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            Ok(())
        };
        for (tid, name) in names {
            sep(out)?;
            let ev = Json::obj()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("pid", 1u64)
                .with("tid", *tid)
                .with("args", Json::obj().with("name", name.as_str()));
            write!(out, "{ev}")?;
        }
        for s in &st.spans {
            sep(out)?;
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let mut args = Json::obj().with("id", s.id).with("parent", s.parent);
            if s.name == DEVICE_READ {
                args.push("bytes", s.bytes);
            }
            let ev = Json::obj()
                .with("name", s.name)
                .with("cat", cat)
                .with("ph", "X")
                .with("pid", 1u64)
                .with("tid", s.tid)
                .with("ts", us(s.start_ns))
                .with("dur", us(s.dur_ns))
                .with("args", args);
            write!(out, "{ev}")?;
        }
        out.write_all(b"]}\n")
    }
}

/// Self time per span name: each span's duration minus the part of
/// its interval that its children (spans naming it as parent, on any
/// thread) cover, summed over spans of that name. Nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns()));
        }
    }
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns()));
        *out.entry(s.name).or_default() += s.dur_ns - covered.min(s.dur_ns);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_start, mut cur_end) = (0, 0, 0);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        if a > cur_end {
            total += cur_end - cur_start;
            (cur_start, cur_end) = (a, b);
        } else {
            cur_end = cur_end.max(b);
        }
    }
    total + cur_end - cur_start
}

/// A [`MemStore`] that records a [`DEVICE_READ`] span per `read_at`,
/// charged the bytes the array's cost model books for that extent:
/// every flash page it spans, in full.
pub struct TracedStore {
    inner: MemStore,
    tracer: Arc<Tracer>,
    page_bytes: u64,
}

impl TracedStore {
    /// A zeroed store of `capacity` bytes behind an array of
    /// `page_bytes` flash pages.
    pub fn new(capacity: u64, page_bytes: u64, tracer: Arc<Tracer>) -> TracedStore {
        TracedStore {
            inner: MemStore::new(capacity),
            tracer,
            page_bytes,
        }
    }
}

/// Bytes of every `page_bytes` page that `[offset, offset + len)`
/// touches.
pub fn charged_bytes(offset: u64, len: u64, page_bytes: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    let pages = (offset + len - 1) / page_bytes - offset / page_bytes + 1;
    pages * page_bytes
}

impl PageStore for TracedStore {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> fg_types::Result<()> {
        let open = self
            .tracer
            .begin(DEVICE_READ, self.tracer.device_parent.get());
        let r = self.inner.read_at(offset, buf);
        let bytes = charged_bytes(offset, buf.len() as u64, self.page_bytes);
        if DIRECT_READER.with(Cell::get) {
            self.tracer.direct_bytes.add(bytes);
        }
        self.tracer.end_with_bytes(open, bytes);
        r
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> fg_types::Result<()> {
        self.inner.write_at(offset, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_coverage_clips_and_merges() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        // [2,25) ∩ union = [2,3) + [5,12) + [20,25) = 1 + 7 + 5.
        assert_eq!(covered_ns(&mut iv, 2, 25), 13);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, start_ns, dur_ns| Span {
            id,
            parent,
            name: if parent == 0 { "rep" } else { "app.bfs" },
            tid: 1,
            start_ns,
            dur_ns,
            bytes: 0,
        };
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 30, 20)];
        let st = self_time_by_name(&spans);
        // Children cover [10, 50) of the parent's 100 ns.
        assert_eq!(st["rep"], 60);
        assert_eq!(st["app.bfs"], 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let open = t.begin("rep", 0);
        assert_eq!(open.id(), 0);
        t.record_leading("serve.admission", &open, 5);
        t.end(open);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn device_reads_are_charged_whole_pages() {
        assert_eq!(charged_bytes(0, 4096, 4096), 4096);
        assert_eq!(charged_bytes(4095, 2, 4096), 8192);
        assert_eq!(charged_bytes(100, 1, 4096), 4096);
        let t = Tracer::new(true);
        let store = TracedStore::new(1 << 16, 4096, Arc::clone(&t));
        let parent = t.begin("app.tc", 0);
        t.set_device_parent(parent.id());
        let mut buf = [0u8; 10];
        store.read_at(4090, &mut buf).unwrap();
        let totals = t.device_totals(parent.id());
        assert_eq!(totals.spans, 1);
        assert_eq!(totals.bytes, 8192);
        assert_eq!(t.direct_read_bytes(), 0);
    }

    #[test]
    fn direct_reads_are_counted_traced_or_not() {
        let t = Tracer::new(false);
        let store = Arc::new(TracedStore::new(1 << 16, 4096, Arc::clone(&t)));
        let mut buf = [0u8; 10];
        // An unmarked thread's reads (the engine's I/O threads).
        let s = Arc::clone(&store);
        std::thread::spawn(move || s.read_at(0, &mut [0u8; 10]).unwrap())
            .join()
            .unwrap();
        assert_eq!(t.direct_read_bytes(), 0);
        let s = Arc::clone(&store);
        std::thread::spawn(move || {
            mark_direct_reader();
            s.read_at(4090, &mut [0u8; 10]).unwrap();
        })
        .join()
        .unwrap();
        assert_eq!(t.direct_read_bytes(), 8192);
        store.read_at(0, &mut buf).unwrap();
        assert_eq!(t.direct_read_bytes(), 8192);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses_back() {
        let t = Tracer::new(true);
        t.name_thread("main");
        let rep = t.begin("rep", 0);
        t.record_leading("serve.admission", &rep, 1_000);
        t.end(rep);
        let mut bytes = Vec::new();
        t.write_chrome_to(&mut bytes, Json::obj().with("workload", "serve"))
            .unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let doc = Json::parse(&text).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no events in {text}");
        };
        assert_eq!(events.len(), 3); // thread name + two spans
        assert_eq!(
            doc.get("otherData").and_then(|m| m.get("workload")),
            Some(&Json::Str("serve".into()))
        );
    }
}
