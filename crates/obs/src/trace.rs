//! Causal request tracing: trace/span IDs, parent links, and
//! nanosecond-timestamped events in per-thread lock-free ring buffers.
//!
//! ## Model
//!
//! A **trace** is a tree of **spans**. Every span has a process-unique
//! `span_id`, the `trace_id` of its root, and a `parent_id` (`0` for the
//! root itself). Spans nest implicitly through a thread-local context
//! stack: [`span`] parents under whatever span is open on the *current*
//! thread, or starts a fresh trace when none is. Crossing a thread
//! boundary is explicit — the sender captures [`propagate`] (or builds a
//! [`TraceCtx`] with [`open_trace`]) and the receiver adopts it with
//! [`span_under`]. `imt-serve` threads a `TraceCtx` through each queued
//! job; `imt-bitcode::par` forwards the spawning thread's context into
//! its scoped workers.
//!
//! ## Recording
//!
//! Events are recorded **where they end**: a span writes one fixed-size
//! record (48 B of payload) into its thread's ring buffer when its guard
//! drops. Rings are bounded (default 16 384 slots, `IMT_TRACE_CAPACITY`
//! override, rounded up to a power of two) and wrap — old events are
//! overwritten and counted as dropped rather than blocking the hot path.
//! Each slot is a seqlock: the owning thread bumps the slot's sequence to
//! odd, stores the payload, and bumps it to even, all with atomics; a
//! concurrent [`snapshot`] re-checks the sequence and discards torn
//! reads. No event recording ever takes a lock (span *names* are interned
//! once per distinct `&'static str` under a mutex — a bounded, cold
//! cost).
//!
//! Recording is active only in [`crate::Mode::Trace`] ([`crate::trace_enabled`]);
//! in every other mode all entry points are a single atomic load and
//! branch, and the gated [`crate::span!`] sites only consult the trace
//! gate after the obs gate already passed.
//!
//! ## Export
//!
//! [`snapshot`] drains every thread's ring (non-destructively) into
//! [`TraceEvent`]s; the manifest layer embeds them as the `trace` section
//! of `imt-obs/v1` documents — including aborted ones, so a crashed run
//! still yields a partial timeline. [`chrome_trace`] converts manifests
//! into Chrome trace-event JSON (`chrome://tracing` / Perfetto's
//! `displayTimeUnit`/`traceEvents` format), validated by
//! [`validate_chrome`].

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Default ring capacity (slots per thread) when `IMT_TRACE_CAPACITY` is
/// unset.
pub const DEFAULT_CAPACITY: usize = 16_384;

/// A drained trace event. `dur_ns == 0` and [`TraceKind::Instant`] mark
/// point events; spans carry their full duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Interned span name (e.g. `serve.request`).
    pub name: String,
    /// Span or instant.
    pub kind: TraceKind,
    /// ID of the trace (tree) this event belongs to.
    pub trace_id: u64,
    /// Process-unique ID of this span.
    pub span_id: u64,
    /// `span_id` of the parent, `0` for trace roots.
    pub parent_id: u64,
    /// Recording thread (1-based, assigned at first trace use per thread).
    pub thread: u64,
    /// Start timestamp, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
}

/// Discriminates duration spans from point events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A duration span (`ph: "X"` in Chrome trace-event terms).
    Span,
    /// A point event (`ph: "i"`).
    Instant,
}

impl TraceKind {
    /// Stable string form used in manifests.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Span => "span",
            TraceKind::Instant => "instant",
        }
    }

    fn from_name(s: &str) -> Option<TraceKind> {
        match s {
            "span" => Some(TraceKind::Span),
            "instant" => Some(TraceKind::Instant),
            _ => None,
        }
    }
}

/// A causal context: enough to parent spans recorded on *other* threads
/// (or at a later time) under a span owned here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace (tree) ID.
    pub trace_id: u64,
    /// The span new children should parent under.
    pub span_id: u64,
}

// ---------------------------------------------------------------------
// IDs, epoch, name interning
// ---------------------------------------------------------------------

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first trace use). The
/// clock is `Instant`-monotonic, so timestamps recorded on one thread
/// never go backwards.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Interned names: index+1 is the on-ring ID (0 = invalid). A handful of
/// distinct static names exist per binary, so a linear scan under a
/// mutex is fine — and only paid once per (name, thread-ring) miss.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn intern(name: &'static str) -> u64 {
    let mut names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = names
        .iter()
        .position(|&n| std::ptr::eq(n, name) || n == name)
    {
        return (i + 1) as u64;
    }
    names.push(name);
    names.len() as u64
}

fn name_of(id: u64) -> String {
    let names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    names
        .get((id as usize).wrapping_sub(1))
        .map(|n| n.to_string())
        .unwrap_or_else(|| format!("?{id}"))
}

// ---------------------------------------------------------------------
// Per-thread seqlock rings
// ---------------------------------------------------------------------

const FIELDS: usize = 6; // meta, trace, span, parent, start, dur

struct Slot {
    /// 0 = never written; odd = write in progress; even > 0 = committed.
    seq: AtomicU64,
    /// `[name_id << 8 | kind, trace_id, span_id, parent_id, start_ns, dur_ns]`
    f: [AtomicU64; FIELDS],
}

struct Ring {
    thread: u64,
    /// Total events ever pushed; `head % capacity` is the next slot.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(thread: u64, capacity: usize) -> Ring {
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                f: [(); FIELDS].map(|_| AtomicU64::new(0)),
            })
            .collect();
        Ring {
            thread,
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// Owner-thread only: commit one record.
    fn push(&self, fields: [u64; FIELDS]) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) & (self.slots.len() - 1)];
        let seq = slot.seq.load(Ordering::Relaxed);
        // Mark the slot as mid-write, store the payload, then commit with
        // an even sequence. A concurrent reader seeing either an odd
        // sequence or a sequence change across its read discards the slot.
        slot.seq.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (dst, src) in slot.f.iter().zip(fields) {
            dst.store(src, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Any thread: read the committed record at `index`, or `None` if the
    /// slot is empty or a write raced the read.
    fn read(&self, index: u64) -> Option<[u64; FIELDS]> {
        let slot = &self.slots[(index as usize) & (self.slots.len() - 1)];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let fields = slot.f.each_ref().map(|f| f.load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        let s2 = slot.seq.load(Ordering::Relaxed);
        (s1 == s2).then_some(fields)
    }
}

fn capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("IMT_TRACE_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAPACITY)
            .max(2)
            .next_power_of_two()
    })
}

static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
    static CTX_STACK: std::cell::RefCell<Vec<TraceCtx>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn with_ring<R>(f: impl FnOnce(&Ring) -> R) -> R {
    RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Ring::new(thread, capacity()));
            RINGS
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        f(ring)
    })
}

fn record(
    kind: TraceKind,
    name_id: u64,
    ctx: TraceCtx,
    parent_id: u64,
    start_ns: u64,
    dur_ns: u64,
) {
    let meta = (name_id << 8) | kind as u64;
    with_ring(|ring| {
        ring.push([meta, ctx.trace_id, ctx.span_id, parent_id, start_ns, dur_ns]);
    });
}

// ---------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------

/// The current thread's innermost open trace span, if any (and tracing is
/// on). This is what a cross-thread hand-off should capture on the
/// sending side; alias [`propagate`] reads better at call sites.
pub fn current() -> Option<TraceCtx> {
    if !crate::trace_enabled() {
        return None;
    }
    CTX_STACK.with(|stack| stack.borrow().last().copied())
}

/// Captures the sending side of a cross-thread hand-off: the context the
/// spawned/queued work should parent under. `None` when tracing is off or
/// no span is open — receivers treat that as "do not trace".
pub fn propagate() -> Option<TraceCtx> {
    current()
}

/// Allocates a fresh root context *without* opening a guard — for request
/// roots whose lifetime is event-driven rather than scoped (e.g. an
/// `imt-serve` job that is fulfilled on a worker thread). Close it with
/// [`close_root`]. `None` when tracing is off.
pub fn open_trace() -> Option<TraceCtx> {
    if !crate::trace_enabled() {
        return None;
    }
    Some(TraceCtx {
        trace_id: next_trace_id(),
        span_id: next_span_id(),
    })
}

/// Records the root span for a context from [`open_trace`], spanning
/// `start_ns..now`. Call exactly once, after all children are recorded.
pub fn close_root(name: &'static str, ctx: Option<TraceCtx>, start_ns: u64) {
    let Some(ctx) = ctx else { return };
    if !crate::trace_enabled() {
        return;
    }
    let dur = now_ns().saturating_sub(start_ns);
    record(TraceKind::Span, intern(name), ctx, 0, start_ns, dur);
}

/// Records a completed child span `start_ns..end_ns` under `parent` — for
/// stages measured out-of-band (queue wait, shared batch warm) where no
/// guard scope exists.
pub fn record_stage(name: &'static str, parent: Option<TraceCtx>, start_ns: u64, end_ns: u64) {
    let Some(parent) = parent else { return };
    if !crate::trace_enabled() {
        return;
    }
    let ctx = TraceCtx {
        trace_id: parent.trace_id,
        span_id: next_span_id(),
    };
    record(
        TraceKind::Span,
        intern(name),
        ctx,
        parent.span_id,
        start_ns,
        end_ns.saturating_sub(start_ns),
    );
}

/// Records a point event under the current thread's open span (no-op when
/// tracing is off or no span is open).
pub fn instant(name: &'static str) {
    instant_under(name, current());
}

/// Records a point event under an explicit parent context.
pub fn instant_under(name: &'static str, parent: Option<TraceCtx>) {
    let Some(parent) = parent else { return };
    if !crate::trace_enabled() {
        return;
    }
    let ctx = TraceCtx {
        trace_id: parent.trace_id,
        span_id: next_span_id(),
    };
    let ts = now_ns();
    record(TraceKind::Instant, intern(name), ctx, parent.span_id, ts, 0);
}

/// RAII trace span: pushes its context on the thread-local stack at open
/// and records one event at drop. Inert (field `None`) when tracing is
/// off.
#[must_use = "the span records when this guard drops"]
pub struct TraceSpan {
    live: Option<(
        &'static str,
        TraceCtx,
        u64, /* parent */
        u64, /* start */
    )>,
}

impl TraceSpan {
    /// A guard that records nothing.
    pub fn inert() -> TraceSpan {
        TraceSpan { live: None }
    }

    /// Whether this guard will record an event.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// The context of this span, for explicit hand-offs.
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.live.map(|(_, ctx, _, _)| ctx)
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some((name, ctx, parent, start)) = self.live.take() else {
            return;
        };
        CTX_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let dur = now_ns().saturating_sub(start);
        record(TraceKind::Span, intern(name), ctx, parent, start, dur);
    }
}

fn open_span(name: &'static str, trace_id: u64, parent_id: u64) -> TraceSpan {
    let ctx = TraceCtx {
        trace_id,
        span_id: next_span_id(),
    };
    CTX_STACK.with(|stack| stack.borrow_mut().push(ctx));
    TraceSpan {
        live: Some((name, ctx, parent_id, now_ns())),
    }
}

/// Opens a span parented under the current thread's innermost open span,
/// or as a fresh trace root when none is open. Inert when tracing is off.
pub fn span(name: &'static str) -> TraceSpan {
    if !crate::trace_enabled() {
        return TraceSpan::inert();
    }
    match CTX_STACK.with(|stack| stack.borrow().last().copied()) {
        Some(parent) => open_span(name, parent.trace_id, parent.span_id),
        None => open_span(name, next_trace_id(), 0),
    }
}

/// Opens a span under an explicitly propagated context (cross-thread
/// adoption). Inert when `parent` is `None` or tracing is off — a worker
/// spawned outside any trace stays silent rather than creating orphan
/// roots.
pub fn span_under(name: &'static str, parent: Option<TraceCtx>) -> TraceSpan {
    let Some(parent) = parent else {
        return TraceSpan::inert();
    };
    if !crate::trace_enabled() {
        return TraceSpan::inert();
    }
    open_span(name, parent.trace_id, parent.span_id)
}

// ---------------------------------------------------------------------
// Draining
// ---------------------------------------------------------------------

/// Reads every thread's ring without clearing it: the committed events
/// (sorted by `(start_ns, span_id)`) plus the count of events lost to
/// ring wrap-around or torn concurrent writes.
pub fn snapshot() -> (Vec<TraceEvent>, u64) {
    let rings: Vec<Arc<Ring>> = RINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(Arc::clone)
        .collect();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in rings {
        let head = ring.head.load(Ordering::Acquire);
        let cap = ring.slots.len() as u64;
        let first = head.saturating_sub(cap);
        dropped += first;
        for index in first..head {
            match ring.read(index) {
                Some([meta, trace_id, span_id, parent_id, start_ns, dur_ns]) => {
                    let kind = if meta & 0xff == TraceKind::Instant as u64 {
                        TraceKind::Instant
                    } else {
                        TraceKind::Span
                    };
                    events.push(TraceEvent {
                        name: name_of(meta >> 8),
                        kind,
                        trace_id,
                        span_id,
                        parent_id,
                        thread: ring.thread,
                        start_ns,
                        dur_ns,
                    });
                }
                None => dropped += 1,
            }
        }
    }
    events.sort_by_key(|e| (e.start_ns, e.span_id));
    (events, dropped)
}

/// Clears every ring (test hygiene between runs in one process). Racy
/// against concurrent recording; callers quiesce their threads first.
pub fn reset() {
    let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
    for ring in rings.iter() {
        for slot in ring.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        ring.head.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Manifest (de)serialisation
// ---------------------------------------------------------------------

/// Serialises a drained snapshot as the manifest `trace` section.
pub fn events_to_json(events: &[TraceEvent], dropped: u64) -> Json {
    let rows = events
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("name", Json::str(&e.name)),
                ("kind", Json::str(e.kind.name())),
                ("trace", Json::U64(e.trace_id)),
                ("span", Json::U64(e.span_id)),
                ("parent", Json::U64(e.parent_id)),
                ("thread", Json::U64(e.thread)),
                ("start_ns", Json::U64(e.start_ns)),
                ("dur_ns", Json::U64(e.dur_ns)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("dropped", Json::U64(dropped)),
        ("events", Json::Arr(rows)),
    ])
}

/// Parses a manifest `trace` section back into events.
pub fn events_from_json(section: &Json) -> Result<(Vec<TraceEvent>, u64), String> {
    validate_section(section)?;
    let dropped = section.get("dropped").and_then(Json::as_u64).unwrap_or(0);
    let rows = section
        .get("events")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let mut events = Vec::with_capacity(rows.len());
    for row in rows {
        let field = |key: &str| row.get(key).and_then(Json::as_u64).unwrap_or(0);
        events.push(TraceEvent {
            name: row
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            kind: row
                .get("kind")
                .and_then(Json::as_str)
                .and_then(TraceKind::from_name)
                .unwrap_or(TraceKind::Span),
            trace_id: field("trace"),
            span_id: field("span"),
            parent_id: field("parent"),
            thread: field("thread"),
            start_ns: field("start_ns"),
            dur_ns: field("dur_ns"),
        });
    }
    Ok((events, dropped))
}

/// Validates the shape of a manifest `trace` section. Parent links are
/// *not* required to resolve here: an aborted run's flush records only
/// the spans that closed before the crash, so children may legitimately
/// reference parents that never committed.
pub fn validate_section(section: &Json) -> Result<(), String> {
    let err = |msg: &str| Err(format!("trace section: {msg}"));
    if section.get("dropped").and_then(Json::as_u64).is_none() {
        return err("missing u64 `dropped`");
    }
    let Some(rows) = section.get("events").and_then(Json::as_array) else {
        return err("missing `events` array");
    };
    for (i, row) in rows.iter().enumerate() {
        let name = row.get("name").and_then(Json::as_str);
        if name.is_none_or(str::is_empty) {
            return err(&format!("event {i}: missing `name`"));
        }
        let kind = row.get("kind").and_then(Json::as_str);
        if kind.and_then(TraceKind::from_name).is_none() {
            return err(&format!("event {i}: `kind` must be span|instant"));
        }
        for key in ["trace", "span", "parent", "thread", "start_ns", "dur_ns"] {
            if row.get(key).and_then(Json::as_u64).is_none() {
                return err(&format!("event {i}: missing u64 `{key}`"));
            }
        }
        if row.get("span").and_then(Json::as_u64) == Some(0) {
            return err(&format!("event {i}: span id 0 is reserved"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

/// Converts one or more `(run name, events)` pairs into a Chrome
/// trace-event JSON document loadable by `chrome://tracing` and Perfetto.
/// Each run becomes one `pid`; ring threads map to `tid`s; spans become
/// complete (`ph: "X"`) events and instants `ph: "i"`, with timestamps in
/// fractional microseconds. Events are sorted by `(pid, ts)` so per-thread
/// order in the array matches wall-clock order.
pub fn chrome_trace(runs: &[(String, Vec<TraceEvent>)]) -> Json {
    let mut rows: Vec<(u64, u64, u64, Json)> = Vec::new();
    for (pid0, (run, events)) in runs.iter().enumerate() {
        let pid = pid0 as u64 + 1;
        rows.push((
            pid,
            0,
            0,
            Json::obj(vec![
                ("name", Json::str("process_name")),
                ("ph", Json::str("M")),
                ("pid", Json::U64(pid)),
                ("tid", Json::U64(0)),
                ("args", Json::obj(vec![("name", Json::str(run))])),
            ]),
        ));
        for e in events {
            let mut fields = vec![
                ("name", Json::str(&e.name)),
                ("cat", Json::str("imt")),
                (
                    "ph",
                    Json::str(match e.kind {
                        TraceKind::Span => "X",
                        TraceKind::Instant => "i",
                    }),
                ),
                ("ts", Json::F64(e.start_ns as f64 / 1000.0)),
            ];
            if e.kind == TraceKind::Span {
                fields.push(("dur", Json::F64(e.dur_ns as f64 / 1000.0)));
            } else {
                fields.push(("s", Json::str("t")));
            }
            fields.extend([
                ("pid", Json::U64(pid)),
                ("tid", Json::U64(e.thread)),
                (
                    "args",
                    Json::obj(vec![
                        ("trace", Json::U64(e.trace_id)),
                        ("span", Json::U64(e.span_id)),
                        ("parent", Json::U64(e.parent_id)),
                    ]),
                ),
            ]);
            rows.push((pid, e.start_ns, e.span_id, Json::obj(fields)));
        }
    }
    rows.sort_by_key(|a| (a.0, a.1, a.2));
    Json::obj(vec![
        ("displayTimeUnit", Json::str("ns")),
        (
            "otherData",
            Json::obj(vec![("schema", Json::str("imt-trace-chrome/v1"))]),
        ),
        (
            "traceEvents",
            Json::Arr(rows.into_iter().map(|(_, _, _, j)| j).collect()),
        ),
    ])
}

/// Validates a Chrome trace-event document produced by [`chrome_trace`]
/// (and, structurally, anything `chrome://tracing` would accept from us):
/// a `traceEvents` array whose entries carry `name`/`ph`/`pid`/`tid`,
/// with numeric `ts` on `X`/`i` events and numeric `dur` on `X` events.
pub fn validate_chrome(doc: &Json) -> Result<(), String> {
    let err = |msg: String| Err(format!("chrome trace: {msg}"));
    let Some(events) = doc.get("traceEvents").and_then(Json::as_array) else {
        return err("missing `traceEvents` array".to_string());
    };
    for (i, e) in events.iter().enumerate() {
        if e.get("name")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return err(format!("event {i}: missing `name`"));
        }
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        if !matches!(ph, "X" | "i" | "M") {
            return err(format!("event {i}: `ph` must be X|i|M, got {ph:?}"));
        }
        for key in ["pid", "tid"] {
            if e.get(key).and_then(Json::as_u64).is_none() {
                return err(format!("event {i}: missing u64 `{key}`"));
            }
        }
        if ph != "M" && e.get("ts").and_then(Json::as_f64).is_none() {
            return err(format!("event {i}: missing numeric `ts`"));
        }
        if ph == "X" && e.get("dur").and_then(Json::as_f64).is_none() {
            return err(format!("event {i}: missing numeric `dur`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    fn with_trace_mode<R>(f: impl FnOnce() -> R) -> R {
        let _guard = crate::test_lock();
        let before = crate::mode();
        crate::set_mode(Mode::Trace);
        reset();
        let result = f();
        reset();
        crate::set_mode(before);
        result
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let events = with_trace_mode(|| {
            {
                let outer = span("t.outer");
                assert!(outer.is_live());
                {
                    let inner = span("t.inner");
                    assert!(inner.is_live());
                    instant("t.mark");
                }
            }
            snapshot().0
        });
        let outer = events.iter().find(|e| e.name == "t.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "t.inner").unwrap();
        let mark = events.iter().find(|e| e.name == "t.mark").unwrap();
        assert_eq!(outer.parent_id, 0);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(mark.parent_id, inner.span_id);
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_eq!(mark.kind, TraceKind::Instant);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn inert_when_tracing_is_off() {
        let _guard = crate::test_lock();
        let before = crate::mode();
        crate::set_mode(Mode::Json);
        reset();
        {
            let guard = span("t.off");
            assert!(!guard.is_live());
            instant("t.off_mark");
            assert!(open_trace().is_none());
            assert!(propagate().is_none());
        }
        let (events, dropped) = snapshot();
        assert!(events.is_empty(), "no events while tracing is off");
        assert_eq!(dropped, 0);
        crate::set_mode(before);
    }

    #[test]
    fn explicit_roots_and_stages() {
        let events = with_trace_mode(|| {
            let ctx = open_trace().unwrap();
            let t0 = now_ns();
            record_stage("t.stage", Some(ctx), t0, now_ns());
            instant_under("t.ping", Some(ctx));
            close_root("t.root", Some(ctx), t0);
            snapshot().0
        });
        let root = events.iter().find(|e| e.name == "t.root").unwrap();
        let stage = events.iter().find(|e| e.name == "t.stage").unwrap();
        let ping = events.iter().find(|e| e.name == "t.ping").unwrap();
        assert_eq!(root.parent_id, 0);
        assert_eq!(stage.parent_id, root.span_id);
        assert_eq!(ping.parent_id, root.span_id);
        assert_eq!(stage.trace_id, root.trace_id);
    }

    #[test]
    fn cross_thread_adoption_parents_correctly() {
        let events = with_trace_mode(|| {
            {
                let root = span("t.spawn_root");
                let ctx = propagate();
                assert_eq!(ctx, root.ctx());
                std::thread::scope(|scope| {
                    for _ in 0..2 {
                        scope.spawn(move || {
                            let _w = span_under("t.worker", ctx);
                            let _n = span("t.worker_item");
                        });
                    }
                });
            }
            snapshot().0
        });
        let root = events.iter().find(|e| e.name == "t.spawn_root").unwrap();
        let workers: Vec<_> = events.iter().filter(|e| e.name == "t.worker").collect();
        let items: Vec<_> = events
            .iter()
            .filter(|e| e.name == "t.worker_item")
            .collect();
        assert_eq!(workers.len(), 2);
        assert_eq!(items.len(), 2);
        for w in &workers {
            assert_eq!(w.parent_id, root.span_id);
            assert_eq!(w.trace_id, root.trace_id);
            assert_ne!(w.thread, root.thread, "workers record on their own rings");
        }
        for item in &items {
            assert!(workers.iter().any(|w| w.span_id == item.parent_id));
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let (events, dropped, cap) = with_trace_mode(|| {
            let cap = capacity();
            for _ in 0..cap + 10 {
                let _s = span("t.wrap");
            }
            let (events, dropped) = snapshot();
            (events, dropped, cap)
        });
        let wraps = events.iter().filter(|e| e.name == "t.wrap").count();
        assert_eq!(wraps, cap);
        assert!(dropped >= 10, "wrapped events are counted as dropped");
    }

    #[test]
    fn json_round_trip_and_validation() {
        let events = vec![
            TraceEvent {
                name: "a".into(),
                kind: TraceKind::Span,
                trace_id: 1,
                span_id: 2,
                parent_id: 0,
                thread: 1,
                start_ns: 100,
                dur_ns: 50,
            },
            TraceEvent {
                name: "b".into(),
                kind: TraceKind::Instant,
                trace_id: 1,
                span_id: 3,
                parent_id: 2,
                thread: 2,
                start_ns: 120,
                dur_ns: 0,
            },
        ];
        let json = events_to_json(&events, 7);
        let reparsed = Json::parse(&json.render()).unwrap();
        let (back, dropped) = events_from_json(&reparsed).unwrap();
        assert_eq!(back, events);
        assert_eq!(dropped, 7);
    }

    #[test]
    fn section_validation_rejects_bad_shapes() {
        let bad = [
            Json::obj(vec![("events", Json::Arr(vec![]))]), // no dropped
            Json::obj(vec![("dropped", Json::U64(0))]),     // no events
            Json::obj(vec![
                ("dropped", Json::U64(0)),
                (
                    "events",
                    Json::Arr(vec![Json::obj(vec![("name", Json::str("x"))])]),
                ),
            ]),
        ];
        for doc in &bad {
            assert!(validate_section(doc).is_err(), "accepted: {}", doc.render());
        }
    }

    #[test]
    fn chrome_export_is_valid_and_ordered() {
        let events = vec![
            TraceEvent {
                name: "late".into(),
                kind: TraceKind::Span,
                trace_id: 1,
                span_id: 5,
                parent_id: 2,
                thread: 1,
                start_ns: 900,
                dur_ns: 10,
            },
            TraceEvent {
                name: "early".into(),
                kind: TraceKind::Instant,
                trace_id: 1,
                span_id: 4,
                parent_id: 2,
                thread: 1,
                start_ns: 200,
                dur_ns: 0,
            },
        ];
        let doc = chrome_trace(&[("run-a".to_string(), events)]);
        validate_chrome(&doc).unwrap();
        let rows = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 3, "metadata + two events");
        let names: Vec<_> = rows
            .iter()
            .map(|r| r.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, vec!["process_name", "early", "late"]);
        let early = &rows[1];
        assert_eq!(early.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(early.get("ts").and_then(Json::as_f64), Some(0.2));
        let late = &rows[2];
        assert_eq!(late.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(late.get("dur").and_then(Json::as_f64), Some(0.01));
    }

    #[test]
    fn chrome_validation_rejects_bad_documents() {
        let bad = [
            Json::obj(vec![("displayTimeUnit", Json::str("ns"))]),
            Json::obj(vec![(
                "traceEvents",
                Json::Arr(vec![Json::obj(vec![("name", Json::str("x"))])]),
            )]),
            Json::obj(vec![(
                "traceEvents",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("x")),
                    ("ph", Json::str("X")),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(1)),
                    ("ts", Json::F64(1.0)),
                    // missing dur on an X event
                ])]),
            )]),
        ];
        for doc in &bad {
            assert!(validate_chrome(doc).is_err(), "accepted: {}", doc.render());
        }
    }
}
