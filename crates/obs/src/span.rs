//! Structured hierarchical spans and the global subscriber.
//!
//! # Span model
//!
//! A span is an RAII region: [`span`] opens it, dropping the returned
//! [`SpanGuard`] closes it. Each thread keeps a stack of open span ids in
//! thread-local storage, so nesting is tracked automatically and the
//! guard's `Drop` — which runs during unwinding too — restores the parent
//! even when a panic is captured mid-span (the `tasq-par` runtime relies
//! on this). Cross-thread parenting is explicit: capture
//! [`current_span_id`] on the submitting thread and open worker spans
//! with [`span_with_parent`].
//!
//! # Recording
//!
//! Closed spans are appended to a fixed-capacity ring buffer **owned by
//! the recording thread** — the hot path touches no locks; the ring is
//! drained into a global collector when it fills (amortized), when the
//! thread exits, and on [`take_collected`]. The collector is bounded:
//! beyond [`COLLECTOR_CAPACITY`] events it counts drops instead of
//! growing.
//!
//! # Zero cost when off
//!
//! The subscriber state is one `AtomicU8`. With the subscriber off the
//! entire span path is: one relaxed load, compare with zero, return an
//! inert guard. No clock read, no allocation, no thread-local access.

use std::cell::RefCell;
use std::fmt;
use std::io::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::clock;
use crate::sync::{Mutex, Rank};

/// Verbosity of a span or point event. Lower = more severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 1,
    /// Degraded but continuing (retries, sheds, fallbacks).
    Warn = 2,
    /// Pipeline phases and lifecycle milestones.
    Info = 3,
    /// Per-round / per-epoch / per-batch detail.
    Debug = 4,
    /// Per-task detail (parallel-runtime chunks, individual flights).
    Trace = 5,
}

impl Level {
    /// Parse a level name (case-insensitive). `"off"` / `"none"` parse to
    /// `None`; unknown names return an error message naming the choices.
    pub fn parse(name: &str) -> Result<Option<Level>, String> {
        match name.to_ascii_lowercase().as_str() {
            "off" | "none" => Ok(None),
            "error" => Ok(Some(Level::Error)),
            "warn" => Ok(Some(Level::Warn)),
            "info" => Ok(Some(Level::Info)),
            "debug" => Ok(Some(Level::Debug)),
            "trace" => Ok(Some(Level::Trace)),
            other => Err(format!(
                "unknown log level `{other}` (expected off|error|warn|info|debug|trace)"
            )),
        }
    }

    /// Fixed-width uppercase tag for stderr lines.
    pub fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN ",
            Level::Info => "INFO ",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// One structured field value. Strings are `&'static str` so recording a
/// field never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static string.
    Str(&'static str),
    /// 128-bit trace id, displayed as 32 hex digits so one request's
    /// spans grep identically across processes and export formats.
    TraceId(u128),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::TraceId(v) => write!(f, "{v:032x}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

/// A closed span as stored by the in-memory collector.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Process-unique span id (ids start at 1; 0 means "no span").
    pub id: u64,
    /// Id of the enclosing span, or 0 for roots.
    pub parent: u64,
    /// Span name.
    pub name: &'static str,
    /// Verbosity the span was opened at.
    pub level: Level,
    /// Recording thread's obs-internal index (see [`thread_names`]).
    pub thread: u64,
    /// Open timestamp, microseconds since the [`crate::clock`] anchor.
    pub start_us: u64,
    /// Close-minus-open duration in microseconds.
    pub dur_us: u64,
    /// Structured fields captured at open.
    pub fields: Vec<(&'static str, FieldValue)>,
}

// ---------------------------------------------------------------------------
// Subscriber state: bits 0..=2 hold the stderr level (0 = silent), bit 3 is
// the collect flag. Off is the all-zero state so the disabled fast path is a
// single comparison against 0.
// ---------------------------------------------------------------------------

static STATE: AtomicU8 = AtomicU8::new(0);
const COLLECT_BIT: u8 = 0b1000;
const LEVEL_MASK: u8 = 0b0111;

/// Configure the global subscriber.
///
/// `stderr` enables human log lines at and above the given level;
/// `collect` enables the in-memory collector (for trace export). Passing
/// `(None, false)` is equivalent to [`subscriber_off`]. Anchors the
/// [`crate::clock`] when anything is enabled.
pub fn set_subscriber(stderr: Option<Level>, collect: bool) {
    if stderr.is_some() || collect {
        clock::init();
    }
    let bits = stderr.map_or(0, |l| l as u8) | if collect { COLLECT_BIT } else { 0 };
    STATE.store(bits, Ordering::SeqCst);
}

/// Disable the subscriber: spans become one relaxed load + an inert guard.
pub fn subscriber_off() {
    STATE.store(0, Ordering::SeqCst);
}

/// Whether the in-memory collector is currently enabled (i.e. spans are
/// being buffered for trace export).
pub fn collect_enabled() -> bool {
    state() & COLLECT_BIT != 0
}

#[inline]
fn state() -> u8 {
    STATE.load(Ordering::Relaxed)
}

fn stderr_enabled(state: u8, level: Level) -> bool {
    (level as u8) <= (state & LEVEL_MASK)
}

// ---------------------------------------------------------------------------
// Per-thread context and the global collector.
// ---------------------------------------------------------------------------

/// Capacity of each thread-owned ring; filling it triggers an amortized
/// drain into the global collector.
const RING_CAPACITY: usize = 1024;

/// Hard cap on events retained by the global collector. Beyond this,
/// events are counted as dropped instead of buffered — a long traced run
/// degrades to a truncated trace, never to unbounded memory.
pub const COLLECTOR_CAPACITY: usize = 1 << 20;

struct Collector {
    events: Vec<SpanEvent>,
    dropped: u64,
    threads: Vec<(u64, String)>,
}

fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR.get_or_init(|| {
        Mutex::new(
            Rank::SpanCollector,
            Collector { events: Vec::new(), dropped: 0, threads: Vec::new() },
        )
    })
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

struct ThreadCtx {
    thread: u64,
    stack: Vec<u64>,
    ring: Vec<SpanEvent>,
}

impl ThreadCtx {
    fn new() -> Self {
        let thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{thread}"));
        let mut collector = collector().lock();
        collector.threads.push((thread, name));
        Self { thread, stack: Vec::new(), ring: Vec::with_capacity(RING_CAPACITY) }
    }

    fn push_event(&mut self, event: SpanEvent) {
        if self.ring.len() >= RING_CAPACITY {
            drain_ring(&mut self.ring);
        }
        self.ring.push(event);
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        drain_ring(&mut self.ring);
    }
}

fn drain_ring(ring: &mut Vec<SpanEvent>) {
    if ring.is_empty() {
        return;
    }
    let mut collector = collector().lock();
    let room = COLLECTOR_CAPACITY.saturating_sub(collector.events.len());
    if room >= ring.len() {
        collector.events.append(ring);
    } else {
        collector.dropped += (ring.len() - room) as u64;
        collector.events.extend(ring.drain(..room));
        ring.clear();
    }
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::new());
}

// ---------------------------------------------------------------------------
// Span API.
// ---------------------------------------------------------------------------

/// RAII guard for an open span; dropping it closes the span. Not `Send`:
/// a guard must close on the thread that opened it (use
/// [`span_with_parent`] to link work handed to another thread).
#[derive(Debug)]
pub struct SpanGuard {
    id: u64,
    parent: u64,
    name: &'static str,
    level: Level,
    start_us: u64,
    collect: bool,
    fields: Vec<(&'static str, FieldValue)>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    fn inactive() -> Self {
        SpanGuard {
            id: 0,
            parent: 0,
            name: "",
            level: Level::Trace,
            start_us: 0,
            collect: false,
            fields: Vec::new(),
            _not_send: PhantomData,
        }
    }

    /// Process-unique id of this span (0 when the subscriber was off at
    /// open time).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Open a span nested under the current thread's innermost open span.
///
/// With the subscriber off this is one relaxed atomic load returning an
/// inert guard.
#[inline]
pub fn span(level: Level, name: &'static str, fields: &[(&'static str, FieldValue)]) -> SpanGuard {
    let state = state();
    if state == 0 {
        return SpanGuard::inactive();
    }
    open_span(state, level, name, None, fields)
}

/// Open a span with an explicit parent id (0 = root) instead of the
/// thread-local innermost span — the cross-thread linking primitive:
/// capture [`current_span_id`] where work is submitted and pass it to the
/// worker thread.
#[inline]
pub fn span_with_parent(
    level: Level,
    name: &'static str,
    parent: u64,
    fields: &[(&'static str, FieldValue)],
) -> SpanGuard {
    let state = state();
    if state == 0 {
        return SpanGuard::inactive();
    }
    open_span(state, level, name, Some(parent), fields)
}

fn open_span(
    state: u8,
    level: Level,
    name: &'static str,
    parent_override: Option<u64>,
    fields: &[(&'static str, FieldValue)],
) -> SpanGuard {
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let start_us = clock::now_micros();
    let mut parent = parent_override.unwrap_or(0);
    let mut depth = 0;
    let _ = CTX.try_with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        if parent_override.is_none() {
            parent = ctx.stack.last().copied().unwrap_or(0);
        }
        depth = ctx.stack.len();
        ctx.stack.push(id);
    });
    if stderr_enabled(state, level) {
        emit_stderr(level, name, depth, start_us, fields);
    }
    SpanGuard {
        id,
        parent,
        name,
        level,
        start_us,
        collect: state & COLLECT_BIT != 0,
        fields: fields.to_vec(),
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_us = clock::now_micros();
        let _ = CTX.try_with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            // Pop our own frame. rposition is defensive: a guard leaked
            // across a captured panic may close out of order, and
            // truncating to our frame restores a consistent parent.
            if let Some(at) = ctx.stack.iter().rposition(|&id| id == self.id) {
                ctx.stack.truncate(at);
            }
            if self.collect {
                let thread = ctx.thread;
                ctx.push_event(SpanEvent {
                    id: self.id,
                    parent: self.parent,
                    name: self.name,
                    level: self.level,
                    thread,
                    start_us: self.start_us,
                    dur_us: end_us.saturating_sub(self.start_us),
                    fields: std::mem::take(&mut self.fields),
                });
            }
        });
    }
}

/// Innermost open span id on this thread (0 when none, or subscriber off).
pub fn current_span_id() -> u64 {
    if state() == 0 {
        return 0;
    }
    CTX.try_with(|ctx| ctx.borrow().stack.last().copied().unwrap_or(0)).unwrap_or(0)
}

/// Record a point event (a zero-duration span): logged to stderr when the
/// level passes the filter, collected as a `dur_us == 0` [`SpanEvent`]
/// when collection is on.
pub fn event(level: Level, name: &'static str, fields: &[(&'static str, FieldValue)]) {
    let state = state();
    if state == 0 {
        return;
    }
    let now_us = clock::now_micros();
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let _ = CTX.try_with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let depth = ctx.stack.len();
        if stderr_enabled(state, level) {
            emit_stderr(level, name, depth, now_us, fields);
        }
        if state & COLLECT_BIT != 0 {
            let parent = ctx.stack.last().copied().unwrap_or(0);
            let thread = ctx.thread;
            ctx.push_event(SpanEvent {
                id,
                parent,
                name,
                level,
                thread,
                start_us: now_us,
                dur_us: 0,
                fields: fields.to_vec(),
            });
        }
    });
}

fn emit_stderr(
    level: Level,
    name: &'static str,
    depth: usize,
    at_us: u64,
    fields: &[(&'static str, FieldValue)],
) {
    let mut line = String::with_capacity(64);
    let secs = at_us / 1_000_000;
    let micros = at_us % 1_000_000;
    let _ = fmt::Write::write_fmt(
        &mut line,
        format_args!("[{secs:>4}.{micros:06} {}] ", level.tag()),
    );
    for _ in 0..depth {
        line.push_str("  ");
    }
    line.push_str(name);
    for (key, value) in fields {
        let _ = fmt::Write::write_fmt(&mut line, format_args!(" {key}={value}"));
    }
    line.push('\n');
    // Best-effort: a closed stderr must not take the pipeline down.
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

// ---------------------------------------------------------------------------
// Collector access.
// ---------------------------------------------------------------------------

/// Drain the calling thread's ring and take every collected event,
/// resetting the drop counter. Events recorded by threads that are still
/// alive and have not filled their ring are **not** included — join or
/// shut down workers first (the `tasq-par` pool and the scoring server
/// both join workers before results are returned).
pub fn take_collected() -> Vec<SpanEvent> {
    flush_current_thread();
    let mut collector = collector().lock();
    collector.dropped = 0;
    std::mem::take(&mut collector.events)
}

/// Like [`take_collected`] but non-destructive.
pub fn snapshot_collected() -> Vec<SpanEvent> {
    flush_current_thread();
    collector().lock().events.clone()
}

/// Events discarded because the collector hit [`COLLECTOR_CAPACITY`]
/// since the last [`take_collected`].
pub fn collected_dropped() -> u64 {
    collector().lock().dropped
}

/// `(thread index, thread name)` for every thread that ever recorded,
/// in registration order.
pub fn thread_names() -> Vec<(u64, String)> {
    collector().lock().threads.clone()
}

/// Push the calling thread's ring into the global collector now.
pub fn flush_current_thread() {
    let _ = CTX.try_with(|ctx| drain_ring(&mut ctx.borrow_mut().ring));
}

#[cfg(test)]
pub(crate) fn test_lock() -> crate::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(Rank::ObsTest, ());
    LOCK.lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_named(events: &[SpanEvent], name: &str) -> Vec<SpanEvent> {
        events.iter().filter(|e| e.name == name).cloned().collect()
    }

    #[test]
    fn off_subscriber_records_nothing_and_ids_are_zero() {
        let _guard = test_lock();
        subscriber_off();
        let _ = take_collected();
        {
            let outer = span(Level::Info, "off_outer", &[]);
            assert_eq!(outer.id(), 0);
            assert_eq!(current_span_id(), 0);
        }
        assert!(events_named(&take_collected(), "off_outer").is_empty());
    }

    #[test]
    fn nesting_links_parent_ids() {
        let _guard = test_lock();
        set_subscriber(None, true);
        let _ = take_collected();
        let (outer_id, inner_id);
        {
            let outer = span(Level::Info, "nest_outer", &[("k", FieldValue::U64(7))]);
            outer_id = outer.id();
            assert_eq!(current_span_id(), outer_id);
            {
                let inner = span(Level::Debug, "nest_inner", &[]);
                inner_id = inner.id();
                assert_eq!(current_span_id(), inner_id);
            }
            assert_eq!(current_span_id(), outer_id);
        }
        let events = take_collected();
        subscriber_off();
        let outer = &events_named(&events, "nest_outer")[0];
        let inner = &events_named(&events, "nest_inner")[0];
        assert_eq!(inner.parent, outer_id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.id, inner_id);
        assert_eq!(outer.fields, vec![("k", FieldValue::U64(7))]);
        assert!(outer.start_us <= inner.start_us);
    }

    #[test]
    fn parent_restored_after_captured_panic() {
        let _guard = test_lock();
        set_subscriber(None, true);
        let _ = take_collected();
        let outer = span(Level::Info, "panic_outer", &[]);
        let outer_id = outer.id();
        let result = std::panic::catch_unwind(|| {
            let _inner = span(Level::Info, "panic_inner", &[]);
            panic!("boom");
        });
        assert!(result.is_err());
        // The inner guard dropped during unwind: the stack top is restored.
        assert_eq!(current_span_id(), outer_id);
        drop(outer);
        let events = take_collected();
        subscriber_off();
        assert_eq!(events_named(&events, "panic_inner")[0].parent, outer_id);
    }

    #[test]
    fn explicit_parent_overrides_thread_stack() {
        let _guard = test_lock();
        set_subscriber(None, true);
        let _ = take_collected();
        let root = span(Level::Info, "xp_root", &[]);
        let root_id = root.id();
        let handle = std::thread::spawn(move || {
            let child = span_with_parent(Level::Trace, "xp_child", root_id, &[]);
            child.id()
        });
        let child_id = handle.join().unwrap();
        drop(root);
        let events = take_collected();
        subscriber_off();
        let child = &events_named(&events, "xp_child")[0];
        assert_eq!(child.id, child_id);
        assert_eq!(child.parent, root_id);
        let root_ev = &events_named(&events, "xp_root")[0];
        assert_ne!(child.thread, root_ev.thread);
    }

    #[test]
    fn point_events_attach_to_current_span() {
        let _guard = test_lock();
        set_subscriber(None, true);
        let _ = take_collected();
        let outer = span(Level::Info, "ev_outer", &[]);
        let outer_id = outer.id();
        event(Level::Warn, "ev_point", &[("n", FieldValue::I64(-2))]);
        drop(outer);
        let events = take_collected();
        subscriber_off();
        let point = &events_named(&events, "ev_point")[0];
        assert_eq!(point.parent, outer_id);
        assert_eq!(point.dur_us, 0);
    }

    #[test]
    fn level_parsing_round_trips() {
        assert_eq!(Level::parse("off"), Ok(None));
        assert_eq!(Level::parse("INFO"), Ok(Some(Level::Info)));
        assert_eq!(Level::parse("trace"), Ok(Some(Level::Trace)));
        assert!(Level::parse("loud").is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn ring_drains_when_full() {
        let _guard = test_lock();
        set_subscriber(None, true);
        let _ = take_collected();
        for _ in 0..(RING_CAPACITY + 10) {
            let _s = span(Level::Trace, "ring_fill", &[]);
        }
        // The ring drained at least once mid-run; everything is visible
        // after an explicit take.
        let events = take_collected();
        subscriber_off();
        assert_eq!(events_named(&events, "ring_fill").len(), RING_CAPACITY + 10);
    }
}
