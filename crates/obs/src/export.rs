//! Chrome trace-event JSON export.
//!
//! Renders collected spans (and any extra caller-supplied tracks) in the
//! [Trace Event Format] consumed by Perfetto (<https://ui.perfetto.dev>)
//! and `chrome://tracing`: a `{"traceEvents": [...]}` object whose
//! entries are `"X"` (complete) events with microsecond `ts`/`dur`, plus
//! `"M"` (metadata) events naming processes and threads.
//!
//! Tracks follow a two-process convention: [`WALL_PID`] carries real
//! wall-clock spans, timestamped by [`crate::clock`] (one thread row per
//! recording thread), and
//! [`SIM_PID`] carries the simulator's *virtual* timeline — `scope-sim`
//! records simulated seconds, which the exporter maps to microseconds so
//! both timelines are readable in one view (they are different clocks;
//! the split into separate process rows makes that explicit).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::JsonValue;
use crate::span::{self, FieldValue, SpanEvent};

/// Process id for wall-clock span tracks.
pub const WALL_PID: u32 = 1;
/// Process id for the simulator's virtual-time tracks.
pub const SIM_PID: u32 = 2;

/// Incremental builder for a Chrome trace-event document.
#[derive(Default)]
pub struct ChromeTrace {
    events: Vec<JsonValue>,
}

impl ChromeTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events added so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name a process row.
    pub fn set_process_name(&mut self, pid: u32, name: &str) {
        self.add_metadata("process_name", pid, 0, name);
    }

    /// Name a thread row within a process.
    pub fn set_thread_name(&mut self, pid: u32, tid: u64, name: &str) {
        self.add_metadata("thread_name", pid, tid, name);
    }

    fn add_metadata(&mut self, kind: &str, pid: u32, tid: u64, name: &str) {
        self.events.push(JsonValue::object([
            ("name", kind.into()),
            ("ph", "M".into()),
            ("pid", u64::from(pid).into()),
            ("tid", tid.into()),
            ("args", JsonValue::object([("name", name.into())])),
        ]));
    }

    /// Add one `"X"` complete event. `ts_us`/`dur_us` are microseconds on
    /// the track's own clock (non-finite ones print as 0, which Chrome
    /// requires); `args` become the event's argument map.
    pub fn add_complete(
        &mut self,
        pid: u32,
        tid: u64,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, String)],
    ) {
        self.events.push(JsonValue::object([
            ("name", name.into()),
            ("ph", "X".into()),
            ("pid", u64::from(pid).into()),
            ("tid", tid.into()),
            ("ts", ts_us.into()),
            ("dur", dur_us.into()),
            ("args", JsonValue::object(args.iter().map(|(k, v)| (*k, v.as_str().into())))),
        ]));
    }

    /// Add one `"i"` instant event (thread-scoped).
    pub fn add_instant(&mut self, pid: u32, tid: u64, name: &str, ts_us: f64) {
        self.events.push(JsonValue::object([
            ("name", name.into()),
            ("ph", "i".into()),
            ("s", "t".into()),
            ("pid", u64::from(pid).into()),
            ("tid", tid.into()),
            ("ts", ts_us.into()),
            ("args", JsonValue::object([])),
        ]));
    }

    /// Render collected spans as complete events on `pid`, one thread row
    /// per recording thread. Span ids/parents and structured fields land
    /// in `args` so the hierarchy survives into the viewer.
    pub fn add_spans(&mut self, pid: u32, spans: &[SpanEvent]) {
        for span in spans {
            let mut args: Vec<(&str, String)> = vec![
                ("span", span.id.to_string()),
                ("parent", span.parent.to_string()),
                ("level", span.level.tag().trim().to_string()),
            ];
            for (key, value) in &span.fields {
                args.push((key, field_text(value)));
            }
            self.add_complete(
                pid,
                span.thread,
                span.name,
                span.start_us as f64,
                span.dur_us as f64,
                &args,
            );
        }
    }

    /// Render the document: `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
    pub fn render(&self) -> String {
        JsonValue::object([
            ("traceEvents", JsonValue::Array(self.events.clone())),
            ("displayTimeUnit", "ms".into()),
        ])
        .to_string()
    }
}

/// Drain the global collector into a ready-to-extend trace: names the
/// wall-clock process and every recording thread, then lays collected
/// spans onto [`WALL_PID`]. Callers add simulator tracks on [`SIM_PID`]
/// before [`ChromeTrace::render`].
pub fn from_collected(process_name: &str) -> ChromeTrace {
    let spans = span::take_collected();
    let mut trace = ChromeTrace::new();
    trace.set_process_name(WALL_PID, process_name);
    for (tid, name) in span::thread_names() {
        trace.set_thread_name(WALL_PID, tid, &name);
    }
    trace.add_spans(WALL_PID, &spans);
    trace
}

fn field_text(value: &FieldValue) -> String {
    format!("{value}")
}

/// Structural validator for a Chrome trace document: parses with the
/// crate's own [`crate::json`] parser and checks the invariants Perfetto
/// relies on (a `traceEvents` array; every event named with `pid`/`tid`;
/// `"X"` events carrying non-negative `ts`/`dur`; metadata events naming
/// their target). Returns the event count on success.
pub fn validate_chrome_trace(doc: &str) -> Result<usize, String> {
    let value = crate::json::parse(doc).map_err(|e| e.to_string())?;
    let events = value
        .get("traceEvents")
        .and_then(crate::json::JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    for event in events {
        let phase = event.get("ph").and_then(|v| v.as_str()).ok_or("event missing ph")?;
        event.get("name").and_then(|v| v.as_str()).ok_or("event missing name")?;
        event.get("pid").and_then(|v| v.as_f64()).ok_or("event missing pid")?;
        event.get("tid").and_then(|v| v.as_f64()).ok_or("event missing tid")?;
        match phase {
            "X" => {
                let ts = event.get("ts").and_then(|v| v.as_f64()).ok_or("X missing ts")?;
                let dur = event.get("dur").and_then(|v| v.as_f64()).ok_or("X missing dur")?;
                if ts < 0.0 || dur < 0.0 {
                    return Err("negative ts/dur".into());
                }
            }
            "i" => {
                event.get("ts").and_then(|v| v.as_f64()).ok_or("i missing ts")?;
            }
            "M" => {
                event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    .ok_or("metadata missing args.name")?;
            }
            other => return Err(format!("unexpected phase {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::span::Level;

    #[test]
    fn built_trace_passes_structural_validation() {
        let mut trace = ChromeTrace::new();
        trace.set_process_name(WALL_PID, "tasq \"quoted\" proc");
        trace.set_thread_name(WALL_PID, 3, "worker-3");
        trace.add_complete(WALL_PID, 3, "phase", 10.0, 25.5, &[("jobs", "12".into())]);
        trace.add_instant(SIM_PID, 0, "stage_completed", 1_000_000.0);
        let doc = trace.render();
        assert_eq!(validate_chrome_trace(&doc), Ok(4));
    }

    #[test]
    fn spans_render_with_hierarchy_args() {
        let spans = vec![SpanEvent {
            id: 5,
            parent: 2,
            name: "fit_xgb",
            level: Level::Info,
            thread: 1,
            start_us: 100,
            dur_us: 50,
            fields: vec![("rounds", FieldValue::U64(80)), ("quick", FieldValue::Bool(true))],
        }];
        let mut trace = ChromeTrace::new();
        trace.add_spans(WALL_PID, &spans);
        let doc = trace.render();
        assert_eq!(validate_chrome_trace(&doc), Ok(1));
        let value = parse(&doc).unwrap();
        let event = &value.get("traceEvents").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(event.get("name").and_then(JsonValue::as_str), Some("fit_xgb"));
        assert_eq!(event.get("ts").and_then(JsonValue::as_f64), Some(100.0));
        assert_eq!(event.get("dur").and_then(JsonValue::as_f64), Some(50.0));
        let args = event.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(JsonValue::as_str), Some("2"));
        assert_eq!(args.get("rounds").and_then(JsonValue::as_str), Some("80"));
        assert_eq!(args.get("quick").and_then(JsonValue::as_str), Some("true"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        let negative =
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\
             \"ts\":-5,\"dur\":1}]}";
        assert!(validate_chrome_trace(negative).is_err());
    }

    #[test]
    fn from_collected_includes_thread_metadata() {
        let _guard = crate::span::test_lock();
        crate::span::set_subscriber(None, true);
        let _ = crate::span::take_collected();
        {
            let _s = crate::span::span(Level::Info, "export_root", &[]);
        }
        let trace = from_collected("tasq-test");
        crate::span::subscriber_off();
        let doc = trace.render();
        assert!(validate_chrome_trace(&doc).unwrap() >= 2);
        assert!(doc.contains("\"export_root\""));
        assert!(doc.contains("process_name"));
    }
}
