//! Benchmark-side spans: recorded around the calls into each layer, kept
//! in memory, written as a Chrome trace when the run ends.
//!
//! The recorder lives on the generator thread; the program itself is not
//! instrumented by it.

use crate::sut::ChromeTrace;
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle of an open or closed span; 0 is "no parent".
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Start, nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds from the recorder's origin (0 while open).
    pub end_ns: u64,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// Request (or replay chunk) the span belongs to.
    pub request: u64,
}

/// In-memory span store. A disabled recorder records nothing and costs
/// one branch per call, so the same driver code runs traced and
/// untraced.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that is on or off for its whole life.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        self.spans.len() as SpanId
    }

    /// Close a span opened by [`Recorder::open`]; its duration in
    /// nanoseconds (0 when disabled).
    pub fn close(&mut self, id: SpanId) -> u64 {
        if id == 0 {
            return 0;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total self time per span name: each span's duration minus the part
    /// of it its direct children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_time = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != 0 {
                child_time[span.parent as usize - 1] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(children);
            *totals.entry(span.name).or_insert(0) += own;
        }
        totals
    }

    /// Render at most `limit` spans (in recording order) as a Chrome
    /// trace document, one track, with parent and request as arguments.
    pub fn chrome_trace(&self, process: &str, limit: usize) -> String {
        let mut trace = ChromeTrace::new();
        trace.set_process_name(1, process);
        trace.set_thread_name(1, 1, "generator");
        for (index, span) in self.spans.iter().take(limit).enumerate() {
            trace.add_complete(
                1,
                1,
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                &[
                    ("span", (index + 1).to_string()),
                    ("parent", span.parent.to_string()),
                    ("request", span.request.to_string()),
                ],
            );
        }
        trace.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::validate_chrome_trace;

    #[test]
    fn self_time_subtracts_children_and_trace_validates() {
        let mut recorder = Recorder::new(true);
        let request = recorder.open("request", 0, 7);
        let submit = recorder.open("submit", request, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let submit_ns = recorder.close(submit);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let request_ns = recorder.close(request);
        assert!(submit_ns >= 2_000_000 && request_ns >= submit_ns + 1_000_000);
        let own = recorder.self_time_ns();
        assert_eq!(own["submit"], submit_ns);
        assert_eq!(own["request"], request_ns - submit_ns);
        let document = recorder.chrome_trace("test", usize::MAX);
        // Two metadata events plus the two spans.
        assert_eq!(validate_chrome_trace(&document), Ok(4));
        assert!(document.contains("\"request\":\"7\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut recorder = Recorder::new(false);
        let id = recorder.open("request", 0, 1);
        assert_eq!((id, recorder.close(id)), (0, 0));
        assert!(recorder.is_empty());
    }
}
