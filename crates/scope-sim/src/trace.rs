//! Execution traces.
//!
//! [`ExecTrace`] is a deterministic record of what the event-driven
//! [`crate::exec::Executor`] did (dispatches, placements, finishes,
//! aborts, stage completions) with exact simulated timestamps. Two runs
//! with the same seeds must produce bit-identical traces, and every trace
//! must follow its job's stage DAG; `tests/invariant_checks.rs` checks
//! both. [`chrome_track`] renders a trace onto a Chrome trace.

/// What the executor did at one instant of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEventKind {
    /// A stage's task set entered the ready queue.
    StageDispatched {
        /// Stage index.
        stage: usize,
        /// Number of tasks queued.
        tasks: usize,
    },
    /// A task attempt or speculative copy was placed on a token slot.
    Placed {
        /// Task uid.
        uid: usize,
        /// The task's stage.
        stage: usize,
        /// Whether this is a speculative copy.
        speculative: bool,
    },
    /// A task finished (first finisher wins).
    Finished {
        /// Task uid.
        uid: usize,
        /// The task's stage.
        stage: usize,
    },
    /// A running copy crashed or was preempted.
    Aborted {
        /// Task uid.
        uid: usize,
        /// The task's stage.
        stage: usize,
        /// `true` when the token lease was revoked rather than crashed.
        preempt: bool,
    },
    /// A revoked token lease returned.
    SlotRestored,
    /// A speculative copy of a straggler was queued.
    CopyLaunched {
        /// Task uid.
        uid: usize,
    },
    /// All of a stage's tasks completed.
    StageCompleted {
        /// Stage index.
        stage: usize,
    },
}

/// One executor trace record with its exact simulated timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecEvent {
    /// `f64::to_bits` of the simulated time, so equality is exact.
    pub time_bits: u64,
    /// What happened.
    pub kind: ExecEventKind,
}

impl ExecEvent {
    /// The simulated time in seconds.
    pub fn time(&self) -> f64 {
        f64::from_bits(self.time_bits)
    }
}

/// A full record of one [`crate::exec::Executor`] run.
///
/// Deterministic configurations (no noise, empty fault plan, or identical
/// seeds) must yield bit-identical traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecTrace {
    /// Records in the order the event loop produced them.
    pub events: Vec<ExecEvent>,
}

impl ExecTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record at simulated time `time`.
    pub fn record(&mut self, time: f64, kind: ExecEventKind) {
        self.events.push(ExecEvent { time_bits: time.to_bits(), kind });
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Lane offset for task rows in [`chrome_track`] output: lane 0 is the
/// scheduler, task `uid` renders on lane `uid + 1`.
const CHROME_SCHEDULER_LANE: u64 = 0;

/// Render an executor trace onto the simulator's virtual-time process
/// ([`tasq_obs::export::SIM_PID`]) of a Chrome trace.
///
/// Simulated seconds map to trace microseconds (1 sim-second = 1 unit
/// millisecond in the viewer's default ms display), keeping the virtual
/// timeline readable next to the wall-clock process without pretending
/// the two clocks are the same. Each `Placed → Finished/Aborted` pair
/// becomes one `"X"` complete event on the task's lane; scheduler-side
/// records (dispatch, stage completion, slot restoration, speculative
/// launches) become instants on lane 0.
pub fn chrome_track(trace: &ExecTrace, chrome: &mut tasq_obs::ChromeTrace) {
    const SIM_PID: u32 = tasq_obs::export::SIM_PID;
    let to_us = |bits: u64| f64::from_bits(bits) * 1_000_000.0;
    chrome.set_process_name(SIM_PID, "scope-sim (virtual time)");
    chrome.set_thread_name(SIM_PID, CHROME_SCHEDULER_LANE, "scheduler");
    // Open placements per task uid: a uid can be placed several times
    // (retries after crashes/preemptions, speculative copies), so each
    // lane keeps a stack of (start, speculative) attempts.
    let mut open: Vec<(usize, f64, bool)> = Vec::new();
    for event in &trace.events {
        let ts = to_us(event.time_bits);
        match event.kind {
            ExecEventKind::StageDispatched { stage, tasks } => {
                chrome.add_instant(
                    SIM_PID,
                    CHROME_SCHEDULER_LANE,
                    &format!("dispatch stage {stage} ({tasks} tasks)"),
                    ts,
                );
            }
            ExecEventKind::Placed { uid, speculative, .. } => {
                open.push((uid, ts, speculative));
            }
            ExecEventKind::Finished { uid, stage } => {
                close_attempt(chrome, &mut open, uid, stage, ts, "task");
            }
            ExecEventKind::Aborted { uid, stage, preempt } => {
                let name = if preempt { "task (preempted)" } else { "task (crashed)" };
                close_attempt(chrome, &mut open, uid, stage, ts, name);
            }
            ExecEventKind::SlotRestored => {
                chrome.add_instant(SIM_PID, CHROME_SCHEDULER_LANE, "slot restored", ts);
            }
            ExecEventKind::CopyLaunched { uid } => {
                chrome.add_instant(
                    SIM_PID,
                    CHROME_SCHEDULER_LANE,
                    &format!("speculative copy of task {uid}"),
                    ts,
                );
            }
            ExecEventKind::StageCompleted { stage } => {
                chrome.add_instant(
                    SIM_PID,
                    CHROME_SCHEDULER_LANE,
                    &format!("stage {stage} completed"),
                    ts,
                );
            }
        }
    }
    // Attempts still open at the end of the trace (e.g. cancelled
    // speculation losers with no explicit abort record) render as
    // zero-length markers so no placement silently disappears.
    for (uid, start, speculative) in open {
        let name = if speculative { "task (speculative, unresolved)" } else { "task (unresolved)" };
        chrome.add_complete(SIM_PID, uid as u64 + 1, name, start, 0.0, &[]);
    }
}

fn close_attempt(
    chrome: &mut tasq_obs::ChromeTrace,
    open: &mut Vec<(usize, f64, bool)>,
    uid: usize,
    stage: usize,
    end_us: f64,
    name: &str,
) {
    let Some(at) = open.iter().rposition(|&(u, _, _)| u == uid) else {
        return;
    };
    let (_, start, speculative) = open.remove(at);
    chrome.add_complete(
        tasq_obs::export::SIM_PID,
        uid as u64 + 1,
        name,
        start,
        (end_us - start).max(0.0),
        &[
            ("stage", stage.to_string()),
            ("uid", uid.to_string()),
            ("speculative", speculative.to_string()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_trace_records_and_times() {
        let mut t = ExecTrace::new();
        t.record(1.5, ExecEventKind::SlotRestored);
        assert_eq!(t.len(), 1);
        assert_eq!(t.events[0].time(), 1.5);
    }

    #[test]
    fn chrome_track_pairs_placements_with_finishes() {
        let mut t = ExecTrace::new();
        t.record(0.0, ExecEventKind::StageDispatched { stage: 0, tasks: 2 });
        t.record(0.0, ExecEventKind::Placed { uid: 0, stage: 0, speculative: false });
        t.record(0.5, ExecEventKind::Placed { uid: 1, stage: 0, speculative: false });
        t.record(1.0, ExecEventKind::Aborted { uid: 1, stage: 0, preempt: true });
        t.record(1.2, ExecEventKind::Placed { uid: 1, stage: 0, speculative: false });
        t.record(3.0, ExecEventKind::Finished { uid: 0, stage: 0 });
        t.record(4.0, ExecEventKind::Finished { uid: 1, stage: 0 });
        t.record(4.0, ExecEventKind::StageCompleted { stage: 0 });
        let mut chrome = tasq_obs::ChromeTrace::new();
        chrome_track(&t, &mut chrome);
        let doc = chrome.render();
        let events = tasq_obs::validate_chrome_trace(&doc).expect("structurally valid");
        // 2 metadata + 2 instants + 3 task attempts (one aborted).
        assert_eq!(events, 7);
        assert!(doc.contains("task (preempted)"));
        assert!(doc.contains("\"ts\":3000000") || doc.contains("\"dur\":3000000"));
    }
}
