//! Global observability flags shared by every subcommand.
//!
//! `--log <level>` and `--trace-out <path>` may appear anywhere on the
//! command line, before or after the subcommand's own flags. They are
//! stripped here before dispatch, so individual subcommands never see
//! them:
//!
//! * `--log error|warn|info|debug|trace|off` — human-readable span/event
//!   lines on stderr at and above the given level.
//! * `--trace-out <path>` — collect spans in memory and, when the command
//!   finishes, write a Chrome trace-event JSON file loadable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`. Wall-clock spans
//!   land on one process row; commands that run the simulator add its
//!   virtual-time events as a second process row via [`stash_sim_trace`].

use crate::CliError;
use std::sync::OnceLock;
use tasq_obs::sync::{Mutex, Rank};

/// Parsed global observability flags.
pub struct ObsFlags {
    stderr: Option<tasq_obs::Level>,
    trace_out: Option<String>,
}

/// Strip `--log` / `--trace-out` (wherever they appear) from `args`,
/// returning the remaining arguments and the parsed flags.
pub fn extract(args: &[String]) -> Result<(Vec<String>, ObsFlags), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut stderr = None;
    let mut trace_out = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--log" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("missing value for --log".into()))?;
                stderr = tasq_obs::Level::parse(value)
                    .map_err(|e| CliError::Usage(format!("invalid --log level: {e}")))?;
            }
            "--trace-out" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("missing value for --trace-out".into()))?;
                trace_out = Some(value.clone());
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((rest, ObsFlags { stderr, trace_out }))
}

impl ObsFlags {
    /// Whether either flag was given.
    fn active(&self) -> bool {
        self.stderr.is_some() || self.trace_out.is_some()
    }

    /// Configure the global subscriber. A run without observability flags
    /// leaves the subscriber untouched (normally *off*: one relaxed load
    /// per span site).
    pub fn install(&self) {
        if self.active() {
            tasq_obs::set_subscriber(self.stderr, self.trace_out.is_some());
        }
    }

    /// After the command: export the collected spans (and any stashed
    /// simulator traces) as Chrome trace JSON. Returns a human-readable
    /// note to append to the command's output, or `None` when
    /// `--trace-out` was not given.
    pub fn export(&self) -> Result<Option<String>, CliError> {
        let Some(path) = &self.trace_out else {
            return Ok(None);
        };
        tasq_obs::span::flush_current_thread();
        let mut chrome = tasq_obs::export::from_collected("tasq-cli");
        for trace in drain_sim_traces() {
            scope_sim::chrome_track(&trace, &mut chrome);
        }
        let dropped = tasq_obs::span::collected_dropped();
        std::fs::write(path, chrome.render())?;
        let mut note = format!(
            "wrote Chrome trace ({} events) to {path} — load in Perfetto or chrome://tracing\n",
            chrome.len()
        );
        if dropped > 0 {
            note.push_str(&format!("trace truncated: {dropped} spans dropped at capacity\n"));
        }
        Ok(Some(note))
    }
}

fn sim_traces() -> &'static Mutex<Vec<scope_sim::ExecTrace>> {
    static TRACES: OnceLock<Mutex<Vec<scope_sim::ExecTrace>>> = OnceLock::new();
    TRACES.get_or_init(|| Mutex::new(Rank::SimTraces, Vec::new()))
}

/// Deposit a simulator execution trace for the end-of-run export. Called
/// by commands that run the executor while span collection is enabled;
/// the trace becomes a virtual-time process row in the Chrome trace.
pub fn stash_sim_trace(trace: scope_sim::ExecTrace) {
    let mut slot = sim_traces().lock();
    slot.push(trace);
}

fn drain_sim_traces() -> Vec<scope_sim::ExecTrace> {
    let mut slot = sim_traces().lock();
    std::mem::take(&mut *slot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extracts_flags_anywhere_on_the_line() {
        let (rest, flags) = extract(&strings(&[
            "generate", "--log", "info", "--out", "w.bin", "--trace-out", "t.json",
        ]))
        .unwrap();
        assert_eq!(rest, strings(&["generate", "--out", "w.bin"]));
        assert_eq!(flags.stderr, Some(tasq_obs::Level::Info));
        assert_eq!(flags.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn off_level_disables_stderr() {
        let (_, flags) = extract(&strings(&["--log", "off", "inspect"])).unwrap();
        assert_eq!(flags.stderr, None);
        assert!(flags.trace_out.is_none());
    }

    #[test]
    fn bad_level_and_missing_values_are_usage_errors() {
        assert!(extract(&strings(&["--log", "loud"])).is_err());
        assert!(extract(&strings(&["--log"])).is_err());
        assert!(extract(&strings(&["--trace-out"])).is_err());
    }

    #[test]
    fn no_flags_is_inert() {
        let (rest, flags) = extract(&strings(&["serve", "--workers", "2"])).unwrap();
        assert_eq!(rest, strings(&["serve", "--workers", "2"]));
        assert!(!flags.active());
        assert!(flags.export().unwrap().is_none());
    }
}
