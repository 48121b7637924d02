//! Library backing the `tasq` command-line binary.
//!
//! Ten subcommands drive the pipeline from files on disk, with
//! workloads and model artifacts serialized through the workspace's
//! binary codec:
//!
//! * `generate` — synthesize a workload and write it to a file.
//! * `inspect`  — print population statistics of a workload file.
//! * `train`    — prepare a dataset from a workload file, train the NN and
//!   XGBoost models, and register them in a directory-backed model store;
//!   with `--checkpoint-dir` the run is crash-consistent and `--resume`
//!   replays only the remaining work ([`resume`]).
//! * `score`    — load the latest artifacts and score a workload file,
//!   printing per-job allocation decisions.
//! * `flight`   — re-execute a sample of jobs under a fault-injection
//!   preset and report recovery statistics and anomaly filtering.
//! * `serve`    — push a workload through the concurrent scoring server
//!   (`tasq-serve`) and report per-path serving statistics; with
//!   `--listen` it becomes a real network server (`tasq-net`) speaking
//!   HTTP/1.1 and binary framing until drained over the wire.
//! * `netgen`   — networked load-generation client: replay recurring-job
//!   traffic against a listening server over persistent connections and
//!   report latency/throughput as JSON.
//! * `chaos`    — the deterministic chaos harness: kill the checkpointed
//!   trainer mid-run (with a torn tail), resume it, prove the artifacts
//!   bit-identical, then drive the supervised server through planted
//!   worker panics, an NN fault window, and a deadline storm; write a
//!   machine-readable report CI asserts on.
//! * `analyze`  — run the `tasq-analyze` gatekeeper (source lints, lock
//!   audit, plan/PCC invariants, happens-before race replay).
//! * `metrics`  — dump the process-global metrics registry (Prometheus
//!   text exposition or JSON).
//!
//! Commands return their output as a `String` so they are directly
//! testable; `main` just prints.

#![warn(missing_docs)]

pub mod commands;
pub mod obs;
pub mod options;
pub mod resume;

use std::fmt;

/// CLI error: bad usage or an underlying I/O / codec / pipeline failure.
#[derive(Debug)]
pub enum CliError {
    /// Invalid flags or arguments; the string is a usage message.
    Usage(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Artifact encoding/decoding failure.
    Codec(tasq::codec::CodecError),
    /// Model-store failure.
    Store(tasq::pipeline::StoreError),
    /// Training-pipeline failure.
    Pipeline(tasq::pipeline::PipelineError),
    /// `tasq-analyze` found deny-severity diagnostics; the string is the
    /// rendered report.
    Analysis(String),
    /// Checkpoint/recovery failure (`tasq-resil`).
    Resil(tasq_resil::ResilError),
    /// Network serving failure (`tasq-net`).
    Net(tasq_net::NetError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(message) => write!(f, "usage error: {message}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Codec(e) => write!(f, "codec error: {e}"),
            CliError::Store(e) => write!(f, "model store error: {e}"),
            CliError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            CliError::Analysis(report) => write!(f, "{report}"),
            CliError::Resil(e) => write!(f, "checkpoint error: {e}"),
            CliError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<tasq::codec::CodecError> for CliError {
    fn from(e: tasq::codec::CodecError) -> Self {
        CliError::Codec(e)
    }
}

impl From<tasq::pipeline::StoreError> for CliError {
    fn from(e: tasq::pipeline::StoreError) -> Self {
        CliError::Store(e)
    }
}

impl From<tasq::pipeline::PipelineError> for CliError {
    fn from(e: tasq::pipeline::PipelineError) -> Self {
        CliError::Pipeline(e)
    }
}

impl From<tasq_resil::ResilError> for CliError {
    fn from(e: tasq_resil::ResilError) -> Self {
        CliError::Resil(e)
    }
}

impl From<tasq_net::NetError> for CliError {
    fn from(e: tasq_net::NetError) -> Self {
        CliError::Net(e)
    }
}

/// Top-level dispatch: run a command line (without the program name).
///
/// The global observability flags `--log <level>` and `--trace-out
/// <path>` are stripped before dispatch and may appear anywhere on the
/// line; when `--trace-out` is given, a Chrome trace-event JSON file is
/// written after the command completes.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (args, obs_flags) = obs::extract(args)?;
    obs_flags.install();
    let mut output = dispatch(&args)?;
    if let Some(note) = obs_flags.export()? {
        output.push_str(&note);
    }
    Ok(output)
}

fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage(USAGE.to_string()));
    };
    match command.as_str() {
        "generate" => commands::generate(rest),
        "inspect" => commands::inspect(rest),
        "train" => commands::train(rest),
        "score" => commands::score(rest),
        "flight" => commands::flight(rest),
        "serve" => commands::serve(rest),
        "netgen" => commands::netgen(rest),
        "chaos" => commands::chaos(rest),
        "analyze" => commands::analyze(rest),
        "metrics" => commands::metrics(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
tasq-cli — token allocation for scalable queries

USAGE:
    tasq-cli generate --out <file> [--jobs N] [--seed N]
    tasq-cli inspect  --workload <file>
    tasq-cli train    --workload <file> --model-dir <dir> [--nn-epochs N] [--xgb-rounds N]
                      [--checkpoint-dir <dir>] [--resume true] [--seed N] [--threads N]
                      [--flight-chunk N]
    tasq-cli score    --workload <file> --model-dir <dir> [--model nn|xgb-ss|xgb-pl]
                      [--min-improvement FRAC]
    tasq-cli flight   --workload <file> [--faults none|mild|production|adversarial]
                      [--sample N] [--seed N]
    tasq-cli serve    --workload <file> [--model-dir <dir>] [--model nn|xgb-ss|xgb-pl]
                      [--workers N] [--max-batch N] [--cache on|off]
                      [--requests N] [--repeat FRAC] [--seed N]
                      [--listen <addr>] [--shards N] [--deadline-ms N]
                      [--autoscale on|off] [--min-workers N] [--max-workers N]
                      [--scale-up FRAC] [--scale-down FRAC] [--cooldown-secs SECS]
                      [--burn-up FRAC]
    tasq-cli netgen   --addr <host:port> --workload <file> [--requests N] [--repeat FRAC]
                      [--qps N] [--seed N] [--mode http|binary] [--connections N]
    tasq-cli chaos    --preset none|mild|production|adversarial [--seed N] [--jobs N]
                      [--requests N] [--dir <dir>] [--out <json>]
    tasq-cli analyze  [--root <dir>] [--mode full|static] [--pass lints|lock-order|
                      resource-leak|unsafe-boundary|lock-discipline]
    tasq-cli metrics  [--format prometheus|json]
    tasq-cli help

GLOBAL FLAGS (any command):
    --log error|warn|info|debug|trace|off   structured span/event lines on stderr
    --trace-out <path>                      write a Chrome trace (Perfetto-loadable)
";
