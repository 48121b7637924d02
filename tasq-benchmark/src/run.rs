//! The command line: `run` (the default) and `compare`.

use crate::report::{results_file, Machine, Outcome};
use crate::sut::SutError;
use crate::{compare, layers, serving, spec, training};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

/// Usage text.
pub const USAGE: &str = "\
usage: tasq-benchmark [run] --seed <u64> [--workload <name>] [--seconds <n>] [--trace <0|1>]
                      [--quick] [--out <json>]
       tasq-benchmark compare <a.json[,a2.json..]> <b.json[,b2.json..]> [--spec <BENCHMARK.json>]

run      measures one workload (all four, each in its own process, when --workload is
         omitted), prints every metric as `workload metric value unit`, and ends with one
         JSON object on the last line. --trace 1 reports the per-layer metrics instead of the
         end-to-end ones and writes a Chrome trace under tasq-benchmark/out/.
compare  judges run set B against run set A per workload and end-to-end metric with the
         bounds of BENCHMARK.json: within / worse / better / unresolved; exit 1 on worse.
workloads: serve_adhoc serve_recurring net_recurring train_offline";

/// Parsed `run` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// One workload, or all when absent.
    pub workload: Option<String>,
    /// Length of the measured phase in seconds.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Three segments, one training pair: for tests.
    pub quick: bool,
    /// Where to save the results file.
    pub out: Option<PathBuf>,
}

/// Default measured length: what `BENCHMARK.json` registers.
pub const DEFAULT_SECONDS: u64 = 20;

/// Parse the arguments after an optional leading `run`.
pub fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        seed: 0,
        workload: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut seed_given = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?;
                seed_given = true;
            }
            "--workload" => {
                let name = value()?;
                if !spec::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seed_given {
        return Err("--seed is required".to_string());
    }
    Ok(parsed)
}

/// Directory for what a run leaves behind (traces, per-workload results
/// of a full run). Inside the benchmark's own directory, and ignored by
/// git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Measure one workload in this process.
pub fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, SutError> {
    let budget = Duration::from_secs(args.seconds);
    let segments = if args.quick {
        3
    } else {
        (budget.as_millis() / serving::SEGMENT.as_millis()) as usize
    };
    match (serving::by_name(name), args.trace) {
        (Some(workload), false) => workload.measure(
            args.seed,
            segments.max(1),
            if args.quick { 1 } else { serving::SET_UPS },
        ),
        (Some(workload), true) => layers::traced_serving(&workload, args.seed, budget, args.quick),
        (None, false) => {
            let (budget, pairs, set_ups) = if args.quick {
                (Duration::ZERO, 1, 1)
            } else {
                (budget, 2, training::SET_UPS)
            };
            training::measure(args.seed, budget, pairs, set_ups)
        }
        (None, true) => layers::traced_training(args.seed, budget, args.quick),
    }
}

/// `run`: one workload here, or every workload in a child process each
/// (a fresh metrics registry and a fresh peak-RSS mark per workload).
/// Returns the process exit code.
pub fn run(args: &RunArgs) -> Result<i32, SutError> {
    let machine = Machine::read();
    let mut documents = Vec::new();
    let mut all_correct = true;
    if let Some(name) = &args.workload {
        let mut outcome = run_workload(name, args)?;
        outcome.notes.insert(0, machine.note());
        print!("{}", outcome.text());
        documents.push(outcome.document(args.seed, args.trace));
        all_correct = outcome.correct;
        save(args, &machine, &documents)?;
        println!("{}", outcome.result_line());
    } else {
        std::fs::create_dir_all(out_dir())?;
        for name in spec::WORKLOADS {
            let part = out_dir().join(format!("part-{name}.json"));
            let mut child = Command::new(std::env::current_exe()?);
            child.args(["run", "--workload", name, "--seed", &args.seed.to_string()]);
            child.args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ]);
            if args.quick {
                child.arg("--quick");
            }
            let status = child.arg("--out").arg(&part).status()?;
            // `results_file` writes one run per line.
            let text = std::fs::read_to_string(&part)?;
            let runs = text
                .lines()
                .filter(|line| line.starts_with("{\"workload\""));
            documents.extend(runs.map(|line| line.trim_end_matches(',').to_string()));
            all_correct &= status.success();
        }
        save(args, &machine, &documents)?;
    }
    Ok(if all_correct { 0 } else { 1 })
}

fn save(args: &RunArgs, machine: &Machine, documents: &[String]) -> Result<(), SutError> {
    if let Some(path) = &args.out {
        std::fs::write(path, results_file(machine, documents))?;
    }
    Ok(())
}

/// Entry point behind `main`: returns the exit code.
pub fn main_with(args: &[String]) -> i32 {
    let (command, rest) = match args.first().map(String::as_str) {
        Some("compare") => ("compare", &args[1..]),
        Some("run") => ("run", &args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return 0;
        }
        _ => ("run", args),
    };
    let result = if command == "compare" {
        compare::command(rest)
    } else {
        match parse_run(rest) {
            Ok(parsed) => run(&parsed).map_err(|e| e.to_string()),
            Err(message) => {
                eprintln!("tasq-benchmark: {message}\n{USAGE}");
                return 2;
            }
        }
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("tasq-benchmark: {message}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_invocation() {
        let parsed = parse_run(&args(&[
            "--workload",
            "net_recurring",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(parsed.workload.as_deref(), Some("net_recurring"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace, parsed.quick),
            (7, 20, true, false)
        );
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse_run(&args(&["--seed", "1", "--workload", "nope"])).is_err());
        assert!(
            parse_run(&args(&["--workload", "serve_adhoc"])).is_err(),
            "seed is required"
        );
        assert!(parse_run(&args(&["--seed", "1", "--trace", "yes"])).is_err());
        assert!(parse_run(&args(&["--seed", "1", "--seconds", "0"])).is_err());
        assert!(parse_run(&args(&["--seed", "-1"])).is_err());
    }
}
