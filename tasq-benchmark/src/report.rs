//! What a run prints and saves: metrics by name with their unit, the
//! machine fingerprint beside them, and the one-line JSON result.

use crate::spec;
use crate::stats::Estimate;
use crate::sut::json::{self, JsonValue};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`spec::END_TO_END`] or [`spec::PER_LAYER`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Per-segment distribution the value was estimated from, if any.
    pub spread: Option<Estimate>,
}

impl Metric {
    /// A plain value.
    pub fn new(name: &'static str, value: f64) -> Self {
        Self {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            spread: None,
        }
    }

    /// A quiet-quintile estimate with its per-segment spread.
    pub fn estimated(name: &'static str, estimate: Estimate) -> Self {
        Self {
            spread: Some(estimate),
            ..Self::new(name, estimate.value)
        }
    }

    fn unit(&self) -> &'static str {
        spec::unit_of(self.name).unwrap_or("")
    }
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every output checked was correct.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed, were refused, or were answered degraded.
    pub failed: u64,
    /// The metrics of this run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics (checks, tables).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The human-readable lines: notes, then `workload metric value unit`.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for metric in &self.metrics {
            let _ = write!(
                out,
                "{} {} {} {}",
                self.workload,
                metric.name,
                metric.value,
                metric.unit()
            );
            if let Some(s) = metric.spread {
                let _ = write!(
                    out,
                    "  (segment median {:.4}, quartiles {:.4}..{:.4}, {} segments)",
                    s.median, s.q1, s.q3, s.segments
                );
            }
            out.push('\n');
        }
        out
    }

    /// `"name": {"value": .., "unit": ..}` for every metric, with the
    /// per-segment spread when `with_spread`.
    fn metrics_json(&self, with_spread: bool) -> String {
        let mut out = String::new();
        for (index, metric) in self.metrics.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                metric.name,
                metric.value,
                metric.unit()
            );
            if let (true, Some(s)) = (with_spread, metric.spread) {
                let _ = write!(
                    out,
                    ", \"segment_median\": {}, \"segment_q1\": {}, \"segment_q3\": {}, \"segments\": {}",
                    s.median, s.q1, s.q3, s.segments
                );
            }
            out.push('}');
        }
        out
    }

    /// The contract's result object, on one line.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json(false)
        )
    }

    /// The saved form: the result plus per-segment spread, for `compare`.
    pub fn document(&self, seed: u64, traced: bool) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"traced\": {traced}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.workload,
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(true)
        )
    }
}

/// Wrap saved workload documents into one results file.
pub fn results_file(machine: &Machine, documents: &[String]) -> String {
    format!(
        "{{\"machine\": {{\"nproc\": {}, \"kernel\": \"{}\", \"cpu\": \"{}\"}}, \"runs\": [\n{}\n]}}\n",
        machine.nproc,
        json::escape(&machine.kernel),
        json::escape(&machine.cpu),
        documents.join(",\n")
    )
}

/// `(workload, metric) -> value` pairs of a results file.
pub fn read_results(text: &str) -> Result<Vec<(String, String, f64)>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or("results file has no \"runs\"")?;
    let mut values = Vec::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("run without workload")?;
        let metrics = run
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("run without metrics")?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or("metric without value")?;
            values.push((workload.to_string(), name.clone(), value));
        }
    }
    Ok(values)
}

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// CPU model name.
    pub cpu: String,
}

impl Machine {
    /// Read the fingerprint from `/proc` (fields read "unknown" where
    /// the platform does not offer them).
    pub fn read() -> Self {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu = read("/proc/cpuinfo")
            .lines()
            .find(|line| line.starts_with("model name"))
            .and_then(|line| line.split(':').nth(1))
            .map_or("unknown".to_string(), |model| model.trim().to_string());
        let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
        Self {
            nproc: nproc(),
            kernel: if kernel.is_empty() {
                "unknown".to_string()
            } else {
                kernel
            },
            cpu,
        }
    }

    /// One line for the run's notes.
    pub fn note(&self) -> String {
        format!(
            "machine: nproc {} | kernel {} | cpu {}",
            self.nproc, self.kernel, self.cpu
        )
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, in MB (`VmHWM`): since the process
/// started, or since the last [`restart_peak_rss`] that succeeded.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ask the kernel to restart this process's resident-set high-water mark
/// from its current resident set. Where the kernel refuses, the mark
/// simply keeps its process-wide meaning.
pub fn restart_peak_rss() {
    // "5" is the documented clear_refs command that resets VmHWM.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hand the allocator's free pages back to the kernel, so that what one
/// segment left cached in the heap is not counted as the next segment's
/// resident set.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` is glibc's own entry point (the standard
        // library links glibc on this target), takes no pointers, and is
        // safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set per segment. The high-water mark of a whole process
/// is the maximum over everything it ever did: one large pass early on
/// and the heap it leaves cached set the figure for the rest of the run,
/// and it ranged over 40 % of its median between runs. Each segment
/// therefore starts from a trimmed heap and a restarted mark, and the
/// median over segments of the segment's own peak is reported.
#[derive(Debug, Default)]
pub struct SegmentRss {
    peaks_mb: Vec<f64>,
    process_peak_mb: f64,
}

impl SegmentRss {
    /// Call when a segment starts.
    pub fn begin(&mut self) {
        self.process_peak_mb = self.process_peak_mb.max(peak_rss_mb());
        release_free_heap();
        restart_peak_rss();
    }

    /// Call when the segment ends.
    pub fn end(&mut self) {
        let peak = peak_rss_mb();
        self.process_peak_mb = self.process_peak_mb.max(peak);
        self.peaks_mb.push(peak);
    }

    /// The `peak_rss_mb` metric: median over segments of the segment peak.
    pub fn metric(&self) -> Metric {
        Metric::new("peak_rss_mb", crate::stats::quantile(&self.peaks_mb, 0.5))
    }

    /// One line for the run's notes.
    pub fn note(&self) -> String {
        format!(
            "resident set: peak of the whole process {:.1} MB (set-up included); reported is the median \
             over {} segments of each segment's own peak",
            self.process_peak_mb,
            self.peaks_mb.len()
        )
    }
}

/// The frozen single-thread calibration kernel: a 48x64 matrix-vector
/// product and six small allocations per operation, run for `budget`.
/// Returns thousands of operations per second. It is never changed, so
/// its reading tells machine speed apart from program speed.
pub fn ref_kops(budget: Duration) -> f64 {
    const ROWS: usize = 48;
    const COLS: usize = 64;
    let matrix: Vec<f64> = (0..ROWS * COLS)
        .map(|i| ((i * 37 % 101) as f64) / 101.0)
        .collect();
    let mut vector: Vec<f64> = (0..COLS).map(|i| 1.0 + (i as f64) / 64.0).collect();
    let start = Instant::now();
    let mut operations = 0u64;
    let mut sink = 0.0;
    while start.elapsed() < budget {
        for _ in 0..16 {
            let mut out = vec![0.0f64; ROWS];
            for (row, slot) in out.iter_mut().enumerate() {
                let weights = &matrix[row * COLS..(row + 1) * COLS];
                *slot = weights.iter().zip(&vector).map(|(w, v)| w * v).sum();
            }
            for size in [8usize, 16, 24, 32, 48] {
                let scratch: Vec<f64> = out.iter().take(size).copied().collect();
                sink += std::hint::black_box(&scratch)[size - 1];
            }
            vector[operations as usize % COLS] = 1.0 + out[0].fract();
            operations += 1;
        }
    }
    std::hint::black_box(sink);
    operations as f64 / start.elapsed().as_secs_f64() / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{quiet_quintile, Better};

    fn outcome() -> Outcome {
        Outcome {
            workload: "serve_adhoc",
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.8127),
                Metric::estimated(
                    "capacity_per_s",
                    quiet_quintile(&[10.0, 20.0, 30.0, 40.0, 50.0], Better::Higher),
                ),
            ],
            notes: vec!["hello".to_string()],
        }
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let line = outcome().result_line();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn text_prints_workload_metric_value_unit() {
        let text = outcome().text();
        assert!(
            text.starts_with("# hello\nserve_adhoc setup_s 0.8127 s\n"),
            "{text}"
        );
        assert!(
            text.contains("serve_adhoc capacity_per_s 42 1/s  (segment median 30.0000"),
            "{text}"
        );
    }

    #[test]
    fn results_file_round_trips_through_the_reader() {
        let machine = Machine {
            nproc: 2,
            kernel: "k".into(),
            cpu: "c \"x\"".into(),
        };
        let file = results_file(&machine, &[outcome().document(7, false)]);
        let values = read_results(&file).expect("parses");
        assert_eq!(values.len(), 2);
        assert_eq!(
            values[0],
            ("serve_adhoc".to_string(), "setup_s".to_string(), 0.8127)
        );
        assert_eq!(values[1].2, 42.0);
    }

    #[test]
    fn calibration_kernel_and_rss_read_something() {
        assert!(ref_kops(Duration::from_millis(5)) > 0.0);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
