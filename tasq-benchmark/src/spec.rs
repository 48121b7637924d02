//! Names, units and directions of everything the benchmark reports.
//! `BENCHMARK.json` at the repository root registers the same names (the
//! integration test holds the two together).

use crate::stats::Better::{self, Higher, Lower};

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "serve_adhoc",
    "serve_recurring",
    "net_recurring",
    "train_offline",
];

/// A reported metric: name, unit, and which way is better.
pub type MetricSpec = (&'static str, &'static str, Better);

/// End-to-end metrics; every workload reports every one of them.
///
/// An operation is a scoring request on the serving workloads and one
/// job taken through a full training pass on `train_offline`.
pub const END_TO_END: [MetricSpec; 4] = [
    ("setup_s", "s", Lower),
    ("capacity_per_s", "1/s", Higher),
    ("latency_p50_us", "us", Lower),
    ("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics of the traced run; prefix = crate/module. A metric
/// that does not apply to a workload (a wire metric on an in-process
/// workload, a serving counter on `train_offline`) reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    ("core.codec.encode_ns", "ns", Lower),
    ("core.codec.decode_ns", "ns", Lower),
    ("core.codec.job_bytes", "B", Lower),
    ("core.featurize.job_ns", "ns", Lower),
    ("core.score.nn_ns", "ns", Lower),
    ("core.score.xgb_ss_ns", "ns", Lower),
    ("core.score.xgb_pl_ns", "ns", Lower),
    ("core.score.analytic_ns", "ns", Lower),
    ("serve.signature.ns", "ns", Lower),
    ("serve.cache.hit_ns", "ns", Lower),
    ("serve.cache.miss_ns", "ns", Lower),
    ("serve.cache.insert_evict_ns", "ns", Lower),
    ("serve.submit_hit_ns", "ns", Lower),
    ("serve.submit_miss_ns", "ns", Lower),
    ("serve.cache.hit_share", "ratio", Higher),
    ("serve.cache.evictions_per_req", "count", Lower),
    ("net.fastpath_share", "ratio", Higher),
    ("serve.seg.queue_wait_us_p50", "us", Lower),
    ("serve.seg.batch_wait_us_p50", "us", Lower),
    ("serve.seg.score_us_p50", "us", Lower),
    ("serve.seg.flush_us_p50", "us", Lower),
    ("serve.batch.mean_size", "count", Higher),
    ("serve.queue.peak_depth", "count", Lower),
    ("serve.hop.pingpong_us_p50", "us", Lower),
    ("serve.overhead_us", "us", Lower),
    ("serve.shed_share", "ratio", Lower),
    ("serve.rejected_share", "ratio", Lower),
    ("serve.sweep.p50_us.r1000", "us", Lower),
    ("serve.sweep.p50_us.r5000", "us", Lower),
    ("serve.sweep.p50_us.r20000", "us", Lower),
    ("serve.sweep.p50_us.r40000", "us", Lower),
    ("serve.latency_p99_us", "us", Lower),
    ("net.latency_p99_us", "us", Lower),
    ("gen.late_us_p99", "us", Lower),
    ("net.frame.parse_ns", "ns", Lower),
    ("net.frame.write_ns", "ns", Lower),
    ("net.http.parse_ns", "ns", Lower),
    ("net.http.write_ns", "ns", Lower),
    ("net.binary.rtt_us_p50", "us", Lower),
    ("net.http.rtt_us_p50", "us", Lower),
    ("net.syscalls_per_req", "count", Lower),
    ("net.bytes_in_per_req", "B", Lower),
    ("net.bytes_out_per_req", "B", Lower),
    ("net.wire_tax_us", "us", Lower),
    ("net.capacity_ratio", "ratio", Higher),
    ("obs.span_off_ns", "ns", Lower),
    ("obs.histogram_record_ns", "ns", Lower),
    ("obs.counter_inc_ns", "ns", Lower),
    ("scope_sim.generate_us_per_job", "us", Lower),
    ("scope_sim.exec_us_per_run", "us", Lower),
    ("scope_sim.flight_ms.t1", "ms", Lower),
    ("scope_sim.flight_ms.tn", "ms", Lower),
    ("arepas.simulate_us_per_job", "us", Lower),
    ("core.dataset.build_ms.t1", "ms", Lower),
    ("core.dataset.build_ms.tn", "ms", Lower),
    ("ml.gbdt.fit_ms.t1", "ms", Lower),
    ("ml.gbdt.fit_ms.tn", "ms", Lower),
    ("ml.gbdt.predict_ns_per_row", "ns", Lower),
    ("ml.nn.fit_ms", "ms", Lower),
    ("ml.gnn.fit_ms", "ms", Lower),
    ("ml.kmeans.fit_ms.t1", "ms", Lower),
    ("ml.kmeans.fit_ms.tn", "ms", Lower),
    ("ml.spline.fit_us", "us", Lower),
    ("core.eval.ms", "ms", Lower),
    ("par.ratio.flight", "ratio", Higher),
    ("par.ratio.dataset", "ratio", Higher),
    ("par.ratio.gbdt", "ratio", Higher),
    ("par.ratio.kmeans", "ratio", Higher),
    ("train.phase_sum_ratio", "ratio", Higher),
    ("train.pass_ms.t1", "ms", Lower),
    ("train.pass_ms.tn", "ms", Lower),
    ("ml.nn.median_ape_pct", "%", Lower),
    ("ml.xgb.median_ape_pct", "%", Lower),
    ("ml.gnn.median_ape_pct", "%", Lower),
    ("machine.ref_kops", "kops/s", Higher),
    ("bench.trace_overhead_share", "ratio", Lower),
    ("bench.failed_share", "ratio", Lower),
    ("bench.capacity_untraced_per_s", "1/s", Higher),
    ("bench.capacity_traced_per_s", "1/s", Higher),
    ("bench.oracle_checks", "count", Higher),
    ("bench.spans", "count", Higher),
];

/// Unit of a metric name in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .chain(WORKLOADS)
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
