//! Section 5.4 — workload-level token savings vs. slowdown on the
//! flighted dataset: W1 (all runs at their flighted token counts) and W2
//! (one run per job at the second-largest flighted count), each against a
//! baseline using the largest flighted count, with the GNN's predicted
//! slowdowns alongside.

use crate::cli::Args;
use crate::data::{flight_selected, ModelBundle, Workbench};
use crate::report::{pct, pct1, Report};
use scope_sim::flight::FlightedJob;
use scope_sim::StageGraph;
use tasq::eval::{workload_savings, WorkloadRun};
use tasq::featurize::{featurize_job, featurize_operators};
use tasq::loss::LossKind;
use tasq::models::{PccPredictor, ScoringInput};

fn runs_for_workload(
    flighted: &[FlightedJob],
    model: &dyn PccPredictor,
    second_largest_only: bool,
) -> Vec<WorkloadRun> {
    let mut runs = Vec::new();
    for fj in flighted {
        let curve = fj.mean_runtimes(); // descending allocation
        if curve.len() < 2 {
            continue;
        }
        let (baseline_alloc, baseline_rt) = curve[0];
        let job = &fj.job;
        let num_stages = StageGraph::count_stages(&job.plan);
        let features = featurize_job(&job.plan, num_stages);
        let op_features = featurize_operators(&job.plan);
        let input = ScoringInput {
            features: &features,
            op_features: Some(&op_features),
            reference_tokens: fj.reference_tokens,
        };
        let prediction = model.predict(&input);
        let predicted_baseline = prediction.predict(baseline_alloc);

        let selected: Vec<(u32, f64)> = if second_largest_only {
            vec![curve[1]]
        } else {
            curve.clone()
        };
        for (alloc, runtime) in selected {
            runs.push(WorkloadRun {
                allocation: alloc,
                runtime,
                baseline_allocation: baseline_alloc,
                baseline_runtime: baseline_rt,
                predicted_runtime: prediction.predict(alloc),
                predicted_baseline_runtime: predicted_baseline,
            });
        }
    }
    runs
}

/// Run the experiment.
pub fn run(args: &Args) -> String {
    let mut report = Report::new();
    report.header("Section 5.4: workload-level token savings (W1/W2)");

    let workbench = Workbench::build(args);
    let flighted = flight_selected(args, &workbench);
    let bundle = ModelBundle::train(args, &workbench.train, LossKind::Lf2);

    let mut rows = Vec::new();
    for (label, second_only) in [("W1 (all flighted runs)", false), ("W2 (2nd-largest only)", true)]
    {
        let runs = runs_for_workload(&flighted, &bundle.gnn, second_only);
        if runs.is_empty() {
            continue;
        }
        let savings = workload_savings(&runs);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}K", savings.workload_tokens / 1000.0),
            format!("{:.1}K", savings.baseline_tokens / 1000.0),
            pct(savings.token_savings()),
            pct1(savings.actual_slowdown),
            pct1(savings.predicted_slowdown),
        ]);
    }
    report.kv("flighted jobs", flighted.len());
    report.table(
        &[
            "Workload",
            "Tokens",
            "Baseline",
            "Savings",
            "Actual slowdown",
            "GNN-predicted",
        ],
        &rows,
    );
    report.subheader("paper reference");
    report.line("  W1: 6.7K vs 8.6K tokens (23% saved), 18% slower, GNN predicts 8%");
    report.line("  W2: 2.4K vs 3.0K tokens (20% saved),  8% slower, GNN predicts 5%");
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_both_workloads() {
        let out = run(&Args::tiny());
        assert!(out.contains("W1"));
        assert!(out.contains("W2"));
        assert!(out.contains("Savings"));
    }
}
