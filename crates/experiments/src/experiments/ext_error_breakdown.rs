//! Extension — where do the models fail?
//!
//! The paper reports aggregate errors; this breakdown slices the NN's and
//! XGBoost's run-time error by job archetype, job size, and
//! recurring-vs-ad-hoc status, exposing which populations drive the
//! aggregate numbers (and confirming that a global model does not simply
//! sacrifice ad-hoc jobs).

use crate::cli::Args;
use crate::data::{ModelBundle, Workbench};
use crate::report::{pct, Report};
use std::collections::BTreeMap;
use tasq::loss::LossKind;
use tasq::models::{PccPredictor, ScoringInput};
use tasq_ml::stats;

/// Run the experiment.
pub fn run(args: &Args) -> String {
    let mut report = Report::new();
    report.header("Extension: run-time error breakdown (NN vs XGBoost PL)");

    let workbench = Workbench::build(args);
    let bundle = ModelBundle::train(args, &workbench.train, LossKind::Lf2);

    // Per-job absolute percentage errors for both models.
    let mut rows_by_key: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let mut push = |key: String, nn_err: f64, xgb_err: f64| {
        let entry = rows_by_key.entry(key).or_default();
        entry.0.push(nn_err);
        entry.1.push(xgb_err);
    };

    for (job, example) in workbench.test_jobs.iter().zip(&workbench.test.examples) {
        let input = ScoringInput {
            features: &example.features,
            op_features: Some(&example.op_features),
            reference_tokens: example.observed_tokens,
        };
        let actual = example.observed_runtime;
        let nn_err =
            (bundle.nn.predict(&input).predict(example.observed_tokens) - actual).abs() / actual;
        let xgb_err = (bundle.xgb_pl.predict(&input).predict(example.observed_tokens) - actual)
            .abs()
            / actual;

        push(format!("archetype/{:?}", job.meta.archetype), nn_err, xgb_err);
        let size_bucket = match example.observed_runtime {
            r if r < 120.0 => "size/short (<2m)",
            r if r < 900.0 => "size/medium (2-15m)",
            _ => "size/long (>15m)",
        };
        push(size_bucket.to_string(), nn_err, xgb_err);
        let kind = if job.meta.recurring_template.is_some() {
            "kind/recurring"
        } else {
            "kind/ad-hoc"
        };
        push(kind.to_string(), nn_err, xgb_err);
    }

    let table: Vec<Vec<String>> = rows_by_key
        .iter()
        .map(|(key, (nn, xgb))| {
            vec![
                key.clone(),
                nn.len().to_string(),
                pct(stats::median(nn)),
                pct(stats::median(xgb)),
            ]
        })
        .collect();
    report.kv("test jobs", workbench.test_jobs.len());
    report.table(&["Slice", "Jobs", "NN Median AE", "XGBoost PL Median AE"], &table);
    report.line("\nThings to look for: ad-hoc error should stay close to recurring");
    report.line("error (the global model's coverage argument), and no archetype");
    report.line("should be pathologically mispredicted.");
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_covers_all_slices() {
        let out = run(&Args::tiny());
        assert!(out.contains("kind/ad-hoc"));
        assert!(out.contains("kind/recurring"));
        assert!(out.contains("archetype/"));
        assert!(out.contains("size/"));
    }
}
