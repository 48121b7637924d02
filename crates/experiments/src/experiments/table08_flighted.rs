//! Table 8 — model accuracy on the flighted dataset: predictions checked
//! against *actual* re-executions at multiple token counts per job.

use crate::cli::Args;
use crate::data::{flight_selected, ModelBundle, Workbench};
use crate::report::Report;
use scope_sim::flight::FlightedJob;
use scope_sim::StageGraph;
use tasq::eval::{curve_param_error, PATTERN_TOLERANCE};
use tasq::featurize::{featurize_job, featurize_operators};
use tasq::loss::LossKind;
use tasq::models::{PccPredictor, ScoringInput};
use tasq::pcc::PowerLawPcc;
use tasq_ml::stats;

/// One evaluated row for the flighted table.
pub struct FlightedRow {
    /// Model name.
    pub model: String,
    /// Fraction of jobs with monotone non-increasing predictions.
    pub pattern: f64,
    /// MAE of curve params vs. the ground-truth-fitted PCC (None for SS).
    pub mae_params: Option<f64>,
    /// Median absolute % error of run time over all flights.
    pub median_ae: f64,
}

/// Evaluate one model over the flighted jobs.
pub fn evaluate_on_flights(model: &dyn PccPredictor, flighted: &[FlightedJob]) -> FlightedRow {
    let mut non_increasing = 0usize;
    let mut param_errors = Vec::new();
    let mut predicted = Vec::new();
    let mut actual = Vec::new();

    for fj in flighted {
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
        if prediction.is_non_increasing(PATTERN_TOLERANCE) {
            non_increasing += 1;
        }
        // Ground-truth PCC from the flighted run times.
        let curve: Vec<(f64, f64)> = fj
            .mean_runtimes()
            .into_iter()
            .map(|(t, r)| (t as f64, r))
            .collect();
        if let (Some(truth), Some(pred)) = (PowerLawPcc::fit(&curve), prediction.power_law()) {
            param_errors.push(curve_param_error(&pred, &truth));
        }
        for flight in &fj.flights {
            predicted.push(prediction.predict(flight.allocation));
            actual.push(flight.runtime_secs.max(1.0));
        }
    }

    FlightedRow {
        model: model.name().to_string(),
        pattern: non_increasing as f64 / flighted.len().max(1) as f64,
        mae_params: (!param_errors.is_empty()).then(|| stats::mean(&param_errors)),
        median_ae: stats::median_ape(&predicted, &actual),
    }
}

/// Run the experiment.
pub fn run(args: &Args) -> String {
    let mut report = Report::new();
    report.header("Table 8: model accuracy on the flighted dataset");

    let workbench = Workbench::build(args);
    let flighted = flight_selected(args, &workbench);
    let runs: usize = flighted.iter().map(|fj| fj.flights.len()).sum();
    report.kv("flighted jobs", flighted.len());
    report.kv("total runs", runs);

    let bundle = ModelBundle::train(args, &workbench.train, LossKind::Lf2);
    let models: [&dyn PccPredictor; 4] =
        [&bundle.xgb_ss, &bundle.xgb_pl, &bundle.nn, &bundle.gnn];
    let rows: Vec<Vec<String>> = models
        .iter()
        .map(|m| {
            let row = evaluate_on_flights(*m, &flighted);
            vec![
                row.model,
                format!("{:.0}%", row.pattern * 100.0),
                row.mae_params
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "NA".to_string()),
                format!("{:.0}%", row.median_ae * 100.0),
            ]
        })
        .collect();
    report.table(
        &["Model", "Pattern (non-incr.)", "MAE (curve params)", "Median AE (run time)"],
        &rows,
    );
    report.subheader("paper reference (31 jobs, 97 runs)");
    report.line("  XGBoost SS: 32%, NA,    53%    XGBoost PL: 93%, 0.202, 52%");
    report.line("  NN:        100%, 0.163, 39%    GNN:       100%, 0.168, 33%");
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_all_four_models() {
        let out = run(&Args::tiny());
        assert!(out.contains("XGBoost SS"));
        assert!(out.contains("GNN"));
        assert!(out.contains("flighted jobs"));
    }
}
