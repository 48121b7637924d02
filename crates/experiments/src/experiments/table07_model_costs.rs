//! Table 7 — parameter counts, training time per epoch, and inference
//! time per 10,000 jobs for the NN and GNN (plus XGBoost for context).

use crate::cli::Args;
use crate::data::Workbench;
use crate::report::Report;
use std::time::Instant;
use tasq::loss::{LossConfig, LossKind};
use tasq::models::{
    GnnPcc, GnnTrainConfig, NnPcc, NnTrainConfig, PccPredictor, ScoringInput, XgbRuntime,
    XgbTrainConfig, XgboostPl,
};

/// Run the experiment.
pub fn run(args: &Args) -> String {
    let mut report = Report::new();
    report.header("Table 7: parameter counts, training and inference times");

    let workbench = Workbench::build(args);
    let train = &workbench.train;
    let test = &workbench.test;

    // --- NN ---
    let nn_epochs = 5;
    let start = Instant::now();
    let nn = NnPcc::train(
        train,
        &NnTrainConfig {
            epochs: nn_epochs,
            loss: LossConfig::of_kind(LossKind::Lf2),
            ..Default::default()
        },
    );
    let nn_per_epoch = start.elapsed().as_secs_f64() / nn_epochs as f64;
    let start = Instant::now();
    for example in &test.examples {
        let _ = nn.predict_pcc(&example.features);
    }
    let nn_per_10k = start.elapsed().as_secs_f64() / test.len() as f64 * 10_000.0;

    // --- GNN ---
    let gnn_epochs = 2;
    let start = Instant::now();
    let gnn = GnnPcc::train(
        train,
        &GnnTrainConfig {
            epochs: gnn_epochs,
            loss: LossConfig::of_kind(LossKind::Lf2),
            ..Default::default()
        },
    );
    let gnn_per_epoch = start.elapsed().as_secs_f64() / gnn_epochs as f64;
    let start = Instant::now();
    for example in &test.examples {
        let _ = gnn.predict_pcc(&example.op_features);
    }
    let gnn_per_10k = start.elapsed().as_secs_f64() / test.len() as f64 * 10_000.0;

    // --- XGBoost (context; the paper's table covers NN vs GNN) ---
    let start = Instant::now();
    let xgb = XgbRuntime::train(
        train,
        &XgbTrainConfig { num_rounds: args.xgb_rounds, ..Default::default() },
    );
    let xgb_total_train = start.elapsed().as_secs_f64();
    let xgb_pl = XgboostPl::new(xgb);
    let start = Instant::now();
    for example in &test.examples {
        let input = ScoringInput {
            features: &example.features,
            op_features: Some(&example.op_features),
            reference_tokens: example.observed_tokens,
        };
        let _ = xgb_pl.predict(&input);
    }
    let xgb_per_10k = start.elapsed().as_secs_f64() / test.len() as f64 * 10_000.0;

    let rows = vec![
        vec![
            "NN".to_string(),
            nn.num_parameters().to_string(),
            format!("{nn_per_epoch:.3}"),
            format!("{nn_per_10k:.3}"),
        ],
        vec![
            "GNN".to_string(),
            gnn.num_parameters().to_string(),
            format!("{gnn_per_epoch:.3}"),
            format!("{gnn_per_10k:.3}"),
        ],
        vec![
            "XGBoost PL".to_string(),
            format!("{} (tree nodes)", xgb_pl.param_count()),
            format!("{xgb_total_train:.3} (total)"),
            format!("{xgb_per_10k:.3}"),
        ],
    ];
    report.kv("training jobs", train.len());
    report.table(
        &["Model", "Parameters", "Train s/epoch", "Inference s/10k jobs"],
        &rows,
    );
    report.kv(
        "GNN/NN parameter ratio",
        format!("{:.1}x", gnn.num_parameters() as f64 / nn.num_parameters() as f64),
    );
    report.kv(
        "GNN/NN training-time ratio",
        format!("{:.0}x", gnn_per_epoch / nn_per_epoch.max(1e-9)),
    );
    report.subheader("paper reference");
    report.line("  NN:  2,216 params,   2 s/epoch, 0.09 s per 10k jobs");
    report.line("  GNN: 19,210 params, 913 s/epoch, 78 s per 10k jobs");
    report.line("  (GNN ~9x params, ~450x training, ~900x inference of NN)");
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnn_costs_more_than_nn() {
        let out = run(&Args::tiny());
        assert!(out.contains("parameter ratio"));
        assert!(out.contains("GNN"));
    }
}
