//! Capacity planning: a workload-level what-if study. Given a fleet of
//! jobs, how many tokens does the cluster save — and how much slower does
//! the workload get — if every job runs at its TASQ-predicted optimal
//! allocation instead of its requested default?
//!
//! This is the operator-facing version of the paper's Section 5.4
//! analysis.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use scope_sim::{ExecutionConfig, WorkloadConfig, WorkloadGenerator};
use tasq::augment::AugmentConfig;
use tasq::dataset::Dataset;
use tasq::models::{NnPcc, NnTrainConfig, PccPredictor, ScoringInput};

fn main() {
    // History to learn from, and tomorrow's fleet to plan for.
    let mut all = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 360,
        seed: 2022,
        ..Default::default()
    })
    .generate();
    let fleet = all.split_off(300);
    let history = all;

    println!("training on {} historical jobs...", history.len());
    let train = Dataset::build(&history, &AugmentConfig::default());
    let model = NnPcc::train(&train, &NnTrainConfig { epochs: 150, ..Default::default() });

    // Score tomorrow's fleet and compare default vs optimal allocations by
    // actually executing both (the simulator is our cluster).
    let mut default_tokens = 0.0;
    let mut optimal_tokens = 0.0;
    let mut default_time = 0.0;
    let mut optimal_time = 0.0;
    let config = ExecutionConfig::default();

    println!("planning {} fleet jobs...\n", fleet.len());
    for job in &fleet {
        let example =
            Dataset::prepare_example(job, &AugmentConfig::default()).expect("featurizable");
        let input = ScoringInput {
            features: &example.features,
            op_features: Some(&example.op_features),
            reference_tokens: job.requested_tokens,
        };
        let pcc = model.predict(&input).power_law().expect("NN predicts a power law");
        // Optimal: last token with >= 0.5% marginal gain, capped at request.
        let optimal = pcc.optimal_tokens(0.005, 1, job.requested_tokens);

        let executor = job.executor();
        let at_default = executor.run(job.requested_tokens, &config).expect("fault-free execution cannot fail");
        let at_optimal = executor.run(optimal, &config).expect("fault-free execution cannot fail");

        default_tokens += job.requested_tokens as f64;
        optimal_tokens += optimal as f64;
        default_time += at_default.runtime_secs;
        optimal_time += at_optimal.runtime_secs;
    }

    let token_saving = 1.0 - optimal_tokens / default_tokens;
    let slowdown = optimal_time / default_time - 1.0;
    println!("fleet summary ({} jobs):", fleet.len());
    println!("  tokens requested (default policy):   {default_tokens:>10.0}");
    println!("  tokens requested (TASQ optimal):     {optimal_tokens:>10.0}");
    println!("  token saving:                        {:>9.1}%", token_saving * 100.0);
    println!("  total runtime at default:            {default_time:>9.0}s");
    println!("  total runtime at optimal:            {optimal_time:>9.0}s");
    println!("  workload slowdown:                   {:>9.1}%", slowdown * 100.0);
    println!(
        "\nTrade-off: {:.0}% of the fleet's tokens bought back for a {:.1}% slowdown.",
        token_saving * 100.0,
        slowdown * 100.0
    );
}
