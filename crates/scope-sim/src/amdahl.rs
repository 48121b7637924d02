//! The Amdahl's-law stage-level simulator (paper Section 6.3).
//!
//! Jockey's second simulator models each stage as a serial part `S` (the
//! stage's critical path) plus a parallel part `P`, predicting the stage's
//! run time at `N` tokens as `T = S + P/N`; the job's run time sums the
//! stages along the dependency structure. TASQ argues this baseline needs
//! per-stage statistics from prior runs of the *same* job and cannot
//! extend to fresh jobs; it is implemented here as the ablation baseline
//! that `experiments/ablation_amdahl` compares against AREPAS.

use crate::stage::StageGraph;

/// Per-stage `S`/`P` statistics extracted from a prior run's stage graph.
#[derive(Debug, Clone)]
pub struct AmdahlModel {
    /// `(serial_secs, parallel_token_secs)` per stage.
    stages: Vec<(f64, f64)>,
    /// Stage dependencies (same indexing as the source graph).
    deps: Vec<Vec<usize>>,
}

impl AmdahlModel {
    /// Extract the model from a stage graph (standing in for "aggregated
    /// statistics from prior runs of the job").
    ///
    /// Per stage: `S` is the longest task (the critical path of the
    /// stage); `P` is the remaining work.
    pub fn from_stage_graph(graph: &StageGraph) -> Self {
        let stages = graph
            .stages
            .iter()
            .map(|stage| {
                let longest =
                    stage.task_durations.iter().copied().fold(0.0f64, f64::max);
                let total: f64 = stage.task_durations.iter().sum();
                (longest, (total - longest).max(0.0))
            })
            .collect();
        Self { stages, deps: graph.deps.clone() }
    }

    /// Predicted job run time at `tokens` (`T_stage = S + P/N`, summed over
    /// the critical chain of stages).
    ///
    /// # Panics
    /// Panics if `tokens == 0`.
    pub fn predict_runtime(&self, tokens: u32) -> f64 {
        assert!(tokens > 0, "AmdahlModel::predict_runtime: tokens must be positive");
        let n = tokens as f64;
        let mut finish = vec![0.0f64; self.stages.len()];
        for (s, &(serial, parallel)) in self.stages.iter().enumerate() {
            let start = self.deps[s].iter().map(|&d| finish[d]).fold(0.0, f64::max);
            finish[s] = start + serial + parallel / n;
        }
        finish.iter().copied().fold(0.0, f64::max)
    }

    /// Number of stage-level parameters this model stores (the paper's
    /// criticism: "a large number of stage-level parameters").
    pub fn num_parameters(&self) -> usize {
        self.stages.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecutionConfig, Executor};
    use crate::operators::PhysicalOperator as Op;
    use crate::plan::{JobPlan, OperatorNode};

    fn node(op: Op, partitions: u32, cost: f64) -> OperatorNode {
        let mut n = OperatorNode::with_op(op);
        n.num_partitions = partitions;
        n.est_exclusive_cost = cost;
        n
    }

    fn graph() -> StageGraph {
        let plan = JobPlan::new(
            vec![
                node(Op::TableScan, 8, 80.0),
                node(Op::Exchange, 8, 8.0),
                node(Op::HashAggregate, 2, 10.0),
            ],
            vec![(0, 1), (1, 2)],
        );
        StageGraph::from_plan(&plan, 5)
    }

    #[test]
    fn runtime_decreases_with_tokens() {
        let model = AmdahlModel::from_stage_graph(&graph());
        let mut prev = f64::INFINITY;
        for tokens in [1u32, 2, 4, 8, 16, 64] {
            let t = model.predict_runtime(tokens);
            assert!(t < prev, "tokens {tokens}: {t} vs {prev}");
            prev = t;
        }
    }

    #[test]
    fn asymptote_is_total_serial_time() {
        let model = AmdahlModel::from_stage_graph(&graph());
        let serial_total: f64 = model.stages.iter().map(|s| s.0).sum();
        let at_huge_n = model.predict_runtime(1_000_000);
        assert!((at_huge_n - serial_total).abs() < 0.01, "{at_huge_n} vs {serial_total}");
    }

    #[test]
    fn single_token_is_total_work() {
        let model = AmdahlModel::from_stage_graph(&graph());
        let total: f64 = model.stages.iter().map(|s| s.0 + s.1).sum();
        assert!((model.predict_runtime(1) - total).abs() < 1e-9);
    }

    #[test]
    fn roughly_tracks_real_executor() {
        // The Amdahl model should be in the right ballpark of the true
        // event-driven executor (it ignores token-slot contention shape,
        // so allow generous tolerance).
        let g = graph();
        let model = AmdahlModel::from_stage_graph(&g);
        let exec = Executor::new(g);
        for tokens in [2u32, 4, 8] {
            let real =
                exec.run(tokens, &ExecutionConfig::default()).expect("runs").runtime_secs;
            let predicted = model.predict_runtime(tokens);
            let ratio = predicted / real;
            assert!(
                (0.4..2.5).contains(&ratio),
                "tokens {tokens}: predicted {predicted} vs real {real}"
            );
        }
    }

    #[test]
    fn parameter_count_scales_with_stages() {
        let model = AmdahlModel::from_stage_graph(&graph());
        assert_eq!(model.num_parameters(), 4); // 2 stages x (S, P)
    }
}
