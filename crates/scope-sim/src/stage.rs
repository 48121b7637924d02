//! Stage extraction: operators between exchange boundaries form stages.
//!
//! SCOPE compiles a plan into stages separated by data-movement (exchange)
//! operators; each stage executes as a set of parallel tasks, one per
//! partition. The executor schedules whole stages' task sets onto token
//! slots, which is what produces the characteristic peaks and valleys of
//! real skylines: wide scan stages spike token usage, narrow aggregation
//! or merge stages leave most tokens idle.

use crate::plan::JobPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tasq_ml::rand_ext;

/// Seconds of work represented by one unit of estimated operator cost.
/// Public so the invariant checker (`crate::validate`) can verify that
/// stage task durations conserve cost-derived work.
pub const COST_TO_SECONDS: f64 = 1.0;

/// Fixed scheduling/startup latency added to every task, in seconds.
pub const TASK_STARTUP_SECS: f64 = 1.0;

/// One executable stage: a set of plan operators plus its task durations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stage {
    /// Indices of the plan operators in this stage.
    pub operator_indices: Vec<usize>,
    /// Per-task durations in seconds (length = task width).
    pub task_durations: Vec<f64>,
}

impl Stage {
    /// Number of parallel tasks.
    pub fn width(&self) -> usize {
        self.task_durations.len()
    }

    /// Total work in token-seconds.
    pub fn total_work(&self) -> f64 {
        self.task_durations.iter().sum()
    }
}

/// The stage DAG derived from a [`JobPlan`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageGraph {
    /// The stages, topologically ordered (dependencies before dependents).
    pub stages: Vec<Stage>,
    /// `deps[s]` lists the stages that must complete before stage `s`.
    pub deps: Vec<Vec<usize>>,
}

impl StageGraph {
    /// Number of stages of a plan — `from_plan(plan, _).num_stages()`
    /// without the graph: the union-find pass alone, with no RNG, no
    /// topological order and no task durations. The count is the one
    /// job-level feature the trained models read of the stage structure.
    ///
    /// # Panics
    /// Panics if an edge references a missing node
    /// ([`crate::validate::check_structure`] is the precondition).
    pub fn count_stages(plan: &JobPlan) -> usize {
        union_stages(plan).1
    }

    /// Derive the stage graph from a plan.
    ///
    /// Operators connected by non-exchange edges share a stage (union-find
    /// over the plan edges); edges out of exchange operators become stage
    /// dependencies. Task widths come from the stage's maximum partition
    /// count; per-task durations split the stage's cost-derived work with
    /// deterministic skew controlled by `seed` and the partitioning
    /// methods involved.
    ///
    /// # Panics
    /// Panics if the plan is empty, an edge references a missing node or
    /// the edges form a cycle ([`crate::validate::check_structure`] is the
    /// precondition; [`JobPlan::new`] enforces it at construction).
    pub fn from_plan(plan: &JobPlan, seed: u64) -> Self {
        let n = plan.num_operators();
        assert!(n > 0, "StageGraph::from_plan: empty plan");
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut parent, stage_count) = union_stages(plan);

        // Map union roots to dense stage ids, ordered by the plan's
        // topological order so stage indices are already topological.
        // lint: allow(no-panic) — JobPlan::new rejects cyclic graphs and
        // decoded plans pass `check_structure` before they are scored, so a
        // plan that reaches stage extraction always has a topological order.
        let topo = plan.topological_order().expect("plan validated acyclic");
        let mut stage_id: Vec<Option<usize>> = vec![None; n];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for &node in &topo {
            let root = find(&mut parent, node);
            let id = match stage_id[root] {
                Some(id) => id,
                None => {
                    let id = members.len();
                    stage_id[root] = Some(id);
                    members.push(Vec::new());
                    id
                }
            };
            members[id].push(node);
        }
        let node_stage: Vec<usize> =
            // lint: allow(no-panic) — the topological order above visits
            // every node, so every union root received a stage id.
            (0..n).map(|i| stage_id[find(&mut parent, i)].expect("all nodes assigned")).collect();

        // Dependencies from boundary edges (and any cross-stage edge).
        let num_stages = members.len();
        debug_assert_eq!(num_stages, stage_count, "count_stages drifted from the graph");
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); num_stages];
        for &(from, to) in &plan.edges {
            let (sf, st) = (node_stage[from], node_stage[to]);
            if sf != st && !deps[st].contains(&sf) {
                deps[st].push(sf);
            }
        }

        // Build stages with task durations.
        let stages = members
            .iter()
            .map(|ops| {
                let width = ops
                    .iter()
                    .map(|&i| plan.operators[i].num_partitions.max(1))
                    .max()
                    .unwrap_or(1) as usize;
                let total_work: f64 = ops
                    .iter()
                    .map(|&i| plan.operators[i].est_exclusive_cost * COST_TO_SECONDS)
                    .sum();
                let skew = ops
                    .iter()
                    .map(|&i| plan.operators[i].partitioning.skew_factor())
                    .fold(0.0, f64::max);
                let base = (total_work / width as f64).max(0.0);
                let mut durations: Vec<f64> = (0..width)
                    .map(|_| {
                        let jitter = if skew > 0.0 {
                            rand_ext::lognormal(&mut rng, 0.0, skew)
                        } else {
                            1.0
                        };
                        TASK_STARTUP_SECS + base * jitter
                    })
                    .collect();
                // Rescale so skew never changes total work.
                let actual: f64 = durations.iter().map(|d| d - TASK_STARTUP_SECS).sum();
                if actual > 0.0 && total_work > 0.0 {
                    let scale = total_work / actual;
                    for d in &mut durations {
                        *d = TASK_STARTUP_SECS + (*d - TASK_STARTUP_SECS) * scale;
                    }
                }
                Stage { operator_indices: ops.clone(), task_durations: durations }
            })
            .collect();

        Self { stages, deps }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total work across all stages in token-seconds (task durations,
    /// startup included).
    pub fn total_work(&self) -> f64 {
        self.stages.iter().map(Stage::total_work).sum()
    }

    /// Maximum concurrent task width if every stage ran at once (an upper
    /// bound on useful token allocation).
    pub fn max_width(&self) -> usize {
        self.stages.iter().map(Stage::width).max().unwrap_or(0)
    }

    /// Length of the critical path in seconds, assuming unlimited tokens:
    /// the longest dependency chain of per-stage makespans (a stage's
    /// makespan at unlimited parallelism is its longest task).
    pub fn critical_path_secs(&self) -> f64 {
        let n = self.stages.len();
        let mut finish = vec![0.0f64; n];
        for s in 0..n {
            let start = self.deps[s].iter().map(|&d| finish[d]).fold(0.0, f64::max);
            let longest_task =
                self.stages[s].task_durations.iter().copied().fold(0.0, f64::max);
            finish[s] = start + longest_task;
        }
        finish.iter().copied().fold(0.0, f64::max)
    }
}

/// The union-find pass `count_stages` and `from_plan` share: operators
/// joined by a non-boundary edge land in one set. Returns the parent
/// forest and the number of sets (= stages).
fn union_stages(plan: &JobPlan) -> (Vec<usize>, usize) {
    let n = plan.num_operators();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut sets = n;
    for &(from, to) in &plan.edges {
        if !plan.operators[from].op.is_stage_boundary() {
            let a = find(&mut parent, from);
            let b = find(&mut parent, to);
            if a != b {
                parent[a] = b;
                sets -= 1;
            }
        }
    }
    (parent, sets)
}

/// Root of `i`'s set, halving the path on the way up. Iterative: a plan
/// decoded off the wire can chain as many operators as a frame holds.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{PartitioningMethod, PhysicalOperator as Op};
    use crate::plan::OperatorNode;

    fn node(op: Op, partitions: u32, cost: f64) -> OperatorNode {
        let mut n = OperatorNode::with_op(op);
        n.num_partitions = partitions;
        n.est_exclusive_cost = cost;
        n
    }

    /// scan(8) -> exchange -> agg(2): two stages.
    fn two_stage_plan() -> JobPlan {
        JobPlan::new(
            vec![
                node(Op::TableScan, 8, 80.0),
                node(Op::Exchange, 8, 8.0),
                node(Op::HashAggregate, 2, 10.0),
            ],
            vec![(0, 1), (1, 2)],
        )
    }

    #[test]
    fn exchange_splits_stages() {
        let graph = StageGraph::from_plan(&two_stage_plan(), 1);
        assert_eq!(graph.num_stages(), 2);
        assert_eq!(StageGraph::count_stages(&two_stage_plan()), 2);
        // Stage 0: scan + exchange (exchange belongs upstream).
        assert_eq!(graph.stages[0].operator_indices.len(), 2);
        assert_eq!(graph.stages[0].width(), 8);
        assert_eq!(graph.stages[1].width(), 2);
        assert_eq!(graph.deps[1], vec![0]);
        assert!(graph.deps[0].is_empty());
    }

    #[test]
    fn no_exchange_single_stage() {
        let plan = JobPlan::new(
            vec![node(Op::TableScan, 4, 10.0), node(Op::Filter, 4, 1.0)],
            vec![(0, 1)],
        );
        let graph = StageGraph::from_plan(&plan, 0);
        assert_eq!(graph.num_stages(), 1);
        assert_eq!(StageGraph::count_stages(&plan), 1);
        assert_eq!(graph.stages[0].width(), 4);
    }

    #[test]
    fn work_is_preserved_under_skew() {
        let mut plan = two_stage_plan();
        // Force a skewed partitioning.
        plan.operators[0].partitioning = PartitioningMethod::Range;
        let graph = StageGraph::from_plan(&plan, 42);
        // Work per stage = sum of exclusive costs (+ startup handled apart).
        let stage0_work: f64 = graph.stages[0]
            .task_durations
            .iter()
            .map(|d| d - 1.0) // subtract TASK_STARTUP_SECS
            .sum();
        assert!((stage0_work - 88.0).abs() < 1e-9, "work {stage0_work}");
    }

    #[test]
    fn deterministic_given_seed() {
        let plan = two_stage_plan();
        let g1 = StageGraph::from_plan(&plan, 7);
        let g2 = StageGraph::from_plan(&plan, 7);
        assert_eq!(g1.stages[0].task_durations, g2.stages[0].task_durations);
    }

    #[test]
    fn critical_path_sums_longest_tasks() {
        let graph = StageGraph::from_plan(&two_stage_plan(), 3);
        let cp = graph.critical_path_secs();
        let longest0 = graph.stages[0].task_durations.iter().copied().fold(0.0, f64::max);
        let longest1 = graph.stages[1].task_durations.iter().copied().fold(0.0, f64::max);
        assert!((cp - (longest0 + longest1)).abs() < 1e-9);
    }

    #[test]
    fn diamond_dependencies() {
        // scan -> exchange -> (agg1, agg2) -> union (after exchanges).
        let plan = JobPlan::new(
            vec![
                node(Op::TableScan, 4, 10.0),   // 0
                node(Op::Exchange, 4, 2.0),     // 1
                node(Op::HashAggregate, 2, 4.0),// 2
                node(Op::Sort, 2, 6.0),         // 3
                node(Op::Exchange, 2, 1.0),     // 4
                node(Op::Exchange, 2, 1.0),     // 5
                node(Op::UnionAll, 1, 0.5),     // 6
            ],
            vec![(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6)],
        );
        let graph = StageGraph::from_plan(&plan, 0);
        assert_eq!(StageGraph::count_stages(&plan), graph.num_stages());
        // Stage for union must depend on both branches.
        let union_stage = (0..graph.num_stages())
            .find(|&s| {
                graph.stages[s]
                    .operator_indices
                    .contains(&6)
            })
            .unwrap();
        assert_eq!(graph.deps[union_stage].len(), 2);
    }

    #[test]
    fn a_chain_as_long_as_a_frame_holds_does_not_exhaust_the_stack() {
        // 200 000 filters in one stage, edges listed root-first so every
        // union hangs the growing set under a new root: the recursive
        // `find` this replaced overflowed the stack here.
        let n = 200_000;
        let plan = JobPlan {
            operators: vec![node(Op::Filter, 1, 1.0); n],
            edges: (1..n).rev().map(|i| (i, i - 1)).collect(),
        };
        assert_eq!(StageGraph::count_stages(&plan), 1);
        assert_eq!(StageGraph::from_plan(&plan, 0).num_stages(), 1);
    }
}
