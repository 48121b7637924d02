//! Semantic invariant checks over job plans and stage graphs.
//!
//! [`JobPlan::new`] already asserts edge ranges and acyclicity, but plans
//! reach the pipeline from more places than the constructor (deserialized
//! workload files, mutated test fixtures, future external frontends), and
//! several invariants the rest of the workspace relies on are structural
//! rather than graph-theoretic: scan operators are sources, joins are
//! binary, partitioning methods agree with their column counts, and the
//! stage graph's task durations conserve the plan's cost-derived work.
//! This module checks all of them and reports *every* violation (not just
//! the first), so the workload generator, the training pipeline, and the
//! invariant tests (`tests/invariant_checks.rs`, which validate every
//! generated job) can reject malformed inputs with a precise message.

use crate::generator::Job;
use crate::operators::{OperatorClass, PartitioningMethod, PhysicalOperator};
use crate::plan::JobPlan;
use crate::stage::{StageGraph, COST_TO_SECONDS, TASK_STARTUP_SECS};
use std::fmt;

/// Relative tolerance for the stage-work conservation check. Stage
/// construction rescales skewed task durations to preserve total work
/// exactly up to float rounding; anything beyond this is a real leak.
pub const WORK_CONSERVATION_REL_TOL: f64 = 1e-6;

/// A structural defect in a [`JobPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanViolation {
    /// The plan has no operators.
    EmptyPlan,
    /// An edge references a node index outside the plan.
    EdgeOutOfRange {
        /// Source node index.
        from: usize,
        /// Destination node index.
        to: usize,
        /// Number of operators in the plan.
        operators: usize,
    },
    /// An edge connects a node to itself.
    SelfLoop {
        /// The offending node.
        node: usize,
    },
    /// The edge relation contains a cycle.
    Cycle,
    /// A scan-class operator has inputs; scans must be sources.
    ScanWithInputs {
        /// The offending node.
        node: usize,
        /// Its operator.
        op: PhysicalOperator,
        /// How many inputs it has.
        inputs: usize,
    },
    /// A non-scan operator has no inputs.
    MissingInputs {
        /// The offending node.
        node: usize,
        /// Its operator.
        op: PhysicalOperator,
    },
    /// A join has fewer than two inputs, or an exchange not exactly one.
    BadArity {
        /// The offending node.
        node: usize,
        /// Its operator.
        op: PhysicalOperator,
        /// How many inputs it has.
        inputs: usize,
        /// The arity the operator requires (minimum for joins, exact for
        /// exchanges).
        expected: usize,
    },
    /// The node's partitioning method disagrees with its column count:
    /// hash/range partitioning across multiple partitions needs at least
    /// one partitioning column, round-robin/broadcast must have none.
    PartitioningMismatch {
        /// The offending node.
        node: usize,
        /// Its partitioning method.
        method: PartitioningMethod,
        /// Number of partitioning columns.
        columns: u32,
        /// Number of partitions.
        partitions: u32,
    },
    /// `num_partitions` is zero.
    ZeroPartitions {
        /// The offending node.
        node: usize,
    },
    /// A numeric Table-1 feature is NaN or infinite.
    NonFiniteFeature {
        /// The offending node.
        node: usize,
        /// Which feature.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A numeric Table-1 feature is negative.
    NegativeFeature {
        /// The offending node.
        node: usize,
        /// Which feature.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyPlan => write!(f, "plan has no operators"),
            Self::EdgeOutOfRange { from, to, operators } => {
                write!(f, "edge ({from},{to}) references a node >= {operators}")
            }
            Self::SelfLoop { node } => write!(f, "node {node} has a self-loop"),
            Self::Cycle => write!(f, "operator DAG contains a cycle"),
            Self::ScanWithInputs { node, op, inputs } => {
                write!(f, "scan operator {op:?} at node {node} has {inputs} inputs (must be a source)")
            }
            Self::MissingInputs { node, op } => {
                write!(f, "non-scan operator {op:?} at node {node} has no inputs")
            }
            Self::BadArity { node, op, inputs, expected } => {
                write!(f, "{op:?} at node {node} has {inputs} inputs, requires {expected}")
            }
            Self::PartitioningMismatch { node, method, columns, partitions } => {
                write!(
                    f,
                    "node {node}: {method:?} partitioning across {partitions} partitions \
                     with {columns} partitioning columns"
                )
            }
            Self::ZeroPartitions { node } => write!(f, "node {node} has zero partitions"),
            Self::NonFiniteFeature { node, field, value } => {
                write!(f, "node {node}: feature {field} is not finite ({value})")
            }
            Self::NegativeFeature { node, field, value } => {
                write!(f, "node {node}: feature {field} is negative ({value})")
            }
        }
    }
}

/// A defect in a [`StageGraph`] relative to the plan it was derived from.
#[derive(Debug, Clone, PartialEq)]
pub enum StageViolation {
    /// A plan operator appears in no stage.
    OperatorUnassigned {
        /// The missing operator's node index.
        node: usize,
    },
    /// A plan operator appears in more than one stage (or twice in one).
    OperatorMultiplyAssigned {
        /// The duplicated operator's node index.
        node: usize,
    },
    /// A stage's task width differs from its members' maximum partition
    /// count.
    WidthMismatch {
        /// Stage index.
        stage: usize,
        /// The stage's actual width.
        width: usize,
        /// The width implied by the plan.
        expected: usize,
    },
    /// A stage's summed task durations do not equal startup overhead plus
    /// cost-derived work: the token-conservation invariant skew rescaling
    /// is supposed to preserve.
    WorkNotConserved {
        /// Stage index.
        stage: usize,
        /// Sum of the stage's task durations, in seconds.
        actual: f64,
        /// Expected seconds: `width * TASK_STARTUP_SECS + Σ cost`.
        expected: f64,
    },
    /// A task duration is NaN, infinite, or below the startup floor.
    BadTaskDuration {
        /// Stage index.
        stage: usize,
        /// Task index within the stage.
        task: usize,
        /// The offending duration.
        duration: f64,
    },
    /// A dependency references a stage outside the graph.
    DepOutOfRange {
        /// Stage index.
        stage: usize,
        /// The out-of-range dependency.
        dep: usize,
    },
    /// A stage depends on itself.
    SelfDependency {
        /// Stage index.
        stage: usize,
    },
    /// The stage dependency relation contains a cycle.
    CyclicStages,
}

impl fmt::Display for StageViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OperatorUnassigned { node } => {
                write!(f, "operator {node} is assigned to no stage")
            }
            Self::OperatorMultiplyAssigned { node } => {
                write!(f, "operator {node} is assigned to multiple stages")
            }
            Self::WidthMismatch { stage, width, expected } => {
                write!(f, "stage {stage} width {width} != plan-implied width {expected}")
            }
            Self::WorkNotConserved { stage, actual, expected } => {
                write!(
                    f,
                    "stage {stage} task seconds {actual} != startup + cost-derived work {expected}"
                )
            }
            Self::BadTaskDuration { stage, task, duration } => {
                write!(f, "stage {stage} task {task} has invalid duration {duration}")
            }
            Self::DepOutOfRange { stage, dep } => {
                write!(f, "stage {stage} depends on out-of-range stage {dep}")
            }
            Self::SelfDependency { stage } => write!(f, "stage {stage} depends on itself"),
            Self::CyclicStages => write!(f, "stage dependency graph contains a cycle"),
        }
    }
}

/// Everything wrong with one job, from both validation layers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobValidationError {
    /// Plan-level violations.
    pub plan: Vec<PlanViolation>,
    /// Stage-graph violations (empty when the plan itself was too broken
    /// to derive a stage graph from).
    pub stages: Vec<StageViolation>,
}

impl fmt::Display for JobValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} plan violation(s), {} stage violation(s)", self.plan.len(), self.stages.len())?;
        for v in &self.plan {
            write!(f, "; {v}")?;
        }
        for v in &self.stages {
            write!(f, "; {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for JobValidationError {}

fn numeric_features(node: &crate::plan::OperatorNode) -> [(&'static str, f64); 7] {
    [
        ("est_output_cardinality", node.est_output_cardinality),
        ("est_leaf_input_cardinality", node.est_leaf_input_cardinality),
        ("est_children_input_cardinality", node.est_children_input_cardinality),
        ("avg_row_length", node.avg_row_length),
        ("est_subtree_cost", node.est_subtree_cost),
        ("est_exclusive_cost", node.est_exclusive_cost),
        ("est_total_cost", node.est_total_cost),
    ]
}

/// The structural precondition of stage extraction
/// ([`StageGraph::count_stages`], [`StageGraph::from_plan`]): at least one
/// operator, every edge endpoint in range, no cycle. [`JobPlan::new`]
/// asserts the same at construction; a plan that was *decoded* has met
/// no constructor, so whoever accepts plans from outside the process
/// calls this first. Reports the first defect only and runs in time
/// linear in operators plus edges.
pub fn check_structure(plan: &JobPlan) -> Result<(), PlanViolation> {
    let n = plan.operators.len();
    if n == 0 {
        return Err(PlanViolation::EmptyPlan);
    }
    let mut ascending = true;
    for &(from, to) in &plan.edges {
        if from >= n || to >= n {
            return Err(PlanViolation::EdgeOutOfRange { from, to, operators: n });
        }
        ascending &= from < to;
    }
    // Plan builders number a node after its inputs, and edges that all
    // ascend cannot close a cycle; only other numberings pay for the sort.
    if ascending || plan.topological_order().is_some() {
        Ok(())
    } else {
        Err(PlanViolation::Cycle)
    }
}

/// Check every plan-level invariant, collecting all violations.
pub fn validate_plan(plan: &JobPlan) -> Result<(), Vec<PlanViolation>> {
    let mut out = Vec::new();
    let n = plan.operators.len();
    if n == 0 {
        return Err(vec![PlanViolation::EmptyPlan]);
    }

    let mut edges_ok = true;
    for &(from, to) in &plan.edges {
        if from >= n || to >= n {
            out.push(PlanViolation::EdgeOutOfRange { from, to, operators: n });
            edges_ok = false;
        } else if from == to {
            out.push(PlanViolation::SelfLoop { node: from });
            edges_ok = false;
        }
    }

    // Graph-shape rules need in-range edges; skip them when indexing would
    // be unsound so the caller still gets the range diagnostics.
    if edges_ok {
        if plan.topological_order().is_none() {
            out.push(PlanViolation::Cycle);
        }
        let mut fan_in = vec![0usize; n];
        for &(_, to) in &plan.edges {
            fan_in[to] += 1;
        }
        for (node, op_node) in plan.operators.iter().enumerate() {
            let op = op_node.op;
            let inputs = fan_in[node];
            match op.class() {
                OperatorClass::Scan => {
                    if inputs > 0 {
                        out.push(PlanViolation::ScanWithInputs { node, op, inputs });
                    }
                }
                _ => {
                    if inputs == 0 {
                        out.push(PlanViolation::MissingInputs { node, op });
                    }
                }
            }
            let is_join = matches!(
                op,
                PhysicalOperator::HashJoin
                    | PhysicalOperator::MergeJoin
                    | PhysicalOperator::NestedLoopJoin
                    | PhysicalOperator::BroadcastJoin
                    | PhysicalOperator::SemiJoin
            );
            if is_join && inputs < 2 {
                out.push(PlanViolation::BadArity { node, op, inputs, expected: 2 });
            }
            if matches!(op.class(), OperatorClass::Exchange) && inputs != 1 {
                out.push(PlanViolation::BadArity { node, op, inputs, expected: 1 });
            }
        }
    }

    for (node, op_node) in plan.operators.iter().enumerate() {
        if op_node.num_partitions == 0 {
            out.push(PlanViolation::ZeroPartitions { node });
        }
        let columns = op_node.num_partitioning_columns;
        let partitions = op_node.num_partitions;
        let mismatch = match op_node.partitioning {
            PartitioningMethod::Hash | PartitioningMethod::Range => {
                partitions > 1 && columns == 0
            }
            PartitioningMethod::RoundRobin | PartitioningMethod::Broadcast => columns > 0,
        };
        if mismatch {
            out.push(PlanViolation::PartitioningMismatch {
                node,
                method: op_node.partitioning,
                columns,
                partitions,
            });
        }
        for (field, value) in numeric_features(op_node) {
            if !value.is_finite() {
                out.push(PlanViolation::NonFiniteFeature { node, field, value });
            } else if value < 0.0 {
                out.push(PlanViolation::NegativeFeature { node, field, value });
            }
        }
    }

    if out.is_empty() {
        Ok(())
    } else {
        Err(out)
    }
}

/// Check a stage graph against the plan it was derived from: complete
/// operator assignment, plan-consistent widths, acyclic in-range
/// dependencies, and per-stage token/work conservation.
pub fn validate_stage_graph(plan: &JobPlan, graph: &StageGraph) -> Result<(), Vec<StageViolation>> {
    let mut out = Vec::new();
    let n = plan.operators.len();
    let num_stages = graph.stages.len();

    let mut assigned = vec![0usize; n];
    for stage in &graph.stages {
        for &node in &stage.operator_indices {
            if node < n {
                assigned[node] += 1;
            }
        }
    }
    for (node, &count) in assigned.iter().enumerate() {
        if count == 0 {
            out.push(StageViolation::OperatorUnassigned { node });
        } else if count > 1 {
            out.push(StageViolation::OperatorMultiplyAssigned { node });
        }
    }

    for (s, stage) in graph.stages.iter().enumerate() {
        let expected_width = stage
            .operator_indices
            .iter()
            .filter(|&&i| i < n)
            .map(|&i| plan.operators[i].num_partitions.max(1))
            .max()
            .unwrap_or(1) as usize;
        if stage.width() != expected_width {
            out.push(StageViolation::WidthMismatch {
                stage: s,
                width: stage.width(),
                expected: expected_width,
            });
        }
        let mut durations_ok = true;
        for (task, &d) in stage.task_durations.iter().enumerate() {
            if !d.is_finite() || d < TASK_STARTUP_SECS - 1e-9 {
                out.push(StageViolation::BadTaskDuration { stage: s, task, duration: d });
                durations_ok = false;
            }
        }
        if durations_ok {
            let cost_work: f64 = stage
                .operator_indices
                .iter()
                .filter(|&&i| i < n)
                .map(|&i| plan.operators[i].est_exclusive_cost * COST_TO_SECONDS)
                .sum();
            let expected = stage.width() as f64 * TASK_STARTUP_SECS + cost_work;
            let actual = stage.total_work();
            let tol = WORK_CONSERVATION_REL_TOL * expected.abs().max(1.0);
            if (actual - expected).abs() > tol {
                out.push(StageViolation::WorkNotConserved { stage: s, actual, expected });
            }
        }
    }

    let mut deps_ok = true;
    for (s, deps) in graph.deps.iter().enumerate() {
        for &d in deps {
            if d >= num_stages {
                out.push(StageViolation::DepOutOfRange { stage: s, dep: d });
                deps_ok = false;
            } else if d == s {
                out.push(StageViolation::SelfDependency { stage: s });
                deps_ok = false;
            }
        }
    }
    if deps_ok && num_stages > 0 {
        // Kahn's algorithm over the dependency relation.
        let mut pending: Vec<usize> = graph.deps.iter().map(Vec::len).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); num_stages];
        for (s, deps) in graph.deps.iter().enumerate() {
            for &d in deps {
                dependents[d].push(s);
            }
        }
        let mut queue: Vec<usize> = (0..num_stages).filter(|&s| pending[s] == 0).collect();
        let mut seen = 0usize;
        while let Some(s) = queue.pop() {
            seen += 1;
            for &dep in &dependents[s] {
                pending[dep] -= 1;
                if pending[dep] == 0 {
                    queue.push(dep);
                }
            }
        }
        if seen != num_stages {
            out.push(StageViolation::CyclicStages);
        }
    }

    if out.is_empty() {
        Ok(())
    } else {
        Err(out)
    }
}

/// Validate a generated job end to end: its plan, then the stage graph the
/// executor would derive from it (using the job's own seed).
pub fn validate_job(job: &Job) -> Result<(), JobValidationError> {
    let mut err = JobValidationError::default();
    match validate_plan(&job.plan) {
        Ok(()) => {
            let graph = StageGraph::from_plan(&job.plan, job.seed);
            if let Err(stages) = validate_stage_graph(&job.plan, &graph) {
                err.stages = stages;
            }
        }
        Err(plan) => err.plan = plan,
    }
    if err.plan.is_empty() && err.stages.is_empty() {
        Ok(())
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadConfig, WorkloadGenerator};
    use crate::operators::PhysicalOperator as Op;
    use crate::plan::OperatorNode;

    fn node(op: Op, partitions: u32, cost: f64) -> OperatorNode {
        let mut n = OperatorNode::with_op(op);
        n.partitioning = PartitioningMethod::RoundRobin;
        n.num_partitions = partitions;
        n.est_exclusive_cost = cost;
        n
    }

    fn valid_plan() -> JobPlan {
        let mut plan = JobPlan::new(
            vec![
                node(Op::TableScan, 8, 80.0),
                node(Op::Exchange, 8, 8.0),
                node(Op::HashAggregate, 2, 10.0),
            ],
            vec![(0, 1), (1, 2)],
        );
        plan.recompute_rollups();
        plan
    }

    #[test]
    fn valid_plan_passes() {
        assert_eq!(validate_plan(&valid_plan()), Ok(()));
    }

    #[test]
    fn every_generated_job_validates() {
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 60,
            seed: 17,
            ..Default::default()
        })
        .generate();
        for job in &jobs {
            if let Err(e) = validate_job(job) {
                panic!("job {} ({:?}) failed validation: {e}", job.id, job.meta.archetype);
            }
        }
    }

    #[test]
    fn structure_check_accepts_any_numbering_of_a_dag_and_refuses_an_empty_plan() {
        assert_eq!(check_structure(&valid_plan()), Ok(()));
        // The same chain numbered root-first: every edge descends, so the
        // ascending shortcut does not apply and the sort decides.
        let mut reversed = valid_plan();
        reversed.operators.reverse();
        reversed.edges = vec![(2, 1), (1, 0)];
        assert_eq!(check_structure(&reversed), Ok(()));
        let empty = JobPlan { operators: Vec::new(), edges: Vec::new() };
        assert_eq!(check_structure(&empty), Err(PlanViolation::EmptyPlan));
    }

    #[test]
    fn cycle_is_reported() {
        let mut plan = valid_plan();
        plan.edges.push((2, 0)); // close the loop, bypassing JobPlan::new
        let errs = validate_plan(&plan).expect_err("cycle must be rejected");
        assert!(errs.contains(&PlanViolation::Cycle), "{errs:?}");
        assert_eq!(check_structure(&plan), Err(PlanViolation::Cycle));
        // The scan also gained an input, which is its own violation.
        assert!(
            errs.iter().any(|v| matches!(v, PlanViolation::ScanWithInputs { node: 0, .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn out_of_range_edge_is_reported_without_panicking() {
        let mut plan = valid_plan();
        plan.edges.push((0, 99));
        assert_eq!(
            check_structure(&plan),
            Err(PlanViolation::EdgeOutOfRange { from: 0, to: 99, operators: 3 })
        );
        let errs = validate_plan(&plan).expect_err("bad edge");
        assert!(
            errs.iter().any(|v| matches!(v, PlanViolation::EdgeOutOfRange { to: 99, .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn join_arity_and_partitioning_rules() {
        let mut plan = valid_plan();
        plan.operators[2].op = Op::HashJoin; // single-input join
        plan.operators[2].partitioning = PartitioningMethod::Hash;
        plan.operators[2].num_partitioning_columns = 0; // hash with no columns
        let errs = validate_plan(&plan).expect_err("must reject");
        assert!(
            errs.iter().any(|v| matches!(v, PlanViolation::BadArity { node: 2, expected: 2, .. })),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|v| matches!(v, PlanViolation::PartitioningMismatch { node: 2, .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn non_finite_features_are_reported() {
        let mut plan = valid_plan();
        plan.operators[1].est_subtree_cost = f64::NAN;
        plan.operators[0].est_output_cardinality = -5.0;
        let errs = validate_plan(&plan).expect_err("must reject");
        assert!(
            errs.iter().any(|v| matches!(
                v,
                PlanViolation::NonFiniteFeature { node: 1, field: "est_subtree_cost", .. }
            )),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|v| matches!(v, PlanViolation::NegativeFeature { node: 0, .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn stage_graph_of_valid_plan_conserves_work() {
        let plan = valid_plan();
        let graph = StageGraph::from_plan(&plan, 13);
        assert_eq!(validate_stage_graph(&plan, &graph), Ok(()));
    }

    #[test]
    fn tampered_task_duration_breaks_conservation() {
        let plan = valid_plan();
        let mut graph = StageGraph::from_plan(&plan, 13);
        graph.stages[0].task_durations[0] += 10.0; // leak 10 token-seconds
        let errs = validate_stage_graph(&plan, &graph).expect_err("must reject");
        assert!(
            errs.iter().any(|v| matches!(v, StageViolation::WorkNotConserved { stage: 0, .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn cyclic_stage_deps_are_reported() {
        let plan = valid_plan();
        let mut graph = StageGraph::from_plan(&plan, 13);
        graph.deps[0].push(1); // 0 -> 1 -> 0
        let errs = validate_stage_graph(&plan, &graph).expect_err("must reject");
        assert!(errs.contains(&StageViolation::CyclicStages), "{errs:?}");
    }
}
