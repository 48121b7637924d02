//! Query plans: DAGs of operator nodes carrying compile-time features.
//!
//! Each node carries exactly the feature set the paper's Table 1 lists —
//! estimated cardinalities (output, leaf input, children input), average
//! row length, estimated costs (subtree, operator-exclusive, total),
//! partition counts, partitioning/sort column counts, and the categorical
//! operator/partitioning identity.

use crate::operators::{PartitioningMethod, PhysicalOperator};
use serde::{Deserialize, Serialize};

/// One operator in a [`JobPlan`], with its compile-time features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OperatorNode {
    /// The physical operator.
    pub op: PhysicalOperator,
    /// Partitioning of this operator's output.
    pub partitioning: PartitioningMethod,
    /// Estimated output cardinality (rows).
    pub est_output_cardinality: f64,
    /// Estimated cardinality read from leaf inputs in this subtree.
    pub est_leaf_input_cardinality: f64,
    /// Estimated total input cardinality from direct children.
    pub est_children_input_cardinality: f64,
    /// Average output row length in bytes.
    pub avg_row_length: f64,
    /// Estimated cost of the subtree rooted here.
    pub est_subtree_cost: f64,
    /// Estimated cost of this operator alone.
    pub est_exclusive_cost: f64,
    /// Estimated total cost (subtree + materialization overheads).
    pub est_total_cost: f64,
    /// Degree of parallelism (number of partitions).
    pub num_partitions: u32,
    /// Number of partitioning columns.
    pub num_partitioning_columns: u32,
    /// Number of sort columns.
    pub num_sort_columns: u32,
}

impl OperatorNode {
    /// A minimal node with the given operator and defaults for the rest;
    /// useful in tests and builders.
    pub fn with_op(op: PhysicalOperator) -> Self {
        Self {
            op,
            partitioning: PartitioningMethod::Hash,
            est_output_cardinality: 0.0,
            est_leaf_input_cardinality: 0.0,
            est_children_input_cardinality: 0.0,
            avg_row_length: 100.0,
            est_subtree_cost: 0.0,
            est_exclusive_cost: 0.0,
            est_total_cost: 0.0,
            num_partitions: 1,
            num_partitioning_columns: 0,
            num_sort_columns: 0,
        }
    }
}

/// A query plan: operators plus directed edges `child -> parent`
/// (data flows from children toward the root/output).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobPlan {
    /// Operator nodes.
    pub operators: Vec<OperatorNode>,
    /// Directed data-flow edges `(from_child, to_parent)` by node index.
    pub edges: Vec<(usize, usize)>,
}

impl JobPlan {
    /// Create a plan, validating edges and acyclicity.
    ///
    /// # Panics
    /// Panics if an edge references a missing node or the graph is cyclic.
    pub fn new(operators: Vec<OperatorNode>, edges: Vec<(usize, usize)>) -> Self {
        let plan = Self { operators, edges };
        for &(from, to) in &plan.edges {
            assert!(
                from < plan.operators.len() && to < plan.operators.len(),
                "JobPlan: edge ({from},{to}) out of range"
            );
        }
        assert!(plan.topological_order().is_some(), "JobPlan: graph contains a cycle");
        plan
    }

    /// Number of operators.
    pub fn num_operators(&self) -> usize {
        self.operators.len()
    }

    /// Indices of nodes with no incoming edges (leaf scans).
    pub fn leaves(&self) -> Vec<usize> {
        let mut has_input = vec![false; self.operators.len()];
        for &(_, to) in &self.edges {
            has_input[to] = true;
        }
        (0..self.operators.len()).filter(|&i| !has_input[i]).collect()
    }

    /// Indices of nodes with no outgoing edges (outputs/roots).
    pub fn roots(&self) -> Vec<usize> {
        let mut has_output = vec![false; self.operators.len()];
        for &(from, _) in &self.edges {
            has_output[from] = true;
        }
        (0..self.operators.len()).filter(|&i| !has_output[i]).collect()
    }

    /// Children (direct inputs) of node `i`.
    pub fn children(&self, i: usize) -> Vec<usize> {
        self.edges.iter().filter(|&&(_, to)| to == i).map(|&(from, _)| from).collect()
    }

    /// Parents (direct consumers) of node `i`.
    pub fn parents(&self, i: usize) -> Vec<usize> {
        self.edges.iter().filter(|&&(from, _)| from == i).map(|&(_, to)| to).collect()
    }

    /// A topological order (children before parents), or `None` if cyclic.
    ///
    /// Linear in operators plus edges: a node's out-edges are bucketed
    /// once (in edge-list order, which fixes the order returned) rather
    /// than found by rescanning every edge per node — a decoded plan can
    /// carry as many edges as a frame holds.
    ///
    /// # Panics
    /// Panics if an edge references a missing node.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let n = self.operators.len();
        let mut in_degree = vec![0usize; n];
        // `targets[first_out[i]..first_out[i + 1]]` are node `i`'s parents.
        let mut first_out = vec![0usize; n + 1];
        for &(from, to) in &self.edges {
            in_degree[to] += 1;
            first_out[from + 1] += 1;
        }
        for i in 0..n {
            first_out[i + 1] += first_out[i];
        }
        let mut next_slot = first_out.clone();
        let mut targets = vec![0usize; self.edges.len()];
        for &(from, to) in &self.edges {
            targets[next_slot[from]] = to;
            next_slot[from] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(i);
            for &to in &targets[first_out[i]..first_out[i + 1]] {
                in_degree[to] -= 1;
                if in_degree[to] == 0 {
                    queue.push(to);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Recompute the cost/cardinality roll-ups bottom-up: children-input
    /// and leaf-input cardinalities, subtree cost, and total cost, from the
    /// per-node output cardinalities and exclusive costs.
    ///
    /// Generators call this after assembling a plan so that the Table 1
    /// features are mutually consistent.
    pub fn recompute_rollups(&mut self) {
        // lint: allow(no-panic) — `JobPlan::new` rejects cyclic edge sets, so
        // a constructed plan always has a topological order.
        let order = self.topological_order().expect("validated at construction");
        for &i in &order {
            let children = self.children(i);
            let mut children_card = 0.0;
            let mut leaf_card = 0.0;
            let mut subtree_cost = 0.0;
            for &c in &children {
                children_card += self.operators[c].est_output_cardinality;
                leaf_card += self.operators[c].est_leaf_input_cardinality;
                subtree_cost += self.operators[c].est_subtree_cost;
            }
            let node = &mut self.operators[i];
            if children.is_empty() {
                // Leaf: the leaf-input cardinality is its own output scale.
                node.est_leaf_input_cardinality = node.est_output_cardinality;
                node.est_children_input_cardinality = 0.0;
            } else {
                node.est_leaf_input_cardinality = leaf_card;
                node.est_children_input_cardinality = children_card;
            }
            node.est_subtree_cost = subtree_cost + node.est_exclusive_cost;
            node.est_total_cost = node.est_subtree_cost * 1.05; // materialization overhead
        }
    }

    /// Adjacency matrix (row-major `n x n`, `a[from][to] = 1`), as used for
    /// the GNN's graph representation.
    pub fn adjacency_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.operators.len();
        let mut adj = vec![vec![0.0; n]; n];
        for &(from, to) in &self.edges {
            adj[from][to] = 1.0;
        }
        adj
    }

    /// Edge list (shared representation for GNN input).
    pub fn edge_list(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Total estimated cost at the root (max over roots' subtree costs).
    pub fn total_cost(&self) -> f64 {
        self.roots()
            .iter()
            .map(|&r| self.operators[r].est_subtree_cost)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::PhysicalOperator as Op;

    /// scan -> filter -> agg
    fn chain() -> JobPlan {
        let mut scan = OperatorNode::with_op(Op::TableScan);
        scan.est_output_cardinality = 1000.0;
        scan.est_exclusive_cost = 10.0;
        let mut filter = OperatorNode::with_op(Op::Filter);
        filter.est_output_cardinality = 100.0;
        filter.est_exclusive_cost = 1.0;
        let mut agg = OperatorNode::with_op(Op::HashAggregate);
        agg.est_output_cardinality = 10.0;
        agg.est_exclusive_cost = 2.0;
        JobPlan::new(vec![scan, filter, agg], vec![(0, 1), (1, 2)])
    }

    #[test]
    fn leaves_and_roots() {
        let plan = chain();
        assert_eq!(plan.leaves(), vec![0]);
        assert_eq!(plan.roots(), vec![2]);
        assert_eq!(plan.children(1), vec![0]);
        assert_eq!(plan.parents(1), vec![2]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let plan = chain();
        let order = plan.topological_order().unwrap();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    /// The per-node edge rescan `topological_order` replaced: same queue
    /// discipline, so the linear version must return the same order (stage
    /// ids, and through them every seeded task duration, depend on it).
    fn topological_order_by_rescan(plan: &JobPlan) -> Option<Vec<usize>> {
        let n = plan.operators.len();
        let mut in_degree = vec![0usize; n];
        for &(_, to) in &plan.edges {
            in_degree[to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(i);
            for &(from, to) in &plan.edges {
                if from == i {
                    in_degree[to] -= 1;
                    if in_degree[to] == 0 {
                        queue.push(to);
                    }
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    #[test]
    fn topological_order_matches_the_rescan_it_replaced() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let mut cyclic = 0;
        for _ in 0..300 {
            let n = rng.gen_range(1..12usize);
            // Mostly forward edges in arbitrary list order, some backward
            // ones so cyclic inputs are covered too.
            let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..2 * n))
                .map(|_| {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if a > b && rng.gen_bool(0.9) { (b, a) } else { (a, b) }
                })
                .collect();
            let plan = JobPlan { operators: vec![OperatorNode::with_op(Op::Filter); n], edges };
            let order = plan.topological_order();
            assert_eq!(order, topological_order_by_rescan(&plan), "{:?}", plan.edges);
            cyclic += order.is_none() as usize;
        }
        assert!((20..280).contains(&cyclic), "both outcomes exercised: {cyclic} cyclic of 300");
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_panics() {
        let nodes = vec![
            OperatorNode::with_op(Op::Filter),
            OperatorNode::with_op(Op::Project),
        ];
        let _ = JobPlan::new(nodes, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn rollups_accumulate_costs() {
        let mut plan = chain();
        plan.recompute_rollups();
        assert_eq!(plan.operators[0].est_subtree_cost, 10.0);
        assert_eq!(plan.operators[1].est_subtree_cost, 11.0);
        assert_eq!(plan.operators[2].est_subtree_cost, 13.0);
        assert_eq!(plan.operators[2].est_children_input_cardinality, 100.0);
        assert_eq!(plan.operators[2].est_leaf_input_cardinality, 1000.0);
        assert!((plan.total_cost() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn rollups_join_shape() {
        // Two scans into a join.
        let mut s1 = OperatorNode::with_op(Op::TableScan);
        s1.est_output_cardinality = 500.0;
        s1.est_exclusive_cost = 5.0;
        let mut s2 = OperatorNode::with_op(Op::TableScan);
        s2.est_output_cardinality = 300.0;
        s2.est_exclusive_cost = 3.0;
        let mut join = OperatorNode::with_op(Op::HashJoin);
        join.est_output_cardinality = 400.0;
        join.est_exclusive_cost = 4.0;
        let mut plan = JobPlan::new(vec![s1, s2, join], vec![(0, 2), (1, 2)]);
        plan.recompute_rollups();
        assert_eq!(plan.operators[2].est_children_input_cardinality, 800.0);
        assert_eq!(plan.operators[2].est_leaf_input_cardinality, 800.0);
        assert_eq!(plan.operators[2].est_subtree_cost, 12.0);
    }

    #[test]
    fn adjacency_matrix_matches_edges() {
        let plan = chain();
        let adj = plan.adjacency_matrix();
        assert_eq!(adj[0][1], 1.0);
        assert_eq!(adj[1][2], 1.0);
        assert_eq!(adj[1][0], 0.0);
        assert_eq!(adj[2][2], 0.0);
    }
}
