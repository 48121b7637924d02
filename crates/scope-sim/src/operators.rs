//! SCOPE physical operators and partitioning methods.
//!
//! The paper's featurization (Table 1) one-hot encodes "35 Physical
//! Operators & 4 Partitioning methods, described in J. Zhou et al."
//! (SCOPE: parallel databases meet MapReduce, VLDB J. 2012). The closed
//! SCOPE operator catalogue is approximated here with 35 operators covering
//! the same families: scans, filters/projections, the join algorithms, the
//! aggregation variants, sorts, exchanges, windowing, user-defined
//! operators, and writers.

use tasq_codec::Wire;

/// How an operator's work scales and where it sits in a pipeline, used by
/// the execution simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatorClass {
    /// Reads from the store; work scales with leaf input.
    Scan,
    /// Streaming row-at-a-time transform; cheap, pipelined.
    Streaming,
    /// Blocking operator that must consume all input before emitting
    /// (sorts, hash builds): serializes its stage's tail.
    Blocking,
    /// Data movement across the cluster (stage boundary).
    Exchange,
    /// Writes results to the store.
    Writer,
}

/// The 35 SCOPE-like physical operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Wire)]
#[repr(u8)]
pub enum PhysicalOperator {
    /// Extractor over unstructured input streams.
    Extract,
    /// Scan over a structured (table) stream.
    TableScan,
    /// Scan restricted to a partition range.
    RangeScan,
    /// Clustered-index seek.
    IndexLookup,
    /// Row predicate evaluation.
    Filter,
    /// Column projection.
    Project,
    /// Scalar expression computation.
    ComputeScalar,
    /// Defines derived columns via a processor chain.
    Process,
    /// Hash join (build + probe).
    HashJoin,
    /// Sort-merge join.
    MergeJoin,
    /// Nested-loop join.
    NestedLoopJoin,
    /// Join against a broadcast (replicated) build side.
    BroadcastJoin,
    /// Left/right semi join.
    SemiJoin,
    /// Hash-based full aggregation.
    HashAggregate,
    /// Stream (sorted-input) aggregation.
    StreamAggregate,
    /// Pre-aggregation before an exchange.
    PartialAggregate,
    /// Hash aggregation local to a partition.
    LocalHashAggregate,
    /// Full sort.
    Sort,
    /// Top-N sort.
    TopSort,
    /// Order-preserving merge of sorted streams.
    MergeSorted,
    /// Repartitioning exchange (shuffle).
    Exchange,
    /// Broadcast replication to all partitions.
    BroadcastExchange,
    /// Concatenation of inputs.
    UnionAll,
    /// Buffered re-read of an intermediate (spool).
    Spool,
    /// Window function evaluation.
    WindowAggregate,
    /// Sequence/rank projection (row_number etc.).
    SequenceProject,
    /// Splits a stream to multiple consumers.
    Split,
    /// Pairs each row with table-valued function output.
    CrossApply,
    /// Wide-to-long reshaping.
    Unpivot,
    /// Long-to-wide reshaping.
    Pivot,
    /// User-defined operator (UDO).
    UserDefinedOperator,
    /// User-defined aggregator.
    UserDefinedAggregator,
    /// User-defined processor.
    UserDefinedProcessor,
    /// Combiner of co-partitioned streams (SCOPE COMBINE).
    Combine,
    /// Materializes an intermediate result to the store.
    Materialize,
}

/// All 35 operators, in one-hot encoding order.
pub const ALL_OPERATORS: [PhysicalOperator; 35] = [
    PhysicalOperator::Extract,
    PhysicalOperator::TableScan,
    PhysicalOperator::RangeScan,
    PhysicalOperator::IndexLookup,
    PhysicalOperator::Filter,
    PhysicalOperator::Project,
    PhysicalOperator::ComputeScalar,
    PhysicalOperator::Process,
    PhysicalOperator::HashJoin,
    PhysicalOperator::MergeJoin,
    PhysicalOperator::NestedLoopJoin,
    PhysicalOperator::BroadcastJoin,
    PhysicalOperator::SemiJoin,
    PhysicalOperator::HashAggregate,
    PhysicalOperator::StreamAggregate,
    PhysicalOperator::PartialAggregate,
    PhysicalOperator::LocalHashAggregate,
    PhysicalOperator::Sort,
    PhysicalOperator::TopSort,
    PhysicalOperator::MergeSorted,
    PhysicalOperator::Exchange,
    PhysicalOperator::BroadcastExchange,
    PhysicalOperator::UnionAll,
    PhysicalOperator::Spool,
    PhysicalOperator::WindowAggregate,
    PhysicalOperator::SequenceProject,
    PhysicalOperator::Split,
    PhysicalOperator::CrossApply,
    PhysicalOperator::Unpivot,
    PhysicalOperator::Pivot,
    PhysicalOperator::UserDefinedOperator,
    PhysicalOperator::UserDefinedAggregator,
    PhysicalOperator::UserDefinedProcessor,
    PhysicalOperator::Combine,
    PhysicalOperator::Materialize,
];

impl PhysicalOperator {
    /// Index into the one-hot encoding (stable across releases).
    ///
    /// `ALL_OPERATORS` lists the variants in declaration order, so the
    /// discriminant *is* the one-hot index (a test pins this).
    pub fn one_hot_index(self) -> usize {
        self as usize
    }

    /// The operator's behaviour class for the execution simulator.
    pub fn class(self) -> OperatorClass {
        use PhysicalOperator::*;
        match self {
            Extract | TableScan | RangeScan | IndexLookup => OperatorClass::Scan,
            Filter | Project | ComputeScalar | Process | SequenceProject | Split
            | CrossApply | Unpivot | Pivot | UnionAll | UserDefinedProcessor
            | UserDefinedOperator | MergeSorted | Combine | SemiJoin | BroadcastJoin
            | NestedLoopJoin | PartialAggregate | LocalHashAggregate | StreamAggregate => {
                OperatorClass::Streaming
            }
            HashJoin | MergeJoin | HashAggregate | Sort | TopSort | Spool | WindowAggregate
            | UserDefinedAggregator => OperatorClass::Blocking,
            Exchange | BroadcastExchange => OperatorClass::Exchange,
            Materialize => OperatorClass::Writer,
        }
    }

    /// Relative CPU cost per input row (arbitrary units; scans and UDOs are
    /// expensive, streaming transforms are cheap).
    pub fn cost_per_row(self) -> f64 {
        use PhysicalOperator::*;
        match self {
            Extract => 2.0,
            TableScan => 1.0,
            RangeScan => 0.8,
            IndexLookup => 0.4,
            Filter => 0.15,
            Project => 0.1,
            ComputeScalar => 0.2,
            Process => 0.5,
            HashJoin => 1.6,
            MergeJoin => 1.2,
            NestedLoopJoin => 3.0,
            BroadcastJoin => 1.0,
            SemiJoin => 0.9,
            HashAggregate => 1.4,
            StreamAggregate => 0.6,
            PartialAggregate => 0.7,
            LocalHashAggregate => 0.9,
            Sort => 2.2,
            TopSort => 0.9,
            MergeSorted => 0.5,
            Exchange => 1.0,
            BroadcastExchange => 1.5,
            UnionAll => 0.1,
            Spool => 0.8,
            WindowAggregate => 1.8,
            SequenceProject => 0.4,
            Split => 0.1,
            CrossApply => 2.5,
            Unpivot => 0.6,
            Pivot => 0.8,
            UserDefinedOperator => 4.0,
            UserDefinedAggregator => 3.5,
            UserDefinedProcessor => 3.0,
            Combine => 1.1,
            Materialize => 1.8,
        }
    }

    /// Whether this operator starts a new stage boundary (exchanges break
    /// pipelines in SCOPE's execution model).
    pub fn is_stage_boundary(self) -> bool {
        matches!(self.class(), OperatorClass::Exchange)
    }
}

/// SCOPE's four partitioning methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Wire)]
#[repr(u8)]
pub enum PartitioningMethod {
    /// Hash partitioning on a column set.
    Hash,
    /// Range partitioning on a sort key.
    Range,
    /// Round-robin (random) redistribution.
    RoundRobin,
    /// Full replication to every partition.
    Broadcast,
}

/// All partitioning methods, in one-hot encoding order.
pub const ALL_PARTITIONINGS: [PartitioningMethod; 4] = [
    PartitioningMethod::Hash,
    PartitioningMethod::Range,
    PartitioningMethod::RoundRobin,
    PartitioningMethod::Broadcast,
];

impl PartitioningMethod {
    /// Index into the one-hot encoding (declaration order, like
    /// [`PhysicalOperator::one_hot_index`]).
    pub fn one_hot_index(self) -> usize {
        self as usize
    }

    /// Relative skew of task sizes this partitioning induces (hash is
    /// fairly even, range can be skewed, broadcast replicates).
    pub fn skew_factor(self) -> f64 {
        match self {
            PartitioningMethod::Hash => 0.15,
            PartitioningMethod::Range => 0.45,
            PartitioningMethod::RoundRobin => 0.05,
            PartitioningMethod::Broadcast => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exactly_35_operators() {
        assert_eq!(ALL_OPERATORS.len(), 35);
        let unique: HashSet<_> = ALL_OPERATORS.iter().collect();
        assert_eq!(unique.len(), 35, "operators must be distinct");
    }

    #[test]
    fn exactly_4_partitionings() {
        assert_eq!(ALL_PARTITIONINGS.len(), 4);
    }

    #[test]
    fn one_hot_indices_are_dense_and_stable() {
        for (i, op) in ALL_OPERATORS.iter().enumerate() {
            assert_eq!(op.one_hot_index(), i);
        }
        for (i, p) in ALL_PARTITIONINGS.iter().enumerate() {
            assert_eq!(p.one_hot_index(), i);
        }
    }

    #[test]
    fn costs_are_positive() {
        for op in ALL_OPERATORS {
            assert!(op.cost_per_row() > 0.0, "{op:?}");
        }
    }

    #[test]
    fn exchanges_are_stage_boundaries() {
        assert!(PhysicalOperator::Exchange.is_stage_boundary());
        assert!(PhysicalOperator::BroadcastExchange.is_stage_boundary());
        assert!(!PhysicalOperator::Filter.is_stage_boundary());
        assert!(!PhysicalOperator::Sort.is_stage_boundary());
    }

    #[test]
    fn class_coverage() {
        let mut classes = HashSet::new();
        for op in ALL_OPERATORS {
            classes.insert(format!("{:?}", op.class()));
        }
        assert_eq!(classes.len(), 5, "all five classes should be represented");
    }

    #[test]
    fn skew_factors_bounded() {
        for p in ALL_PARTITIONINGS {
            assert!((0.0..1.0).contains(&p.skew_factor()));
        }
    }
}
