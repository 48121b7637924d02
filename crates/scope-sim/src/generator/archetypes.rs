//! The eight job archetypes.
//!
//! Each archetype builds an operator DAG with a characteristic shape —
//! peaky (wide scan stages separated by narrow aggregation valleys) or
//! flat (uniformly wide pipelines) — because the paper's central
//! observation (Figure 8) is that peaky jobs tolerate aggressive token
//! reduction while flat jobs do not. The archetypes also serve as the
//! natural cluster structure that the job-subset-selection procedure
//! (Section 5.1, Figure 11) recovers with k-means.

use super::builder::{jitter, PlanBuilder};
use crate::operators::{PartitioningMethod as Pm, PhysicalOperator as Op};
use crate::plan::JobPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tasq_codec::Wire;

/// Job archetype (workload family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Wire)]
pub enum Archetype {
    /// Straight copy: extract → project → materialize. Flat rectangle.
    DataCopy,
    /// Ingest pipeline: wide extract, cleanup, repartition, write. Flat-ish.
    EtlIngest,
    /// Fact-dimension joins + aggregation. Peaky: wide scans, narrow joins.
    StarJoinAgg,
    /// Sort + window functions over a big stream. Sort-dominated.
    WindowAnalytics,
    /// UDO-heavy feature extraction. Long, flat, embarrassingly parallel.
    Featurization,
    /// Multi-source roll-up report. Several humps.
    ReportingRollup,
    /// Very wide short scan then tiny aggregation. Spiky.
    LogMining,
    /// Broadcast model join + scoring UDP. Flat with a small head.
    MlScoring,
}

impl Archetype {
    /// All archetypes (cluster universe for job selection).
    pub const ALL: [Archetype; 8] = [
        Archetype::DataCopy,
        Archetype::EtlIngest,
        Archetype::StarJoinAgg,
        Archetype::WindowAnalytics,
        Archetype::Featurization,
        Archetype::ReportingRollup,
        Archetype::LogMining,
        Archetype::MlScoring,
    ];

    /// Stable index of this archetype (its position in [`Self::ALL`]; a
    /// test pins the correspondence).
    pub fn index(self) -> usize {
        match self {
            Archetype::DataCopy => 0,
            Archetype::EtlIngest => 1,
            Archetype::StarJoinAgg => 2,
            Archetype::WindowAnalytics => 3,
            Archetype::Featurization => 4,
            Archetype::ReportingRollup => 5,
            Archetype::LogMining => 6,
            Archetype::MlScoring => 7,
        }
    }

    /// Whether this archetype tends to produce peaky skylines.
    pub fn is_peaky(self) -> bool {
        matches!(
            self,
            Archetype::StarJoinAgg | Archetype::ReportingRollup | Archetype::LogMining
        )
    }

    /// Build a concrete plan.
    ///
    /// * `structure_seed` fixes all structural choices (recurring instances
    ///   share it).
    /// * `size_factor` scales input cardinalities (input drift between
    ///   recurring instances).
    /// * `requested_tokens` informs stage widths (SCOPE recompiles plans
    ///   for the submitted degree of parallelism).
    pub fn build_plan(self, structure_seed: u64, size_factor: f64, requested_tokens: u32) -> JobPlan {
        let mut rng = StdRng::seed_from_u64(structure_seed ^ 0xA5A5_5A5A);
        let width = |frac: f64| -> u32 {
            ((requested_tokens as f64 * frac).round() as u32).clamp(1, 6287)
        };
        // Global row-count scale calibrated so that run times at the
        // requested allocation match the paper's population (median ~3
        // minutes, mean ~9.5 minutes).
        const ROW_SCALE: f64 = 0.38;
        let rows = |base: f64, rng: &mut StdRng| jitter(rng, base * size_factor * ROW_SCALE, 0.3);

        match self {
            Archetype::DataCopy => {
                let mut b = PlanBuilder::new();
                let r = rows(3e7, &mut rng);
                let w = width(rng.gen_range(0.75..0.95));
                let scan = b.scan(Op::Extract, w, r, jitter(&mut rng, 180.0, 0.4));
                let proj = b.add(Op::Project, Pm::RoundRobin, w, r, r, 150.0, &[scan]);
                b.add(Op::Materialize, Pm::RoundRobin, w, r, r, 150.0, &[proj]);
                b.build()
            }
            Archetype::EtlIngest => {
                let mut b = PlanBuilder::new();
                let r = rows(5e7, &mut rng);
                let w = width(rng.gen_range(0.7..0.95));
                let w2 = width(rng.gen_range(0.45..0.7));
                let scan = b.scan(Op::Extract, w, r, jitter(&mut rng, 250.0, 0.4));
                let filt = b.add(Op::Filter, Pm::RoundRobin, w, r, r * 0.8, 250.0, &[scan]);
                let proc = b.add(Op::Process, Pm::RoundRobin, w, r * 0.8, r * 0.8, 200.0, &[filt]);
                let ex = b.exchange(proc, Pm::Hash, w2);
                let dedup =
                    b.add(Op::LocalHashAggregate, Pm::Hash, w2, r * 0.8, r * 0.7, 200.0, &[ex]);
                b.add(Op::Materialize, Pm::Hash, w2, r * 0.7, r * 0.7, 200.0, &[dedup]);
                b.build()
            }
            Archetype::StarJoinAgg => {
                let mut b = PlanBuilder::new();
                let fact_rows = rows(8e7, &mut rng);
                let w = width(rng.gen_range(0.75..0.95));
                let narrow = width(rng.gen_range(0.15..0.35));
                let tiny = width(0.05).max(1);
                let fact_len = jitter(&mut rng, 120.0, 0.3);
                let fact = b.scan(Op::TableScan, w, fact_rows, fact_len);
                let ffilt =
                    b.add(Op::Filter, Pm::RoundRobin, w, fact_rows, fact_rows * 0.5, fact_len, &[fact]);
                let mut joined = b.exchange(ffilt, Pm::Hash, narrow);
                let num_dims = rng.gen_range(2..=4usize);
                for _ in 0..num_dims {
                    let dim_rows = rows(2e5, &mut rng);
                    let dim = b.scan(Op::TableScan, tiny, dim_rows, jitter(&mut rng, 80.0, 0.3));
                    let bex = b.exchange(dim, Pm::Broadcast, narrow);
                    let out_rows = b.rows_of(joined) * rng.gen_range(0.8..1.0);
                    joined = b.add(
                        Op::HashJoin,
                        Pm::Hash,
                        narrow,
                        b.rows_of(joined),
                        out_rows,
                        160.0,
                        &[joined, bex],
                    );
                }
                let partial = b.add(
                    Op::PartialAggregate,
                    Pm::Hash,
                    narrow,
                    b.rows_of(joined),
                    b.rows_of(joined) * 0.01,
                    60.0,
                    &[joined],
                );
                let ex2 = b.exchange(partial, Pm::Hash, tiny);
                let rj = b.rows_of(ex2);
                let agg = b.add(Op::HashAggregate, Pm::Hash, tiny, rj, rj * 0.1, 60.0, &[ex2]);
                b.add(Op::Materialize, Pm::Hash, tiny, rj * 0.1, rj * 0.1, 60.0, &[agg]);
                b.build()
            }
            Archetype::WindowAnalytics => {
                let mut b = PlanBuilder::new();
                let r = rows(4e7, &mut rng);
                let w = width(rng.gen_range(0.7..0.9));
                let w2 = width(rng.gen_range(0.5..0.75));
                let tiny = width(0.04).max(1);
                let row_len = jitter(&mut rng, 140.0, 0.3);
                let scan = b.scan(Op::TableScan, w, r, row_len);
                let ex = b.exchange(scan, Pm::Range, w2);
                let sort = b.add(Op::Sort, Pm::Range, w2, r, r, row_len, &[ex]);
                let win = b.add(Op::WindowAggregate, Pm::Range, w2, r, r, 160.0, &[sort]);
                let seq = b.add(Op::SequenceProject, Pm::Range, w2, r, r * 0.2, 120.0, &[win]);
                let ex2 = b.exchange(seq, Pm::Range, tiny);
                let top =
                    b.add(Op::TopSort, Pm::Range, tiny, r * 0.2, (1e4_f64).min(r * 0.2), 120.0, &[ex2]);
                b.add(Op::Materialize, Pm::Range, tiny, 1e4, 1e4, 120.0, &[top]);
                b.build()
            }
            Archetype::Featurization => {
                let mut b = PlanBuilder::new();
                let r = rows(6e6, &mut rng);
                let w = width(rng.gen_range(0.8..1.0));
                let scan = b.scan(Op::Extract, w, r, jitter(&mut rng, 400.0, 0.3));
                let mut prev = scan;
                let chain_len = rng.gen_range(2..=4usize);
                for i in 0..chain_len {
                    let op = if i % 2 == 0 { Op::UserDefinedProcessor } else { Op::UserDefinedOperator };
                    prev = b.add(op, Pm::RoundRobin, w, r, r, 380.0, &[prev]);
                }
                b.add(Op::Materialize, Pm::RoundRobin, w, r, r, 380.0, &[prev]);
                b.build()
            }
            Archetype::ReportingRollup => {
                let mut b = PlanBuilder::new();
                let w = width(rng.gen_range(0.45..0.7));
                let narrow = width(rng.gen_range(0.08..0.2));
                let num_sources = rng.gen_range(2..=4usize);
                let mut branches = Vec::new();
                for _ in 0..num_sources {
                    let r = rows(1.5e7, &mut rng);
                    let scan = b.scan(Op::TableScan, w, r, jitter(&mut rng, 100.0, 0.3));
                    let filt = b.add(Op::Filter, Pm::RoundRobin, w, r, r * 0.6, 100.0, &[scan]);
                    let pagg = b.add(
                        Op::PartialAggregate,
                        Pm::Hash,
                        w,
                        r * 0.6,
                        r * 0.02,
                        60.0,
                        &[filt],
                    );
                    branches.push(b.exchange(pagg, Pm::Hash, narrow));
                }
                let total_rows: f64 = branches.iter().map(|&i| b.rows_of(i)).sum();
                let union = b.add(
                    Op::UnionAll,
                    Pm::Hash,
                    narrow,
                    total_rows,
                    total_rows,
                    60.0,
                    &branches,
                );
                let agg = b.add(
                    Op::StreamAggregate,
                    Pm::Hash,
                    narrow,
                    total_rows,
                    total_rows * 0.2,
                    60.0,
                    &[union],
                );
                let sort =
                    b.add(Op::Sort, Pm::Range, narrow, total_rows * 0.2, total_rows * 0.2, 60.0, &[agg]);
                b.add(Op::Materialize, Pm::Range, narrow, total_rows * 0.2, total_rows * 0.2, 60.0, &[sort]);
                b.build()
            }
            Archetype::LogMining => {
                let mut b = PlanBuilder::new();
                let r = rows(1.2e8, &mut rng);
                let w = width(rng.gen_range(0.85..1.0));
                let tiny = width(rng.gen_range(0.03..0.1)).max(1);
                let scan = b.scan(Op::Extract, w, r, jitter(&mut rng, 300.0, 0.5));
                let filt = b.add(Op::Filter, Pm::RoundRobin, w, r, r * 0.02, 300.0, &[scan]);
                let lagg = b.add(
                    Op::LocalHashAggregate,
                    Pm::Hash,
                    w,
                    r * 0.02,
                    r * 0.005,
                    80.0,
                    &[filt],
                );
                let ex = b.exchange(lagg, Pm::Hash, tiny);
                let rj = b.rows_of(ex);
                let agg = b.add(Op::HashAggregate, Pm::Hash, tiny, rj, rj * 0.2, 80.0, &[ex]);
                let top = b.add(Op::TopSort, Pm::Hash, tiny, rj * 0.2, 1000.0, 80.0, &[agg]);
                b.add(Op::Materialize, Pm::Hash, tiny, 1000.0, 1000.0, 80.0, &[top]);
                b.build()
            }
            Archetype::MlScoring => {
                let mut b = PlanBuilder::new();
                let r = rows(1e7, &mut rng);
                let w = width(rng.gen_range(0.75..0.95));
                let tiny = width(0.03).max(1);
                let model = b.scan(Op::TableScan, tiny, rows(5e4, &mut rng), 5000.0);
                let bex = b.exchange(model, Pm::Broadcast, w);
                let data = b.scan(Op::TableScan, w, r, jitter(&mut rng, 220.0, 0.3));
                let join = b.add(
                    Op::BroadcastJoin,
                    Pm::RoundRobin,
                    w,
                    r,
                    r,
                    260.0,
                    &[data, bex],
                );
                let score =
                    b.add(Op::UserDefinedProcessor, Pm::RoundRobin, w, r, r, 260.0, &[join]);
                b.add(Op::Materialize, Pm::RoundRobin, w, r, r, 260.0, &[score]);
                b.build()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecutionConfig, Executor};
    use crate::stage::StageGraph;

    #[test]
    fn all_archetypes_build_valid_plans() {
        for a in Archetype::ALL {
            let plan = a.build_plan(42, 1.0, 64);
            assert!(plan.num_operators() >= 3, "{a:?}");
            assert!(plan.topological_order().is_some(), "{a:?}");
            assert!(!plan.leaves().is_empty() && !plan.roots().is_empty(), "{a:?}");
        }
    }

    #[test]
    fn same_seed_same_structure() {
        for a in Archetype::ALL {
            let p1 = a.build_plan(7, 1.0, 100);
            let p2 = a.build_plan(7, 2.0, 100); // different size, same structure
            assert_eq!(p1.num_operators(), p2.num_operators(), "{a:?}");
            assert_eq!(p1.edges, p2.edges, "{a:?}");
        }
    }

    #[test]
    fn size_factor_scales_work() {
        for a in Archetype::ALL {
            let small = a.build_plan(3, 0.5, 64);
            let large = a.build_plan(3, 4.0, 64);
            assert!(
                large.total_cost() > small.total_cost() * 2.0,
                "{a:?}: {} vs {}",
                large.total_cost(),
                small.total_cost()
            );
        }
    }

    #[test]
    fn peaky_archetypes_have_peakier_skylines() {
        let config = ExecutionConfig::default();
        let peakiness = |a: Archetype| -> f64 {
            let plan = a.build_plan(11, 1.0, 64);
            let exec = Executor::new(StageGraph::from_plan(&plan, 11));
            exec.run(64, &config).expect("runs").skyline.peakiness()
        };
        let flat = peakiness(Archetype::DataCopy);
        let peaky = peakiness(Archetype::LogMining);
        assert!(
            peaky > flat,
            "LogMining ({peaky}) should be peakier than DataCopy ({flat})"
        );
    }

    #[test]
    fn index_roundtrips() {
        for (i, a) in Archetype::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
    }

    #[test]
    fn widths_respect_requested_tokens() {
        for a in Archetype::ALL {
            let plan = a.build_plan(5, 1.0, 32);
            let max_width = plan.operators.iter().map(|o| o.num_partitions).max().unwrap();
            assert!(max_width <= 32, "{a:?}: width {max_width} exceeds request");
        }
    }
}
