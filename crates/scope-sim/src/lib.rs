//! # scope-sim — a SCOPE-like big-data substrate
//!
//! The TASQ paper evaluates on Microsoft's production SCOPE workload and
//! uses the Cosmos cluster's *job-flighting* capability to re-execute jobs
//! at alternative token allocations. Neither is available outside
//! Microsoft, so this crate provides the closest synthetic equivalent:
//!
//! * [`operators`] — SCOPE's 35 physical operators and 4 partitioning
//!   methods, with coarse cost/behaviour metadata.
//! * [`plan`] — query plans as operator DAGs carrying the compile-time
//!   features of the paper's Table 1 (cardinalities, costs, partition
//!   counts, ...).
//! * [`stage`] — stage extraction: operators between exchange boundaries
//!   form stages, each with a task width and per-task work.
//! * [`exec`] — an event-driven cluster executor: tasks are scheduled onto
//!   token slots, producing a per-second resource [`skyline::Skyline`] and
//!   the job's makespan at any allocation. Running the same job at several
//!   allocations yields ground-truth performance-characteristic curves.
//! * [`skyline`] — the resource-usage time series and its analyses
//!   (area/token-seconds, peak, utilization sections).
//! * [`generator`] — a workload generator with 8 job archetypes calibrated
//!   to the population statistics the paper publishes (right-skewed run
//!   times 33 s–21 h with median ≈3 min; peak tokens 1–6,287 with median
//!   ≈54), emitting both recurring jobs (template + input-size drift) and
//!   ad-hoc jobs.
//! * [`flight`] — the flighting harness: re-run a job at several token
//!   counts, optionally with seeded execution noise and repeated runs, as
//!   the paper does in Section 5.1.
//! * [`faults`] — seeded fault injection (task crashes, stragglers,
//!   token-lease preemption, queueing bursts) and the recovery policy
//!   (bounded retries with exponential backoff, speculative
//!   re-execution) layered onto the executor.
//! * [`validate`] — semantic invariant checks over plans and stage graphs
//!   (scan/join arity, partitioning compatibility, work conservation),
//!   used by the generator, the training pipeline, and the invariant tests.
//! * [`trace`] — deterministic execution traces, checked against the
//!   stage DAG by `tests/invariant_checks.rs` and rendered onto Chrome
//!   traces.
//!
//! Everything is deterministic given seeds unless a noise model or fault
//! plan is explicitly enabled.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod adaptive;
pub mod amdahl;
pub mod cluster;
pub mod exec;
pub mod faults;
pub mod flight;
pub mod generator;
pub mod jockey;
mod obs;
pub mod operators;
pub mod plan;
pub mod skyline;
pub mod stage;
pub mod trace;
pub mod validate;

pub use amdahl::AmdahlModel;
pub use exec::{ExecScratch, ExecutionConfig, ExecutionResult, Executor, NoiseModel};
pub use faults::{FaultInjector, FaultPlan, FaultReport, RecoveryPolicy, SimError};
pub use flight::{
    assemble_workload, filter_non_anomalous, flight_cell_seed, flight_job, flight_job_with_pool,
    flight_tasks, flight_workload, run_flight_cell, Flight, FlightConfig, FlightedJob,
};
pub use generator::{
    replay_traffic, Archetype, Job, JobMeta, TrafficConfig, WorkloadConfig, WorkloadGenerator,
};
pub use operators::{PartitioningMethod, PhysicalOperator};
pub use plan::{JobPlan, OperatorNode};
pub use skyline::Skyline;
pub use stage::{Stage, StageGraph};
pub use trace::{chrome_track, ExecTrace};
pub use validate::{
    check_structure, validate_job, validate_plan, validate_stage_graph, JobValidationError,
    PlanViolation, StageViolation,
};
