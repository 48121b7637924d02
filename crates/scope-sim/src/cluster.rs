//! Cluster-level scheduling simulation: many jobs sharing one token pool.
//!
//! The paper motivates aggressive per-job allocation with a cluster-level
//! argument (Section 1): "Utilizing fewer tokens reduces job wait time and
//! improves the overall resource availability for other jobs in the
//! cluster." This module makes that claim testable: jobs arrive over time,
//! each requests a token *grant* that must be fully available before the
//! job starts (SCOPE allocates guaranteed resources up front), and a FIFO
//! admission queue forms when the pool is exhausted. Comparing allocation
//! policies (user defaults vs. TASQ-optimal grants) quantifies the wait
//! time and utilization effects.

use crate::exec::{ExecutionConfig, Executor};
use crate::faults::SimError;
use crate::generator::Job;
use crate::stage::StageGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One job submission: who, when, and with what grant.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The submitted job.
    pub job: Job,
    /// Arrival time in seconds since the simulation start.
    pub arrival_secs: f64,
    /// Tokens requested as a guaranteed grant.
    pub granted_tokens: u32,
}

/// Per-job outcome of a cluster simulation.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// Job id.
    pub job_id: u64,
    /// Arrival time.
    pub arrival_secs: f64,
    /// Time the grant became available and the job started.
    pub start_secs: f64,
    /// Completion time.
    pub finish_secs: f64,
    /// Tokens held for the duration of the run.
    pub granted_tokens: u32,
}

impl JobOutcome {
    /// Queueing delay before the job could start.
    pub fn wait_secs(&self) -> f64 {
        self.start_secs - self.arrival_secs
    }

    /// Execution time once started.
    pub fn run_secs(&self) -> f64 {
        self.finish_secs - self.start_secs
    }

    /// End-to-end latency (wait + run).
    pub fn latency_secs(&self) -> f64 {
        self.finish_secs - self.arrival_secs
    }
}

/// Aggregate results of a cluster simulation.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-job outcomes, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Total simulated time until the last job finished.
    pub makespan_secs: f64,
    /// Pool capacity used for the simulation.
    pub capacity: u32,
}

impl ClusterReport {
    /// Mean queueing wait across jobs.
    pub fn mean_wait_secs(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(JobOutcome::wait_secs).sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Median queueing wait.
    pub fn median_wait_secs(&self) -> f64 {
        tasq_ml::stats::median(
            &self.outcomes.iter().map(JobOutcome::wait_secs).collect::<Vec<_>>(),
        )
    }

    /// Mean end-to-end latency.
    pub fn mean_latency_secs(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(JobOutcome::latency_secs).sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Average fraction of the pool held by grants over the makespan
    /// (grant-weighted, not usage-weighted).
    pub fn grant_utilization(&self) -> f64 {
        if self.makespan_secs <= 0.0 {
            return 0.0;
        }
        let grant_seconds: f64 = self
            .outcomes
            .iter()
            .map(|o| o.granted_tokens as f64 * o.run_secs())
            .sum();
        grant_seconds / (self.capacity as f64 * self.makespan_secs)
    }
}

/// A shared-pool cluster simulator with FIFO admission.
///
/// Jobs are started strictly in arrival order ("head-of-line" FIFO, as a
/// guaranteed-grant scheduler must be to avoid starvation): the head of
/// the queue waits until its full grant is free.
///
/// # Examples
///
/// ```
/// use scope_sim::cluster::{poisson_arrivals, Cluster};
/// use scope_sim::{WorkloadConfig, WorkloadGenerator};
///
/// let jobs = WorkloadGenerator::new(WorkloadConfig {
///     num_jobs: 5,
///     seed: 1,
///     ..Default::default()
/// })
/// .generate();
/// let capacity = jobs.iter().map(|j| j.requested_tokens).max().unwrap() * 2;
/// let cluster = Cluster::new(capacity);
/// let submissions = poisson_arrivals(&jobs, 30.0, |j| j.requested_tokens, 7);
/// let report = cluster.simulate(&submissions).expect("grants fit the pool");
/// assert_eq!(report.outcomes.len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    capacity: u32,
}

impl Cluster {
    /// A cluster with the given token-pool capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "Cluster::new: capacity must be positive");
        Self { capacity }
    }

    /// Pool capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Simulate the submissions. Each job's run time is obtained from the
    /// per-job [`Executor`] at its granted token count (grants above a
    /// job's usable parallelism simply waste pool space — exactly the
    /// effect the paper targets).
    ///
    /// # Errors
    /// [`SimError::GrantExceedsCapacity`] if any grant exceeds the pool
    /// capacity (such a job could never start); any executor error from
    /// the per-job runs is propagated.
    pub fn simulate(&self, submissions: &[Submission]) -> Result<ClusterReport, SimError> {
        let mut ordered: Vec<&Submission> = submissions.iter().collect();
        ordered.sort_by(|a, b| {
            a.arrival_secs
                .total_cmp(&b.arrival_secs)
                .then(a.job.id.cmp(&b.job.id))
        });
        for submission in &ordered {
            if submission.granted_tokens > self.capacity {
                return Err(SimError::GrantExceedsCapacity {
                    job_id: submission.job.id,
                    grant: submission.granted_tokens,
                    capacity: self.capacity,
                });
            }
        }

        // Completion events: (finish_time, tokens_released).
        #[derive(Clone, Copy, PartialEq)]
        struct Completion(f64, u32);
        impl Eq for Completion {}
        impl PartialOrd for Completion {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Completion {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
            }
        }

        let mut running: BinaryHeap<Reverse<Completion>> = BinaryHeap::new();
        let mut free = self.capacity;
        let mut now = 0.0f64;
        let mut outcomes = Vec::with_capacity(ordered.len());
        let exec_config = ExecutionConfig::default();

        for submission in ordered {
            let grant = submission.granted_tokens.max(1);
            now = now.max(submission.arrival_secs);
            // Drain completions that happened before this arrival.
            while let Some(&Reverse(Completion(t, released))) = running.peek() {
                if t <= now {
                    running.pop();
                    free += released;
                } else {
                    break;
                }
            }
            // FIFO head-of-line blocking: wait for enough free tokens.
            while free < grant {
                // The pool is exhausted but something is running (grant <=
                // capacity was checked up front), so a completion exists.
                let Some(Reverse(Completion(t, released))) = running.pop() else {
                    return Err(SimError::GrantExceedsCapacity {
                        job_id: submission.job.id,
                        grant,
                        capacity: self.capacity,
                    });
                };
                now = now.max(t);
                free += released;
            }
            free -= grant;
            let start = now;
            let executor = Executor::new(StageGraph::from_plan(
                &submission.job.plan,
                submission.job.seed,
            ));
            let run_secs = executor.run(grant, &exec_config)?.runtime_secs;
            let finish = start + run_secs;
            running.push(Reverse(Completion(finish, grant)));
            outcomes.push(JobOutcome {
                job_id: submission.job.id,
                arrival_secs: submission.arrival_secs,
                start_secs: start,
                finish_secs: finish,
                granted_tokens: grant,
            });
        }

        let makespan_secs =
            outcomes.iter().map(|o| o.finish_secs).fold(0.0, f64::max);
        Ok(ClusterReport { outcomes, makespan_secs, capacity: self.capacity })
    }
}

/// Build Poisson-ish arrivals (exponential inter-arrival times) for a set
/// of jobs, with the given mean gap in seconds.
pub fn poisson_arrivals(
    jobs: &[Job],
    mean_gap_secs: f64,
    grants: impl Fn(&Job) -> u32,
    seed: u64,
) -> Vec<Submission> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    jobs.iter()
        .map(|job| {
            t += tasq_ml::rand_ext::exponential(&mut rng, 1.0 / mean_gap_secs.max(1e-9));
            Submission { job: job.clone(), arrival_secs: t, granted_tokens: grants(job) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadConfig, WorkloadGenerator};

    fn jobs(n: usize) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed: 91, ..Default::default() })
            .generate()
    }

    #[test]
    fn uncontended_jobs_start_immediately() {
        let jobs = jobs(3);
        let cluster = Cluster::new(10_000);
        let submissions: Vec<Submission> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| Submission {
                job: j.clone(),
                arrival_secs: i as f64 * 10_000.0, // far apart
                granted_tokens: j.requested_tokens,
            })
            .collect();
        let report = cluster.simulate(&submissions).expect("fits");
        for outcome in &report.outcomes {
            assert!(outcome.wait_secs() < 1e-9, "{outcome:?}");
        }
    }

    #[test]
    fn contention_creates_waits() {
        let jobs = jobs(6);
        let max_grant = jobs.iter().map(|j| j.requested_tokens).max().unwrap();
        let cluster = Cluster::new(max_grant.max(2)); // barely fits one big job
        let submissions: Vec<Submission> = jobs
            .iter()
            .map(|j| Submission {
                job: j.clone(),
                arrival_secs: 0.0, // all at once
                granted_tokens: j.requested_tokens,
            })
            .collect();
        let report = cluster.simulate(&submissions).expect("fits");
        assert!(report.mean_wait_secs() > 0.0, "simultaneous arrivals must queue");
        // FIFO: start times are non-decreasing in arrival (= id) order.
        let mut by_id = report.outcomes.clone();
        by_id.sort_by_key(|o| o.job_id);
        for w in by_id.windows(2) {
            assert!(w[1].start_secs >= w[0].start_secs - 1e-9);
        }
    }

    #[test]
    fn smaller_grants_reduce_waits() {
        let jobs = jobs(10);
        let max_grant = jobs.iter().map(|j| j.requested_tokens).max().unwrap();
        let cluster = Cluster::new(max_grant.max(10) * 2);
        let arrivals = |grants: &dyn Fn(&Job) -> u32| -> Vec<Submission> {
            jobs.iter()
                .enumerate()
                .map(|(i, j)| Submission {
                    job: j.clone(),
                    arrival_secs: i as f64 * 5.0,
                    granted_tokens: grants(j),
                })
                .collect()
        };
        let full = cluster.simulate(&arrivals(&|j| j.requested_tokens)).expect("fits");
        let half =
            cluster.simulate(&arrivals(&|j| (j.requested_tokens / 2).max(1))).expect("fits");
        assert!(
            half.mean_wait_secs() <= full.mean_wait_secs() + 1e-9,
            "half grants should not wait longer: {} vs {}",
            half.mean_wait_secs(),
            full.mean_wait_secs()
        );
    }

    #[test]
    fn oversized_grant_is_a_typed_error() {
        let jobs = jobs(1);
        let cluster = Cluster::new(2);
        let submissions = vec![Submission {
            job: jobs[0].clone(),
            arrival_secs: 0.0,
            granted_tokens: 100,
        }];
        let err = cluster.simulate(&submissions).expect_err("grant cannot fit");
        assert!(
            matches!(err, SimError::GrantExceedsCapacity { grant: 100, capacity: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn poisson_arrivals_increase_monotonically() {
        let jobs = jobs(20);
        let submissions = poisson_arrivals(&jobs, 30.0, |j| j.requested_tokens, 7);
        for w in submissions.windows(2) {
            assert!(w[1].arrival_secs > w[0].arrival_secs);
        }
        // Mean gap in the right ballpark.
        let total = submissions.last().unwrap().arrival_secs;
        let mean_gap = total / submissions.len() as f64;
        assert!((10.0..90.0).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn report_metrics_consistent() {
        let jobs = jobs(5);
        let cluster = Cluster::new(6287);
        let submissions = poisson_arrivals(&jobs, 5.0, |j| j.requested_tokens, 3);
        let report = cluster.simulate(&submissions).expect("fits");
        assert_eq!(report.outcomes.len(), 5);
        for o in &report.outcomes {
            assert!(o.finish_secs >= o.start_secs);
            assert!(o.start_secs >= o.arrival_secs);
            assert!(o.finish_secs <= report.makespan_secs + 1e-9);
        }
        assert!(report.grant_utilization() > 0.0);
        assert!(report.grant_utilization() <= 1.0 + 1e-9);
    }
}
