//! Scoring a miss on the thread that submitted it: the panic boundary,
//! the deadline check and the circuit breaker ([`ScoringServer::score_miss`]).

use super::attribution::StageClock;
use super::{RequestError, ScoringServer, ServedResponse, ServedVia};
use crate::registry::ActiveModel;
use scope_sim::Job;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::PoisonError;
use std::time::{Duration, Instant};
use tasq_obs::{FieldValue, Level, TraceContext};

impl ScoringServer {
    /// Score one admitted miss and account for its outcome. A panic while
    /// scoring is caught here and resolves this request alone to
    /// [`RequestError::WorkerLost`]; the caller's thread carries on.
    pub(super) fn score_miss(
        &self,
        job: &Job,
        key: u64,
        submitted: Instant,
        ctx: TraceContext,
        deadline: Option<Duration>,
    ) -> Result<ServedResponse, RequestError> {
        let seq = self.counters.seq.fetch_add(1, Ordering::Relaxed);
        self.counters.batches.count();
        let chaos = self.config.chaos.as_ref();
        // Deadline storms hand the request an (often unmeetable) budget.
        let deadline = chaos
            .and_then(|plan| plan.storm_budget_us(seq))
            .map(Duration::from_micros)
            .or(deadline)
            .or(self.config.deadline);
        let score_start = Instant::now();
        let scored = catch_unwind(AssertUnwindSafe(|| {
            #[expect(
                clippy::panic,
                reason = "deliberate chaos-harness fault; the boundary below resolves the request"
            )]
            if chaos.is_some_and(|plan| plan.panics_at(seq)) {
                panic!("chaos: planted scoring panic at request {seq}");
            }
            let _span = ctx.sampled.then(|| {
                tasq_obs::span_with_parent(
                    Level::Debug,
                    "serve_score",
                    ctx.span_id,
                    &[("seq", FieldValue::U64(seq)), ("trace", FieldValue::TraceId(ctx.trace_id))],
                )
            });
            match deadline {
                Some(budget) if submitted.elapsed() >= budget => Err(budget),
                _ => Ok(self.score_through_breaker(&self.registry.current(), job, key, seq)),
            }
        }));
        let score_end = Instant::now();
        match scored {
            Ok(Ok(served)) => {
                let tier = served.response.served_tier;
                self.finish(submitted, ctx, Some(StageClock { score_start, score_end, tier }));
                Ok(served)
            }
            Ok(Err(budget)) => {
                self.counters.deadline_timeouts.count();
                self.record_failure();
                tasq_obs::event(
                    Level::Warn,
                    "serve_deadline_timeout",
                    &[("seq", FieldValue::U64(seq))],
                );
                Err(RequestError::DeadlineExceeded { budget })
            }
            Err(_) => {
                self.counters.worker_lost.count();
                self.record_failure();
                tasq_obs::event(
                    Level::Warn,
                    "serve_score_panic",
                    &[("seq", FieldValue::U64(seq))],
                );
                Err(RequestError::WorkerLost)
            }
        }
    }

    /// Score one miss through the circuit breaker: closed → primary
    /// service (and a cache fill); open → analytic tier. Primary outcomes
    /// (including chaos-injected faults in the plan's fault window) feed
    /// back into the breaker, ticked by miss sequence number.
    fn score_through_breaker(
        &self,
        active: &ActiveModel,
        job: &Job,
        key: u64,
        seq: u64,
    ) -> ServedResponse {
        let fault_injected = self.config.chaos.as_ref().is_some_and(|plan| plan.nn_faulted(seq));
        let allowed = self.breaker.lock().unwrap_or_else(PoisonError::into_inner).allow(seq);
        let mut response = if !allowed || fault_injected {
            // Breaker open: the primary tier is skipped and the analytic
            // rung of the degradation ladder answers. Fault window: the
            // primary "failed"; the request still gets a valid analytic
            // answer, and the breaker hears about it below.
            self.analytic.score(job)
        } else {
            let response = active.service().score(job);
            if response.predicted_runtime_at_request.is_finite() {
                self.cache.insert(key, response.clone());
            }
            response
        };
        if allowed {
            let success = !fault_injected && response.predicted_runtime_at_request.is_finite();
            let mut breaker = self.breaker.lock().unwrap_or_else(PoisonError::into_inner);
            let (trips, recoveries) = (breaker.trips(), breaker.recoveries());
            breaker.record(seq, success);
            let tripped = breaker.trips() > trips;
            let recovered = breaker.recoveries() > recoveries;
            drop(breaker);
            if tripped {
                self.counters.breaker_trips.count();
                tasq_obs::event(
                    Level::Warn,
                    "serve_breaker_open",
                    &[("seq", FieldValue::U64(seq))],
                );
            }
            if recovered {
                self.counters.breaker_recoveries.count();
                tasq_obs::event(
                    Level::Info,
                    "serve_breaker_closed",
                    &[("seq", FieldValue::U64(seq))],
                );
            }
        }
        response.job_id = job.id;
        ServedResponse { response, via: ServedVia::Model, generation: active.generation }
    }
}
