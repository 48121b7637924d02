//! Scoring a miss on the thread that submitted it: the panic boundary,
//! the deadline check and the circuit breaker ([`ScoringServer::score_miss`]).

use super::attribution::StageClock;
use super::{RequestError, ScoringServer, ServedResponse, ServedVia};
use crate::registry::ActiveModel;
use scope_sim::Job;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tasq_obs::sync::{Mutex, Rank};
use tasq_obs::{FieldValue, Level, TraceContext};
use tasq_resil::{BreakerConfig, BreakerState, CircuitBreaker};

/// The primary tier's circuit breaker. Its common state, closed with no
/// failure pending, is also kept in an atomic: there `allow` is true and
/// a success changes nothing, so a healthy miss takes no lock. The bit is
/// written under the lock after every `record`, so a serial stream sees
/// the transitions the locked breaker alone would make.
pub(super) struct Breaker {
    /// [`CircuitBreaker::is_settled`] as of the last `record`.
    settled: AtomicBool,
    inner: Mutex<CircuitBreaker>,
}

impl Breaker {
    pub(super) fn new(config: BreakerConfig) -> Self {
        let inner = CircuitBreaker::new(config);
        Self {
            settled: AtomicBool::new(inner.is_settled()),
            inner: Mutex::new(Rank::Breaker, inner),
        }
    }

    pub(super) fn state(&self) -> BreakerState {
        self.inner.lock().state()
    }

    fn allow(&self, seq: u64) -> bool {
        // An open breaker moving to half-open does not settle it, so
        // `allow` never has to update the bit.
        self.settled.load(Ordering::Relaxed) || self.inner.lock().allow(seq)
    }

    /// Record a primary outcome; whether it tripped the breaker and
    /// whether it recovered it.
    fn record(&self, seq: u64, success: bool) -> (bool, bool) {
        if success && self.settled.load(Ordering::Relaxed) {
            return (false, false);
        }
        let mut breaker = self.inner.lock();
        let (trips, recoveries) = (breaker.trips(), breaker.recoveries());
        breaker.record(seq, success);
        self.settled.store(breaker.is_settled(), Ordering::Relaxed);
        (breaker.trips() > trips, breaker.recoveries() > recoveries)
    }
}

impl ScoringServer {
    /// Score one admitted miss and account for its outcome. A panic while
    /// scoring is caught here and resolves this request alone to
    /// [`RequestError::WorkerLost`]; the caller's thread carries on. `key`
    /// was derived under registry generation `generation`.
    pub(super) fn score_miss(
        &self,
        job: &Job,
        key: u64,
        generation: u64,
        submitted: Instant,
        ctx: TraceContext,
        deadline: Option<Duration>,
    ) -> Result<ServedResponse, RequestError> {
        let seq = self.counters.seq.fetch_add(1, Ordering::Relaxed);
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
                _ => {
                    let active = self.registry.current();
                    Ok(self.score_through_breaker(&active, job, key, generation, seq))
                }
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
    /// back into the breaker, ticked by miss sequence number. The answer
    /// is cached only under the key of the generation that produced it: a
    /// hot swap between the key's derivation and `active`'s read leaves
    /// the old generation's key empty.
    fn score_through_breaker(
        &self,
        active: &ActiveModel,
        job: &Job,
        key: u64,
        generation: u64,
        seq: u64,
    ) -> ServedResponse {
        let fault_injected = self.config.chaos.as_ref().is_some_and(|plan| plan.nn_faulted(seq));
        let allowed = self.breaker.allow(seq);
        let mut response = if !allowed || fault_injected {
            // Breaker open: the primary tier is skipped and the analytic
            // rung of the degradation ladder answers. Fault window: the
            // primary "failed"; the request still gets a valid analytic
            // answer, and the breaker hears about it below.
            self.analytic.score(job)
        } else {
            let response = active.service().score(job);
            let finite = response.predicted_runtime_at_request.is_finite();
            if finite && active.generation == generation {
                self.cache.insert(key, response.clone());
            }
            response
        };
        if allowed {
            let success = !fault_injected && response.predicted_runtime_at_request.is_finite();
            let (tripped, recovered) = self.breaker.record(seq, success);
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
