//! The three serving workloads: set-up, the segmented measured phase, and
//! the checks on what the server answered.

use crate::load::{
    Burst, Driver, InProcess, Mix, Tally, Until, Wire, WIRE_CONNECTIONS, WIRE_DEPTH,
};
use crate::report::{ref_kops, Metric, Outcome, SegmentRss};
use crate::stats::{poisson_schedule, quantile, quiet_quintile, Better, SeededRng};
use crate::sut::{self, Family, ModelStore, ScoringService, ServerStatsSnapshot, SutError};
use crate::trace::Recorder;
use std::time::{Duration, Instant};

/// A serving workload: where requests enter and what they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Serving {
    /// Workload name.
    pub name: &'static str,
    /// Whether requests cross the loopback socket.
    pub wire: bool,
    /// Whether half the requests resubmit recurring plans.
    pub recurring: bool,
}

/// The serving workloads by name.
pub fn by_name(name: &str) -> Option<Serving> {
    [
        Serving {
            name: "serve_adhoc",
            wire: false,
            recurring: false,
        },
        Serving {
            name: "serve_recurring",
            wire: false,
            recurring: true,
        },
        Serving {
            name: "net_recurring",
            wire: true,
            recurring: true,
        },
    ]
    .into_iter()
    .find(|w| w.name == name)
}

/// Jobs the served models are fitted on.
const TRAINING_JOBS: usize = 256;
/// Plan shapes ad-hoc requests draw from.
const ADHOC_POOL: usize = 2048;
/// Recurring plans: four times what the default signature cache holds,
/// so the popular head fits and the tail competes with ad-hoc scans.
const RECURRING_PLANS_PER_CACHE_ENTRY: usize = 4;
/// Requests sent before measuring, in cache-fulls: two for the ad-hoc
/// mix, where every request evicts as soon as the cache is full; four for
/// the recurring mix, whose misses by then have turned the LRU over more
/// than twice and its hit share has settled.
const WARM_UP_CACHE_FULLS: (usize, usize) = (2, 4);

/// Closed-loop burst of a segment.
pub const BURST: Duration = Duration::from_millis(100);
/// Open-loop window of a segment.
pub const WINDOW: Duration = Duration::from_millis(125);
/// One run of the calibration kernel; two bracket every burst.
pub const CALIBRATION: Duration = Duration::from_millis(5);
/// A segment: burst, calibration, window, and the drains between them.
pub const SEGMENT: Duration = Duration::from_millis(250);
/// Offered rate of the open loop: about a tenth of what the seed code
/// sustains, where the batcher's delay and not the processor sets latency.
pub const OPEN_LOOP_RATE: f64 = 5000.0;
/// Set-ups per run; `setup_s` is their median.
pub const SET_UPS: usize = 5;
/// Reading of the calibration kernel that capacities are reported at.
/// The build box drifts between about 600 and 850 within minutes and
/// capacity follows it; rating each burst against the kernel readings
/// around it and reporting at this fixed reading takes that drift out.
pub const REF_KOPS_NOMINAL: f64 = 750.0;

/// A serving stack that is up and warm.
pub struct Stage {
    /// How requests reach the server.
    pub driver: Box<dyn Driver>,
    /// The workload's request stream.
    pub mix: Mix,
    /// Direct scorer of the served model.
    pub oracle: ScoringService,
    /// The fitted models.
    pub store: ModelStore,
    /// Requests outstanding in the closed loop.
    pub depth: usize,
    /// `host:port` of the front-end on wire workloads.
    pub address: Option<String>,
}

impl Stage {
    /// One closed-loop burst of [`BURST`] at the stage's depth.
    pub fn burst(&mut self, tally: &mut Tally, recorder: &mut Recorder) -> Result<Burst, SutError> {
        self.driver.closed_loop(
            &mut self.mix,
            self.depth,
            Until::Elapsed(BURST),
            tally,
            recorder,
            None,
        )
    }
}

impl Serving {
    /// Generate inputs from `seed`, fit and deploy the models, start the
    /// server (and front-end), and warm it with a fixed request count.
    pub fn set_up(&self, seed: u64) -> Result<Stage, SutError> {
        let store = sut::train_serving_models(&sut::generate_jobs(TRAINING_JOBS, seed))?;
        let pool = sut::generate_jobs(ADHOC_POOL, seed.wrapping_add(1));
        let cache = sut::default_cache_capacity();
        let mut mix = if self.recurring {
            let plans = sut::generate_jobs(
                RECURRING_PLANS_PER_CACHE_ENTRY * cache,
                seed.wrapping_add(2),
            );
            Mix::mixed(pool, plans, 0.5, seed)
        } else {
            Mix::adhoc(pool, seed)
        };
        let server = sut::start_server(&store)?;
        let (mut driver, depth, address): (Box<dyn Driver>, _, _) = if self.wire {
            let wire = Wire::new(sut::bind_loopback(server)?)?;
            let address = wire.address();
            (Box::new(wire), WIRE_CONNECTIONS * WIRE_DEPTH, Some(address))
        } else {
            (Box::new(InProcess::new(server)), 64, None)
        };
        let fulls = if self.recurring {
            WARM_UP_CACHE_FULLS.1
        } else {
            WARM_UP_CACHE_FULLS.0
        };
        let mut warm_up = Tally::default();
        driver.closed_loop(
            &mut mix,
            depth,
            Until::Requests((fulls * cache) as u64),
            &mut warm_up,
            &mut Recorder::new(false),
            None,
        )?;
        let oracle = sut::scoring_service(&store, Family::Nn)?;
        Ok(Stage {
            driver,
            mix,
            oracle,
            store,
            depth,
            address,
        })
    }

    /// Set up `times` times, timing each; the last stage is kept and the
    /// median time returned.
    pub fn set_up_timed(&self, seed: u64, times: usize) -> Result<(Stage, f64), SutError> {
        let mut seconds = Vec::with_capacity(times);
        let mut kept: Option<Stage> = None;
        for _ in 0..times.max(1) {
            if let Some(previous) = kept.take() {
                previous.driver.finish();
            }
            let start = Instant::now();
            kept = Some(self.set_up(seed)?);
            seconds.push(start.elapsed().as_secs_f64());
        }
        Ok((kept.ok_or("no set-up ran")?, quantile(&seconds, 0.5)))
    }

    /// The untraced run: end-to-end metrics over `segments` segments.
    pub fn measure(&self, seed: u64, segments: usize, set_ups: usize) -> Result<Outcome, SutError> {
        let (mut stage, setup_s) = self.set_up_timed(seed, set_ups)?;
        let mut tally = Tally::default();
        let mut off = Recorder::new(false);
        let mut arrivals = SeededRng::new(seed, 2);
        let (mut rates, mut raw_rates, mut p50s, mut kops) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut window_samples = u64::MAX;
        let mut late_us: Vec<f64> = Vec::new();
        let mut rss = SegmentRss::default();
        for _ in 0..segments {
            rss.begin();
            // The calibration kernel brackets the burst, so the burst is
            // rated against the machine as it was while it ran.
            let before = ref_kops(CALIBRATION);
            let burst = stage.burst(&mut tally, &mut off)?;
            let machine = (before + ref_kops(CALIBRATION)) / 2.0;
            raw_rates.push(burst.rate());
            rates.push(burst.rate() * REF_KOPS_NOMINAL / machine);
            kops.push(machine);
            let schedule =
                poisson_schedule(&mut arrivals, OPEN_LOOP_RATE, WINDOW.as_nanos() as u64);
            let window = stage
                .driver
                .open_loop(&mut stage.mix, &schedule, &mut tally)?;
            let latency = window.latency_us();
            p50s.push(quantile(&latency, 0.5));
            window_samples = window_samples.min(latency.len() as u64);
            late_us.extend(window.late_us());
            rss.end();
            // Between segments, outside every timed phase.
            tally.verify(&stage.oracle);
        }
        let stats = stage.driver.finish();
        let mut notes = vec![
            format!(
                "open loop: {OPEN_LOOP_RATE} req/s Poisson, >= {window_samples} samples per segment, \
                 generator lateness p99 {:.1} us",
                quantile(&late_us, 0.99)
            ),
            format!(
                "closed loop: {} outstanding, {} ms bursts; as measured {:.0} req/s (quiet quintile) on a machine \
                 reading {:.1} ref_kops (median), reported at {REF_KOPS_NOMINAL} ref_kops",
                stage.depth,
                BURST.as_millis(),
                quiet_quintile(&raw_rates, Better::Higher).value,
                quantile(&kops, 0.5)
            ),
        ];
        notes.push(rss.note());
        let correct = check(&stats, &tally, &mut notes);
        Ok(Outcome {
            workload: self.name,
            correct,
            attempted: tally.attempted,
            failed: tally.failed + tally.wrong,
            metrics: vec![
                Metric::new("setup_s", setup_s),
                Metric::estimated("capacity_per_s", quiet_quintile(&rates, Better::Higher)),
                Metric::estimated("latency_p50_us", quiet_quintile(&p50s, Better::Lower)),
                rss.metric(),
            ],
            notes,
        })
    }
}

/// The checks on a finished serving run: nothing answered wrongly, the
/// oracle comparison ran, and the server accounted for every request.
pub fn check(stats: &ServerStatsSnapshot, tally: &Tally, notes: &mut Vec<String>) -> bool {
    let accounted = stats.submitted == stats.resolved();
    notes.push(format!(
        "checks: {} answers compared with ScoringService::score, {} wrong; {} failed of {} attempted; \
         server submitted {} = completed {} + rejected {} + worker_lost {} + deadline {}: {}",
        tally.verified,
        tally.wrong,
        tally.failed,
        tally.attempted,
        stats.submitted,
        stats.completed,
        stats.rejected,
        stats.worker_lost,
        stats.deadline_timeouts,
        if accounted { "holds" } else { "BROKEN" },
    ));
    notes.push(format!(
        "server: cache hit share {:.4}, {} evictions, {} shed, mean batch {:.2}, peak queue depth {}",
        stats.cache.hit_rate(),
        stats.cache.evictions,
        stats.shed,
        stats.mean_batch_size(),
        stats.peak_queue_depth
    ));
    tally.wrong == 0 && tally.verified > 0 && accounted
}
