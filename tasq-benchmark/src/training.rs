//! The offline workload: the training half of the paper's Figure 4, from
//! generated jobs to evaluated models, with no serving layer involved.

use crate::report::{nproc, ref_kops, Metric, Outcome, SegmentRss};
use crate::serving::{CALIBRATION, REF_KOPS_NOMINAL};
use crate::stats::{quantile, quiet_quintile, Better, SeededRng};
use crate::sut::{self, Accuracy, Pool, SutError};
use crate::trace::{Recorder, SpanId};
use std::time::{Duration, Instant};

/// Jobs the models are fitted on in a pass.
pub const TRAIN_JOBS: usize = 240;
/// Jobs held out for evaluation in a pass.
pub const HELD_OUT_JOBS: usize = 120;

/// The phases of a pass, in order; also their span names.
pub const PHASES: [&str; 8] = [
    "scope_sim.generate",
    "scope_sim.flight",
    "core.dataset.build",
    "ml.gbdt.fit",
    "ml.nn.fit",
    "ml.gnn.fit",
    "ml.kmeans.fit",
    "core.eval",
];

/// One full pass: generate, flight, build the datasets, fit the three
/// model families and the clustering, evaluate on the held-out jobs.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Wall time of each of [`PHASES`].
    pub phase: [Duration; 8],
    /// Digest of every numeric output, for the bit-identity check.
    pub fingerprint: u64,
    /// Held-out accuracy: NN, XGBoost PL, GNN.
    pub accuracy: [Accuracy; 3],
}

/// Run one pass on `pool`. Inputs depend on `seed` alone, so two passes
/// with one seed must agree bit for bit whatever the pool.
pub fn pass(
    seed: u64,
    pool: &Pool,
    recorder: &mut Recorder,
    parent: SpanId,
) -> Result<Pass, SutError> {
    let mut phase = [Duration::ZERO; 8];
    let mut fingerprint = 0u64;
    let start = Instant::now();
    let mut step = 0;
    // Runs one phase inside a span and books its wall time.
    macro_rules! timed {
        ($body:expr) => {{
            let span = recorder.open(PHASES[step], parent, seed);
            let began = Instant::now();
            let value = $body;
            phase[step] = began.elapsed();
            recorder.close(span);
            step += 1;
            value
        }};
    }
    let jobs = timed!(sut::generate_jobs(TRAIN_JOBS + HELD_OUT_JOBS, seed));
    let (train, held_out) = jobs.split_at(TRAIN_JOBS);
    timed!(sut::flight(train, seed, pool, &mut fingerprint))?;
    let (train_set, held_out_set) = timed!((
        sut::build_dataset(train, pool, &mut fingerprint),
        sut::build_dataset(held_out, pool, &mut fingerprint),
    ));
    let xgb = timed!(sut::fit_xgb(&train_set, pool, &mut fingerprint));
    let nn = timed!(sut::fit_nn(&train_set));
    let gnn = timed!(sut::fit_gnn(&train_set));
    timed!(sut::fit_kmeans(&train_set, seed, pool, &mut fingerprint));
    let accuracy = timed!(sut::evaluate(
        &nn,
        &xgb,
        &gnn,
        &held_out_set,
        &mut fingerprint
    ));
    debug_assert_eq!(step, PHASES.len());
    Ok(Pass {
        wall: start.elapsed(),
        phase,
        fingerprint,
        accuracy,
    })
}

/// Set-ups per run; `setup_s` is their median.
pub const SET_UPS: usize = 5;

/// The untraced run. Passes come in pairs over one sub-seed: one on a
/// pool of all hardware threads, which gives the capacity sample (jobs
/// per second), and one on the sequential pool, which gives the latency
/// sample (wall of a pass with no parallel help) and the reference
/// fingerprint. Both are rated against the calibration kernel readings
/// around the pass and reported at [`REF_KOPS_NOMINAL`]. Each pair draws a fresh sub-seed, so a run averages over
/// inputs as well as over machine phases. Pairs repeat until `budget`
/// is spent (at least `min_pairs`).
pub fn measure(
    seed: u64,
    budget: Duration,
    min_pairs: usize,
    set_ups: usize,
) -> Result<Outcome, SutError> {
    let threads = nproc();
    let parallel = Pool::new(threads);
    let sequential = Pool::sequential();
    let mut off = Recorder::new(false);
    let mut sub_seeds = SeededRng::new(seed, 4);

    // Set-up is a warm-up pass: it grows the allocator's arenas, faults
    // the pages in and starts the pool's threads once. Each repetition
    // draws its own inputs, so `setup_s` is a median over inputs too.
    let mut setup_seconds = Vec::with_capacity(set_ups);
    for _ in 0..set_ups.max(1) {
        let start = Instant::now();
        pass(sub_seeds.next_u64(), &parallel, &mut off, 0)?;
        setup_seconds.push(start.elapsed().as_secs_f64());
    }

    let jobs = (TRAIN_JOBS + HELD_OUT_JOBS) as f64;
    let (mut rates, mut walls_us, mut kops) = (Vec::new(), Vec::new(), Vec::new());
    let (mut passes, mut mismatched, mut rising) = (0u64, 0u64, 0u64);
    let mut apes: [Vec<f64>; 3] = Default::default();
    let start = Instant::now();
    let mut slowest_pair = Duration::ZERO;
    let mut rss = SegmentRss::default();
    while rates.len() < min_pairs || start.elapsed() + slowest_pair <= budget {
        let pair_start = Instant::now();
        rss.begin();
        let sub_seed = sub_seeds.next_u64();
        // The calibration kernel brackets each pass, as it brackets the
        // serving bursts: fitting is compute-bound and follows the
        // machine's drift one for one.
        let before = ref_kops(CALIBRATION);
        let fanned = pass(sub_seed, &parallel, &mut off, 0)?;
        let between = ref_kops(CALIBRATION);
        let reference = pass(sub_seed, &sequential, &mut off, 0)?;
        let after = ref_kops(CALIBRATION);
        rss.end();
        passes += 2;
        if fanned.fingerprint != reference.fingerprint {
            mismatched += 1;
        }
        // NN and GNN curves are power laws with a sign-constrained
        // exponent; a rising one is a broken model, not a weak one.
        for index in [0, 2] {
            if reference.accuracy[index].pattern_non_increase < 1.0 {
                rising += 1;
            }
        }
        for (samples, accuracy) in apes.iter_mut().zip(reference.accuracy) {
            samples.push(accuracy.median_ape_pct);
        }
        rates
            .push(jobs / fanned.wall.as_secs_f64() * REF_KOPS_NOMINAL / ((before + between) / 2.0));
        walls_us.push(
            reference.wall.as_secs_f64() * 1e6 * ((between + after) / 2.0) / REF_KOPS_NOMINAL,
        );
        kops.extend([before, between, after]);
        slowest_pair = slowest_pair.max(pair_start.elapsed());
    }
    let notes = vec![
        rss.note(),
        format!(
            "passes: {passes} ({} pairs of a {threads}-thread and a sequential pass over {TRAIN_JOBS} training \
             + {HELD_OUT_JOBS} held-out jobs, one sub-seed per pair); machine read {:.1} ref_kops (median), \
             rates and walls are reported at {REF_KOPS_NOMINAL} ref_kops",
            rates.len(),
            quantile(&kops, 0.5)
        ),
        format!(
            "checks: {mismatched} pairs with differing fingerprints, {rising} models with a rising curve; \
             median APE over pairs: NN {:.2} %, XGBoost PL {:.2} %, GNN {:.2} %",
            quantile(&apes[0], 0.5),
            quantile(&apes[1], 0.5),
            quantile(&apes[2], 0.5)
        ),
    ];
    Ok(Outcome {
        workload: "train_offline",
        correct: mismatched == 0 && rising == 0,
        attempted: passes,
        failed: mismatched,
        metrics: vec![
            Metric::new("setup_s", quantile(&setup_seconds, 0.5)),
            Metric::estimated("capacity_per_s", quiet_quintile(&rates, Better::Higher)),
            Metric::estimated("latency_p50_us", quiet_quintile(&walls_us, Better::Lower)),
            rss.metric(),
        ],
        notes,
    })
}
