//! Property-style tests over the workspace's core invariants, driven by
//! seeded RNG loops (many random cases per property, fully
//! reproducible from the fixed seeds).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tasq::pcc::{ParamScaler, PowerLawPcc};

const CASES: usize = 64;

/// A plausible skyline (1–120 seconds, 0–200 tokens/sec).
fn random_skyline(rng: &mut StdRng) -> Vec<f64> {
    let len = rng.gen_range(1..120usize);
    (0..len).map(|_| rng.gen_range(0.0f64..200.0)).collect()
}

fn random_lowercase(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| (b'a' + rng.gen_range(0..26u8)) as char).collect()
}

/// AREPAS preserves the area under the skyline exactly, for any skyline
/// and any positive allocation.
#[test]
fn arepas_preserves_area() {
    let mut rng = StdRng::seed_from_u64(0xA1EA_0001);
    for _ in 0..CASES {
        let skyline = random_skyline(&mut rng);
        let alloc = rng.gen_range(0.5f64..300.0);
        let sim = arepas::simulate(&skyline, alloc);
        let original: f64 = skyline.iter().sum();
        assert!(
            (sim.area() - original).abs() < 1e-6 * original.max(1.0),
            "area {} vs {original}",
            sim.area()
        );
    }
}

/// The simulated skyline never exceeds the allocation.
#[test]
fn arepas_respects_allocation() {
    let mut rng = StdRng::seed_from_u64(0xA1EA_0002);
    for _ in 0..CASES {
        let skyline = random_skyline(&mut rng);
        let alloc = rng.gen_range(0.5f64..300.0);
        let sim = arepas::simulate(&skyline, alloc);
        assert!(sim.peak() <= alloc + 1e-9);
    }
}

/// Simulated run time is monotone non-decreasing as the allocation
/// shrinks.
#[test]
fn arepas_runtime_monotone() {
    let mut rng = StdRng::seed_from_u64(0xA1EA_0003);
    for _ in 0..CASES {
        let skyline = random_skyline(&mut rng);
        let lo = rng.gen_range(1.0f64..50.0);
        let hi = lo + rng.gen_range(0.1f64..100.0);
        let rt_hi = arepas::simulate_runtime(&skyline, hi);
        let rt_lo = arepas::simulate_runtime(&skyline, lo);
        assert!(rt_lo >= rt_hi, "lower allocation ran faster: {rt_lo} < {rt_hi}");
    }
}

/// Sections partition the skyline: total duration and area match.
#[test]
fn sections_partition() {
    let mut rng = StdRng::seed_from_u64(0xA1EA_0004);
    for _ in 0..CASES {
        let skyline = random_skyline(&mut rng);
        let threshold = rng.gen_range(0.5f64..250.0);
        let sections = arepas::split_sections(&skyline, threshold);
        let total_len: usize = sections.iter().map(|s| s.duration()).sum();
        let total_area: f64 = sections.iter().map(|s| s.area()).sum();
        assert_eq!(total_len, skyline.len());
        assert!((total_area - skyline.iter().sum::<f64>()).abs() < 1e-9);
    }
}

/// Fitting a noiseless power law recovers its parameters.
#[test]
fn pcc_fit_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xA1EA_0005);
    for _ in 0..CASES {
        let a = rng.gen_range(-1.5f64..-0.01);
        let b = rng.gen_range(10.0f64..100_000.0);
        let truth = PowerLawPcc::new(a, b);
        let points: Vec<(f64, f64)> = [2u32, 5, 13, 40, 90, 250]
            .iter()
            .map(|&t| (t as f64, truth.predict(t)))
            .collect();
        let fit = PowerLawPcc::fit(&points).unwrap();
        assert!((fit.a - a).abs() < 1e-6, "a {} vs {a}", fit.a);
        assert!((fit.b / b - 1.0).abs() < 1e-6, "b {} vs {b}", fit.b);
    }
}

/// The optimal-token closed form satisfies the marginal condition.
#[test]
fn optimal_tokens_marginal_condition() {
    let mut rng = StdRng::seed_from_u64(0xA1EA_0006);
    for _ in 0..CASES {
        let a = rng.gen_range(-1.2f64..-0.05);
        let b = rng.gen_range(100.0f64..10_000.0);
        let improvement = rng.gen_range(0.001f64..0.1);
        let pcc = PowerLawPcc::new(a, b);
        let optimal = pcc.optimal_tokens(improvement, 1, 100_000);
        let marginal = |t: u32| 1.0 - pcc.predict(t + 1) / pcc.predict(t);
        if optimal > 1 && optimal < 100_000 {
            assert!(marginal(optimal) >= improvement - 1e-9);
            assert!(marginal(optimal + 1) < improvement + 1e-9);
        }
    }
}

/// Parameter scaling round-trips and always reconstructs a monotone
/// curve.
#[test]
fn param_scaler_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xA1EA_0007);
    for _ in 0..CASES {
        let a = rng.gen_range(-2.0f64..0.0);
        let log_b = rng.gen_range(0.1f64..12.0);
        let pcc = PowerLawPcc::new(a, log_b.exp());
        let scaler = ParamScaler::fit(&[pcc, PowerLawPcc::new(-0.5, 500.0)]);
        let (t1, t2) = scaler.to_targets(&pcc);
        let back = scaler.from_targets(t1, t2);
        assert!(back.is_non_increasing());
        assert!((back.a - pcc.a).abs() < 1e-9);
        assert!((back.b.ln() - pcc.b.ln()).abs() < 1e-9);
    }
}

/// The binary codec round-trips arbitrary nested payloads.
#[test]
fn codec_roundtrip() {
    #[derive(Debug, PartialEq, tasq_codec::Wire)]
    struct Payload {
        id: u64,
        name: String,
        values: Vec<f64>,
        pairs: Vec<(u32, f64)>,
        flag: bool,
        nested: Option<Vec<String>>,
    }

    let mut rng = StdRng::seed_from_u64(0xA1EA_0008);
    for _ in 0..CASES {
        let id: u64 = rng.gen();
        let name = random_lowercase(&mut rng, 12);
        let values: Vec<f64> = {
            let len = rng.gen_range(0..50usize);
            // Include non-finite payloads: bit patterns must survive.
            (0..len)
                .map(|i| match i % 7 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => rng.gen_range(-1e12f64..1e12),
                })
                .collect()
        };
        let pairs: Vec<(u32, f64)> = {
            let len = rng.gen_range(0..20usize);
            (0..len).map(|_| (rng.gen::<u32>(), rng.gen_range(-1e9f64..1e9))).collect()
        };
        let flag: bool = rng.gen();
        let payload = Payload {
            id,
            name: name.clone(),
            values,
            pairs,
            flag,
            nested: flag.then(|| vec![name]),
        };
        let bytes = tasq::codec::to_bytes(&payload).unwrap();
        let back: Payload = tasq::codec::from_bytes(&bytes).unwrap();
        // NaN-safe comparison via bit patterns.
        assert_eq!(back.id, payload.id);
        assert_eq!(back.name, payload.name);
        assert_eq!(back.values.len(), payload.values.len());
        for (x, y) in back.values.iter().zip(&payload.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(back.pairs.len(), payload.pairs.len());
        assert_eq!(back.flag, payload.flag);
        assert_eq!(back.nested, payload.nested);
    }
}

/// Smoothing splines with lambda = 0 interpolate their inputs.
#[test]
fn spline_interpolates_at_zero_lambda() {
    let mut rng = StdRng::seed_from_u64(0xA1EA_0009);
    for _ in 0..CASES {
        let len = rng.gen_range(3..15usize);
        let ys: Vec<f64> = (0..len).map(|_| rng.gen_range(-100.0f64..100.0)).collect();
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let spline = tasq_ml::spline::SmoothingSpline::fit(&xs, &ys, 0.0).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!(
                (spline.evaluate(x) - y).abs() < 1e-6,
                "at {x}: {} vs {y}",
                spline.evaluate(x)
            );
        }
    }
}

/// KS statistic is within [0, 1], zero for identical samples, and
/// symmetric.
#[test]
fn ks_statistic_properties() {
    let mut rng = StdRng::seed_from_u64(0xA1EA_000A);
    for _ in 0..CASES {
        let len_a = rng.gen_range(1..80usize);
        let len_b = rng.gen_range(1..80usize);
        let a: Vec<f64> = (0..len_a).map(|_| rng.gen_range(-1000.0f64..1000.0)).collect();
        let b: Vec<f64> = (0..len_b).map(|_| rng.gen_range(-1000.0f64..1000.0)).collect();
        let ab = tasq_ml::stats::ks_two_sample(&a, &b);
        let ba = tasq_ml::stats::ks_two_sample(&b, &a);
        assert!((0.0..=1.0).contains(&ab.statistic));
        assert!((ab.statistic - ba.statistic).abs() < 1e-12);
        let aa = tasq_ml::stats::ks_two_sample(&a, &a);
        assert!(aa.statistic < 1e-12);
    }
}

/// With an empty fault plan and no noise model, execution never consults
/// the RNG: results are bit-identical whatever the seed. This is the
/// workspace-level determinism contract — the fault layer must be
/// strictly pay-for-what-you-use.
#[test]
fn fault_free_execution_is_bit_identical_across_seeds() {
    use scope_sim::{ExecutionConfig, FaultPlan, NoiseModel, WorkloadConfig, WorkloadGenerator};
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 12,
        seed: 0xFA_0001,
        ..Default::default()
    })
    .generate();
    for job in &jobs {
        let executor = job.executor();
        let alloc = job.requested_tokens.max(2);
        let run_with_seed = |seed: u64| {
            let config = ExecutionConfig {
                noise: NoiseModel::none(),
                noise_seed: seed,
                faults: FaultPlan::none(),
                ..Default::default()
            };
            executor.run(alloc, &config).expect("fault-free run")
        };
        let reference = run_with_seed(1);
        for seed in [2u64, 42, 0xDEAD_BEEF] {
            let result = run_with_seed(seed);
            assert_eq!(
                result.runtime_secs.to_bits(),
                reference.runtime_secs.to_bits(),
                "job {}: runtime varies with the seed under an empty fault plan",
                job.id
            );
            assert_eq!(
                result.total_token_seconds.to_bits(),
                reference.total_token_seconds.to_bits(),
                "job {}: area varies with the seed under an empty fault plan",
                job.id
            );
            assert!(result.faults.is_clean(), "job {}: phantom faults reported", job.id);
        }
    }
}

/// Injected faults and their retries never sneak a measurement past the
/// Section 5.1 filters that violates the filters' own guarantees: every
/// surviving flighted job is run-time monotonic within tolerance and no
/// retained execution lost more than the waste budget to fault churn.
/// Conversely, fault-free flights are never dropped.
#[test]
fn fault_retries_respect_monotonicity_filtering() {
    use scope_sim::flight::{filter_non_anomalous, flight_job, FlightConfig};
    use scope_sim::{FaultPlan, NoiseModel, WorkloadConfig, WorkloadGenerator};
    const TOLERANCE: f64 = 0.10;
    const MAX_WASTE_FRACTION: f64 = 0.25;
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 10,
        seed: 0xFA_0002,
        ..Default::default()
    })
    .generate();
    for seed in [1u64, 7, 23, 99] {
        let config = FlightConfig {
            noise: NoiseModel::mild(),
            faults: FaultPlan::mild(),
            seed,
            ..Default::default()
        };
        let flighted: Vec<_> = jobs
            .iter()
            .filter_map(|j| flight_job(j, j.requested_tokens.max(5), &config).ok())
            .collect();
        for fj in &filter_non_anomalous(flighted, TOLERANCE) {
            assert!(
                fj.is_monotonic(TOLERANCE),
                "seed {seed}, job {}: non-monotonic flights survived filtering: {:?}",
                fj.job.id,
                fj.mean_runtimes()
            );
            for e in &fj.executions {
                assert!(
                    e.faults.wasted_token_seconds
                        <= e.total_token_seconds * MAX_WASTE_FRACTION + 1e-9,
                    "seed {seed}, job {}: high-churn execution survived filtering",
                    fj.job.id
                );
            }
        }
    }
    // Deterministic fault-free flights are perfectly monotone, so the
    // filters must keep every job even at zero tolerance.
    let clean_config = FlightConfig { noise: NoiseModel::none(), seed: 3, ..Default::default() };
    let flighted: Vec<_> = jobs
        .iter()
        .map(|j| {
            flight_job(j, j.requested_tokens.max(5), &clean_config)
                .expect("fault-free flighting cannot fail")
        })
        .collect();
    let total = flighted.len();
    assert_eq!(filter_non_anomalous(flighted, 0.0).len(), total);
}

/// Executor invariants over randomized small plans.
#[test]
fn executor_invariants_over_random_jobs() {
    use scope_sim::{ExecutionConfig, WorkloadConfig, WorkloadGenerator};
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 30,
        seed: 0xDECAF,
        ..Default::default()
    })
    .generate();
    let config = ExecutionConfig::default();
    for job in &jobs {
        let executor = job.executor();
        let mut last_runtime = 0.0f64;
        let mut prev_area: Option<f64> = None;
        // Descending allocations: runtime must be non-decreasing.
        for divisor in [1u32, 2, 4, 8] {
            let alloc = (job.requested_tokens / divisor).max(1);
            let result = executor.run(alloc, &config).expect("fault-free run");
            // Peak never exceeds allocation.
            assert!(result.skyline.peak() <= alloc as f64 + 1e-9);
            // Work is allocation-invariant.
            if let Some(area) = prev_area {
                assert!(
                    (result.total_token_seconds - area).abs() < 1e-6,
                    "job {}: area changed {area} -> {}",
                    job.id,
                    result.total_token_seconds
                );
            }
            prev_area = Some(result.total_token_seconds);
            // Fewer tokens must not run faster.
            assert!(
                result.runtime_secs >= last_runtime - 1e-9,
                "job {}: runtime decreased when tokens shrank ({last_runtime} -> {})",
                job.id,
                result.runtime_secs
            );
            last_runtime = last_runtime.max(result.runtime_secs);
        }
    }
}
