//! Model-side invariants on what the simulator measures: scaling curves
//! executed across a token grid are (tolerance-)monotone, the power-law
//! PCCs fitted to them are valid, and malformed curves and PCCs are
//! rejected with *typed* violations.

use scope_sim::{ExecutionConfig, Job, SimError, WorkloadConfig, WorkloadGenerator};
use tasq::validate::{
    validate_curve, validate_pcc, CurveViolation, PccViolation, CURVE_TOLERANCE,
};
use tasq::PowerLawPcc;

/// The audited workload: its first `CURVE_JOBS` jobs are measured on
/// `CURVE_GRID`.
const WORKLOAD_SEED: u64 = 41;
const WORKLOAD_JOBS: usize = 32;
const CURVE_JOBS: usize = 4;
const CURVE_GRID: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

fn generated_job(seed: u64) -> Job {
    WorkloadGenerator::new(WorkloadConfig { num_jobs: 1, seed, ..Default::default() })
        .generate()
        .remove(0)
}

/// The measured `(tokens, runtime)` curve of `job` on `grid`.
fn measured_curve(job: &Job, grid: &[u32]) -> Result<Vec<(u32, f64)>, SimError> {
    let executor = job.executor();
    let config = ExecutionConfig::default();
    grid.iter().map(|&tokens| Ok((tokens, executor.run(tokens, &config)?.runtime_secs))).collect()
}

/// The power-law PCC fitted to a measured curve.
fn fit(curve: &[(u32, f64)]) -> Option<PowerLawPcc> {
    let points: Vec<(f64, f64)> = curve.iter().map(|&(t, r)| (f64::from(t), r)).collect();
    PowerLawPcc::fit(&points)
}

#[test]
fn measured_curves_and_their_fitted_pccs_validate() {
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: WORKLOAD_JOBS,
        seed: WORKLOAD_SEED,
        ..Default::default()
    })
    .generate();
    for job in jobs.iter().take(CURVE_JOBS) {
        let curve = measured_curve(job, &CURVE_GRID).expect("runs");
        let pcc = fit(&curve).expect("fits");
        assert_eq!(validate_curve(&curve, CURVE_TOLERANCE), Ok(()), "job {}: {curve:?}", job.id);
        assert_eq!(validate_pcc(&pcc), Ok(()), "job {}: a = {}, b = {}", job.id, pcc.a, pcc.b);
    }
}

#[test]
fn non_monotone_pcc_is_rejected() {
    // a > 0 means runtime *rises* with tokens — never valid.
    let rising = PowerLawPcc::new(0.5, 10.0);
    let violations = validate_pcc(&rising).expect_err("rising curve must be rejected");
    assert!(
        violations.iter().any(|v| matches!(v, PccViolation::IncreasingCurve { .. })),
        "{violations:?}"
    );

    // a < -1 - tolerance claims super-linear scaling, beyond Amdahl.
    let superlinear = PowerLawPcc::new(-1.5, 100.0);
    let violations = validate_pcc(&superlinear).expect_err("super-linear must be rejected");
    assert!(
        violations.iter().any(|v| matches!(v, PccViolation::SuperLinearScaling { .. })),
        "{violations:?}"
    );

    // Negative scale is meaningless. `PowerLawPcc::new` asserts it away,
    // so forge the value as a corrupted artifact file would.
    let negative = validate_pcc(&PowerLawPcc { a: -0.5, b: -3.0 }).expect_err("b < 0");
    assert!(
        negative.iter().any(|v| matches!(v, PccViolation::NonPositiveScale { .. })),
        "{negative:?}"
    );
}

#[test]
fn non_monotone_curve_is_rejected_pointwise() {
    let rising = vec![(1u32, 100.0), (2, 60.0), (4, 80.0), (8, 30.0)];
    let violations =
        validate_curve(&rising, CURVE_TOLERANCE).expect_err("33% rise must be rejected");
    assert!(
        violations.iter().any(|v| matches!(v, CurveViolation::NonMonotone { index: 2, .. })),
        "{violations:?}"
    );
    // A rise within tolerance is measurement noise, not a violation.
    let noisy = vec![(1u32, 100.0), (2, 60.0), (4, 61.0), (8, 30.0)];
    assert_eq!(validate_curve(&noisy, CURVE_TOLERANCE), Ok(()));
}

#[test]
fn fitted_pcc_from_simulated_curve_is_valid() {
    let curve = measured_curve(&generated_job(25), &[1, 2, 4, 8, 16, 32]).expect("runs");
    let pcc = fit(&curve).expect("fits");
    assert_eq!(validate_pcc(&pcc), Ok(()), "a = {}, b = {}", pcc.a, pcc.b);
}
