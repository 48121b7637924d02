//! Model-side semantic invariants: fitted PCC parameters and predicted
//! curves.
//!
//! The paper's PCC contract (Section 4.1) is that run time is a monotone
//! non-increasing power law of the token allocation, `runtime = b · A^a`
//! with `b > 0` and `a <= 0`, and that no job scales *better* than
//! linearly — Amdahl's law (`a = -1`) is the speed-up ceiling. These
//! checks are enforced at two points of the pipeline and held by tests:
//!
//! * training — every fitted target PCC must satisfy them before a model
//!   is allowed to regress onto it ([`crate::pipeline::TasqPipeline`]);
//! * deployment — serve-side probes sample the primary model's curve on a
//!   token grid and reject non-monotone artifacts before promotion;
//! * tier-1 tests — `tests/invariant_checks.rs` measures simulated
//!   scaling curves and fits PCCs to them, and both must pass.

use crate::pcc::PowerLawPcc;
use std::fmt;

/// Slack on the Amdahl bound: a fitted exponent may undershoot `-1` by
/// this much before it is rejected as super-linear scaling (log-log
/// regression on noisy augmented points legitimately wobbles around the
/// exact Amdahl value).
pub const AMDAHL_TOLERANCE: f64 = 0.05;

/// Default relative tolerance for point-wise curve monotonicity: a curve
/// may rise by at most this fraction between consecutive grid points.
/// Matches the serve-time degradation threshold.
pub const CURVE_TOLERANCE: f64 = 0.05;

/// A violation of the fitted-PCC parameter contract.
#[derive(Debug, Clone, PartialEq)]
pub enum PccViolation {
    /// A parameter is NaN or infinite.
    NonFinite {
        /// Which parameter (`"a"` or `"b"`).
        param: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The scale `b` (run time at one token) is not strictly positive.
    NonPositiveScale {
        /// The offending scale.
        b: f64,
    },
    /// The exponent is positive: the curve *rises* with more tokens.
    IncreasingCurve {
        /// The offending exponent.
        a: f64,
    },
    /// The exponent is below `-1 - tolerance`: the job would scale better
    /// than linearly, which Amdahl's law forbids.
    SuperLinearScaling {
        /// The offending exponent.
        a: f64,
        /// The tolerance that was applied.
        tolerance: f64,
    },
}

impl fmt::Display for PccViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PccViolation::NonFinite { param, value } => {
                write!(f, "PCC parameter `{param}` is non-finite ({value})")
            }
            PccViolation::NonPositiveScale { b } => {
                write!(f, "PCC scale b = {b} must be strictly positive")
            }
            PccViolation::IncreasingCurve { a } => {
                write!(f, "PCC exponent a = {a} > 0: run time increases with tokens")
            }
            PccViolation::SuperLinearScaling { a, tolerance } => {
                write!(
                    f,
                    "PCC exponent a = {a} < -1 - {tolerance}: scaling better than \
                     Amdahl's linear ceiling"
                )
            }
        }
    }
}

/// A violation of the point-wise predicted-curve contract.
#[derive(Debug, Clone, PartialEq)]
pub enum CurveViolation {
    /// The curve has no points.
    Empty,
    /// A grid token count is zero.
    ZeroTokens {
        /// Index of the offending point.
        index: usize,
    },
    /// Token counts are not strictly increasing.
    UnsortedTokens {
        /// Index of the first out-of-order point.
        index: usize,
    },
    /// A predicted run time is NaN or infinite.
    NonFiniteRuntime {
        /// Index of the offending point.
        index: usize,
        /// The offending run time.
        runtime: f64,
    },
    /// A predicted run time is not strictly positive.
    NonPositiveRuntime {
        /// Index of the offending point.
        index: usize,
        /// The offending run time.
        runtime: f64,
    },
    /// The curve rises between consecutive points by more than the
    /// relative tolerance: the PCC monotonicity contract is broken.
    NonMonotone {
        /// Index of the later (higher-token) point of the rising pair.
        index: usize,
        /// Run time at the earlier point.
        prev: f64,
        /// Run time at the later point.
        next: f64,
        /// The relative rise `next/prev - 1`.
        rel_rise: f64,
    },
}

impl fmt::Display for CurveViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveViolation::Empty => write!(f, "curve has no points"),
            CurveViolation::ZeroTokens { index } => {
                write!(f, "curve point {index} has a zero token count")
            }
            CurveViolation::UnsortedTokens { index } => {
                write!(f, "curve token counts are not strictly increasing at point {index}")
            }
            CurveViolation::NonFiniteRuntime { index, runtime } => {
                write!(f, "curve point {index} has non-finite run time {runtime}")
            }
            CurveViolation::NonPositiveRuntime { index, runtime } => {
                write!(f, "curve point {index} has non-positive run time {runtime}")
            }
            CurveViolation::NonMonotone { index, prev, next, rel_rise } => {
                write!(
                    f,
                    "non-monotone curve at point {index}: run time rises {prev} -> {next} \
                     (+{:.1}%)",
                    rel_rise * 100.0
                )
            }
        }
    }
}

/// Validate a fitted power-law PCC against the paper's parameter
/// contract: finite parameters, `b > 0`, `a <= 0` (monotone
/// non-increasing), and `a >= -1 - `[`AMDAHL_TOLERANCE`] (no
/// super-linear scaling).
pub fn validate_pcc(pcc: &PowerLawPcc) -> Result<(), Vec<PccViolation>> {
    let mut violations = Vec::new();
    if !pcc.a.is_finite() {
        violations.push(PccViolation::NonFinite { param: "a", value: pcc.a });
    }
    if !pcc.b.is_finite() {
        violations.push(PccViolation::NonFinite { param: "b", value: pcc.b });
    }
    if pcc.b.is_finite() && pcc.b <= 0.0 {
        violations.push(PccViolation::NonPositiveScale { b: pcc.b });
    }
    if pcc.a.is_finite() {
        if pcc.a > 0.0 {
            violations.push(PccViolation::IncreasingCurve { a: pcc.a });
        } else if pcc.a < -1.0 - AMDAHL_TOLERANCE {
            violations.push(PccViolation::SuperLinearScaling {
                a: pcc.a,
                tolerance: AMDAHL_TOLERANCE,
            });
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Validate a point-wise `(tokens, runtime)` curve sampled on an
/// increasing token grid: non-empty, positive token counts in strictly
/// increasing order, finite strictly-positive run times, and monotone
/// non-increasing within a relative tolerance (`rel_tol`, e.g.
/// [`CURVE_TOLERANCE`]): `runtime[i+1] <= runtime[i] * (1 + rel_tol)`.
pub fn validate_curve(points: &[(u32, f64)], rel_tol: f64) -> Result<(), Vec<CurveViolation>> {
    let mut violations = Vec::new();
    if points.is_empty() {
        return Err(vec![CurveViolation::Empty]);
    }
    for (i, &(tokens, runtime)) in points.iter().enumerate() {
        if tokens == 0 {
            violations.push(CurveViolation::ZeroTokens { index: i });
        }
        if !runtime.is_finite() {
            violations.push(CurveViolation::NonFiniteRuntime { index: i, runtime });
        } else if runtime <= 0.0 {
            violations.push(CurveViolation::NonPositiveRuntime { index: i, runtime });
        }
        if i > 0 && points[i - 1].0 >= tokens {
            violations.push(CurveViolation::UnsortedTokens { index: i });
        }
    }
    if violations.is_empty() {
        for (i, pair) in points.windows(2).enumerate() {
            let (prev, next) = (pair[0].1, pair[1].1);
            if next > prev * (1.0 + rel_tol) {
                violations.push(CurveViolation::NonMonotone {
                    index: i + 1,
                    prev,
                    next,
                    rel_rise: next / prev - 1.0,
                });
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_behaved_pccs_validate() {
        for pcc in [
            PowerLawPcc { a: -1.0, b: 1000.0 }, // exact Amdahl
            PowerLawPcc { a: -0.3, b: 50.0 },
            PowerLawPcc { a: 0.0, b: 1.0 }, // flat
            PowerLawPcc { a: -1.0 - AMDAHL_TOLERANCE + 1e-9, b: 2.0 },
        ] {
            assert!(validate_pcc(&pcc).is_ok(), "{pcc:?}");
        }
    }

    #[test]
    fn increasing_pcc_is_rejected() {
        let err = validate_pcc(&PowerLawPcc { a: 0.4, b: 100.0 }).unwrap_err();
        assert!(matches!(err[0], PccViolation::IncreasingCurve { .. }));
        assert!(err[0].to_string().contains("increases"));
    }

    #[test]
    fn super_linear_pcc_is_rejected() {
        let err = validate_pcc(&PowerLawPcc { a: -1.5, b: 100.0 }).unwrap_err();
        assert!(matches!(err[0], PccViolation::SuperLinearScaling { .. }));
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        let err = validate_pcc(&PowerLawPcc { a: f64::NAN, b: 0.0 }).unwrap_err();
        assert!(err.iter().any(|v| matches!(v, PccViolation::NonFinite { param: "a", .. })));
        assert!(err.iter().any(|v| matches!(v, PccViolation::NonPositiveScale { .. })));
        let err = validate_pcc(&PowerLawPcc { a: -0.5, b: f64::INFINITY }).unwrap_err();
        assert!(err.iter().any(|v| matches!(v, PccViolation::NonFinite { param: "b", .. })));
    }

    #[test]
    fn monotone_curve_validates() {
        let curve = [(1, 100.0), (2, 60.0), (4, 40.0), (8, 39.0)];
        assert!(validate_curve(&curve, CURVE_TOLERANCE).is_ok());
        // A wiggle inside the tolerance is accepted.
        let wiggly = [(1, 100.0), (2, 60.0), (4, 61.0), (8, 40.0)];
        assert!(validate_curve(&wiggly, CURVE_TOLERANCE).is_ok());
    }

    #[test]
    fn rising_curve_is_rejected_with_the_rise_reported() {
        let curve = [(1, 100.0), (2, 60.0), (4, 90.0)];
        let err = validate_curve(&curve, CURVE_TOLERANCE).unwrap_err();
        match &err[0] {
            CurveViolation::NonMonotone { index: 2, prev, next, rel_rise } => {
                assert_eq!((*prev, *next), (60.0, 90.0));
                assert!((rel_rise - 0.5).abs() < 1e-12);
            }
            other => panic!("expected NonMonotone, got {other:?}"),
        }
    }

    #[test]
    fn malformed_grids_are_rejected() {
        assert_eq!(validate_curve(&[], 0.05).unwrap_err(), vec![CurveViolation::Empty]);
        let err = validate_curve(&[(0, 10.0), (2, f64::NAN), (2, -1.0)], 0.05).unwrap_err();
        assert!(err.iter().any(|v| matches!(v, CurveViolation::ZeroTokens { index: 0 })));
        assert!(err.iter().any(|v| matches!(v, CurveViolation::NonFiniteRuntime { index: 1, .. })));
        assert!(err.iter().any(|v| matches!(v, CurveViolation::NonPositiveRuntime { index: 2, .. })));
        assert!(err.iter().any(|v| matches!(v, CurveViolation::UnsortedTokens { index: 2 })));
    }
}
