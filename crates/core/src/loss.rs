//! The constrained loss functions LF1 / LF2 / LF3 (paper Section 4.5).
//!
//! The NN and GNN emit two raw outputs `(o1, o2)` that are mapped through
//! softplus to the *scaled* PCC targets:
//!
//! ```text
//! t1_hat = softplus(o1)   (= -a / scale_a   >= 0, so a <= 0 by design)
//! t2_hat = softplus(o2)   (= ln b / scale_b >= 0, so b >= 1 by design)
//! ```
//!
//! Because both predictions are non-negative and decoded with opposite
//! signs, every predicted PCC is monotonically non-increasing — the
//! paper's hard monotonicity guarantee.
//!
//! * **LF1** — MAE of the two scaled curve parameters.
//! * **LF2** — LF1 plus a percentage-run-time penalty at the observed
//!   token count (ground truth only — this keeps the simulator an
//!   inductive bias rather than the only teacher).
//! * **LF3** — LF2 plus a transfer term toward XGBoost's run-time
//!   prediction at the observed token count.

use crate::pcc::{ParamScaler, PowerLawPcc};
use tasq_ml::nn::{sigmoid, softplus};

/// Which loss composition to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Curve-parameter MAE only.
    Lf1,
    /// + run-time MAE% at the observed token count.
    Lf2,
    /// + transfer toward the XGBoost run-time prediction.
    Lf3,
}

/// Loss configuration (the component weights are hyper-parameters in the
/// paper, tuned so the parameter error under LF2 stays close to LF1's).
#[derive(Debug, Clone)]
pub struct LossConfig {
    /// Which components are active.
    pub kind: LossKind,
    /// Weight of the curve-parameter MAE.
    pub param_weight: f64,
    /// Weight of the run-time percentage term (LF2/LF3).
    pub runtime_weight: f64,
    /// Weight of the XGBoost transfer term (LF3).
    pub transfer_weight: f64,
}

impl Default for LossConfig {
    fn default() -> Self {
        Self { kind: LossKind::Lf2, param_weight: 1.0, runtime_weight: 0.5, transfer_weight: 0.25 }
    }
}

impl LossConfig {
    /// A configuration for the given kind with the default weights.
    pub fn of_kind(kind: LossKind) -> Self {
        Self { kind, ..Default::default() }
    }
}

/// Everything the loss needs for one example.
#[derive(Debug, Clone, Copy)]
pub struct LossSample {
    /// Scaled target `-a / scale_a`.
    pub target_t1: f64,
    /// Scaled target `ln b / scale_b`.
    pub target_t2: f64,
    /// The token count of the observed (ground-truth) execution.
    pub observed_tokens: u32,
    /// The observed run time at that token count.
    pub observed_runtime: f64,
    /// XGBoost's run-time prediction at the observed token count
    /// (required for LF3, ignored otherwise).
    pub teacher_runtime: Option<f64>,
}

/// Value and gradient of the loss for one example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossEval {
    /// The loss value.
    pub loss: f64,
    /// d loss / d o1.
    pub grad_o1: f64,
    /// d loss / d o2.
    pub grad_o2: f64,
}

/// Decode raw outputs into a PCC via a parameter scaler.
pub fn decode_outputs(o1: f64, o2: f64, scaler: &ParamScaler) -> PowerLawPcc {
    scaler.from_targets(softplus(o1), softplus(o2))
}

/// Evaluate the loss and its gradient w.r.t. the raw outputs.
///
/// LF3 without a teacher run time degrades gracefully to LF2: the
/// transfer term is simply skipped for that example (a missing XGBoost
/// prediction must not abort an entire training epoch).
pub fn evaluate(
    config: &LossConfig,
    scaler: &ParamScaler,
    o1: f64,
    o2: f64,
    sample: &LossSample,
) -> LossEval {
    let t1_hat = softplus(o1);
    let t2_hat = softplus(o2);
    let (s1, s2) = (sigmoid(o1), sigmoid(o2)); // d softplus / d o

    // Component 1: parameter MAE (both losses scaled already).
    let mut loss = config.param_weight * ((t1_hat - sample.target_t1).abs()
        + (t2_hat - sample.target_t2).abs());
    let mut grad_o1 = config.param_weight * (t1_hat - sample.target_t1).signum() * s1;
    let mut grad_o2 = config.param_weight * (t2_hat - sample.target_t2).signum() * s2;

    if matches!(config.kind, LossKind::Lf2 | LossKind::Lf3) {
        let (l, g1, g2) = runtime_term(scaler, t1_hat, t2_hat, s1, s2, sample, sample.observed_runtime);
        loss += config.runtime_weight * l;
        grad_o1 += config.runtime_weight * g1;
        grad_o2 += config.runtime_weight * g2;
    }
    if config.kind == LossKind::Lf3 {
        if let Some(teacher) = sample.teacher_runtime {
            let (l, g1, g2) = runtime_term(scaler, t1_hat, t2_hat, s1, s2, sample, teacher);
            loss += config.transfer_weight * l;
            grad_o1 += config.transfer_weight * g1;
            grad_o2 += config.transfer_weight * g2;
        }
    }
    LossEval { loss, grad_o1, grad_o2 }
}

/// `|r_hat - reference| / reference` and its gradient w.r.t. `(o1, o2)`.
fn runtime_term(
    scaler: &ParamScaler,
    t1_hat: f64,
    t2_hat: f64,
    s1: f64,
    s2: f64,
    sample: &LossSample,
    reference: f64,
) -> (f64, f64, f64) {
    debug_assert!(reference > 0.0);
    let ln_tokens = (sample.observed_tokens.max(1) as f64).ln();
    // log r_hat = ln b_hat + a_hat * ln A = t2*s_b - t1*s_a*lnA.
    let log_r = t2_hat * scaler.scale_log_b - t1_hat * scaler.scale_neg_a * ln_tokens;
    let clamped = log_r.clamp(-30.0, 30.0);
    let r_hat = clamped.exp();
    let loss = (r_hat - reference).abs() / reference;
    #[expect(clippy::float_cmp, reason = "exact: `clamp` either returns its input or a bound")]
    if clamped != log_r {
        // Exponent clamped: treat as a flat region (no gradient signal).
        return (loss, 0.0, 0.0);
    }
    let sign = (r_hat - reference).signum() / reference;
    let g1 = sign * r_hat * (-scaler.scale_neg_a * ln_tokens) * s1;
    let g2 = sign * r_hat * scaler.scale_log_b * s2;
    (loss, g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler() -> ParamScaler {
        ParamScaler { scale_neg_a: 0.5, scale_log_b: 6.0 }
    }

    fn sample() -> LossSample {
        LossSample {
            target_t1: 1.2,
            target_t2: 1.1,
            observed_tokens: 80,
            observed_runtime: 240.0,
            teacher_runtime: Some(250.0),
        }
    }

    #[test]
    fn decoded_pcc_is_always_monotone() {
        let s = scaler();
        for &(o1, o2) in &[(-5.0, -5.0), (0.0, 0.0), (3.0, 3.0), (-10.0, 10.0)] {
            let pcc = decode_outputs(o1, o2, &s);
            assert!(pcc.is_non_increasing(), "({o1},{o2}) -> {pcc:?}");
            assert!(pcc.b >= 1.0);
        }
    }

    #[test]
    fn zero_loss_at_exact_targets() {
        let s = scaler();
        let smp = sample();
        // Choose o so softplus(o) hits the targets exactly.
        let o1 = tasq_ml::nn::softplus_inverse(smp.target_t1);
        let o2 = tasq_ml::nn::softplus_inverse(smp.target_t2);
        let eval = evaluate(&LossConfig::of_kind(LossKind::Lf1), &s, o1, o2, &smp);
        assert!(eval.loss < 1e-9, "loss {}", eval.loss);
    }

    /// Gradient check for each loss kind against finite differences.
    #[test]
    fn gradients_match_finite_differences() {
        let s = scaler();
        let smp = sample();
        let h = 1e-6;
        for kind in [LossKind::Lf1, LossKind::Lf2, LossKind::Lf3] {
            let config = LossConfig::of_kind(kind);
            for &(o1, o2) in &[(0.3, 0.7), (-0.5, 1.2), (1.5, 0.1)] {
                let eval = evaluate(&config, &s, o1, o2, &smp);
                let up1 = evaluate(&config, &s, o1 + h, o2, &smp).loss;
                let dn1 = evaluate(&config, &s, o1 - h, o2, &smp).loss;
                let num1 = (up1 - dn1) / (2.0 * h);
                assert!(
                    (num1 - eval.grad_o1).abs() < 1e-4,
                    "{kind:?} d/do1 at ({o1},{o2}): {num1} vs {}",
                    eval.grad_o1
                );
                let up2 = evaluate(&config, &s, o1, o2 + h, &smp).loss;
                let dn2 = evaluate(&config, &s, o1, o2 - h, &smp).loss;
                let num2 = (up2 - dn2) / (2.0 * h);
                assert!(
                    (num2 - eval.grad_o2).abs() < 1e-4,
                    "{kind:?} d/do2 at ({o1},{o2}): {num2} vs {}",
                    eval.grad_o2
                );
            }
        }
    }

    #[test]
    fn lf2_penalizes_runtime_mismatch() {
        let s = scaler();
        let smp = sample();
        let o1 = tasq_ml::nn::softplus_inverse(smp.target_t1);
        let o2 = tasq_ml::nn::softplus_inverse(smp.target_t2);
        let lf1 = evaluate(&LossConfig::of_kind(LossKind::Lf1), &s, o1, o2, &smp).loss;
        let lf2 = evaluate(&LossConfig::of_kind(LossKind::Lf2), &s, o1, o2, &smp).loss;
        // Unless the decoded PCC happens to predict 240 s exactly, LF2 > LF1.
        assert!(lf2 >= lf1);
    }

    #[test]
    fn lf3_without_teacher_degrades_to_lf2() {
        let smp = LossSample { teacher_runtime: None, ..sample() };
        let lf3 = evaluate(&LossConfig::of_kind(LossKind::Lf3), &scaler(), 0.3, 0.7, &smp);
        let lf2 = evaluate(&LossConfig::of_kind(LossKind::Lf2), &scaler(), 0.3, 0.7, &smp);
        // With no teacher the transfer term is skipped, so LF3 is
        // numerically identical to LF2 — value and gradients.
        assert_eq!(lf3, lf2);
        // With a teacher present, LF3 strictly adds the transfer term.
        let with_teacher = evaluate(&LossConfig::of_kind(LossKind::Lf3), &scaler(), 0.3, 0.7, &sample());
        assert!(with_teacher.loss >= lf2.loss);
    }

    #[test]
    fn clamped_exponent_has_zero_runtime_gradient() {
        let s = ParamScaler { scale_neg_a: 100.0, scale_log_b: 100.0 };
        let smp = sample();
        // Huge o2 pushes log r far beyond the clamp.
        let eval = evaluate(&LossConfig::of_kind(LossKind::Lf2), &s, -20.0, 20.0, &smp);
        assert!(eval.loss.is_finite());
        assert!(eval.grad_o1.is_finite() && eval.grad_o2.is_finite());
    }
}
