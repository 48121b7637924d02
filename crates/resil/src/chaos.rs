//! Seeded, deterministic chaos plans.
//!
//! A [`ChaosPlan`] is a pure function of `(preset, seed)`: every fault it
//! injects — the checkpoint after which the trainer "dies", the bytes
//! its next, torn commit temp is short by, the request sequence numbers where
//! serving workers panic, the NN-tier fault window, the deadline storm —
//! is derived with the SplitMix64 finalizer, so a chaos run replays
//! bit-identically and its report can be asserted on in CI.

/// SplitMix64-style finalizing mix of two words: a cheap, high-quality
/// pure hash for deriving per-site randomness without threading an RNG.
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform f64 in `[0, 1)` (53 mantissa bits).
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A burst of requests submitted with a near-zero deadline budget.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineStorm {
    /// First request sequence of the storm.
    pub start_seq: u64,
    /// Number of consecutive storm requests.
    pub requests: u64,
    /// Deadline budget, in microseconds, given to storm requests.
    pub budget_us: u64,
}

/// The full fault script for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Preset name this plan was derived from.
    pub preset: String,
    /// Seed the derivations used.
    pub seed: u64,
    /// Training: simulate process death after this many checkpoint
    /// commits. A checkpointed run commits five records, one per stage,
    /// so each preset's kill lands in `1..=4`: after it, the resume
    /// still has a record to commit.
    pub kill_after_checkpoints: Option<u64>,
    /// Training: after the kill, leave the next stage's image, short by
    /// this many bytes, in its commit temp (a crash mid-commit).
    pub torn_tail_bytes: Option<u64>,
    /// Serving: miss sequence numbers whose scoring panics.
    pub worker_panics: Vec<u64>,
    /// Serving: `[start, end)` request-sequence window where the NN tier
    /// fails (trips the circuit breaker onto the degradation ladder).
    pub nn_fault_window: Option<(u64, u64)>,
    /// Serving: deadline storm burst.
    pub deadline_storm: Option<DeadlineStorm>,
}

/// Preset names accepted by [`ChaosPlan::preset`], mildest first.
pub const PRESET_NAMES: [&str; 4] = ["none", "mild", "production", "adversarial"];

impl ChaosPlan {
    /// Derive the plan for a named preset. `None` for an unknown name.
    pub fn preset(name: &str, seed: u64) -> Option<Self> {
        let mut plan = Self {
            preset: name.to_string(),
            seed,
            kill_after_checkpoints: None,
            torn_tail_bytes: None,
            worker_panics: Vec::new(),
            nn_fault_window: None,
            deadline_storm: None,
        };
        match name {
            "none" => {}
            "mild" => {
                // After a model's commit: the resume refits at most one.
                plan.kill_after_checkpoints = Some(3 + mix64(seed, 1) % 2);
                plan.worker_panics = vec![16 + mix64(seed, 2) % 32];
            }
            "production" => {
                // After the dataset's commit or a model's.
                plan.kill_after_checkpoints = Some(2 + mix64(seed, 1) % 3);
                plan.torn_tail_bytes = Some(1 + mix64(seed, 5) % 24);
                plan.worker_panics =
                    vec![16 + mix64(seed, 2) % 32, 200 + mix64(seed, 3) % 32];
                // Long enough to exhaust any failure threshold ≤ 8, then
                // ends so half-open probes
                // succeed and the breaker closes within the run.
                let start = 64 + mix64(seed, 4) % 16;
                plan.nn_fault_window = Some((start, start + 48));
                plan.deadline_storm = Some(DeadlineStorm {
                    start_seq: 256 + mix64(seed, 6) % 16,
                    requests: 24,
                    budget_us: 0,
                });
            }
            "adversarial" => {
                // As early as right after the manifest.
                plan.kill_after_checkpoints = Some(1 + mix64(seed, 1) % 4);
                plan.torn_tail_bytes = Some(1 + mix64(seed, 5) % 64);
                plan.worker_panics = (0..4)
                    .map(|i| 16 + i * 72 + mix64(seed, 16 + i) % 48)
                    .collect();
                let start = 48 + mix64(seed, 4) % 32;
                plan.nn_fault_window = Some((start, start + 64));
                plan.deadline_storm = Some(DeadlineStorm {
                    start_seq: 224 + mix64(seed, 6) % 32,
                    requests: 48,
                    budget_us: 0,
                });
            }
            _ => return None,
        }
        Some(plan)
    }

    /// Does the scoring worker panic on request `seq`?
    pub fn panics_at(&self, seq: u64) -> bool {
        self.worker_panics.contains(&seq)
    }

    /// Is the NN tier faulted for request `seq`?
    pub fn nn_faulted(&self, seq: u64) -> bool {
        self.nn_fault_window.is_some_and(|(a, b)| (a..b).contains(&seq))
    }

    /// Deadline budget override for request `seq` (storm members get the
    /// storm's budget, everyone else `None`).
    pub fn storm_budget_us(&self, seq: u64) -> Option<u64> {
        self.deadline_storm.and_then(|s| {
            (s.start_seq..s.start_seq + s.requests).contains(&seq).then_some(s.budget_us)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_preset_and_seed() {
        for name in PRESET_NAMES {
            let a = ChaosPlan::preset(name, 42).unwrap();
            let b = ChaosPlan::preset(name, 42).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name} not deterministic");
        }
        let a = ChaosPlan::preset("production", 1).unwrap();
        let b = ChaosPlan::preset("production", 2).unwrap();
        assert_ne!(format!("{a:?}"), format!("{b:?}"), "seed ignored");
        assert!(ChaosPlan::preset("bogus", 1).is_none());
    }

    #[test]
    fn every_planted_kill_leaves_the_resume_work_to_do() {
        for name in PRESET_NAMES {
            for seed in 0..64 {
                let plan = ChaosPlan::preset(name, seed).unwrap();
                if let Some(kill) = plan.kill_after_checkpoints {
                    assert!((1..=4).contains(&kill), "{name} seed {seed}: kill after {kill}");
                }
            }
        }
    }

    #[test]
    fn production_faults_are_well_formed() {
        let plan = ChaosPlan::preset("production", 7).unwrap();
        let (a, b) = plan.nn_fault_window.unwrap();
        assert!(b - a >= 40, "window must outlast any sane failure threshold");
        assert!(plan.panics_at(plan.worker_panics[0]));
        assert!(!plan.panics_at(u64::MAX));
        assert!(plan.nn_faulted(a) && plan.nn_faulted(b - 1) && !plan.nn_faulted(b));
        let storm = plan.deadline_storm.unwrap();
        assert_eq!(plan.storm_budget_us(storm.start_seq), Some(storm.budget_us));
        assert_eq!(plan.storm_budget_us(storm.start_seq + storm.requests), None);
        // Faults are sequenced: panics bracket the window, storm comes last.
        assert!(plan.worker_panics[0] < a);
        assert!(storm.start_seq >= b);
    }

    #[test]
    fn mix64_spreads_and_unit_is_in_range() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let h = mix64(42, i);
            assert!(seen.insert(h), "collision at {i}");
            let u = unit_f64(h);
            assert!((0.0..1.0).contains(&u));
        }
    }
}
