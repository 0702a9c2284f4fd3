//! The learning-rate schedule.
//!
//! The paper trains every surrogate model "with a learning rate of 0.0002,
//! which decays following a cosine scheduler"; [`CosineDecay`] implements
//! exactly that schedule.

/// Cosine decay from `base_lr` down to `min_lr` over `total_steps`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineDecay {
    /// Initial (peak) learning rate.
    pub base_lr: f64,
    /// Final learning rate reached at `total_steps`.
    pub min_lr: f64,
    /// Total number of steps over which to decay.
    pub total_steps: usize,
}

impl CosineDecay {
    /// Learning rate at `step` (0-based); steps past `total_steps` stay at
    /// `min_lr`.
    pub fn lr_at(&self, step: usize) -> f64 {
        let effective = step.min(self.total_steps);
        let horizon = self.total_steps.max(1);
        let progress = (effective as f64 / horizon as f64).clamp(0.0, 1.0);
        let cosine = 0.5 * (1.0 + (std::f64::consts::PI * progress).cos());
        self.min_lr + (self.base_lr - self.min_lr) * cosine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's schedule: base LR 2e-4, cosine to zero.
    fn paper(total_steps: usize) -> CosineDecay {
        CosineDecay {
            base_lr: 2e-4,
            min_lr: 0.0,
            total_steps,
        }
    }

    #[test]
    fn cosine_starts_at_base_and_ends_at_min() {
        let s = paper(1000);
        assert!((s.lr_at(0) - 2e-4).abs() < 1e-12);
        assert!(s.lr_at(1000) < 1e-9);
        assert!(s.lr_at(2000) < 1e-9, "stays at min past the horizon");
    }

    #[test]
    fn cosine_is_monotone_decreasing_without_warmup() {
        let s = paper(500);
        let mut prev = f64::INFINITY;
        for step in 0..=500 {
            let lr = s.lr_at(step);
            assert!(lr <= prev + 1e-15, "step {step}");
            prev = lr;
        }
    }

    #[test]
    fn halfway_point_is_half_the_base() {
        let s = CosineDecay {
            base_lr: 1.0,
            min_lr: 0.0,
            total_steps: 100,
        };
        assert!((s.lr_at(50) - 0.5).abs() < 1e-9);
    }
}
