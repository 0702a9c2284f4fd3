//! Adam, the one optimizer every model trains with.
//!
//! Optimizer state is keyed by an opaque `usize` so several parameter tensors
//! (and several networks) can share one optimizer instance; the MLP assigns
//! stable keys per layer.

use std::collections::HashMap;

/// Exponential decay of the first moment.
const BETA1: f64 = 0.9;
/// Exponential decay of the second moment.
const BETA2: f64 = 0.999;
/// Numerical stabiliser added to the denominator.
const EPS: f64 = 1e-8;

/// Adam with the standard hyper-parameters (β₁ = 0.9, β₂ = 0.999,
/// ε = 1e-8) and no weight decay.
#[derive(Debug, Clone, Default)]
pub struct Adam {
    state: HashMap<usize, AdamState>,
}

#[derive(Debug, Clone)]
struct AdamState {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Update `params` in place given `grads`, using the moments kept for
    /// `key`.
    pub fn update(&mut self, key: usize, params: &mut [f64], grads: &[f64], lr: f64) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let state = self.state.entry(key).or_insert_with(|| AdamState {
            m: vec![0.0; params.len()],
            v: vec![0.0; params.len()],
            t: 0,
        });
        assert_eq!(state.m.len(), params.len(), "stale optimizer state for key");
        state.t += 1;
        let t = state.t as f64;
        let bias1 = 1.0 - BETA1.powf(t);
        let bias2 = 1.0 - BETA2.powf(t);
        // Fused single pass over zipped slices: no per-element bounds checks.
        for ((p, &g), (m, v)) in params
            .iter_mut()
            .zip(grads.iter())
            .zip(state.m.iter_mut().zip(state.v.iter_mut()))
        {
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)^2 and check convergence.
    fn run(opt: &mut Adam, lr: f64, steps: usize) -> f64 {
        let mut x = vec![10.0];
        for _ in 0..steps {
            let grad = vec![2.0 * (x[0] - 3.0)];
            opt.update(0, &mut x, &grad, lr);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::default();
        let x = run(&mut adam, 0.1, 800);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adam_state_is_per_key() {
        let mut adam = Adam::default();
        let mut a = vec![0.0];
        let mut b = vec![0.0];
        adam.update(1, &mut a, &[1.0], 0.1);
        adam.update(2, &mut b, &[1.0], 0.1);
        // Both start from fresh moments so the first step must be identical.
        assert!((a[0] - b[0]).abs() < 1e-12);
        // Key 1 keeps its moments: its second step, on a gradient of the
        // opposite sign, is far smaller than a fresh first step on it.
        let mut fresh = vec![0.0];
        Adam::default().update(1, &mut fresh, &[-1.0], 0.1);
        let before = a[0];
        adam.update(1, &mut a, &[-1.0], 0.1);
        assert!((a[0] - before - fresh[0]).abs() > 1e-3);
    }

    #[test]
    #[should_panic(expected = "param/grad length mismatch")]
    fn mismatched_lengths_panic() {
        let mut adam = Adam::default();
        let mut x = vec![0.0, 1.0];
        adam.update(0, &mut x, &[1.0], 0.1);
    }
}
