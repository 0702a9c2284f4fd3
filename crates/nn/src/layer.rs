//! Linear layers and activations with manual forward/backward passes,
//! plus the forward-only `f32` mirror ([`LinearLayer32`]) the inference
//! tier runs on.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use crate::matrix32::Matrix32;

/// Activation applied element-wise after a linear layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// No non-linearity.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.2 on the negative side (the slope CTGAN-family
    /// generators conventionally use).
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Apply the activation.
    pub fn forward(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.2 * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Apply the activation in `f32` (native single-precision transcendental
    /// ops — not a cast round-trip through [`Activation::forward`], so the
    /// inference tier never pays `f64` tanh/exp latency). Agreement with the
    /// `f64` path is covered by the end-to-end distribution-delta tests.
    pub fn forward_f32(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.2 * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative of the activation expressed in terms of the *pre-activation*
    /// input `x`.
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.2
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
        }
    }
}

/// Interface shared by trainable layers.
pub trait Layer {
    /// Forward pass on a batch (rows are samples).
    fn forward(&mut self, input: &Matrix) -> Matrix;
    /// Backward pass: given dL/d(output), accumulate parameter gradients and
    /// return dL/d(input). Must be called after `forward` on the same batch.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;
    /// Number of trainable parameters.
    fn n_params(&self) -> usize;
}

/// Fully connected layer `y = act(x·W + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearLayer {
    /// Weight matrix, shape (in_dim × out_dim).
    pub weights: Matrix,
    /// Bias vector, length out_dim.
    pub bias: Vec<f64>,
    /// Activation applied after the affine map.
    pub activation: Activation,
    /// Accumulated dL/dW from the last backward pass.
    pub grad_weights: Matrix,
    /// Accumulated dL/db from the last backward pass.
    pub grad_bias: Vec<f64>,
    #[serde(skip)]
    cache_input: Option<Matrix>,
    #[serde(skip)]
    cache_pre_activation: Option<Matrix>,
    /// Scratch for `Wᵀ` in the backward pass, reused across steps.
    #[serde(skip)]
    scratch_weights_t: Matrix,
}

impl LinearLayer {
    /// Create a layer with He/Xavier-style initialisation: weights are
    /// `N(0, 2/(in+out))`, biases start at zero.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut R) -> Self {
        let std = (2.0 / (in_dim + out_dim) as f64).sqrt();
        Self {
            weights: Matrix::randn(in_dim, out_dim, std, rng),
            bias: vec![0.0; out_dim],
            activation,
            grad_weights: Matrix::zeros(in_dim, out_dim),
            grad_bias: vec![0.0; out_dim],
            cache_input: None,
            cache_pre_activation: None,
            scratch_weights_t: Matrix::default(),
        }
    }

    /// Forward pass without storing caches (inference only): affine map,
    /// bias and activation fused into one kernel pass, so a single matrix is
    /// allocated per layer.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.infer_into(input, &mut out);
        out
    }

    /// [`LinearLayer::infer`] into a caller-owned buffer: the activation is
    /// applied by the matmul kernel while each output row is cache-hot, and
    /// nothing is allocated.
    pub fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        let act = self.activation;
        input.matmul_bias_act_into(&self.weights, &self.bias, |v| act.forward(v), out);
    }

    /// Training forward pass into a caller-owned buffer (caches stored for
    /// a subsequent backward): the fused affine lands in the persistent
    /// pre-activation cache and the activation is mapped into `out`, so
    /// repeated steps allocate nothing.
    pub fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        let mut pre = self.cache_pre_activation.take().unwrap_or_default();
        input.matmul_bias_into(&self.weights, &self.bias, &mut pre);
        let act = self.activation;
        pre.map_into(|v| act.forward(v), out);
        match &mut self.cache_input {
            Some(cache) => cache.copy_from(input),
            None => self.cache_input = Some(input.clone()),
        }
        self.cache_pre_activation = Some(pre);
    }

    /// Accumulate this layer's parameter gradients (`dL/dW`, `dL/db`) from
    /// `dL/d(output)` **without** computing `dL/d(input)` — the variant the
    /// fused discriminator update uses on its first layer, where the input
    /// gradient would be discarded and its `A·Wᵀ` product (the widest matmul
    /// of the backward pass) can be skipped entirely.
    pub fn backward_params(&mut self, grad_output: &Matrix) {
        let _ = self.grad_pre_and_params(grad_output);
    }

    /// Shared backward head: `dL/d(pre)` plus both parameter gradients.
    fn grad_pre_and_params(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self
            .cache_input
            .as_ref()
            .expect("backward called before forward");
        let pre = self
            .cache_pre_activation
            .as_ref()
            .expect("backward called before forward");
        let act = self.activation;
        // dL/d(pre) = dL/d(out) * act'(pre)
        let grad_pre = grad_output.zip(pre, |g, p| g * act.derivative(p));
        // dL/dW = inputᵀ · dL/d(pre), computed without materializing the
        // transpose and accumulated into the persistent gradient buffers.
        input.matmul_at_b_into(&grad_pre, &mut self.grad_weights);
        grad_pre.sum_rows_into(&mut self.grad_bias);
        grad_pre
    }
}

/// Forward-only `f32` mirror of a fitted [`LinearLayer`] — the inference
/// tier. Built once from the trained `f64` weights
/// ([`LinearLayer32::from_f64`]); carries no gradients, caches or serde.
#[derive(Debug, Clone)]
pub struct LinearLayer32 {
    /// Weight matrix, shape (in_dim × out_dim), down-converted once.
    pub(crate) weights: Matrix32,
    /// Bias vector, length out_dim.
    bias: Vec<f32>,
    /// Activation applied after the affine map.
    activation: Activation,
}

impl LinearLayer32 {
    /// Down-convert a fitted layer (round-to-nearest per parameter).
    pub fn from_f64(layer: &LinearLayer) -> Self {
        Self {
            weights: Matrix32::from_f64(&layer.weights),
            bias: layer.bias.iter().map(|&b| b as f32).collect(),
            activation: layer.activation,
        }
    }

    /// Inference forward pass into a caller-owned buffer: affine map, bias
    /// and activation fused into one `f32` kernel pass.
    pub fn infer_into(&self, input: &Matrix32, out: &mut Matrix32) {
        let act = self.activation;
        input.matmul_bias_act_into(&self.weights, &self.bias, |v| act.forward_f32(v), out);
    }
}

impl Layer for LinearLayer {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(input, &mut out);
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let grad_pre = self.grad_pre_and_params(grad_output);
        // dL/d(input) = dL/d(pre) · Wᵀ; the blocked transpose lands in a
        // persistent scratch so only the result is allocated.
        grad_pre.matmul_a_bt_scratch(&self.weights, &mut self.scratch_weights_t)
    }

    fn n_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn activations_and_derivatives() {
        assert_eq!(Activation::Relu.forward(-1.0), 0.0);
        assert_eq!(Activation::Relu.forward(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert!((Activation::LeakyRelu.forward(-1.0) + 0.2).abs() < 1e-12);
        assert!((Activation::Sigmoid.forward(0.0) - 0.5).abs() < 1e-12);
        assert!((Activation::Sigmoid.derivative(0.0) - 0.25).abs() < 1e-12);
        assert!((Activation::Tanh.derivative(0.0) - 1.0).abs() < 1e-12);
        assert_eq!(Activation::Identity.derivative(5.0), 1.0);
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = LinearLayer::new(4, 3, Activation::Relu, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![0.0, -1.0, 0.5, 2.0]]);
        let y1 = layer.forward(&x);
        let y2 = layer.infer(&x);
        assert_eq!(y1.rows(), 2);
        assert_eq!(y1.cols(), 3);
        assert_eq!(y1, y2);
        assert_eq!((layer.weights.rows(), layer.weights.cols()), (4, 3));
        assert_eq!(layer.n_params(), 15);
    }

    #[test]
    fn fused_forward_matches_unfused_composition() {
        let mut rng = StdRng::seed_from_u64(9);
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            let mut layer = LinearLayer::new(6, 4, act, &mut rng);
            for b in layer.bias.iter_mut() {
                *b = 0.1;
            }
            let x = Matrix::randn(5, 6, 1.0, &mut rng);
            let unfused = x
                .matmul(&layer.weights)
                .add_row_vector(&layer.bias)
                .map(|v| act.forward(v));
            for (a, b) in layer.infer(&x).data().iter().zip(unfused.data()) {
                assert!(
                    (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                    "{act:?}: fused {a} vs unfused {b}"
                );
            }
            // The cached-training path must agree with inference exactly.
            assert_eq!(layer.forward(&x), layer.infer(&x));
            // And reuse of the cache buffers on a second batch must be clean.
            let x2 = Matrix::randn(3, 6, 1.0, &mut rng);
            assert_eq!(layer.forward(&x2), layer.infer(&x2));
        }
    }

    #[test]
    fn f32_layer_tracks_f64_within_single_precision() {
        let mut rng = StdRng::seed_from_u64(77);
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            let mut layer = LinearLayer::new(12, 9, act, &mut rng);
            for (i, b) in layer.bias.iter_mut().enumerate() {
                *b = (i as f64 * 0.3).sin();
            }
            let layer32 = LinearLayer32::from_f64(&layer);
            assert_eq!((layer32.weights.rows(), layer32.weights.cols()), (12, 9));
            let x = Matrix::randn(6, 12, 1.0, &mut rng);
            let want = layer.infer(&x);
            let mut got = Matrix32::default();
            layer32.infer_into(&Matrix32::from_f64(&x), &mut got);
            for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
                assert!(
                    (g as f64 - w).abs() <= 1e-4 * (1.0 + w.abs()),
                    "{act:?} element {i}: f32 {g} vs f64 {w}"
                );
            }
        }
    }

    /// Numerical gradient check through the fused forward: perturb each
    /// weight and compare the finite difference of a scalar loss with the
    /// analytic gradient.
    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = LinearLayer::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::randn(5, 3, 1.0, &mut rng);
        let target = Matrix::randn(5, 2, 1.0, &mut rng);

        let loss_of = |layer: &LinearLayer, x: &Matrix| -> f64 {
            let out = layer.infer(x);
            out.sub(&target).map(|v| v * v).mean()
        };

        // Analytic gradients.
        let out = layer.forward(&x);
        let grad_out = out.sub(&target).scale(2.0 / (out.len() as f64));
        let grad_in = layer.backward(&grad_out);

        let eps = 1e-6;
        // Check a handful of weight entries.
        for &(r, c) in &[(0usize, 0usize), (1, 1), (2, 0)] {
            let orig = layer.weights.get(r, c);
            layer.weights.set(r, c, orig + eps);
            let lp = loss_of(&layer, &x);
            layer.weights.set(r, c, orig - eps);
            let lm = loss_of(&layer, &x);
            layer.weights.set(r, c, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = layer.grad_weights.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "weight ({r},{c}): numeric {numeric} analytic {analytic}"
            );
        }

        // Check an input gradient entry.
        let mut x2 = x.clone();
        let orig = x2.get(2, 1);
        x2.set(2, 1, orig + eps);
        let lp = loss_of(&layer, &x2);
        x2.set(2, 1, orig - eps);
        let lm = loss_of(&layer, &x2);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - grad_in.get(2, 1)).abs() < 1e-5);
    }

    #[test]
    fn bias_gradient_matches_numerical() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = LinearLayer::new(2, 2, Activation::Sigmoid, &mut rng);
        let x = Matrix::randn(4, 2, 1.0, &mut rng);

        let loss_of = |layer: &LinearLayer| layer.infer(&x).map(|v| v * v).mean();

        let out = layer.forward(&x);
        let grad_out = out.scale(2.0 / out.len() as f64);
        layer.backward(&grad_out);

        let eps = 1e-6;
        let orig = layer.bias[1];
        layer.bias[1] = orig + eps;
        let lp = loss_of(&layer);
        layer.bias[1] = orig - eps;
        let lm = loss_of(&layer);
        layer.bias[1] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - layer.grad_bias[1]).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = LinearLayer::new(2, 2, Activation::Relu, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 2));
    }
}
