//! Composable feed-forward networks (multi-layer perceptrons), plus the
//! forward-only `f32` mirror ([`Mlp32`]) the sampling paths run on.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layer::{Activation, Layer, LinearLayer, LinearLayer32};
use crate::matrix::Matrix;
use crate::matrix32::Matrix32;
use crate::optim::Optimizer;

/// Architecture description of an MLP.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input width.
    pub input_dim: usize,
    /// Hidden layer widths (may be empty for a single linear map).
    pub hidden: Vec<usize>,
    /// Output width.
    pub output_dim: usize,
    /// Activation after every hidden layer.
    pub hidden_activation: Activation,
    /// Activation after the output layer (often [`Activation::Identity`]).
    pub output_activation: Activation,
}

impl MlpConfig {
    /// Convenience constructor with ReLU hidden layers and a linear output.
    pub fn relu(input_dim: usize, hidden: Vec<usize>, output_dim: usize) -> Self {
        Self {
            input_dim,
            hidden,
            output_dim,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Identity,
        }
    }
}

/// A stack of [`LinearLayer`]s trained with manual backpropagation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<LinearLayer>,
    /// Intermediate activation buffers reused by [`Mlp::forward_into`] /
    /// [`Mlp::forward`] across steps (one per hidden boundary).
    #[serde(skip)]
    scratch_acts: Vec<Matrix>,
}

impl Mlp {
    /// Build the network described by `config`.
    pub fn new<R: Rng>(config: &MlpConfig, rng: &mut R) -> Self {
        let mut dims = vec![config.input_dim];
        dims.extend(&config.hidden);
        dims.push(config.output_dim);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let activation = if i + 2 == dims.len() {
                config.output_activation
            } else {
                config.hidden_activation
            };
            layers.push(LinearLayer::new(dims[i], dims[i + 1], activation, rng));
        }
        Self {
            layers,
            scratch_acts: Vec::new(),
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.weights.rows())
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.weights.cols())
    }

    /// Total trainable parameter count.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(Layer::n_params).sum()
    }

    /// Forward pass storing caches for a subsequent [`Mlp::backward`].
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(input, &mut out);
        out
    }

    /// [`Mlp::forward`] into a caller-owned output buffer: intermediate
    /// activations land in persistent per-boundary scratch buffers and the
    /// final activation in `out`, so a training step that reuses `out`
    /// allocates nothing anywhere in the forward pass.
    pub fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        let n_layers = self.layers.len();
        if n_layers == 0 {
            out.copy_from(input);
            return;
        }
        self.scratch_acts
            .resize_with(n_layers.saturating_sub(1), Matrix::default);
        for i in 0..n_layers {
            match (i == 0, i == n_layers - 1) {
                (true, true) => self.layers[0].forward_into(input, out),
                (true, false) => self.layers[0].forward_into(input, &mut self.scratch_acts[0]),
                (false, true) => self.layers[i].forward_into(&self.scratch_acts[i - 1], out),
                (false, false) => {
                    let (prev, rest) = self.scratch_acts.split_at_mut(i);
                    self.layers[i].forward_into(&prev[i - 1], &mut rest[0]);
                }
            }
        }
    }

    /// Inference-only forward pass (no caches stored).
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        let mut scratch = Matrix::default();
        self.infer_into(input, &mut out, &mut scratch);
        out
    }

    /// [`Mlp::infer`] ping-ponging between two caller-owned buffers, so a
    /// sampling or discriminator loop that reuses them allocates nothing.
    /// The result always lands in `out`; `scratch` holds a stale
    /// intermediate afterwards.
    pub fn infer_into(&self, input: &Matrix, out: &mut Matrix, scratch: &mut Matrix) {
        let n_layers = self.layers.len();
        if n_layers == 0 {
            out.copy_from(input);
            return;
        }
        for (i, layer) in self.layers.iter().enumerate() {
            // Alternate buffers backwards from the last layer, which must
            // write `out`.
            let to_out = (n_layers - 1 - i).is_multiple_of(2);
            match (i == 0, to_out) {
                (true, true) => layer.infer_into(input, out),
                (true, false) => layer.infer_into(input, scratch),
                (false, true) => layer.infer_into(scratch, out),
                (false, false) => layer.infer_into(out, scratch),
            }
        }
    }

    /// Down-convert the fitted network to the `f32` inference tier — done
    /// **once** per fitted model, after which sampling runs entirely in
    /// single precision through [`Mlp32::infer_into`].
    pub fn to_f32(&self) -> Mlp32 {
        Mlp32 {
            layers: self.layers.iter().map(LinearLayer32::from_f64).collect(),
        }
    }

    /// Backward pass from dL/d(output); returns dL/d(input). Allocates
    /// nothing: each layer computes its gradients in its own forward caches,
    /// and the returned gradient borrows the first layer's, valid until the
    /// next forward pass.
    pub fn backward<'a>(&'a mut self, grad_output: &'a Matrix) -> &'a Matrix {
        let mut grad = grad_output;
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward_in_place(grad);
        }
        grad
    }

    /// Backward pass that accumulates every layer's parameter gradients but
    /// skips the first layer's `dL/d(input)` product — the widest matmul of
    /// the backward pass, whose result a caller that never reads the
    /// gradient of the network input would discard. Gradients land in the
    /// same buffers as [`Mlp::backward`].
    pub fn backward_params_only(&mut self, grad_output: &Matrix) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut grad = grad_output;
        for layer in rest.iter_mut().rev() {
            grad = layer.backward_in_place(grad);
        }
        first.backward_params(grad);
    }

    /// Drop the buffers only training uses (every layer's forward caches
    /// and the intermediate activations), so a fitted network keeps just
    /// its parameters and last gradients. The next training step re-grows
    /// them.
    pub fn release_training_buffers(&mut self) {
        for layer in &mut self.layers {
            layer.release_caches();
        }
        self.scratch_acts = Vec::new();
    }

    /// Apply one optimisation step using the gradients accumulated by the
    /// last backward pass. `param_group` namespaces the optimizer state so
    /// several networks can share one optimizer without clobbering moments.
    pub fn apply_gradients<O: Optimizer>(
        &mut self,
        optimizer: &mut O,
        param_group: usize,
        lr: f64,
    ) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let wkey = param_group * 1000 + i * 2;
            let bkey = wkey + 1;
            // Parameters and gradients live in disjoint fields, so the
            // optimizer can read the gradient slices directly — no copies.
            optimizer.update(
                wkey,
                layer.weights.data_mut(),
                layer.grad_weights.data(),
                lr,
            );
            optimizer.update(bkey, &mut layer.bias, &layer.grad_bias, lr);
        }
    }

    /// Every accumulated gradient slice (per layer: weights, then bias), in
    /// a fixed order — the single walk [`Mlp::grad_norm`] and
    /// [`Mlp::clip_gradients`] share.
    fn grad_slices(&self) -> impl Iterator<Item = &[f64]> {
        self.layers
            .iter()
            .flat_map(|layer| [layer.grad_weights.data(), layer.grad_bias.as_slice()])
    }

    /// Sum of squared gradient entries, accumulated in one fused pass over
    /// all parameter slices.
    fn grad_sq_sum(&self) -> f64 {
        self.grad_slices()
            .flat_map(|slice| slice.iter())
            .map(|g| g * g)
            .sum()
    }

    /// Global L2 norm of all accumulated gradients (for clipping / logging).
    pub fn grad_norm(&self) -> f64 {
        self.grad_sq_sum().sqrt()
    }

    /// Scale all accumulated gradients so their global norm is at most
    /// `max_norm`. The norm is computed in a single fused pass over every
    /// parameter slice (no per-layer re-walks), the square root is only
    /// taken when clipping actually triggers, and the scaling pass reuses
    /// the same slice order.
    pub fn clip_gradients(&mut self, max_norm: f64) {
        let sq = self.grad_sq_sum();
        if sq > max_norm * max_norm && sq > 0.0 {
            let scale = max_norm / sq.sqrt();
            for slice in self.layers.iter_mut().flat_map(|layer| {
                [
                    layer.grad_weights.data_mut(),
                    layer.grad_bias.as_mut_slice(),
                ]
            }) {
                for g in slice {
                    *g *= scale;
                }
            }
        }
    }
}

/// Forward-only `f32` mirror of a fitted [`Mlp`]: the weights were
/// down-converted once by [`Mlp::to_f32`], and every layer runs the fused
/// `f32` affine+activation kernels (double the SIMD lanes of the `f64`
/// path). Carries no training state.
#[derive(Debug, Clone)]
pub struct Mlp32 {
    layers: Vec<LinearLayer32>,
}

impl Mlp32 {
    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.weights.rows())
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.weights.cols())
    }

    /// Inference-only forward pass (no buffer reuse).
    pub fn infer(&self, input: &Matrix32) -> Matrix32 {
        let mut out = Matrix32::default();
        let mut scratch = Matrix32::default();
        self.infer_into(input, &mut out, &mut scratch);
        out
    }

    /// [`Mlp32::infer`] ping-ponging between two caller-owned buffers (the
    /// `f32` twin of [`Mlp::infer_into`]): a sampling loop that reuses them
    /// allocates nothing. The result always lands in `out`; `scratch` holds
    /// a stale intermediate afterwards.
    pub fn infer_into(&self, input: &Matrix32, out: &mut Matrix32, scratch: &mut Matrix32) {
        let n_layers = self.layers.len();
        if n_layers == 0 {
            out.resize_zeroed(input.rows(), input.cols());
            out.data_mut().copy_from_slice(input.data());
            return;
        }
        for (i, layer) in self.layers.iter().enumerate() {
            // Alternate buffers backwards from the last layer, which must
            // write `out`.
            let to_out = (n_layers - 1 - i).is_multiple_of(2);
            match (i == 0, to_out) {
                (true, true) => layer.infer_into(input, out),
                (true, false) => layer.infer_into(input, scratch),
                (false, true) => layer.infer_into(scratch, out),
                (false, false) => layer.infer_into(out, scratch),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;
    use crate::optim::{Adam, AdamConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn architecture_matches_config() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MlpConfig::relu(6, vec![16, 8], 3);
        let mlp = Mlp::new(&cfg, &mut rng);
        assert_eq!(mlp.layers.len(), 3);
        assert_eq!(mlp.input_dim(), 6);
        assert_eq!(mlp.output_dim(), 3);
        assert_eq!(mlp.n_params(), 6 * 16 + 16 + 16 * 8 + 8 + 8 * 3 + 3);
        let x = Matrix::zeros(4, 6);
        assert_eq!(mlp.infer(&x).cols(), 3);
    }

    #[test]
    fn forward_and_infer_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = MlpConfig::relu(4, vec![8], 2);
        let mut mlp = Mlp::new(&cfg, &mut rng);
        let x = Matrix::randn(5, 4, 1.0, &mut rng);
        assert_eq!(mlp.forward(&x), mlp.infer(&x));
    }

    #[test]
    fn learns_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = MlpConfig::relu(2, vec![16], 1);
        let mut mlp = Mlp::new(&cfg, &mut rng);
        let mut adam = Adam::new(AdamConfig::default());

        // y = 3 x0 - 2 x1 + 1
        let x = Matrix::randn(256, 2, 1.0, &mut rng);
        let y = Matrix::from_vec(
            256,
            1,
            x.data()
                .chunks(2)
                .map(|r| 3.0 * r[0] - 2.0 * r[1] + 1.0)
                .collect(),
        );

        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for epoch in 0..300 {
            let out = mlp.forward(&x);
            let (loss, grad) = mse_loss(&out, &y);
            if epoch == 0 {
                first_loss = loss;
            }
            last_loss = loss;
            mlp.backward(&grad);
            mlp.apply_gradients(&mut adam, 0, 1e-2);
        }
        assert!(
            last_loss < first_loss * 0.05,
            "loss did not drop: {first_loss} -> {last_loss}"
        );
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let mut rng = StdRng::seed_from_u64(11);
        for hidden in [vec![], vec![8], vec![8, 6], vec![8, 6, 5]] {
            let cfg = MlpConfig::relu(4, hidden, 3);
            let mut mlp = Mlp::new(&cfg, &mut rng);
            let x = Matrix::randn(7, 4, 1.0, &mut rng);
            let expect = mlp.infer(&x);
            // Dirty, wrong-shaped buffers must be fixed up by the _into calls.
            let mut out = Matrix::randn(2, 9, 1.0, &mut rng);
            let mut scratch = Matrix::randn(3, 1, 1.0, &mut rng);
            mlp.infer_into(&x, &mut out, &mut scratch);
            assert_eq!(out, expect);
            mlp.forward_into(&x, &mut out);
            assert_eq!(out, expect);
            // Reuse on a second batch must stay clean.
            let x2 = Matrix::randn(5, 4, 1.0, &mut rng);
            mlp.forward_into(&x2, &mut out);
            assert_eq!(out, mlp.infer(&x2));
        }
    }

    #[test]
    fn f32_mlp_tracks_f64_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(21);
        for hidden in [vec![], vec![16], vec![32, 24]] {
            let cfg = MlpConfig::relu(10, hidden, 6);
            let mlp = Mlp::new(&cfg, &mut rng);
            let mlp32 = mlp.to_f32();
            assert_eq!(mlp32.input_dim(), 10);
            assert_eq!(mlp32.output_dim(), 6);
            let x = Matrix::randn(9, 10, 1.0, &mut rng);
            let x32 = Matrix32::from_f64(&x);
            let want = mlp.infer(&x);
            let got = mlp32.infer(&x32);
            for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
                assert!(
                    (g as f64 - w).abs() <= 1e-3 * (1.0 + w.abs()),
                    "element {i}: f32 {g} vs f64 {w}"
                );
            }
            // Dirty, wrong-shaped buffers must be fixed up by infer_into,
            // and the f32 path must be byte-deterministic.
            let mut out = Matrix32::zeros(2, 3);
            let mut scratch = Matrix32::zeros(1, 1);
            mlp32.infer_into(&x32, &mut out, &mut scratch);
            assert_eq!(out, got);
        }
    }

    #[test]
    fn backward_params_only_matches_full_backward_gradients() {
        let mut rng = StdRng::seed_from_u64(12);
        let cfg = MlpConfig::relu(5, vec![9, 7], 2);
        let mut full = Mlp::new(&cfg, &mut rng);
        let mut params_only = full.clone();
        let x = Matrix::randn(6, 5, 1.0, &mut rng);
        let grad_out = Matrix::randn(6, 2, 1.0, &mut rng);

        let a = full.forward(&x);
        let b = params_only.forward(&x);
        assert_eq!(a, b);
        full.backward(&grad_out);
        params_only.backward_params_only(&grad_out);
        for (lf, lp) in full.layers.iter().zip(&params_only.layers) {
            assert_eq!(lf.grad_weights, lp.grad_weights);
            assert_eq!(lf.grad_bias, lp.grad_bias);
        }
        assert_eq!(full.grad_norm(), params_only.grad_norm());
    }

    #[test]
    fn released_training_buffers_regrow_with_the_same_results() {
        let mut rng = StdRng::seed_from_u64(14);
        let cfg = MlpConfig::relu(5, vec![9, 7], 3);
        let mut kept = Mlp::new(&cfg, &mut rng);
        let x = Matrix::randn(6, 5, 1.0, &mut rng);
        let grad_out = Matrix::randn(6, 3, 1.0, &mut rng);
        kept.forward(&x);
        kept.backward(&grad_out);
        let mut released = kept.clone();
        released.release_training_buffers();
        assert!(released.scratch_acts.is_empty());
        let a = kept.forward(&x);
        let b = released.forward(&x);
        assert_eq!(a, b);
        assert_eq!(kept.backward(&grad_out), released.backward(&grad_out));
        for (lk, lr) in kept.layers.iter().zip(&released.layers) {
            assert_eq!(lk.grad_weights, lr.grad_weights);
            assert_eq!(lk.grad_bias, lr.grad_bias);
        }
    }

    #[test]
    fn gradient_clipping_bounds_norm() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = MlpConfig::relu(3, vec![8], 2);
        let mut mlp = Mlp::new(&cfg, &mut rng);
        let x = Matrix::randn(16, 3, 10.0, &mut rng);
        let out = mlp.forward(&x);
        mlp.backward(&out.scale(100.0));
        assert!(mlp.grad_norm() > 1.0);
        mlp.clip_gradients(1.0);
        assert!(mlp.grad_norm() <= 1.0 + 1e-9);
    }
}
