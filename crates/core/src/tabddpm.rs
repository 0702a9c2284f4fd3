//! TabDDPM: a denoising-diffusion probabilistic model for tabular data.
//!
//! The paper's recommended surrogate. Rows are mapped into the encoded space
//! (quantile-Gaussian numerics + one-hot categoricals); a forward process adds
//! Gaussian noise over `T` steps following a cosine β-schedule; an MLP
//! denoiser conditioned on the (normalised) timestep is trained to predict
//! the injected noise; sampling runs the ancestral reverse process from pure
//! noise and decodes the result.
//!
//! Substitution note: the original TabDDPM uses a multinomial diffusion for
//! the categorical blocks; here both numerical and one-hot blocks share the
//! Gaussian diffusion and categories are recovered by arg-max at decode
//! time. At the scale of this reproduction the Gaussian treatment preserves
//! the model's qualitative behaviour (high fidelity, non-trivial distance
//! from training records).

use nn::{mse_loss, standard_normal_fill, Adam, CosineDecay, Matrix, Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tabular::Table;

use tabular::FeatureKind;

use crate::codec::{ColumnSpan, TableCodec};
use crate::fault::FitControl;
use crate::traits::{SampleSpec, SurrogateError, TabularGenerator};

/// TabDDPM hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TabDdpmConfig {
    /// Number of diffusion timesteps `T`.
    pub timesteps: usize,
    /// Hidden widths of the denoiser MLP.
    pub hidden: Vec<usize>,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Peak learning rate (cosine-decayed).
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TabDdpmConfig {
    fn default() -> Self {
        Self {
            timesteps: 100,
            hidden: vec![256, 256],
            epochs: 80,
            batch_size: 256,
            learning_rate: 2e-4,
            seed: 17,
        }
    }
}

impl TabDdpmConfig {
    /// Small configuration for unit tests.
    pub fn fast() -> Self {
        Self {
            timesteps: 20,
            hidden: vec![64],
            epochs: 60,
            batch_size: 64,
            learning_rate: 2e-3,
            ..Default::default()
        }
    }
}

/// Rescale one-hot blocks from `{0, 1}` to `{-1, +1}` so the categorical
/// signal has the same scale as the quantile-normalised numerics and is not
/// drowned out by the Gaussian noise. Arg-max decoding is invariant to this
/// affine map, so no inverse is needed before decoding.
fn center_categorical_blocks(data: &mut Matrix, spans: &[ColumnSpan]) {
    for span in spans {
        if span.kind != FeatureKind::Categorical {
            continue;
        }
        for r in 0..data.rows() {
            for c in span.start..span.start + span.width {
                let v = data.get(r, c);
                data.set(r, c, 2.0 * v - 1.0);
            }
        }
    }
}

/// Cosine β-schedule (Nichol & Dhariwal) producing per-step ᾱ values.
fn cosine_alpha_bar(timesteps: usize) -> Vec<f64> {
    let s = 0.008;
    let f = |t: f64| {
        ((t / timesteps as f64 + s) / (1.0 + s) * std::f64::consts::FRAC_PI_2)
            .cos()
            .powi(2)
    };
    let f0 = f(0.0);
    (1..=timesteps)
        .map(|t| (f(t as f64) / f0).clamp(1e-5, 0.9999))
        .collect()
}

/// The TabDDPM surrogate model.
///
/// Serializable in full — config, fitted codec/denoiser state, the noise
/// schedule and the loss history all round-trip — so a fitted model can be
/// persisted as a [`crate::checkpoint::Checkpoint`] and sampled later with
/// byte-identical output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TabDdpm {
    config: TabDdpmConfig,
    codec: Option<TableCodec>,
    denoiser: Option<Mlp>,
    alpha_bar: Vec<f64>,
    /// Mean training loss per epoch, for diagnostics.
    pub loss_history: Vec<f64>,
}

impl TabDdpm {
    /// New, unfitted model.
    pub fn new(config: TabDdpmConfig) -> Self {
        let alpha_bar = cosine_alpha_bar(config.timesteps);
        Self {
            config,
            codec: None,
            denoiser: None,
            alpha_bar,
            loss_history: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TabDdpmConfig {
        &self.config
    }

    /// Write the two timestep-embedding features (normalised t and a
    /// sinusoidal phase) into `dst`. The single definition shared by the
    /// fused training loop and the sampling loop, so training and sampling
    /// can never feed the denoiser different embeddings.
    #[inline]
    fn write_time_embedding(t_frac: f64, dst: &mut [f64]) {
        dst[0] = t_frac;
        dst[1] = (t_frac * std::f64::consts::PI).sin();
    }

    /// The fitted codec and denoiser. A hand-edited checkpoint can hold the
    /// codec without the denoiser, so a missing half is
    /// [`SurrogateError::NotFitted`], not a panic.
    fn fitted(&self) -> Result<(&TableCodec, &Mlp), SurrogateError> {
        self.codec
            .as_ref()
            .zip(self.denoiser.as_ref())
            .ok_or(SurrogateError::NotFitted("TabDDPM"))
    }
}

impl TabularGenerator for TabDdpm {
    fn name(&self) -> &'static str {
        "TabDDPM"
    }

    fn fit_with_control(
        &mut self,
        train: &Table,
        control: &FitControl,
    ) -> Result<(), SurrogateError> {
        let codec = TableCodec::fit(train)?;
        let mut data = codec.encode(train)?;
        center_categorical_blocks(&mut data, codec.spans());
        let width = codec.encoded_width();
        let cfg = self.config.clone();
        let timesteps = cfg.timesteps;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let mut denoiser = Mlp::new(
            &MlpConfig::relu(width + 2, cfg.hidden.clone(), width),
            &mut rng,
        );
        let mut adam = Adam::default();

        let n = data.rows();
        let batch = cfg.batch_size.min(n).max(1);
        let steps_per_epoch = n.div_ceil(batch);
        let schedule = CosineDecay {
            base_lr: cfg.learning_rate,
            min_lr: cfg.learning_rate * 0.01,
            total_steps: cfg.epochs * steps_per_epoch,
        };

        let mut step = 0usize;
        self.loss_history.clear();

        // Per-batch scratch reused across every step of every epoch, so the
        // hot loop performs no batch-assembly allocations: indices, clean
        // rows, noise, and the denoiser input (noisy rows + the two timestep
        // embedding columns, assembled in one fused pass).
        let mut idx = Vec::with_capacity(batch);
        let mut ts = Vec::with_capacity(batch);
        let mut x0 = Matrix::zeros(batch, width);
        let mut noise = Matrix::zeros(batch, width);
        let mut input = Matrix::zeros(batch, width + 2);
        let mut predicted = Matrix::default();

        for epoch in 0..cfg.epochs {
            control.check_epoch(epoch)?;
            let mut epoch_loss = 0.0;
            for _ in 0..steps_per_epoch {
                let lr = schedule.lr_at(step);
                step += 1;

                idx.clear();
                idx.extend((0..batch).map(|_| rng.gen_range(0..n)));
                data.take_rows_into(&idx, &mut x0);

                // Per-row timestep and noise.
                ts.clear();
                ts.extend((0..batch).map(|_| rng.gen_range(0..timesteps)));
                noise.resize_zeroed(batch, width);
                standard_normal_fill(&mut rng, noise.data_mut());

                // x_t = sqrt(ᾱ_t) x0 + sqrt(1 - ᾱ_t) ε, written straight
                // into the denoiser input next to the timestep embedding.
                for (r, &t) in ts.iter().enumerate() {
                    let ab = self.alpha_bar[t];
                    let (sa, sb) = (ab.sqrt(), (1.0 - ab).sqrt());
                    let t_frac = (t + 1) as f64 / timesteps as f64;
                    let in_row = input.row_mut(r);
                    for ((o, &x), &z) in in_row[..width].iter_mut().zip(x0.row(r)).zip(noise.row(r))
                    {
                        *o = sa * x + sb * z;
                    }
                    Self::write_time_embedding(t_frac, &mut in_row[width..]);
                }

                denoiser.forward_into(&input, &mut predicted);
                let (loss, grad) = mse_loss(&predicted, &noise);
                epoch_loss += loss;
                // Nothing reads the gradient of the noisy input, so the
                // first layer skips that product.
                denoiser.backward_params_only(&grad);
                denoiser.clip_gradients(5.0);
                denoiser.apply_gradients(&mut adam, 0, lr);
            }
            let mean_loss = epoch_loss / steps_per_epoch as f64;
            if !mean_loss.is_finite() {
                return Err(SurrogateError::NonFiniteLoss { epoch });
            }
            self.loss_history.push(mean_loss);
        }

        denoiser.release_training_buffers();
        self.codec = Some(codec);
        self.denoiser = Some(denoiser);
        Ok(())
    }

    /// The one sampling loop: the ancestral reverse process for every spec
    /// at once. Each spec's RNG stream draws, in a standalone `sample`'s
    /// order, its initial latents and then its noise block at every reverse
    /// step, straight into its rows of one stacked state, so each of the
    /// `T` denoiser forward passes is a single packed-kernel call for the
    /// whole batch over reused buffers. The posterior-mean update is per
    /// element, so every spec's rows stay the bytes of sampling it alone.
    fn sample_batch(&self, specs: &[SampleSpec]) -> Result<Vec<Table>, SurrogateError> {
        let (codec, denoiser) = self.fitted()?;
        let width = codec.encoded_width();
        let timesteps = self.config.timesteps;
        let total = SampleSpec::total_rows(specs);

        // Reconstruct the per-step α from ᾱ.
        let mut alphas = Vec::with_capacity(timesteps);
        for t in 0..timesteps {
            let prev = if t == 0 { 1.0 } else { self.alpha_bar[t - 1] };
            alphas.push((self.alpha_bar[t] / prev).clamp(1e-5, 0.9999));
        }

        let mut rngs: Vec<StdRng> = specs
            .iter()
            .map(|s| StdRng::seed_from_u64(s.seed))
            .collect();
        // The state lives in the first `width` columns of the denoiser
        // input, beside the two timestep-embedding columns, so no step
        // copies it.
        let mut input = Matrix::zeros(total, width + 2);
        for (rng, rows) in rngs.iter_mut().zip(SampleSpec::row_ranges(specs)) {
            for r in rows {
                standard_normal_fill(rng, &mut input.row_mut(r)[..width]);
            }
        }
        let mut eps_hat = Matrix::default();
        let mut scratch = Matrix::default();
        let mut noise = vec![0.0; width];
        for t in (0..timesteps).rev() {
            let mut emb = [0.0f64; 2];
            Self::write_time_embedding((t + 1) as f64 / timesteps as f64, &mut emb);
            for r in 0..total {
                input.row_mut(r)[width..].copy_from_slice(&emb);
            }
            denoiser.infer_into(&input, &mut eps_hat, &mut scratch);

            // Posterior mean, then (before the last step) the spec's next
            // noise row, drawn into a scratch row while the state row is hot.
            let alpha = alphas[t];
            let alpha_bar = self.alpha_bar[t];
            let coef = (1.0 - alpha) / (1.0 - alpha_bar).sqrt();
            let sqrt_alpha = alpha.sqrt();
            let sigma = (t > 0).then(|| {
                ((1.0 - alphas[t]) * (1.0 - self.alpha_bar[t - 1]) / (1.0 - alpha_bar))
                    .max(0.0)
                    .sqrt()
            });
            for (rng, rows) in rngs.iter_mut().zip(SampleSpec::row_ranges(specs)) {
                for r in rows {
                    let state = &mut input.row_mut(r)[..width];
                    for (xv, &e) in state.iter_mut().zip(eps_hat.row(r)) {
                        *xv = (*xv - coef * e) / sqrt_alpha;
                    }
                    if let Some(sigma) = sigma {
                        standard_normal_fill(rng, &mut noise);
                        for (xv, &z) in state.iter_mut().zip(&noise) {
                            *xv += z * sigma;
                        }
                    }
                }
            }
        }
        let x = input.slice_cols(0, width);
        SampleSpec::row_ranges(specs)
            .map(|rows| codec.decode_rows(&x, rows))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Column;

    fn toy(n: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            if rng.gen_bool(0.65) {
                values.push(rng.gen_range(1.0..10.0));
                labels.push("BNL");
            } else {
                values.push(rng.gen_range(80.0..120.0));
                labels.push("CERN");
            }
        }
        let mut t = Table::new();
        t.push_column("workload", Column::Numerical(values))
            .unwrap();
        t.push_column("site", Column::from_labels(&labels)).unwrap();
        t
    }

    #[test]
    fn alpha_bar_schedule_is_monotone_decreasing() {
        let ab = cosine_alpha_bar(50);
        assert_eq!(ab.len(), 50);
        for w in ab.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!(ab[0] > 0.9);
        assert!(*ab.last().unwrap() < 0.05);
    }

    #[test]
    fn training_loss_decreases() {
        let train = toy(300, 1);
        let mut model = TabDdpm::new(TabDdpmConfig::fast());
        model.fit(&train).unwrap();
        let first = model.loss_history.first().copied().unwrap();
        let last = model.loss_history.last().copied().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        // Predicting unit-variance noise from scratch has loss ≈ 1; a trained
        // model must do clearly better.
        assert!(last < 0.95, "final loss {last}");
    }

    #[test]
    fn samples_have_training_schema() {
        let train = toy(250, 2);
        let mut model = TabDdpm::new(TabDdpmConfig::fast());
        model.fit(&train).unwrap();
        let synthetic = model.sample(60, 0).unwrap();
        assert_eq!(synthetic.n_rows(), 60);
        assert_eq!(synthetic.names(), train.names());
        let mut bnl = 0;
        for r in 0..synthetic.n_rows() {
            let label = synthetic.label("site", r).unwrap();
            assert!(["BNL", "CERN"].contains(&label));
            if label == "BNL" {
                bnl += 1;
            }
        }
        // The dominant category should stay dominant in the synthetic data.
        assert!(bnl > 20, "bnl share collapsed: {bnl}/60");
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let train = toy(150, 3);
        let mut model = TabDdpm::new(TabDdpmConfig::fast());
        model.fit(&train).unwrap();
        assert_eq!(model.sample(10, 4).unwrap(), model.sample(10, 4).unwrap());
        assert_ne!(model.sample(10, 4).unwrap(), model.sample(10, 5).unwrap());
    }

    #[test]
    fn sample_before_fit_errors() {
        let model = TabDdpm::new(TabDdpmConfig::fast());
        assert!(matches!(
            model.sample(5, 0),
            Err(SurrogateError::NotFitted(_))
        ));
        assert!(matches!(
            model.sample_batch(&[SampleSpec::new(5, 0)]),
            Err(SurrogateError::NotFitted(_))
        ));
    }

    #[test]
    fn batched_sampling_is_byte_identical_to_unbatched() {
        // The hardest case for the identity contract: every one of the T
        // reverse steps interleaves a shared batched forward pass with
        // per-spec ancestral noise draws.
        let train = toy(150, 11);
        let mut model = TabDdpm::new(TabDdpmConfig::fast());
        model.fit(&train).unwrap();
        let specs = [
            SampleSpec::new(5, 21),
            SampleSpec::new(12, 4),
            SampleSpec::new(5, 21),
        ];
        let batched = model.sample_batch(&specs).unwrap();
        assert_eq!(batched.len(), specs.len());
        for (spec, table) in specs.iter().zip(&batched) {
            assert_eq!(table, &model.sample(spec.rows, spec.seed).unwrap());
        }
    }

    #[test]
    fn budget_cancels_fit_and_nan_lr_is_detected() {
        use crate::fault::CellBudget;
        use std::time::Instant;

        let train = toy(200, 7);
        let mut model = TabDdpm::new(TabDdpmConfig::fast());
        let control = CellBudget {
            max_epochs: Some(1),
            wall_clock: None,
        }
        .control_from(Instant::now());
        assert_eq!(
            model.fit_with_control(&train, &control),
            Err(SurrogateError::BudgetExceeded {
                completed_epochs: 1
            })
        );
        assert_eq!(model.loss_history.len(), 1);

        let mut diverging = TabDdpm::new(TabDdpmConfig {
            learning_rate: f64::NAN,
            ..TabDdpmConfig::fast()
        });
        assert_eq!(
            diverging.fit(&train),
            Err(SurrogateError::NonFiniteLoss { epoch: 0 })
        );
    }
}
