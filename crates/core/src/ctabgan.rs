//! CTABGAN+-style conditional GAN for mixed-type tabular data.
//!
//! A generator MLP maps latent noise (concatenated with a conditional one-hot
//! vector selecting a category of a randomly chosen discrete column, the
//! "training-by-sampling" trick of the CTGAN family) to an encoded row; a
//! discriminator MLP scores rows as real or synthetic. Both are trained with
//! the standard non-saturating GAN objective on binary cross-entropy.
//! Categorical blocks of the generator output go through a per-block softmax
//! so the discriminator always sees valid simplex blocks.
//!
//! The discriminator update is a **fused double-step**: the real batch and
//! the generated batch are stacked into one `2·batch`-row matrix (written
//! into a persistent buffer with `Matrix::paste`) and scored in a single
//! forward/backward pass with a single Adam step on the summed objective,
//! instead of two sequential half-updates. The backward pass uses
//! `Mlp::backward_params_only`, which skips the first layer's
//! input-gradient matmul — the widest product of the pass — because the
//! discriminator update never consumes `dL/d(input)`; the generator update
//! skips it too, since nothing reads the gradient of the generator's noise
//! and condition input.

use nn::{bce_with_logits, standard_normal_fill, Adam, CosineDecay, Matrix, Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tabular::{FeatureKind, Table};

use crate::codec::TableCodec;
use crate::fault::FitControl;
use crate::mixed::{mixed_activation_assign, mixed_activation_backward, mixed_activation_into};
use crate::traits::{SampleSpec, SurrogateError, TabularGenerator};

/// CTABGAN+ hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CtabGanConfig {
    /// Latent noise dimensionality.
    pub latent_dim: usize,
    /// Hidden widths of the generator.
    pub generator_hidden: Vec<usize>,
    /// Hidden widths of the discriminator.
    pub discriminator_hidden: Vec<usize>,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Peak learning rate (cosine-decayed).
    pub learning_rate: f64,
    /// Number of discriminator updates per generator update.
    pub discriminator_steps: usize,
    /// Use the conditional (training-by-sampling) vector.
    pub conditional: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CtabGanConfig {
    fn default() -> Self {
        Self {
            latent_dim: 32,
            generator_hidden: vec![128, 128],
            discriminator_hidden: vec![128, 64],
            epochs: 60,
            batch_size: 256,
            learning_rate: 2e-4,
            discriminator_steps: 1,
            conditional: true,
            seed: 13,
        }
    }
}

impl CtabGanConfig {
    /// Small configuration for unit tests.
    pub fn fast() -> Self {
        Self {
            latent_dim: 8,
            generator_hidden: vec![32],
            discriminator_hidden: vec![32],
            epochs: 20,
            batch_size: 64,
            learning_rate: 2e-3,
            ..Default::default()
        }
    }
}

/// The CTABGAN+ surrogate model.
///
/// Serializable in full (config, fitted codec/generator state, conditioning
/// marginals, loss history) so a fitted model checkpoints and reloads with
/// byte-identical sampling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CtabGan {
    config: CtabGanConfig,
    codec: Option<TableCodec>,
    generator: Option<Mlp>,
    /// Index of the categorical span used for conditioning plus the marginal
    /// distribution of its categories in the training data.
    condition: Option<(usize, Vec<f64>)>,
    /// Generator / discriminator loss per epoch, for diagnostics.
    pub loss_history: Vec<(f64, f64)>,
}

impl CtabGan {
    /// New, unfitted model.
    pub fn new(config: CtabGanConfig) -> Self {
        Self {
            config,
            codec: None,
            generator: None,
            condition: None,
            loss_history: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CtabGanConfig {
        &self.config
    }

    /// Width of the conditional vector (0 when conditioning is disabled or no
    /// categorical column exists).
    fn cond_width(&self, codec: &TableCodec) -> usize {
        match &self.condition {
            Some((span_idx, _)) => codec.spans()[*span_idx].width,
            None => 0,
        }
    }

    /// Sample a batch of conditional one-hot vectors from the training
    /// marginal into a caller-owned buffer, so the training and sampling
    /// loops draw conditions without allocating.
    fn sample_condition_into<R: Rng>(
        &self,
        codec: &TableCodec,
        rows: usize,
        rng: &mut R,
        out: &mut Matrix,
    ) {
        let Some((span_idx, marginal)) = &self.condition else {
            out.resize_zeroed(rows, 0);
            return;
        };
        let width = codec.spans()[*span_idx].width;
        out.resize_zeroed(rows, width);
        for r in 0..rows {
            let mut u: f64 = rng.gen_range(0.0..1.0);
            let mut chosen = width - 1;
            for (i, &p) in marginal.iter().enumerate() {
                if u < p {
                    chosen = i;
                    break;
                }
                u -= p;
            }
            out.set(r, chosen, 1.0);
        }
    }

    /// The fitted codec and generator. A hand-edited checkpoint can hold
    /// the codec without the generator, so a missing half is
    /// [`SurrogateError::NotFitted`], not a panic.
    fn fitted(&self) -> Result<(&TableCodec, &Mlp), SurrogateError> {
        self.codec
            .as_ref()
            .zip(self.generator.as_ref())
            .ok_or(SurrogateError::NotFitted("CTABGAN+"))
    }
}

impl TabularGenerator for CtabGan {
    fn name(&self) -> &'static str {
        "CTABGAN+"
    }

    fn fit_with_control(
        &mut self,
        train: &Table,
        control: &FitControl,
    ) -> Result<(), SurrogateError> {
        let codec = TableCodec::fit(train)?;
        let data = codec.encode(train)?;
        let width = codec.encoded_width();
        let cfg = self.config.clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Choose the conditioning column: the categorical span with the
        // largest cardinality (most informative condition).
        self.condition = if cfg.conditional {
            codec
                .spans()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.kind == FeatureKind::Categorical)
                .max_by_key(|(_, s)| s.width)
                .map(|(idx, span)| {
                    let mut marginal = vec![0.0; span.width];
                    for r in 0..data.rows() {
                        let block = &data.row(r)[span.start..span.start + span.width];
                        if let Some(code) = block.iter().position(|&v| v > 0.5) {
                            marginal[code] += 1.0;
                        }
                    }
                    let total: f64 = marginal.iter().sum::<f64>().max(1.0);
                    for m in &mut marginal {
                        *m /= total;
                    }
                    (idx, marginal)
                })
        } else {
            None
        };
        let cond_width = self.cond_width(&codec);

        let mut generator = Mlp::new(
            &MlpConfig::relu(
                cfg.latent_dim + cond_width,
                cfg.generator_hidden.clone(),
                width,
            ),
            &mut rng,
        );
        let mut discriminator = Mlp::new(
            &MlpConfig::relu(width + cond_width, cfg.discriminator_hidden.clone(), 1),
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

        // Per-batch scratch reused across every step, so the hot loop
        // performs no batch-assembly allocations.
        let mut real_idx = Vec::with_capacity(batch);
        let mut real = Matrix::zeros(batch, width);
        let mut z = Matrix::zeros(batch, cfg.latent_dim);
        let mut cond = Matrix::default();
        let mut g_in = Matrix::default();
        let mut fake_raw = Matrix::default();
        let mut gen_scratch = Matrix::default();
        let mut fake = Matrix::default();
        let mut d_in = Matrix::default();
        let mut logits = Matrix::default();
        // Fused discriminator batch buffer, shaped once: every step's four
        // `paste` calls overwrite all of it, so it is never re-zeroed.
        let mut d_in_fused = Matrix::zeros(2 * batch, width + cond_width);
        // Fused discriminator targets: the top `batch` rows of the combined
        // batch are real (label 1), the bottom `batch` rows fake (label 0).
        let mut d_targets = Matrix::zeros(2 * batch, 1);
        for r in 0..batch {
            d_targets.set(r, 0, 1.0);
        }

        for epoch in 0..cfg.epochs {
            control.check_epoch(epoch)?;
            let mut d_loss_sum = 0.0;
            let mut g_loss_sum = 0.0;
            for _ in 0..steps_per_epoch {
                let lr = schedule.lr_at(step);
                step += 1;

                // ---- Discriminator update(s), fused double-step ----
                //
                // Real and fake halves are assembled into one `2·batch`-row
                // matrix so each update runs a single forward/backward and a
                // single Adam step over the concatenated batch, instead of
                // two passes of `batch` rows (one fused gradient step on
                // `loss_real + loss_fake` rather than two sequential ones —
                // the standard formulation of the GAN discriminator
                // objective). The backward pass skips the first layer's
                // input-gradient product entirely, since nothing consumes
                // `dL/d(input)` here.
                for _ in 0..cfg.discriminator_steps {
                    real_idx.clear();
                    real_idx.extend((0..batch).map(|_| rng.gen_range(0..n)));
                    data.take_rows_into(&real_idx, &mut real);
                    self.sample_condition_into(&codec, batch, &mut rng, &mut cond);

                    z.resize_zeroed(batch, cfg.latent_dim);
                    standard_normal_fill(&mut rng, z.data_mut());
                    z.hconcat_into(&cond, &mut g_in);
                    generator.infer_into(&g_in, &mut fake_raw, &mut gen_scratch);
                    mixed_activation_into(codec.spans(), &fake_raw, &mut fake);

                    d_in_fused.paste(0, 0, &real);
                    d_in_fused.paste(batch, 0, &fake);
                    d_in_fused.paste(0, width, &cond);
                    d_in_fused.paste(batch, width, &cond);

                    discriminator.forward_into(&d_in_fused, &mut logits);
                    // `bce_with_logits` averages over the `2·batch` combined
                    // rows; doubling both the gradient and the logged loss
                    // restores the summed `loss_real + loss_fake` objective
                    // (each half a mean over `batch` rows), so the gradient
                    // magnitude reaching the 5.0 clip and Adam keeps the
                    // pre-fusion scale.
                    let (d_loss, mut grad) = bce_with_logits(&logits, &d_targets);
                    grad.scale_assign(2.0);
                    discriminator.backward_params_only(&grad);
                    discriminator.clip_gradients(5.0);
                    discriminator.apply_gradients(&mut adam, 10, lr);

                    d_loss_sum += 2.0 * d_loss;
                }

                // ---- Generator update ----
                self.sample_condition_into(&codec, batch, &mut rng, &mut cond);
                z.resize_zeroed(batch, cfg.latent_dim);
                standard_normal_fill(&mut rng, z.data_mut());
                z.hconcat_into(&cond, &mut g_in);
                generator.forward_into(&g_in, &mut fake_raw);
                mixed_activation_into(codec.spans(), &fake_raw, &mut fake);
                fake.hconcat_into(&cond, &mut d_in);

                discriminator.forward_into(&d_in, &mut logits);
                // Non-saturating generator loss: fool the discriminator.
                let (g_loss, grad_logits) =
                    bce_with_logits(&logits, &Matrix::filled(batch, 1, 1.0));
                g_loss_sum += g_loss;

                // Backprop through the discriminator to its input, keep only
                // the data part (drop the conditional columns), then through
                // the mixed activation into the generator.
                let grad_d_in = discriminator.backward(&grad_logits);
                let grad_fake = grad_d_in.slice_cols(0, width);
                let grad_fake_raw = mixed_activation_backward(codec.spans(), &fake, &grad_fake);
                // Nothing reads the gradient of the noise and condition
                // input, so the generator's first layer skips that product.
                generator.backward_params_only(&grad_fake_raw);
                generator.clip_gradients(5.0);
                generator.apply_gradients(&mut adam, 20, lr);
            }
            let g_mean = g_loss_sum / steps_per_epoch as f64;
            let d_mean = d_loss_sum / (steps_per_epoch * cfg.discriminator_steps.max(1)) as f64;
            if !g_mean.is_finite() || !d_mean.is_finite() {
                return Err(SurrogateError::NonFiniteLoss { epoch });
            }
            self.loss_history.push((g_mean, d_mean));
        }

        generator.release_training_buffers();
        self.codec = Some(codec);
        self.generator = Some(generator);
        Ok(())
    }

    /// The one sampling loop. Per spec, noise then condition come from that
    /// spec's own RNG — the draw order of a standalone `sample` — straight
    /// into its rows of one `[z | cond]` generator input, so the whole batch
    /// is a single packed forward pass. The mixed activation (per-row block
    /// softmax) runs in place and each spec's row range decodes in place;
    /// both are row-wise, so every spec keeps its bytes.
    fn sample_batch(&self, specs: &[SampleSpec]) -> Result<Vec<Table>, SurrogateError> {
        let (codec, generator) = self.fitted()?;
        let latent = self.config.latent_dim;
        let mut g_in = Matrix::zeros(
            SampleSpec::total_rows(specs),
            latent + self.cond_width(codec),
        );
        let mut cond = Matrix::default();
        for (spec, rows) in specs.iter().zip(SampleSpec::row_ranges(specs)) {
            let mut rng = StdRng::seed_from_u64(spec.seed);
            for r in rows.clone() {
                standard_normal_fill(&mut rng, &mut g_in.row_mut(r)[..latent]);
            }
            self.sample_condition_into(codec, spec.rows, &mut rng, &mut cond);
            g_in.paste(rows.start, latent, &cond);
        }
        let mut raw = Matrix::default();
        generator.infer_into(&g_in, &mut raw, &mut Matrix::default());
        mixed_activation_assign(codec.spans(), &mut raw);
        SampleSpec::row_ranges(specs)
            .map(|rows| codec.decode_rows(&raw, rows))
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
            if rng.gen_bool(0.7) {
                values.push(rng.gen_range(1.0..5.0));
                labels.push("BNL");
            } else {
                values.push(rng.gen_range(50.0..60.0));
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
    fn fit_and_sample_schema() {
        let train = toy(200, 1);
        let mut gan = CtabGan::new(CtabGanConfig::fast());
        gan.fit(&train).unwrap();
        let synthetic = gan.sample(40, 9).unwrap();
        assert_eq!(synthetic.n_rows(), 40);
        assert_eq!(synthetic.names(), train.names());
        for r in 0..synthetic.n_rows() {
            assert!(["BNL", "CERN"].contains(&synthetic.label("site", r).unwrap()));
        }
        assert_eq!(gan.loss_history.len(), CtabGanConfig::fast().epochs);
    }

    #[test]
    fn conditional_vector_follows_training_marginal() {
        let train = toy(300, 2);
        let mut gan = CtabGan::new(CtabGanConfig::fast());
        gan.fit(&train).unwrap();
        let (_, marginal) = gan.condition.as_ref().expect("conditioning enabled");
        let sum: f64 = marginal.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // BNL dominates the training data, so its marginal mass must be larger.
        let bnl_share = marginal.iter().cloned().fold(0.0, f64::max);
        assert!(bnl_share > 0.55);
    }

    #[test]
    fn unconditional_mode_works() {
        let train = toy(150, 3);
        let mut gan = CtabGan::new(CtabGanConfig {
            conditional: false,
            ..CtabGanConfig::fast()
        });
        gan.fit(&train).unwrap();
        assert!(gan.condition.is_none());
        assert_eq!(gan.sample(10, 0).unwrap().n_rows(), 10);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let train = toy(120, 4);
        let mut gan = CtabGan::new(CtabGanConfig::fast());
        gan.fit(&train).unwrap();
        assert_eq!(gan.sample(15, 3).unwrap(), gan.sample(15, 3).unwrap());
        assert_ne!(gan.sample(15, 3).unwrap(), gan.sample(15, 4).unwrap());
    }

    #[test]
    fn sample_before_fit_errors() {
        let gan = CtabGan::new(CtabGanConfig::fast());
        assert!(matches!(
            gan.sample(5, 0),
            Err(SurrogateError::NotFitted(_))
        ));
        assert!(matches!(
            gan.sample_batch(&[SampleSpec::new(5, 0)]),
            Err(SurrogateError::NotFitted(_))
        ));
    }

    #[test]
    fn batched_sampling_is_byte_identical_to_unbatched() {
        // Conditional sampling interleaves two draw kinds (noise, then the
        // conditional one-hots) on one RNG stream per spec — the batched
        // path must reproduce that order exactly.
        let train = toy(150, 9);
        let mut gan = CtabGan::new(CtabGanConfig::fast());
        gan.fit(&train).unwrap();
        let specs = [
            SampleSpec::new(13, 2),
            SampleSpec::new(6, 40),
            SampleSpec::new(13, 2),
        ];
        let batched = gan.sample_batch(&specs).unwrap();
        for (spec, table) in specs.iter().zip(&batched) {
            assert_eq!(table, &gan.sample(spec.rows, spec.seed).unwrap());
        }

        // And with conditioning disabled (zero-width condition block).
        let mut plain = CtabGan::new(CtabGanConfig {
            conditional: false,
            ..CtabGanConfig::fast()
        });
        plain.fit(&train).unwrap();
        let batched = plain.sample_batch(&specs).unwrap();
        for (spec, table) in specs.iter().zip(&batched) {
            assert_eq!(table, &plain.sample(spec.rows, spec.seed).unwrap());
        }
    }

    #[test]
    fn budget_cancels_fit_and_nan_lr_is_detected() {
        use crate::fault::CellBudget;
        use std::time::Instant;

        let train = toy(200, 8);
        let mut gan = CtabGan::new(CtabGanConfig::fast());
        let control = CellBudget {
            max_epochs: Some(2),
            wall_clock: None,
        }
        .control_from(Instant::now());
        assert_eq!(
            gan.fit_with_control(&train, &control),
            Err(SurrogateError::BudgetExceeded {
                completed_epochs: 2
            })
        );
        assert_eq!(gan.loss_history.len(), 2);

        let mut diverging = CtabGan::new(CtabGanConfig {
            learning_rate: f64::NAN,
            ..CtabGanConfig::fast()
        });
        assert_eq!(
            diverging.fit(&train),
            Err(SurrogateError::NonFiniteLoss { epoch: 0 })
        );
    }
}
