//! TVAE: a variational autoencoder for mixed-type tabular data.
//!
//! The encoder maps an encoded row to the mean and log-variance of a Gaussian
//! latent code; the decoder maps a reparameterised latent sample back to the
//! encoded space. Training minimises the mixed reconstruction loss plus the
//! KL divergence to the standard normal prior (§IV-A of the paper). Sampling
//! draws latents from the prior and decodes them.

use nn::{gaussian_kl, standard_normal_fill, Adam, CosineDecay, Matrix, Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tabular::Table;

use crate::codec::TableCodec;
use crate::fault::FitControl;
use crate::mixed::mixed_reconstruction_loss;
use crate::traits::{SampleSpec, SurrogateError, TabularGenerator};

/// TVAE hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TvaeConfig {
    /// Latent dimensionality.
    pub latent_dim: usize,
    /// Hidden widths of encoder and decoder.
    pub hidden: Vec<usize>,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Peak learning rate (cosine-decayed, as in the paper).
    pub learning_rate: f64,
    /// Weight of the KL term.
    pub kl_weight: f64,
    /// RNG seed for initialisation and batching.
    pub seed: u64,
}

impl Default for TvaeConfig {
    fn default() -> Self {
        Self {
            latent_dim: 16,
            hidden: vec![128, 128],
            epochs: 60,
            batch_size: 256,
            learning_rate: 2e-4,
            kl_weight: 1.0,
            seed: 11,
        }
    }
}

impl TvaeConfig {
    /// Small configuration for unit tests.
    pub fn fast() -> Self {
        Self {
            latent_dim: 4,
            hidden: vec![32],
            epochs: 30,
            batch_size: 64,
            learning_rate: 5e-3,
            ..Default::default()
        }
    }
}

/// The TVAE surrogate model.
///
/// Serializable in full (config, fitted codec/encoder/decoder state, loss
/// history) so a fitted model checkpoints and reloads with byte-identical
/// sampling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tvae {
    config: TvaeConfig,
    codec: Option<TableCodec>,
    encoder: Option<Mlp>,
    decoder: Option<Mlp>,
    /// Mean training loss per epoch, for diagnostics.
    pub loss_history: Vec<f64>,
}

impl Tvae {
    /// New, unfitted model.
    pub fn new(config: TvaeConfig) -> Self {
        Self {
            config,
            codec: None,
            encoder: None,
            decoder: None,
            loss_history: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TvaeConfig {
        &self.config
    }

    /// The fitted codec and decoder. A hand-edited checkpoint can hold the
    /// codec without the decoder, so a missing half is
    /// [`SurrogateError::NotFitted`], not a panic.
    fn fitted(&self) -> Result<(&TableCodec, &Mlp), SurrogateError> {
        self.codec
            .as_ref()
            .zip(self.decoder.as_ref())
            .ok_or(SurrogateError::NotFitted("TVAE"))
    }
}

impl TabularGenerator for Tvae {
    fn name(&self) -> &'static str {
        "TVAE"
    }

    fn fit_with_control(
        &mut self,
        train: &Table,
        control: &FitControl,
    ) -> Result<(), SurrogateError> {
        let codec = TableCodec::fit(train)?;
        let data = codec.encode(train)?;
        let width = codec.encoded_width();
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let mut encoder = Mlp::new(
            &MlpConfig::relu(width, cfg.hidden.clone(), 2 * cfg.latent_dim),
            &mut rng,
        );
        let mut decoder = Mlp::new(
            &MlpConfig::relu(cfg.latent_dim, cfg.hidden.clone(), width),
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

        let mut indices: Vec<usize> = (0..n).collect();
        let mut step = 0usize;
        self.loss_history.clear();

        // Batch and noise buffers reused across steps (the final chunk of an
        // epoch may be short; `take_rows_into` and `resize_zeroed` reshape
        // without reallocating).
        let mut x = Matrix::zeros(batch, width);
        let mut eps = Matrix::zeros(batch, cfg.latent_dim);
        let mut enc_out = Matrix::default();
        let mut recon = Matrix::default();

        for epoch in 0..cfg.epochs {
            control.check_epoch(epoch)?;
            indices.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for chunk in indices.chunks(batch) {
                data.take_rows_into(chunk, &mut x);
                let lr = schedule.lr_at(step);
                step += 1;

                // Encode to (mu, logvar).
                encoder.forward_into(&x, &mut enc_out);
                let mu = enc_out.slice_cols(0, cfg.latent_dim);
                let logvar = enc_out
                    .slice_cols(cfg.latent_dim, 2 * cfg.latent_dim)
                    .map(|v| v.clamp(-8.0, 8.0));

                // Reparameterise (noise buffer reused across steps).
                eps.resize_zeroed(x.rows(), cfg.latent_dim);
                standard_normal_fill(&mut rng, eps.data_mut());
                let std = logvar.map(|v| (0.5 * v).exp());
                let z = mu.add(&eps.mul(&std));

                // Decode and compute losses.
                decoder.forward_into(&z, &mut recon);
                let (recon_loss, grad_recon) = mixed_reconstruction_loss(codec.spans(), &recon, &x);
                let (kl_loss, grad_kl_mu, grad_kl_logvar) = gaussian_kl(&mu, &logvar);
                epoch_loss += recon_loss + cfg.kl_weight * kl_loss;

                // Backprop through the decoder to the latent.
                let grad_z = decoder.backward(&grad_recon);

                // Gradients w.r.t. mu and logvar.
                let grad_mu = grad_z.add(&grad_kl_mu.scale(cfg.kl_weight));
                let grad_logvar_from_z = grad_z.mul(&eps).mul(&std).scale(0.5);
                let grad_logvar = grad_logvar_from_z.add(&grad_kl_logvar.scale(cfg.kl_weight));

                // Backprop through the encoder; nothing reads the gradient
                // of the data batch, so its first layer skips that product.
                let grad_enc_out = grad_mu.hconcat(&grad_logvar);
                encoder.backward_params_only(&grad_enc_out);

                encoder.clip_gradients(5.0);
                decoder.clip_gradients(5.0);
                encoder.apply_gradients(&mut adam, 0, lr);
                decoder.apply_gradients(&mut adam, 1, lr);
            }
            let mean_loss = epoch_loss / steps_per_epoch as f64;
            if !mean_loss.is_finite() {
                return Err(SurrogateError::NonFiniteLoss { epoch });
            }
            self.loss_history.push(mean_loss);
        }

        encoder.release_training_buffers();
        decoder.release_training_buffers();
        self.codec = Some(codec);
        self.encoder = Some(encoder);
        self.decoder = Some(decoder);
        Ok(())
    }

    /// The one sampling loop. Each spec's latents come from its own RNG
    /// stream, drawn straight into its rows of one stacked block, so the
    /// decoder runs a single packed forward pass for the whole batch; each
    /// spec's row range then decodes in place. Row-independent kernels make
    /// the stacking invisible to every spec.
    fn sample_batch(&self, specs: &[SampleSpec]) -> Result<Vec<Table>, SurrogateError> {
        let (codec, decoder) = self.fitted()?;
        let latent = self.config.latent_dim;
        let mut z = Matrix::zeros(SampleSpec::total_rows(specs), latent);
        for (spec, rows) in specs.iter().zip(SampleSpec::row_ranges(specs)) {
            let block = &mut z.data_mut()[rows.start * latent..rows.end * latent];
            standard_normal_fill(&mut StdRng::seed_from_u64(spec.seed), block);
        }
        let mut raw = Matrix::default();
        decoder.infer_into(&z, &mut raw, &mut Matrix::default());
        SampleSpec::row_ranges(specs)
            .map(|rows| codec.decode_rows(&raw, rows))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tabular::Column;

    fn toy(n: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            // Two clusters: (small workload, "BNL") and (large workload, "CERN").
            if rng.gen_bool(0.6) {
                values.push(rng.gen_range(1.0..10.0));
                labels.push("BNL");
            } else {
                values.push(rng.gen_range(100.0..200.0));
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
    fn training_loss_decreases() {
        let train = toy(300, 1);
        let mut model = Tvae::new(TvaeConfig::fast());
        model.fit(&train).unwrap();
        let first = model.loss_history.first().copied().unwrap();
        let last = model.loss_history.last().copied().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn samples_have_training_schema_and_vocabulary() {
        let train = toy(200, 2);
        let mut model = Tvae::new(TvaeConfig::fast());
        model.fit(&train).unwrap();
        let synthetic = model.sample(50, 0).unwrap();
        assert_eq!(synthetic.n_rows(), 50);
        assert_eq!(synthetic.names(), train.names());
        for r in 0..synthetic.n_rows() {
            assert!(["BNL", "CERN"].contains(&synthetic.label("site", r).unwrap()));
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let train = toy(150, 3);
        let mut model = Tvae::new(TvaeConfig::fast());
        model.fit(&train).unwrap();
        assert_eq!(model.sample(20, 5).unwrap(), model.sample(20, 5).unwrap());
    }

    #[test]
    fn sample_before_fit_errors() {
        let model = Tvae::new(TvaeConfig::fast());
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
        let train = toy(150, 8);
        let mut model = Tvae::new(TvaeConfig::fast());
        model.fit(&train).unwrap();
        // Mixed row counts and seeds, including a duplicate seed and a
        // total (7+9+7 = 23) that is not a power of two.
        let specs = [
            SampleSpec::new(7, 11),
            SampleSpec::new(9, 5),
            SampleSpec::new(7, 11),
        ];
        let batched = model.sample_batch(&specs).unwrap();
        for (spec, table) in specs.iter().zip(&batched) {
            assert_eq!(table, &model.sample(spec.rows, spec.seed).unwrap());
        }
        assert!(model.sample_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn samples_stay_in_plausible_numeric_range() {
        let train = toy(300, 4);
        let mut model = Tvae::new(TvaeConfig::fast());
        model.fit(&train).unwrap();
        let synthetic = model.sample(100, 1).unwrap();
        // The quantile decoder interpolates the training order statistics, so
        // values cannot escape the training range.
        let train_vals = train.numerical("workload").unwrap();
        let min = train_vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = train_vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &v in synthetic.numerical("workload").unwrap() {
            assert!(v >= min - 1e-9 && v <= max + 1e-9);
        }
    }

    #[test]
    fn budget_cancels_fit_with_typed_error() {
        use crate::fault::CellBudget;
        use std::time::{Duration, Instant};

        let train = toy(200, 5);

        // Epoch cap: fit stops at the cap and reports honest progress.
        let mut model = Tvae::new(TvaeConfig::fast());
        let control = CellBudget {
            max_epochs: Some(2),
            wall_clock: None,
        }
        .control_from(Instant::now());
        assert_eq!(
            model.fit_with_control(&train, &control),
            Err(SurrogateError::BudgetExceeded {
                completed_epochs: 2
            })
        );
        assert_eq!(model.loss_history.len(), 2);

        // Already-expired wall clock: cancelled before the first epoch.
        let mut model = Tvae::new(TvaeConfig::fast());
        let expired = CellBudget {
            wall_clock: Some(Duration::ZERO),
            max_epochs: None,
        }
        .control_from(Instant::now());
        assert_eq!(
            model.fit_with_control(&train, &expired),
            Err(SurrogateError::BudgetExceeded {
                completed_epochs: 0
            })
        );
    }

    #[test]
    fn non_finite_loss_is_detected() {
        let train = toy(300, 6);
        let mut model = Tvae::new(TvaeConfig {
            learning_rate: f64::NAN,
            ..TvaeConfig::fast()
        });
        assert_eq!(
            model.fit(&train),
            Err(SurrogateError::NonFiniteLoss { epoch: 0 })
        );
    }
}
