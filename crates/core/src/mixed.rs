//! Helpers for working with the mixed (numerical + one-hot) encoded layout.
//!
//! Shared by the neural surrogate models: per-block softmax activation for
//! generator outputs, its backward pass, and the mixed reconstruction loss
//! (MSE on numerical slots, softmax cross-entropy on categorical blocks).

use nn::{softmax_rows, softmax_slice, Matrix};
use tabular::FeatureKind;

use crate::codec::ColumnSpan;

/// Apply the mixed output activation into a caller-owned buffer: identity on
/// numerical slots, softmax on every categorical block. The raw output is
/// copied once and activated in place, so a training step that reuses the
/// buffer performs no allocations here.
pub fn mixed_activation_into(spans: &[ColumnSpan], raw: &Matrix, out: &mut Matrix) {
    out.copy_from(raw);
    mixed_activation_assign(spans, out);
}

/// [`mixed_activation_into`] in place: every categorical block is softmaxed on
/// the row slice itself (via the shared [`softmax_slice`] kernel).
pub(crate) fn mixed_activation_assign(spans: &[ColumnSpan], out: &mut Matrix) {
    for span in spans {
        if span.kind != FeatureKind::Categorical {
            continue;
        }
        for r in 0..out.rows() {
            softmax_slice(&mut out.row_mut(r)[span.start..span.start + span.width]);
        }
    }
}

/// Backward pass of [`mixed_activation_into`]: given the gradient with respect to
/// the activated output, return the gradient with respect to the raw input.
/// Numerical slots pass through; categorical blocks use the softmax Jacobian
/// `dL/dz_i = p_i (g_i - Σ_j g_j p_j)`.
pub fn mixed_activation_backward(
    spans: &[ColumnSpan],
    activated: &Matrix,
    grad_activated: &Matrix,
) -> Matrix {
    let mut grad = grad_activated.clone();
    for span in spans {
        if span.kind != FeatureKind::Categorical {
            continue;
        }
        for r in 0..activated.rows() {
            let p = &activated.row(r)[span.start..span.start + span.width];
            let g = &grad_activated.row(r)[span.start..span.start + span.width];
            let dot: f64 = p.iter().zip(g).map(|(pi, gi)| pi * gi).sum();
            let out_row = grad.row_mut(r);
            for i in 0..span.width {
                out_row[span.start + i] = p[i] * (g[i] - dot);
            }
        }
    }
    grad
}

/// Mixed reconstruction loss between raw network output and an encoded
/// target: mean squared error on numerical slots plus softmax cross-entropy
/// on categorical blocks (both averaged per row), and the gradient with
/// respect to the raw output.
pub fn mixed_reconstruction_loss(
    spans: &[ColumnSpan],
    raw_output: &Matrix,
    target: &Matrix,
) -> (f64, Matrix) {
    assert_eq!(raw_output.rows(), target.rows(), "row count mismatch");
    assert_eq!(raw_output.cols(), target.cols(), "width mismatch");
    let n = raw_output.rows() as f64;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(raw_output.rows(), raw_output.cols());

    for span in spans {
        match span.kind {
            FeatureKind::Numerical => {
                for r in 0..raw_output.rows() {
                    let p = raw_output.get(r, span.start);
                    let t = target.get(r, span.start);
                    loss += (p - t) * (p - t) / n;
                    grad.set(r, span.start, 2.0 * (p - t) / n);
                }
            }
            FeatureKind::Categorical => {
                let logits = raw_block(raw_output, span);
                let probs = softmax_rows(&logits);
                for r in 0..raw_output.rows() {
                    let t_row = &target.row(r)[span.start..span.start + span.width];
                    let p_row = probs.row(r);
                    for i in 0..span.width {
                        if t_row[i] > 0.0 {
                            loss -= t_row[i] * p_row[i].max(1e-12).ln() / n;
                        }
                        grad.set(r, span.start + i, (p_row[i] - t_row[i]) / n);
                    }
                }
            }
        }
    }
    (loss, grad)
}

fn raw_block(m: &Matrix, span: &ColumnSpan) -> Matrix {
    m.slice_cols(span.start, span.start + span.width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans() -> Vec<ColumnSpan> {
        vec![
            ColumnSpan {
                name: "x".to_string(),
                kind: FeatureKind::Numerical,
                start: 0,
                width: 1,
            },
            ColumnSpan {
                name: "c".to_string(),
                kind: FeatureKind::Categorical,
                start: 1,
                width: 3,
            },
        ]
    }

    #[test]
    fn activation_normalises_categorical_blocks_only() {
        let raw = Matrix::from_rows(&[vec![2.5, 1.0, 2.0, 3.0]]);
        let mut act = Matrix::default();
        mixed_activation_into(&spans(), &raw, &mut act);
        assert_eq!(act.get(0, 0), 2.5);
        let sum: f64 = act.row(0)[1..4].iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(act.get(0, 3) > act.get(0, 1));
    }

    #[test]
    fn activation_backward_matches_finite_differences() {
        let raw = Matrix::from_rows(&[vec![0.3, 0.5, -0.2, 1.1]]);
        let spans = spans();
        // Scalar objective: weighted sum of activated outputs.
        let weights = [0.7, -0.3, 0.9, 0.4];
        let activate = |raw: &Matrix| {
            let mut act = Matrix::default();
            mixed_activation_into(&spans, raw, &mut act);
            act
        };
        let objective = |raw: &Matrix| -> f64 {
            let act = activate(raw);
            act.row(0).iter().zip(&weights).map(|(a, w)| a * w).sum()
        };
        let act = activate(&raw);
        let grad_act = Matrix::from_rows(&[weights.to_vec()]);
        let grad_raw = mixed_activation_backward(&spans, &act, &grad_act);
        let eps = 1e-6;
        for i in 0..4 {
            let mut plus = raw.clone();
            plus.set(0, i, raw.get(0, i) + eps);
            let mut minus = raw.clone();
            minus.set(0, i, raw.get(0, i) - eps);
            let numeric = (objective(&plus) - objective(&minus)) / (2.0 * eps);
            assert!(
                (numeric - grad_raw.get(0, i)).abs() < 1e-5,
                "slot {i}: {numeric} vs {}",
                grad_raw.get(0, i)
            );
        }
    }

    #[test]
    fn reconstruction_loss_zero_at_perfect_prediction() {
        let spans = spans();
        // Perfect numeric + near-one-hot logits.
        let target = Matrix::from_rows(&[vec![1.5, 0.0, 1.0, 0.0]]);
        let raw = Matrix::from_rows(&[vec![1.5, -30.0, 30.0, -30.0]]);
        let (loss, _) = mixed_reconstruction_loss(&spans, &raw, &target);
        assert!(loss < 1e-6, "loss = {loss}");
    }

    #[test]
    fn reconstruction_gradient_matches_finite_differences() {
        let spans = spans();
        let target = Matrix::from_rows(&[vec![0.8, 1.0, 0.0, 0.0], vec![-0.5, 0.0, 0.0, 1.0]]);
        let raw = Matrix::from_rows(&[vec![0.1, 0.4, -0.3, 0.2], vec![0.0, 0.1, 0.9, -1.0]]);
        let (_, grad) = mixed_reconstruction_loss(&spans, &raw, &target);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..4 {
                let mut plus = raw.clone();
                plus.set(r, c, raw.get(r, c) + eps);
                let mut minus = raw.clone();
                minus.set(r, c, raw.get(r, c) - eps);
                let (lp, _) = mixed_reconstruction_loss(&spans, &plus, &target);
                let (lm, _) = mixed_reconstruction_loss(&spans, &minus, &target);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grad.get(r, c)).abs() < 1e-5,
                    "({r},{c}): {numeric} vs {}",
                    grad.get(r, c)
                );
            }
        }
    }
}
