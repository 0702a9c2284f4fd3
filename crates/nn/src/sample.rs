//! Standard-normal sampling: the one normal generator behind every draw in
//! `nn` — weight initialisation, the training loops' noise and the sampling
//! loops' latents.
//!
//! It is a 256-layer ziggurat (Marsaglia & Tsang, 2000). The area under
//! `f(x) = exp(-x²/2)` on `x ≥ 0` is cut into 256 horizontal layers of equal
//! area: 255 rectangles stacked on a base layer that is a rectangle plus the
//! tail beyond `R` ≈ 3.654. One `u64` draw picks a layer with its low 8 bits
//! and a signed uniform with its top 52, and the uniform scaled by the
//! layer's width is returned whenever it lands inside the rectangle under
//! the curve (~98.5% of draws). Only the remaining draws pay for `exp` (the
//! wedge test between rectangle and curve) or `ln` (Marsaglia's tail
//! method).

use std::sync::OnceLock;

use rand::{unit_f64, Rng, RngCore};

/// Layers of the ziggurat; a draw's low 8 bits pick one.
const LAYERS: usize = 256;

/// Right edge of the base layer's rectangle: the tail starts here.
const R: f64 = 3.654_152_885_361_009;

/// Area of every layer, the base layer's tail included:
/// `R·f(R) + ∫_R^∞ f(x) dx`.
const V: f64 = 4.928_673_233_974_658e-3;

/// Layer edges `x[i]` (decreasing from the base layer's virtual width
/// `V / f(R)` to 0) and `f(x[i])`. Layer `i ≥ 1` spans heights
/// `f(x[i])..f(x[i + 1])` and is `x[i]` wide; the base layer spans
/// `0..f(R)` at width `x[0]`, and its part beyond `R` stands for the tail.
struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

/// The unnormalised density `exp(-x²/2)`.
#[inline]
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The layer table, built on first use.
fn ziggurat() -> &'static Ziggurat {
    static TABLE: OnceLock<Ziggurat> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / density(R);
        x[1] = R;
        // Each rectangle has area V: x[i] · (f(x[i + 1]) − f(x[i])) = V.
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (V / x[i] + density(x[i])).ln()).sqrt();
        }
        Ziggurat {
            x,
            f: x.map(density),
        }
    })
}

/// A uniform in the open interval `(0, 1)`, so its logarithm is finite.
#[inline]
fn open_unit<G: RngCore>(rng: &mut G) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// One standard-normal draw.
#[inline]
fn draw<G: RngCore>(zig: &Ziggurat, rng: &mut G) -> f64 {
    loop {
        let bits = rng.next_u64();
        let layer = (bits & 0xff) as usize;
        // The top 52 bits as the mantissa of a float in [2, 4), shifted to
        // a signed uniform in [-1, 1).
        let u = f64::from_bits(bits >> 12 | 0x4000_0000_0000_0000) - 3.0;
        let x = u * zig.x[layer];
        if x.abs() < zig.x[layer + 1] {
            return x;
        }
        if layer == 0 {
            return tail(rng, u < 0.0);
        }
        let y = zig.f[layer] + (zig.f[layer + 1] - zig.f[layer]) * unit_f64(rng);
        if y < density(x) {
            return x;
        }
    }
}

/// A draw from the tail beyond `R`, by Marsaglia's (1964) method.
#[cold]
fn tail<G: RngCore>(rng: &mut G, negative: bool) -> f64 {
    loop {
        let x = -open_unit(rng).ln() / R;
        let y = -open_unit(rng).ln();
        if 2.0 * y >= x * x {
            return if negative { -(R + x) } else { R + x };
        }
    }
}

/// Overwrite `out` with i.i.d. standard-normal samples, one ziggurat draw
/// per element in order. The one normal entry point of `nn`: sampling loops
/// draw each request's block straight into its rows of a stacked matrix,
/// and training loops reset their noise buffer and fill it here.
pub fn standard_normal_fill<G: Rng>(rng: &mut G, out: &mut [f64]) {
    let zig = ziggurat();
    for v in out {
        *v = draw(zig, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Counts the `u64`s a generator hands out.
    struct Counting {
        inner: StdRng,
        calls: u64,
    }

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.calls += 1;
            self.inner.next_u64()
        }
    }

    /// Φ from the complementary error function, by the Chebyshev fit of
    /// Numerical Recipes' `erfcc` (relative error below 1.2e-7 everywhere).
    fn normal_cdf(z: f64) -> f64 {
        let x = z.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * x);
        let poly = -x * x - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let erfc = t * poly.exp();
        if z >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn normal_matrix_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Matrix::zeros(200, 50);
        standard_normal_fill(&mut rng, m.data_mut());
        let mean = m.mean();
        let var = m.data().iter().map(|v| (v - mean).powi(2)).sum::<f64>() / m.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_into_moments_reuse_and_determinism() {
        // The training loops' pattern: reset a reused buffer, then fill it.
        let mut rng = StdRng::seed_from_u64(7);
        let mut buf = Matrix::zeros(1, 1);
        buf.resize_zeroed(150, 67);
        standard_normal_fill(&mut rng, buf.data_mut());
        assert_eq!((buf.rows(), buf.cols()), (150, 67));
        let mean = buf.mean();
        let var = buf.data().iter().map(|v| (v - mean).powi(2)).sum::<f64>() / buf.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        // Same seed, same stream — including into a reused, previously
        // larger buffer — and both generators end in the same state.
        let mut a = StdRng::seed_from_u64(8);
        let mut b = StdRng::seed_from_u64(8);
        let mut first = Matrix::zeros(3, 5);
        standard_normal_fill(&mut a, first.data_mut());
        buf.resize_zeroed(3, 5);
        standard_normal_fill(&mut b, buf.data_mut());
        assert_eq!(first, buf);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn layer_table_is_consistent() {
        let zig = ziggurat();
        // Every layer has area V, the top one included, so the recursion's
        // end meets x = 0 where f = 1.
        for i in 1..LAYERS {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!((area - V).abs() < 1e-14, "layer {i}: area {area}");
        }
        // The base layer: rectangle plus tail, the tail mass from Φ.
        let tail = V - R * density(R);
        let from_phi = (1.0 - normal_cdf(R)) * (2.0 * std::f64::consts::PI).sqrt();
        assert!((tail / from_phi - 1.0).abs() < 1e-3, "{tail} vs {from_phi}");
    }

    #[test]
    fn a_million_draws_follow_the_standard_normal() {
        const N: usize = 1_000_000;
        let nf = N as f64;
        let mut rng = Counting {
            inner: StdRng::seed_from_u64(2000),
            calls: 0,
        };
        // One draw at a time, so each draw's `u64` count tells its path:
        // one word is the fast path; more words and |z| < R went through a
        // wedge test; |z| > R only comes out of the tail.
        let mut z = vec![0.0; N];
        let (mut wedge, mut tail) = (0usize, 0usize);
        for v in z.iter_mut() {
            let before = rng.calls;
            standard_normal_fill(&mut rng, std::slice::from_mut(v));
            if v.abs() > R {
                tail += 1;
            } else if rng.calls - before > 1 {
                wedge += 1;
            }
        }
        assert!(wedge > 0, "no draw took the wedge path");
        assert!(tail > 0, "no draw took the tail path");
        // The fast path answers ~99% of draws with one word each.
        let extra = (rng.calls - N as u64) as f64 / nf;
        assert!(extra < 0.03, "{extra} extra words per draw");

        // Moments, each within 5 standard errors.
        let mean = z.iter().sum::<f64>() / nf;
        let var = z.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / nf;
        assert!(mean.abs() < 5.0 / nf.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 5.0 * (2.0 / nf).sqrt(), "var {var}");

        // Mass beyond the base layer, within 5 standard errors of its
        // binomial count.
        let p = 2.0 * (1.0 - normal_cdf(R));
        let expected = nf * p;
        let sd = (nf * p * (1.0 - p)).sqrt();
        assert!(
            (tail as f64 - expected).abs() < 5.0 * sd,
            "{tail} draws beyond |z| > {R}, expected {expected:.1} ± {sd:.1}"
        );

        // Kolmogorov–Smirnov distance to Φ: √n·D stays below 1.95, the
        // 0.1% critical value of the Kolmogorov distribution.
        z.sort_by(f64::total_cmp);
        let d = z
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let cdf = normal_cdf(v);
                (cdf - i as f64 / nf).max((i + 1) as f64 / nf - cdf)
            })
            .fold(0.0, f64::max);
        assert!(nf.sqrt() * d < 1.95, "KS distance {d}");
    }
}
