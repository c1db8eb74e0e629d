//! Dense gradient quantizers — the other family of compression the paper's
//! related work (§6) surveys: QSGD (Alistarh et al., 2017), TernGrad-style
//! ternarisation, and scaled sign-SGD (Karimireddy et al., 2019).
//!
//! Unlike the top-k sparsifiers these keep every coordinate but shrink its
//! representation; they compose with the same error-feedback machinery and
//! the ablation benches compare both families' convergence at equal wire
//! budgets.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cloudtrain_tensor::ops;

/// A quantized gradient: per-tensor scale plus one small code per element.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedGrad {
    /// Per-tensor scale (the norm or max the codes are relative to).
    pub scale: f32,
    /// Signed level codes, one per element.
    pub codes: Vec<i8>,
    /// Quantization levels (`s`): codes lie in `[-s, s]`.
    pub levels: u8,
}

impl QuantizedGrad {
    /// Per-code multiplier (`scale / levels`), the dequantization constant.
    fn inv(&self) -> f32 {
        if self.levels == 0 {
            0.0
        } else {
            self.scale / self.levels as f32
        }
    }

    /// Decodes back to a dense vector.
    pub fn decode(&self) -> Vec<f32> {
        let inv = self.inv();
        self.codes.iter().map(|&c| c as f32 * inv).collect()
    }

    /// Adds the decoded values into an accumulator.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn add_into(&self, acc: &mut [f32]) {
        assert_eq!(acc.len(), self.codes.len(), "add_into: length mismatch");
        let inv = self.inv();
        for (a, &c) in acc.iter_mut().zip(&self.codes) {
            *a += c as f32 * inv;
        }
    }

    /// Wire size in bytes: the scale plus `ceil(log2(2s+1))` bits per
    /// element (packed).
    pub fn wire_bytes(&self) -> usize {
        let bits_per_elem = (2 * self.levels as u32 + 1)
            .next_power_of_two()
            .trailing_zeros();
        4 + (self.codes.len() * bits_per_elem as usize).div_ceil(8)
    }
}

/// A dense gradient quantizer.
pub trait Quantizer {
    /// Quantizes `x` (unbiasedly where the scheme allows).
    fn quantize(&mut self, x: &[f32]) -> QuantizedGrad;

    /// Scheme name for tables.
    fn name(&self) -> &'static str;
}

/// QSGD (Alistarh et al., 2017): stochastic quantization onto `s` uniform
/// levels of `‖x‖₂`, unbiased (`E[Q(x)] = x`).
#[derive(Debug)]
pub struct Qsgd {
    /// Number of positive levels `s` (e.g. 127 for 8-bit codes).
    pub levels: u8,
    rng: StdRng,
}

impl Qsgd {
    /// Creates QSGD with `levels` positive levels.
    ///
    /// # Panics
    /// Panics if `levels == 0`.
    pub fn new(levels: u8, seed: u64) -> Self {
        assert!(levels > 0, "Qsgd: need at least one level");
        Self {
            levels,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Quantizer for Qsgd {
    fn quantize(&mut self, x: &[f32]) -> QuantizedGrad {
        let norm = ops::l2_norm(x);
        let s = self.levels as f32;
        let codes = if norm == 0.0 {
            vec![0i8; x.len()]
        } else {
            x.iter()
                .map(|&v| {
                    let u = v.abs() / norm * s; // in [0, s]
                    let low = u.floor();
                    let p = u - low;
                    let level = if self.rng.random::<f32>() < p {
                        low + 1.0
                    } else {
                        low
                    };
                    (level.min(s) * v.signum()) as i8
                })
                .collect()
        };
        QuantizedGrad {
            scale: norm,
            codes,
            levels: self.levels,
        }
    }

    fn name(&self) -> &'static str {
        "QSGD"
    }
}

/// TernGrad-style ternarisation: codes in `{-1, 0, +1}` scaled by
/// `max|x|`, with stochastic rounding (unbiased).
#[derive(Debug)]
pub struct TernGrad {
    rng: StdRng,
}

impl TernGrad {
    /// Creates a ternary quantizer.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Quantizer for TernGrad {
    fn quantize(&mut self, x: &[f32]) -> QuantizedGrad {
        let scale = ops::max_abs(x);
        let codes = if scale == 0.0 {
            vec![0i8; x.len()]
        } else {
            x.iter()
                .map(|&v| {
                    let p = v.abs() / scale;
                    if self.rng.random::<f32>() < p {
                        v.signum() as i8
                    } else {
                        0
                    }
                })
                .collect()
        };
        QuantizedGrad {
            scale,
            codes,
            levels: 1,
        }
    }

    fn name(&self) -> &'static str {
        "TernGrad"
    }
}

/// Scaled sign compression (the EF-SignSGD operator): `sign(x) · mean|x|`.
/// Biased — must be used with error feedback. The sign is the IEEE
/// comparison `v >= 0.0`, so `-0.0` encodes `+1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScaledSign;

impl Quantizer for ScaledSign {
    fn quantize(&mut self, x: &[f32]) -> QuantizedGrad {
        let scale = ops::mean_abs(x);
        let codes = x.iter().map(|&v| if v >= 0.0 { 1i8 } else { -1 }).collect();
        QuantizedGrad {
            scale,
            codes,
            levels: 1,
        }
    }

    fn name(&self) -> &'static str {
        "ScaledSign"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtrain_tensor::init;

    fn grad(seed: u64, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(seed);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    #[test]
    fn qsgd_is_unbiased() {
        // Average many quantizations of the same vector: the mean decoded
        // value converges to the input.
        let x = grad(1, 200);
        let mut q = Qsgd::new(4, 7);
        let trials = 3000;
        let mut mean = vec![0.0f64; x.len()];
        for _ in 0..trials {
            for (m, v) in mean.iter_mut().zip(q.quantize(&x).decode()) {
                *m += v as f64;
            }
        }
        let norm = ops::l2_norm(&x) as f64;
        for (m, &v) in mean.iter().zip(&x) {
            let avg = m / trials as f64;
            // Standard error of the per-coordinate estimate is
            // ~ (norm/s)/sqrt(trials).
            let tol = 5.0 * (norm / 4.0) / (trials as f64).sqrt() + 1e-3;
            assert!(
                (avg - v as f64).abs() < tol,
                "biased: avg {avg} vs {v} (tol {tol})"
            );
        }
    }

    #[test]
    fn terngrad_is_unbiased() {
        let x = grad(2, 100);
        let mut q = TernGrad::new(9);
        let trials = 4000;
        let mut mean = vec![0.0f64; x.len()];
        for _ in 0..trials {
            for (m, v) in mean.iter_mut().zip(q.quantize(&x).decode()) {
                *m += v as f64;
            }
        }
        let scale = ops::max_abs(&x) as f64;
        for (m, &v) in mean.iter().zip(&x) {
            let avg = m / trials as f64;
            let tol = 5.0 * scale / (trials as f64).sqrt() + 1e-3;
            assert!((avg - v as f64).abs() < tol, "biased: {avg} vs {v}");
        }
    }

    #[test]
    fn qsgd_codes_within_levels() {
        let x = grad(3, 1000);
        for levels in [1u8, 4, 127] {
            let g = Qsgd::new(levels, 1).quantize(&x);
            assert!(g.codes.iter().all(|&c| (c as i32).abs() <= levels as i32));
            assert_eq!(g.decode().len(), x.len());
        }
    }

    #[test]
    fn scaled_sign_preserves_signs_and_scale() {
        let x = [1.0f32, -2.0, 0.5, -0.5];
        let g = ScaledSign.quantize(&x);
        assert_eq!(g.scale, 1.0); // mean |x| = 1
        assert_eq!(g.decode(), vec![1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn wire_bytes_reflect_code_width() {
        let x = grad(4, 8000);
        // Ternary: 2 bits/elem -> ~2000 bytes; 8-bit QSGD: 8 bits/elem.
        let tern = TernGrad::new(1).quantize(&x);
        assert_eq!(tern.wire_bytes(), 4 + 8000 * 2 / 8);
        let q127 = Qsgd::new(127, 1).quantize(&x);
        assert_eq!(q127.wire_bytes(), 4 + 8000);
        assert!(tern.wire_bytes() < q127.wire_bytes());
        // Both crush FP32 (32 bits/elem).
        assert!(q127.wire_bytes() * 3 < 8000 * 4);
    }

    #[test]
    fn zero_vector_roundtrips() {
        let x = vec![0.0f32; 50];
        for q in [
            Qsgd::new(4, 1).quantize(&x),
            TernGrad::new(1).quantize(&x),
            ScaledSign.quantize(&x),
        ] {
            assert_eq!(q.decode(), x);
        }
    }

    #[test]
    fn add_into_matches_decode() {
        let x = grad(5, 64);
        let g = Qsgd::new(8, 3).quantize(&x);
        let mut acc = vec![1.0f32; 64];
        g.add_into(&mut acc);
        for (a, d) in acc.iter().zip(g.decode()) {
            assert!((a - 1.0 - d).abs() < 1e-6);
        }
    }

    /// The decode, decode-accumulate and sign-encode loops on arbitrary
    /// lengths and codes (full lane chunks and ragged tails alike).
    mod lane_tier_properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `decode` returns `codes[i] as f32 * inv` and `add_into` adds
            /// exactly those values, bit for bit.
            #[test]
            fn decode_and_accumulate_bitwise_identical(
                codes_raw in prop::collection::vec(0i32..256, 0..200),
                scale in -4.0f32..4.0,
                levels in 0u8..128,
            ) {
                let codes: Vec<i8> = codes_raw.iter().map(|&c| (c - 128) as i8).collect();
                let g = QuantizedGrad { scale, codes, levels };
                let inv = g.inv();
                let decoded = g.decode();
                prop_assert_eq!(decoded.len(), g.codes.len());
                let base: Vec<f32> = (0..g.codes.len()).map(|i| (i as f32) * 0.125 - 4.0).collect();
                let mut acc = base.clone();
                g.add_into(&mut acc);
                for i in 0..g.codes.len() {
                    prop_assert_eq!(decoded[i].to_bits(), (g.codes[i] as f32 * inv).to_bits());
                    prop_assert_eq!(acc[i].to_bits(), (base[i] + decoded[i]).to_bits());
                }
            }
        }

        #[test]
        fn sign_codes_agree_on_signed_zero() {
            let x = [0.0f32, -0.0, 1.0, -1.0];
            assert_eq!(ScaledSign.quantize(&x).codes, vec![1, 1, 1, -1]);
        }
    }
}
