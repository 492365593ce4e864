//! # circnn-quant
//!
//! Fixed-point quantization substrate.
//!
//! The paper's pipeline quantizes weights to **16-bit fixed point** (§3.4:
//! "16-bit weight quantization is adopted for model size reduction",
//! contributing a 2× storage factor on top of the circulant compression)
//! and the hardware datapath runs in 16-bit fixed point (§4.2). §5.2 also
//! evaluates an aggressive 4-bit mode whose accuracy collapses (<20 % for
//! AlexNet) — 4 bits exists only to compare energy against equally-crippled
//! baselines.
//!
//! This crate provides the accuracy and the storage side of that story:
//!
//! * [`fake_quantize`] / [`fake_quantize_layer`] — round weights through a
//!   `b`-bit symmetric grid in place, so any trained network (dense or
//!   block-circulant, they share the `Layer` trait) can be evaluated at a
//!   given precision. The Fig.-7 accuracy-vs-bits sweep uses this.
//! * [`QuantizedVector`] — actual integer storage with scale, for byte
//!   accounting.
//!
//! ## Calibration vs. fake-quantize vs. the serving path
//!
//! [`fake_quantize`] *measures* a precision (round through the grid, keep
//! f32, report [`QuantStats`]) — it answers "what would b bits cost in
//! accuracy". The serving path in `circnn-core` (`QuantizedOperator` and
//! friends) *commits* to one: it calls this crate's symmetric-grid
//! rounding once at build time to calibrate per-block-row scales, then
//! stores the weight **spectra** as resident i16 codes and runs the
//! frequency-domain MAC in i16×i16→i32 with the dequant multiply fused
//! into the inverse-FFT epilogue. Registration rejects (typed
//! `QuantOverflow`) any format whose worst-case accumulation could wrap
//! i32, so the sweep-side verdict ("12–16 bits is safe") and the
//! serving-side guarantee stay consistent.
//!
//! ## Example
//!
//! ```
//! use circnn_quant::fake_quantize;
//!
//! let mut w = vec![0.801, -0.299, 0.5004, 0.0];
//! let stats = fake_quantize(&mut w, 16);
//! assert!(stats.snr_db > 60.0);       // 16-bit is essentially lossless
//! let mut w4 = vec![0.801, -0.299, 0.5004, 0.0];
//! let stats4 = fake_quantize(&mut w4, 4);
//! assert!(stats4.snr_db < stats.snr_db); // 4-bit is badly degraded
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use circnn_nn::Layer;

/// Statistics of one quantization pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantStats {
    /// The symmetric scale used: `code = round(x / scale)`.
    pub scale: f32,
    /// Signal-to-noise ratio in dB (∞ for exact).
    pub snr_db: f64,
    /// Largest absolute rounding error.
    pub max_err: f32,
    /// Bit width applied.
    pub bits: u32,
}

/// Rounds `data` in place through a symmetric `bits`-wide integer grid
/// scaled to the tensor's max magnitude, returning error statistics.
///
/// # Panics
///
/// Panics if `bits` is 0 or exceeds 24, or `data` is empty.
pub fn fake_quantize(data: &mut [f32], bits: u32) -> QuantStats {
    assert!(bits > 0 && bits <= 24, "bits must be in 1..=24");
    assert!(!data.is_empty(), "cannot quantize an empty tensor");
    let max_abs = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let levels = (1i64 << (bits - 1)) - 1;
    if max_abs == 0.0 {
        return QuantStats {
            scale: 1.0,
            snr_db: f64::INFINITY,
            max_err: 0.0,
            bits,
        };
    }
    let scale = max_abs / levels as f32;
    let mut sig = 0.0f64;
    let mut err = 0.0f64;
    let mut max_err = 0.0f32;
    for v in data.iter_mut() {
        let q = (*v / scale)
            .round()
            .clamp(-(levels as f32) - 1.0, levels as f32)
            * scale;
        let e = (q - *v).abs();
        sig += f64::from(*v) * f64::from(*v);
        err += f64::from(e) * f64::from(e);
        max_err = max_err.max(e);
        *v = q;
    }
    let snr_db = if err == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (sig / err).log10()
    };
    QuantStats {
        scale,
        snr_db,
        max_err,
        bits,
    }
}

/// Quantizes every parameter group of a layer (or whole network — anything
/// implementing `Layer`) in place. Returns per-group statistics.
pub fn fake_quantize_layer(layer: &mut dyn Layer, bits: u32) -> Vec<QuantStats> {
    let mut stats = Vec::new();
    layer.visit_params(&mut |param, _| {
        if !param.is_empty() {
            stats.push(fake_quantize(param, bits));
        }
    });
    stats
}

/// An actually-stored integer vector with its scale — what the weight RAM
/// holds.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVector {
    codes: Vec<i32>,
    scale: f32,
    bits: u32,
}

impl QuantizedVector {
    /// Quantizes a float vector at `bits` wide.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 24, or `data` is empty.
    pub fn quantize(data: &[f32], bits: u32) -> Self {
        assert!(bits > 0 && bits <= 24, "bits must be in 1..=24");
        assert!(!data.is_empty(), "cannot quantize an empty tensor");
        let max_abs = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let levels = (1i64 << (bits - 1)) - 1;
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / levels as f32
        };
        let codes = data
            .iter()
            .map(|&v| {
                (v / scale)
                    .round()
                    .clamp(-(levels as f32) - 1.0, levels as f32) as i32
            })
            .collect();
        Self { codes, scale, bits }
    }

    /// Reconstructs the float values.
    pub fn dequantize(&self) -> Vec<f32> {
        self.codes.iter().map(|&c| c as f32 * self.scale).collect()
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` if no values are stored (not constructible).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Storage size in bytes (packed at `bits` per value, plus the scale).
    pub fn storage_bytes(&self) -> u64 {
        (self.codes.len() as u64 * u64::from(self.bits)).div_ceil(8) + 4
    }

    /// Bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

/// Serialized size, in bytes, of a network's parameters packed at `bits`
/// per value plus one f32 scale per parameter group — the deployed model
/// size the Fig.-7 storage table abstracts.
///
/// # Examples
///
/// ```
/// use circnn_nn::{Linear, Layer};
/// use circnn_quant::packed_model_bytes;
/// use circnn_tensor::init::seeded_rng;
///
/// let mut layer = Linear::new(&mut seeded_rng(0), 100, 10);
/// let full = packed_model_bytes(&mut layer, 32);
/// let half = packed_model_bytes(&mut layer, 16);
/// assert!(half < full);
/// ```
pub fn packed_model_bytes(layer: &mut dyn Layer, bits: u32) -> u64 {
    let mut total = 0u64;
    layer.visit_params(&mut |param, _| {
        total += (param.len() as u64 * u64::from(bits)).div_ceil(8) + 4;
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_nn::Linear;
    use circnn_tensor::init::seeded_rng;

    fn seeded(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0) * 0.9
            })
            .collect()
    }

    #[test]
    fn sixteen_bit_is_nearly_lossless() {
        let mut v = seeded(1000, 1);
        let stats = fake_quantize(&mut v, 16);
        assert!(stats.snr_db > 80.0, "snr {}", stats.snr_db);
        assert!(stats.max_err < 1e-4);
    }

    #[test]
    fn four_bit_is_coarse() {
        let mut v = seeded(1000, 2);
        let stats = fake_quantize(&mut v, 4);
        assert!(stats.snr_db < 25.0, "snr {}", stats.snr_db);
        assert!(stats.max_err > 0.01);
    }

    #[test]
    fn snr_is_monotone_in_bits() {
        let mut last = -1.0;
        for bits in [2u32, 4, 6, 8, 12, 16] {
            let mut v = seeded(500, 3);
            let s = fake_quantize(&mut v, bits);
            assert!(s.snr_db > last, "bits {bits}");
            last = s.snr_db;
        }
    }

    #[test]
    fn quantizing_zeroes_is_exact() {
        let mut v = vec![0.0f32; 8];
        let s = fake_quantize(&mut v, 8);
        assert_eq!(s.snr_db, f64::INFINITY);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn layer_quantization_touches_all_groups() {
        let mut rng = seeded_rng(4);
        let mut layer = Linear::new(&mut rng, 8, 4);
        let before = layer.weight().data().to_vec();
        let stats = fake_quantize_layer(&mut layer, 8);
        // Weights and bias = 2 groups, but all-zero bias yields ∞ SNR entry.
        assert_eq!(stats.len(), 2);
        assert_ne!(layer.weight().data(), &before[..]);
    }

    #[test]
    fn quantized_vector_round_trip_and_bytes() {
        let v = seeded(100, 5);
        let q = QuantizedVector::quantize(&v, 16);
        assert_eq!(q.len(), 100);
        assert_eq!(q.storage_bytes(), 200 + 4);
        let back = q.dequantize();
        for (a, b) in back.iter().zip(&v) {
            assert!((a - b).abs() < 2e-4);
        }
        let q4 = QuantizedVector::quantize(&v, 4);
        assert_eq!(q4.storage_bytes(), 50 + 4);
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn rejects_zero_bits() {
        let mut v = vec![1.0f32];
        let _ = fake_quantize(&mut v, 0);
    }
}
