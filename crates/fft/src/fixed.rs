//! The signed fixed-point format of the CirCNN hardware datapath.
//!
//! The paper's architecture computes with "16-bit fixed point numbers for
//! input and weight representations" (§4.2) and evaluates an aggressive
//! 4-bit mode for the near-threshold study (§5.2). [`QFormat`] names such a
//! format — total bits and fractional bits — and rounds values to and from
//! its integer codes with saturation.
//!
//! `circnn-core`'s i16 serving path (`QuantizedOperator` and its conv and
//! RNN twins) uses it to hold the weight **spectra** and the staged inputs
//! as integer codes, while the FFT itself stays in f32: the spectral-plane
//! engine's cost is streaming weight planes through the MAC, not the
//! transform. That path states its own error bound against the f32 engine
//! (`QuantizedOperator::error_bound`).

/// A signed fixed-point format: `bits` total bits, `frac` fractional bits.
///
/// # Examples
///
/// ```
/// use circnn_fft::fixed::QFormat;
///
/// let q = QFormat::new(16, 12);
/// let x = q.quantize(0.7312);
/// assert!((q.dequantize(x) - 0.7312).abs() < 1.0 / 4096.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    bits: u32,
    frac: u32,
}

impl QFormat {
    /// Creates a format with `bits` total bits and `frac` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0, exceeds 32, or `frac >= bits`.
    pub fn new(bits: u32, frac: u32) -> Self {
        assert!(bits > 0 && bits <= 32, "bits must be in 1..=32");
        assert!(frac < bits, "need at least one integer/sign bit");
        Self { bits, frac }
    }

    /// The paper's default inference format: 16 bits with 12 fractional bits
    /// (±8 dynamic range, fine enough that "inaccuracy caused by quantization
    /// … will not accumulate significantly", §4.2).
    pub fn q16() -> Self {
        Self::new(16, 12)
    }

    /// The aggressive 4-bit near-threshold format of §5.2.
    pub fn q4() -> Self {
        Self::new(4, 2)
    }

    /// Total bit width.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Fractional bit count.
    #[inline]
    pub fn frac(&self) -> u32 {
        self.frac
    }

    /// The scale factor `2^frac`.
    #[inline]
    pub fn scale(&self) -> f64 {
        (1u64 << self.frac) as f64
    }

    /// Largest representable integer code.
    #[inline]
    pub fn max_code(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Smallest representable integer code.
    #[inline]
    pub fn min_code(&self) -> i64 {
        -(1i64 << (self.bits - 1))
    }

    /// Quantizes a real value: round to nearest, saturate to range.
    pub fn quantize(&self, x: f64) -> i64 {
        let v = (x * self.scale()).round() as i64;
        v.clamp(self.min_code(), self.max_code())
    }

    /// Converts an integer code back to a real value.
    pub fn dequantize(&self, code: i64) -> f64 {
        code as f64 / self.scale()
    }

    /// Saturates an integer to the representable code range.
    #[inline]
    pub fn saturate(&self, v: i64) -> i64 {
        v.clamp(self.min_code(), self.max_code())
    }

    /// Quantization step size in real units.
    pub fn step(&self) -> f64 {
        1.0 / self.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qformat_round_trip_within_one_step() {
        let q = QFormat::q16();
        for &x in &[0.0, 0.5, -0.75, 1.9, -1.99, 7.5] {
            let back = q.dequantize(q.quantize(x));
            assert!((back - x).abs() <= q.step(), "x = {x}");
        }
    }

    #[test]
    fn qformat_saturates() {
        let q = QFormat::new(8, 6); // range ±2
        assert_eq!(q.quantize(100.0), q.max_code());
        assert_eq!(q.quantize(-100.0), q.min_code());
        assert!(q.dequantize(q.max_code()) < 2.0);
    }

    #[test]
    #[should_panic(expected = "integer/sign bit")]
    fn qformat_rejects_all_fraction() {
        let _ = QFormat::new(8, 8);
    }
}
