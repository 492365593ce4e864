//! Closed-form operation counts for FFT-based workloads.
//!
//! The hardware simulator (`circnn-hw`) prices cycles and energy from
//! butterfly and multiply counts; these formulas are the single source of
//! truth. A test checks the butterfly count against the paper's Fig.-9
//! recursion (a size-n FFT is two size-n/2 FFTs plus n/2 butterflies).
//!
//! Conventions (classical radix-2 accounting):
//! * one **butterfly** = 1 complex multiply + 2 complex adds
//!   = 4 real multiplies + 6 real adds = 10 flops;
//! * one **complex multiply** = 4 real multiplies + 2 real adds = 6 flops.

/// Real multiplies in one complex multiply.
pub const MULS_PER_COMPLEX_MUL: u64 = 4;
/// Real adds in one complex multiply.
pub const ADDS_PER_COMPLEX_MUL: u64 = 2;
/// Flops in one complex multiply.
pub const FLOPS_PER_COMPLEX_MUL: u64 = MULS_PER_COMPLEX_MUL + ADDS_PER_COMPLEX_MUL;
/// Real multiplies in one radix-2 butterfly.
pub const MULS_PER_BUTTERFLY: u64 = 4;
/// Real adds in one radix-2 butterfly (complex-multiply adds + two complex adds).
pub const ADDS_PER_BUTTERFLY: u64 = 6;
/// Flops in one radix-2 butterfly.
pub const FLOPS_PER_BUTTERFLY: u64 = MULS_PER_BUTTERFLY + ADDS_PER_BUTTERFLY;

/// Exact `log₂(n)` for powers of two, `None` otherwise.
///
/// # Examples
///
/// ```
/// use circnn_fft::ops::log2_exact;
/// assert_eq!(log2_exact(1024), Some(10));
/// assert_eq!(log2_exact(12), None);
/// assert_eq!(log2_exact(0), None);
/// ```
pub fn log2_exact(n: usize) -> Option<u32> {
    if n != 0 && n.is_power_of_two() {
        Some(n.trailing_zeros())
    } else {
        None
    }
}

/// Butterflies in a size-`n` **complex** FFT: `(n/2)·log₂n`.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn complex_fft_butterflies(n: usize) -> u64 {
    let log = log2_exact(n).expect("fft size must be a power of two");
    (n as u64 / 2) * u64::from(log)
}

/// Butterflies in a size-`n` **real-input** FFT implemented as a half-size
/// complex FFT: `(n/4)·log₂(n/2)`.
///
/// This captures the paper's Hermitian-symmetry saving (Fig. 10): slightly
/// better than half the complex-FFT count.
///
/// # Panics
///
/// Panics if `n < 2` or `n` is not a power of two.
pub fn rfft_butterflies(n: usize) -> u64 {
    assert!(n >= 2, "real fft needs n >= 2");
    complex_fft_butterflies(n / 2)
}

/// Complex multiplies in the real-FFT unpack/combine stage: `n/2`
/// (one twiddle multiply per unique non-DC bin).
pub fn rfft_combine_muls(n: usize) -> u64 {
    assert!(log2_exact(n).is_some(), "fft size must be a power of two");
    n as u64 / 2
}

/// Total flops of a size-`n` complex FFT.
pub fn complex_fft_flops(n: usize) -> u64 {
    complex_fft_butterflies(n) * FLOPS_PER_BUTTERFLY
}

/// Total flops of a size-`n` real-input FFT (half-size FFT + combine).
pub fn rfft_flops(n: usize) -> u64 {
    rfft_butterflies(n) * FLOPS_PER_BUTTERFLY + rfft_combine_muls(n) * FLOPS_PER_COMPLEX_MUL
}

/// Flops for an element-wise complex multiply over `bins` spectrum bins.
pub fn pointwise_mul_flops(bins: usize) -> u64 {
    bins as u64 * FLOPS_PER_COMPLEX_MUL
}

/// Number of unique spectrum bins of a real length-`n` signal: `n/2 + 1`.
pub fn real_spectrum_bins(n: usize) -> usize {
    n / 2 + 1
}

/// Dense-equivalent operation count of an `m×n` mat-vec (the paper's
/// "equivalent GOPS" convention: one multiply + one add per weight).
pub fn dense_matvec_ops(m: usize, n: usize) -> u64 {
    2 * m as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Butterflies of a size-`n` FFT by the paper's Fig.-9 recursion: two
    /// size-`n/2` FFTs plus one level of `n/2` butterflies.
    fn trace_butterflies(n: usize) -> u64 {
        if n == 1 {
            0
        } else {
            2 * trace_butterflies(n / 2) + n as u64 / 2
        }
    }

    #[test]
    fn butterflies_match_recursive_trace() {
        for log in 1..=12 {
            let n = 1usize << log;
            assert_eq!(complex_fft_butterflies(n), trace_butterflies(n));
        }
    }

    #[test]
    fn rfft_is_cheaper_than_half_complex() {
        for n in [8usize, 64, 512, 4096] {
            assert!(rfft_butterflies(n) < complex_fft_butterflies(n) / 2 + n as u64);
            assert!(rfft_flops(n) < complex_fft_flops(n));
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(complex_fft_butterflies(8), 12); // 4 * 3
        assert_eq!(complex_fft_butterflies(1024), 512 * 10);
        assert_eq!(rfft_butterflies(8), 4); // complex fft of 4: 2*2
        assert_eq!(rfft_combine_muls(8), 4);
        assert_eq!(real_spectrum_bins(128), 65);
        assert_eq!(dense_matvec_ops(4096, 9216), 2 * 4096 * 9216);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn panics_on_non_power_of_two() {
        let _ = complex_fft_butterflies(12);
    }

    #[test]
    fn asymptotic_advantage_grows() {
        // O(n log n) vs O(n²): ratio improves with n — the core claim.
        let r1 = dense_matvec_ops(256, 256) as f64 / rfft_flops(256) as f64;
        let r2 = dense_matvec_ops(4096, 4096) as f64 / rfft_flops(4096) as f64;
        assert!(r2 > r1 * 4.0);
    }
}
