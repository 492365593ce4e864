//! Row-column 2-D FFT over power-of-two grids — the transform under the
//! LeCun et al. baseline ([`crate::lecun`]).
//!
//! Paper §2.3: "LeCun et al. has proposed using FFTs to accelerate the
//! computations in the CONV layers … It uses FFT to calculate the
//! traditional inner products of filters and input feature maps, and can
//! achieve speedup for large filter sizes … The underlying neural network
//! structure and parameters remain unchanged" — i.e. speedup without
//! compression, and **no** asymptotic gain.

use circnn_fft::{Complex, FftError, FftPlan, Float};

/// A planned 2-D FFT over an `h×w` power-of-two grid (row-column method).
///
/// # Examples
///
/// ```
/// use circnn_bench::fft2d::Fft2dPlan;
/// use circnn_fft::Complex;
///
/// # fn main() -> Result<(), circnn_fft::FftError> {
/// let plan = Fft2dPlan::<f64>::new(4, 8)?;
/// let mut grid = vec![Complex::from_real(1.0); 32];
/// plan.forward(&mut grid)?;
/// assert!((grid[0].re - 32.0).abs() < 1e-12); // DC bin = sum
/// assert!(grid[1].abs() < 1e-12);
/// plan.inverse(&mut grid)?;
/// assert!((grid[5].re - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fft2dPlan<T> {
    h: usize,
    w: usize,
    row_plan: FftPlan<T>,
    col_plan: FftPlan<T>,
}

impl<T: Float> Fft2dPlan<T> {
    /// Builds a plan for `h×w` grids.
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] unless both extents are nonzero powers of two.
    pub fn new(h: usize, w: usize) -> Result<Self, FftError> {
        Ok(Self {
            h,
            w,
            row_plan: FftPlan::new(w)?,
            col_plan: FftPlan::new(h)?,
        })
    }

    fn process(&self, data: &mut [Complex<T>], inverse: bool) -> Result<(), FftError> {
        if data.len() != self.h * self.w {
            return Err(FftError::LengthMismatch {
                expected: self.h * self.w,
                got: data.len(),
            });
        }
        // Rows.
        for r in 0..self.h {
            let row = &mut data[r * self.w..(r + 1) * self.w];
            if inverse {
                self.row_plan.inverse(row)?;
            } else {
                self.row_plan.forward(row)?;
            }
        }
        // Columns (gather/scatter through a scratch column).
        let mut col = vec![Complex::zero(); self.h];
        for c in 0..self.w {
            for r in 0..self.h {
                col[r] = data[r * self.w + c];
            }
            if inverse {
                self.col_plan.inverse(&mut col)?;
            } else {
                self.col_plan.forward(&mut col)?;
            }
            for r in 0..self.h {
                data[r * self.w + c] = col[r];
            }
        }
        Ok(())
    }

    /// In-place forward 2-D transform (row-major grid).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != h·w`.
    pub fn forward(&self, data: &mut [Complex<T>]) -> Result<(), FftError> {
        self.process(data, false)
    }

    /// In-place inverse 2-D transform (normalized).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != h·w`.
    pub fn inverse(&self, data: &mut [Complex<T>]) -> Result<(), FftError> {
        self.process(data, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0) * 0.8
            })
            .collect()
    }

    #[test]
    fn fft2d_round_trip() {
        let plan = Fft2dPlan::<f64>::new(8, 16).unwrap();
        let original: Vec<Complex<f64>> =
            seeded(128, 1).into_iter().map(Complex::from_real).collect();
        let mut buf = original.clone();
        plan.forward(&mut buf).unwrap();
        plan.inverse(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&original) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn fft2d_separable_impulse() {
        // Impulse at origin → flat spectrum.
        let plan = Fft2dPlan::<f64>::new(4, 4).unwrap();
        let mut buf = vec![Complex::zero(); 16];
        buf[0] = Complex::one();
        plan.forward(&mut buf).unwrap();
        for v in &buf {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Fft2dPlan::<f64>::new(3, 4).is_err());
        let plan = Fft2dPlan::<f64>::new(4, 4).unwrap();
        assert!(plan.forward(&mut [Complex::zero(); 15]).is_err());
    }
}
