//! The LeCun et al. FFT-convolution baseline (paper §2.3, reference \[52\]).
//!
//! That method accelerates spatial convolution by transforming feature maps
//! and filters to the frequency domain and reusing the filter spectra
//! across positions. The paper's critique, which this module makes
//! measurable:
//!
//! * it "applies only to a single filter in the CONV layer" structure — the
//!   parameters are unchanged, so there is **no compression** (in fact the
//!   cached padded spectra need *additional* storage);
//! * the speedup holds only "for large filter sizes (which is less common
//!   in state-of-the-art DCNNs)";
//! * there is no asymptotic `O(n log n)` gain over the layer as a whole.
//!
//! Contrast with [`crate::CirculantConv2d`], which restructures the
//! parameters themselves.

use circnn_fft::fft2d::Fft2dPlan;
use circnn_fft::Complex;
use circnn_tensor::Tensor;
use rand::Rng;

use crate::error::CircError;

/// A LeCun-style FFT convolution engine for `[C, H, W] → [P, oh, ow]`
/// valid convolution (stride 1, no padding — the regime \[52\] analyses).
///
/// Filter spectra are precomputed on the padded grid at construction, the
/// source of both the speed (filter reuse) and the extra storage.
#[derive(Debug, Clone)]
pub struct LeCunFftConv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// Raw filters `[P][C][r][r]`, flattened — the unchanged parameters.
    filters: Vec<f32>,
    /// Padded-grid spectra per (p, c), cached once the input size is known.
    plan: Option<PlannedSpectra>,
}

#[derive(Debug, Clone)]
struct PlannedSpectra {
    h: usize,
    w: usize,
    ph: usize,
    pw: usize,
    plan: Fft2dPlan<f32>,
    /// `out_channels · in_channels` spectra of `ph·pw` bins each.
    filter_spectra: Vec<Complex<f32>>,
}

impl LeCunFftConv2d {
    /// Creates the engine with random filters (He-style).
    ///
    /// # Errors
    ///
    /// Returns [`CircError::DimensionMismatch`] on zero dimensions.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
    ) -> Result<Self, CircError> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 {
            return Err(CircError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        let fan_in = in_channels * kernel * kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        let filters =
            circnn_tensor::init::normal(rng, &[out_channels * fan_in], 0.0, std).into_vec();
        Ok(Self {
            in_channels,
            out_channels,
            kernel,
            filters,
            plan: None,
        })
    }

    /// Builds from explicit filters in `[P][C][r][r]` order.
    ///
    /// # Errors
    ///
    /// Returns [`CircError::BadWeightLength`] if the buffer is mis-sized.
    pub fn from_filters(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        filters: Vec<f32>,
    ) -> Result<Self, CircError> {
        let expected = out_channels * in_channels * kernel * kernel;
        if filters.len() != expected {
            return Err(CircError::BadWeightLength {
                expected,
                got: filters.len(),
            });
        }
        Ok(Self {
            in_channels,
            out_channels,
            kernel,
            filters,
            plan: None,
        })
    }

    /// Parameter count — identical to a dense conv ("the underlying neural
    /// network structure and parameters remain unchanged").
    pub fn parameter_count(&self) -> usize {
        self.filters.len()
    }

    /// Extra floats held by the cached filter spectra once planned — the
    /// "additional storage space" §2.3 mentions. Zero before the first
    /// forward pass.
    pub fn spectrum_storage_floats(&self) -> usize {
        self.plan.as_ref().map_or(0, |p| p.filter_spectra.len() * 2)
    }

    /// The filters in the im2col channel-fastest lowering, loadable into
    /// `circnn_nn::Conv2d::from_weights` for equivalence testing.
    pub fn to_lowered_weights(&self) -> Tensor {
        let (c, p, r) = (self.in_channels, self.out_channels, self.kernel);
        let patch = c * r * r;
        let mut lowered = vec![0.0f32; p * patch];
        for pi in 0..p {
            for ci in 0..c {
                for ky in 0..r {
                    for kx in 0..r {
                        lowered[pi * patch + (ky * r + kx) * c + ci] =
                            self.filters[((pi * c + ci) * r + ky) * r + kx];
                    }
                }
            }
        }
        Tensor::from_vec(lowered, &[p, patch])
    }

    fn ensure_plan(&mut self, h: usize, w: usize) -> Result<(), CircError> {
        if let Some(p) = &self.plan {
            if p.h == h && p.w == w {
                return Ok(());
            }
        }
        let ph = h.next_power_of_two();
        let pw = w.next_power_of_two();
        let plan = Fft2dPlan::<f32>::new(ph, pw)?;
        let (c, p_out, r) = (self.in_channels, self.out_channels, self.kernel);
        let mut filter_spectra = vec![Complex::zero(); p_out * c * ph * pw];
        let mut grid = vec![Complex::zero(); ph * pw];
        for pi in 0..p_out {
            for ci in 0..c {
                grid.fill(Complex::zero());
                for ky in 0..r {
                    for kx in 0..r {
                        grid[ky * pw + kx] =
                            Complex::from_real(self.filters[((pi * c + ci) * r + ky) * r + kx]);
                    }
                }
                plan.forward(&mut grid)?;
                let base = (pi * c + ci) * ph * pw;
                filter_spectra[base..base + ph * pw].copy_from_slice(&grid);
            }
        }
        self.plan = Some(PlannedSpectra {
            h,
            w,
            ph,
            pw,
            plan,
            filter_spectra,
        });
        Ok(())
    }

    /// Valid cross-correlation forward pass: `[C, H, W] → [P, H−r+1, W−r+1]`.
    ///
    /// Channel spectra are computed once and reused by every output map;
    /// each output map needs a single inverse transform (spectral
    /// accumulation), which is the whole of \[52\]'s efficiency.
    ///
    /// # Errors
    ///
    /// Returns [`CircError`] if the input is not `[C, H, W]` with `H, W ≥ r`.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, CircError> {
        if input.shape().rank() != 3 || input.dims()[0] != self.in_channels {
            return Err(CircError::DimensionMismatch {
                expected: self.in_channels,
                got: *input.dims().first().unwrap_or(&0),
            });
        }
        let (h, w) = (input.dims()[1], input.dims()[2]);
        if h < self.kernel || w < self.kernel {
            return Err(CircError::DimensionMismatch {
                expected: self.kernel,
                got: h.min(w),
            });
        }
        self.ensure_plan(h, w)?;
        let planned = self.plan.as_ref().expect("plan just ensured");
        let (ph, pw) = (planned.ph, planned.pw);
        // Input channel spectra.
        let mut channel_spectra = vec![Complex::<f32>::zero(); self.in_channels * ph * pw];
        for ci in 0..self.in_channels {
            let grid = &mut channel_spectra[ci * ph * pw..(ci + 1) * ph * pw];
            for y in 0..h {
                for x in 0..w {
                    grid[y * pw + x] = Complex::from_real(input.data()[(ci * h + y) * w + x]);
                }
            }
            planned.plan.forward(grid)?;
        }
        let (oh, ow) = (h - self.kernel + 1, w - self.kernel + 1);
        let mut out = vec![0.0f32; self.out_channels * oh * ow];
        let mut acc = vec![Complex::<f32>::zero(); ph * pw];
        for pi in 0..self.out_channels {
            acc.fill(Complex::zero());
            for ci in 0..self.in_channels {
                let fbase = (pi * self.in_channels + ci) * ph * pw;
                let fspec = &planned.filter_spectra[fbase..fbase + ph * pw];
                let xspec = &channel_spectra[ci * ph * pw..(ci + 1) * ph * pw];
                for b in 0..ph * pw {
                    acc[b] += fspec[b].conj() * xspec[b];
                }
            }
            planned.plan.inverse(&mut acc)?;
            for y in 0..oh {
                for x in 0..ow {
                    out[(pi * oh + y) * ow + x] = acc[y * pw + x].re;
                }
            }
        }
        Ok(Tensor::from_vec(out, &[self.out_channels, oh, ow]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circnn_nn::{Conv2d, Layer};
    use circnn_tensor::init::seeded_rng;

    #[test]
    fn matches_dense_convolution_exactly() {
        let mut rng = seeded_rng(1);
        let mut lecun = LeCunFftConv2d::new(&mut rng, 3, 4, 5).unwrap();
        let lowered = lecun.to_lowered_weights();
        let mut dense = Conv2d::from_weights(lowered, vec![0.0; 4], 3, 5, 1, 0);
        let x = circnn_tensor::init::uniform(&mut rng, &[3, 12, 12], -1.0, 1.0);
        let yf = lecun.forward(&x).unwrap();
        let yd = dense.forward_batch(&x.reshape(&[1, 3, 12, 12]));
        assert_eq!(&yd.dims()[1..], yf.dims());
        for (a, b) in yf.data().iter().zip(yd.data()) {
            assert!((a - b).abs() < 2e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn parameters_are_not_compressed() {
        let mut rng = seeded_rng(2);
        let lecun = LeCunFftConv2d::new(&mut rng, 16, 32, 3).unwrap();
        assert_eq!(lecun.parameter_count(), 16 * 32 * 9);
    }

    #[test]
    fn spectra_cost_additional_storage_after_planning() {
        // §2.3: "in fact additional storage space is needed".
        let mut rng = seeded_rng(3);
        let mut lecun = LeCunFftConv2d::new(&mut rng, 2, 4, 5).unwrap();
        assert_eq!(lecun.spectrum_storage_floats(), 0);
        let _ = lecun.forward(&Tensor::ones(&[2, 14, 14])).unwrap();
        // Padded grid 16×16, complex: 2·4·256·2 floats ≫ 2·4·25 params.
        assert!(lecun.spectrum_storage_floats() > 10 * lecun.parameter_count());
    }

    #[test]
    fn replanning_happens_on_input_size_change() {
        let mut rng = seeded_rng(4);
        let mut lecun = LeCunFftConv2d::new(&mut rng, 1, 1, 3).unwrap();
        let y1 = lecun.forward(&Tensor::ones(&[1, 8, 8])).unwrap();
        assert_eq!(y1.dims(), &[1, 6, 6]);
        let y2 = lecun.forward(&Tensor::ones(&[1, 16, 12])).unwrap();
        assert_eq!(y2.dims(), &[1, 14, 10]);
    }

    #[test]
    fn validates_inputs() {
        let mut rng = seeded_rng(5);
        let mut lecun = LeCunFftConv2d::new(&mut rng, 2, 2, 5).unwrap();
        assert!(lecun.forward(&Tensor::ones(&[3, 8, 8])).is_err());
        assert!(lecun.forward(&Tensor::ones(&[2, 4, 4])).is_err());
        assert!(LeCunFftConv2d::from_filters(2, 2, 3, vec![0.0; 5]).is_err());
    }
}
