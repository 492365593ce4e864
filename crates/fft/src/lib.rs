//! # circnn-fft
//!
//! From-scratch FFT substrate for the CirCNN reproduction.
//!
//! CirCNN (Ding et al., MICRO'17) replaces dense weight matrices by
//! block-circulant ones and computes every matrix–vector product as
//! `IFFT(FFT(w) ∘ FFT(x))`. The FFT is therefore the single computational
//! kernel of the whole system — both of the software algorithms
//! (Algorithms 1–2 of the paper) and of the hardware architecture
//! (Section 4, where the *basic computing block* is a butterfly array).
//!
//! This crate provides everything those layers need, with no external
//! numeric dependencies:
//!
//! * [`Complex`] — a minimal complex-number type generic over [`Float`]
//!   (`f32`/`f64`).
//! * [`FftPlan`] — a planned, iterative radix-2 decimation-in-time FFT with
//!   precomputed twiddle factors and bit-reversal tables.
//! * [`RealFftPlan`] — a real-input FFT exploiting Hermitian symmetry via the
//!   half-size complex-FFT packing trick. This is the software analogue of
//!   the paper's Fig. 10 observation that real inputs let the hardware skip
//!   the symmetric half of each butterfly level ("red circles").
//! * [`convolve`] — circular convolution/correlation, both direct `O(n²)`
//!   and FFT-based `O(n log n)`; the circulant-matvec identities the whole
//!   project rests on are tested here against brute force.
//! * [`fixed`] — [`fixed::QFormat`], the signed fixed-point format of the
//!   §4.2 16-bit datapath (and the §5.2 4-bit mode) that `circnn-core`'s
//!   i16 serving path quantizes its spectra and inputs with.
//! * [`ops`] — closed-form operation counts for FFT workloads.
//!
//! ## Example
//!
//! ```
//! use circnn_fft::{FftPlan, Complex};
//!
//! # fn main() -> Result<(), circnn_fft::FftError> {
//! let plan = FftPlan::<f64>::new(8)?;
//! let mut data: Vec<Complex<f64>> =
//!     (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! plan.forward(&mut data)?;
//! plan.inverse(&mut data)?;
//! assert!((data[3].re - 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batched;
mod complex;
mod error;
mod float;
mod plan;
mod rfft;

pub mod convolve;
pub mod fixed;
pub mod ops;

pub use batched::BatchFftPlan;
pub use complex::{Complex, Complex32, Complex64};
pub use error::FftError;
pub use float::Float;
pub use plan::{FftDirection, FftPlan};
pub use rfft::RealFftPlan;
