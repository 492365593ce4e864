//! # circnn-core
//!
//! The paper's primary contribution: **block-circulant weight matrices**
//! with FFT-based `O(n log n)` forward and backward passes.
//!
//! CirCNN (Ding et al., MICRO'17, §3) partitions an `m×n` weight matrix into
//! `p×q` square blocks of size `k`; each block is a circulant matrix defined
//! by a single length-`k` vector, so storage falls from `O(n²)` to `O(n)`
//! and every block matvec becomes a circular correlation computed as
//! `IFFT(FFT(w) ∘ FFT(x))` in `O(k log k)`. Crucially the network is
//! *trained directly in this representation* (Algorithm 2), not compressed
//! after the fact.
//!
//! Contents:
//!
//! * [`CirculantMatrix`] — a single `k×k` circulant block.
//! * [`BlockCirculantMatrix`] — the partitioned `m×n` operator. Its
//!   resident weight-spectrum planes are the paper's "RAM stores
//!   `FFT(w_ij)`" (§4.2); one batched engine over them implements
//!   Algorithm 1 (forward), the transpose apply, and the Algorithm-2
//!   weight-gradient kernel, and a single sample is a batch of one.
//! * [`CirculantLinear`] — a drop-in FC layer (`circnn_nn::Layer`).
//! * [`CirculantConv2d`] — the CONV layer of §3.2: filters circulant across
//!   the channel dimensions, lowered through im2col per Eqn. (7).
//! * [`SingleCirculantLinear`] — the \[54\] (Cheng et al.) baseline that uses
//!   one big zero-padded circulant matrix; kept to quantify the storage
//!   waste block partitioning removes (paper Fig. 4).
//! * [`compression`] — storage accounting (parameters/bytes/ratios).
//! * [`approx`] — utilities for the §3.3 universal-approximation experiment.
//!
//! ## Example
//!
//! ```
//! use circnn_core::BlockCirculantMatrix;
//! use circnn_tensor::init::seeded_rng;
//!
//! # fn main() -> Result<(), circnn_core::CircError> {
//! let mut rng = seeded_rng(0);
//! let w = BlockCirculantMatrix::random(&mut rng, 128, 256, 32)?;
//! assert_eq!(w.num_parameters(), 128 * 256 / 32); // 32× fewer than dense
//! let x = vec![0.1_f32; 256];
//! let y = w.matvec(&x)?;                          // O(n log n), Algorithm 1
//! assert_eq!(y.len(), 128);
//! # Ok(())
//! # }
//! ```

// `deny` (not `forbid`) so the SIMD module can locally re-allow it for the
// `core::arch` intrinsic kernels; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod baseline54;
mod circulant;
mod engine;
mod error;
mod fc;
mod matrix;
mod simd;

pub mod approx;
pub mod compression;
pub mod conv;
pub mod lecun;
pub mod quantized;
pub mod rnn;
pub mod serialize;

pub use baseline54::SingleCirculantLinear;
pub use circulant::CirculantMatrix;
pub use conv::{CirculantConv2d, ConvWorkspace};
pub use error::CircError;
pub use fc::CirculantLinear;
pub use lecun::LeCunFftConv2d;
pub use matrix::{default_batch_threads, BlockCirculantMatrix, RowSlice, Workspace};
pub use quantized::{
    QuantConfig, QuantWorkspace, QuantizedConv2d, QuantizedLinear, QuantizedOperator,
    QuantizedRnnCell,
};
pub use rnn::{
    CirculantRnn, CirculantRnnCell, RecurrentWorkspace, ReservoirClassifier, RnnReadout,
};
