//! # circnn-nn
//!
//! DNN training substrate for the CirCNN reproduction.
//!
//! The paper trains its networks in Caffe on GPUs; this crate is the
//! from-scratch CPU replacement: hand-written backward passes — small,
//! auditable, and deterministic — over a batched layer contract that the
//! block-circulant engine (`circnn-core`) and the serving layer
//! (`circnn-serve`) plug their fast kernels into.
//!
//! Contents:
//!
//! * [`Layer`] — the batched training contract
//!   (`forward_batch`/`backward_batch` over `[batch, …]` tensors; a single
//!   sample is a batch of one), parameter visitation, and the read-only
//!   serving hook (`infer_batch`).
//! * [`InferScratch`] — per-worker scratch slots backing `infer_batch`, so
//!   an `Arc`-shared network can serve many threads without locks.
//! * [`Linear`], [`Conv2d`], [`MaxPool2d`], [`AvgPool2d`], [`Relu`],
//!   [`Sigmoid`], [`Tanh`], [`Flatten`] — the standard layers
//!   (§2.1's FC / CONV / POOL taxonomy).
//! * [`Sequential`] — layer composition.
//! * [`SoftmaxCrossEntropy`], [`MseLoss`] — losses.
//! * [`Sgd`], [`Adam`] — optimizers behind the [`Optimizer`] trait.
//! * [`trainer`] — training loops and accuracy evaluation.
//! * [`prune`] — the heuristic magnitude-pruning baseline ([34, 35] in the
//!   paper) including CSR storage with explicit index overhead, which is the
//!   irregularity cost CirCNN's regular structure avoids.
//! * [`lowrank`] — the SVD low-rank baseline (\[38, 39\] / \[48\] in the paper).
//! * [`rbm`] — restricted Boltzmann machines over a pluggable [`LinearOp`],
//!   used to reproduce the §3.4 DBN training-speedup claim.
//!
//! ## Example
//!
//! ```
//! use circnn_nn::{Linear, Relu, Sequential, Layer};
//! use circnn_tensor::{init::seeded_rng, Tensor};
//!
//! let mut rng = seeded_rng(0);
//! let mut net = Sequential::new()
//!     .add(Linear::new(&mut rng, 4, 8))
//!     .add(Relu::new())
//!     .add(Linear::new(&mut rng, 8, 2));
//! let out = net.forward_batch(&Tensor::ones(&[1, 4]));
//! assert_eq!(out.dims(), &[1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod conv;
mod dropout;
mod infer;
mod layer;
mod linear;
mod loss;
mod network;
mod optimizer;
mod pool;

pub mod linop;
pub mod lowrank;
pub mod prune;
pub mod rbm;
pub mod trainer;

pub use activation::{Flatten, Relu, Sigmoid, Tanh};
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use infer::InferScratch;
pub use layer::Layer;
pub use linear::Linear;
pub use linop::{DenseOp, LinearOp};
pub use loss::{MseLoss, SoftmaxCrossEntropy};
pub use network::Sequential;
pub use optimizer::{Adam, Optimizer, Sgd};
pub use pool::{AvgPool2d, MaxPool2d};
