//! # circnn-tensor
//!
//! Minimal dense-tensor substrate for the CirCNN reproduction.
//!
//! The paper's training stack (Caffe + GPUs in the original) is replaced by
//! a small, deterministic CPU library. It provides exactly what the DNN and
//! block-circulant layers need:
//!
//! * [`Tensor`] — a row-major `f32` n-d array with element-wise arithmetic,
//!   2-D matrix multiplication, transposition and reshaping.
//! * [`im2col`] — the convolution-lowering transform of the paper's Fig. 6
//!   ("reformulation of Eqn. (6) to matrix multiplication"), plus its
//!   adjoint `col2im` used by the backward pass.
//! * [`init`] — seeded Xavier/He initializers built on `rand`.
//! * [`tanh`] — the library's one `tanh`, a port of the fdlibm `tanhf`
//!   glibc shipped ([`tanhf`] holds its constants), so activations do not
//!   depend on the host libm.
//!
//! Everything is deterministic given a seed; no threading, no SIMD
//! intrinsics — results are bit-reproducible across runs, which the
//! experiment harness relies on.
//!
//! ## Example
//!
//! ```
//! use circnn_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod shape;
mod tensor;

pub mod im2col;
pub mod init;
pub mod tanhf;

pub use shape::Shape;
pub use tanhf::tanh;
pub use tensor::{stack_samples, Tensor};
