//! Dense `f32` tensor kernels for the `ultralow-snn` workspace.
//!
//! This crate is the numeric substrate for the reproduction of
//! *"Can Deep Neural Networks be Converted to Ultra Low-Latency Spiking
//! Neural Networks?"* (Datta & Beerel, DATE 2022). It provides a contiguous
//! row-major [`Tensor`] with the operations the paper's models need:
//!
//! * elementwise arithmetic and mapping ([`Tensor::add`], [`Tensor::map`], …)
//! * matrix multiplication ([`matmul`])
//! * 2-d convolution lowered to GEMM over an implicit im2col matrix (no
//!   column buffer in the forward or the backward pass) ([`conv`])
//! * weight-stationary packed dense kernels ([`packed`]) — weights laid out
//!   once per network into panels for the register-blocked core, the one
//!   `A · Bᵀ` kernel behind every conv and linear forward, DNN and SNN
//! * event-driven sparse kernels over compact spike batches ([`events`]),
//!   bit-identical to the dense path, kept as a per-layer reference

//! * max / average pooling with backward passes ([`pool`])
//! * reductions, softmax, and clipping (the threshold-ReLU of Eq. 1)
//! * statistics used by the conversion algorithm: percentiles and
//!   histograms of pre-activation values ([`stats`])
//! * seeded weight initialisation ([`init`])
//!
//! Everything is deterministic given a seed; there is no `unsafe` and no
//! external BLAS, so results are bit-reproducible across runs — a property
//! the experiment harness relies on. The hot kernels are data-parallel
//! over a dependency-free `std::thread` pool ([`parallel`], tuned with the
//! `ULL_THREADS` environment variable), but partitioning preserves each
//! output element's serial accumulation order, so results are also
//! bit-identical across thread counts.
//!
//! # Example
//!
//! ```
//! use ull_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = ull_tensor::matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), ull_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod ops;
mod tensor;

pub mod conv;
pub mod events;
pub mod init;
pub mod matmul;
pub mod packed;
pub mod parallel;
pub mod pool;
pub mod stats;

// The unit tests share the integration tests' scalar reference kernels,
// which name this crate by its external name; they use only some of them.
#[cfg(test)]
extern crate self as ull_tensor;
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/common/reference.rs"]
mod reference;

pub use error::TensorError;
pub use events::{conv2d_events, matmul_tb_events, SpikeBatch};
pub use matmul::{matmul, matmul_transpose_a, matmul_transpose_b};
pub use packed::{
    matmul_packed, matmul_tb_packed, matmul_tb_packed_into, tensor_fingerprint, PackLayout,
    PackedWeights,
};
pub use tensor::Tensor;

/// Convenience alias for results returned by fallible tensor constructors.
pub type Result<T> = std::result::Result<T, TensorError>;
