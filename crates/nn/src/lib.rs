//! DNN layers, models and training for the `ultralow-snn` workspace.
//!
//! This crate implements the *source network* side of the paper: deep
//! convolutional networks with the **trainable threshold ReLU** activation
//! of Eq. 1 (`y = clip(Σ w·x, 0, μ)` with μ learned per layer), built as a
//! static graph ([`Network`]) that supports both chains (VGG) and skip
//! connections (ResNet).
//!
//! Per the paper's setup (§IV-A):
//!
//! * **no batch normalisation** (it would break bias-free conversion);
//!   Dropout is the only regulariser,
//! * **max pooling** is kept (binary-spike-compatible after conversion),
//! * SGD with step-decay learning rate (×0.1 at 60 / 80 / 90 % of epochs).
//!
//! All backward passes are hand-written for speed and validated against the
//! `ull-grad` tape engine and finite differences in this crate's tests.
//!
//! # Example
//!
//! ```
//! use ull_nn::{models, Network};
//! use ull_tensor::Tensor;
//!
//! // A width-0.25 VGG-11 for 8x8 inputs and 10 classes.
//! let net = models::vgg11(10, 8, 0.25, 7);
//! let x = Tensor::zeros(&[2, 3, 8, 8]);
//! let logits = net.forward_eval(&x);
//! assert_eq!(logits.shape(), &[2, 10]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod loss;
mod network;
mod optim;
mod param;
mod trainer;

pub mod models;

pub use checkpoint::{
    fnv1a, load, load_latest, load_with_meta, save, save_with_meta, write_atomic, CheckpointError,
    CheckpointMeta, ValidatePayload, CHECKPOINT_EXT, FORMAT_VERSION,
};
pub use loss::{cross_entropy_grad, cross_entropy_loss};
pub use network::{
    conv_backward, linear_backward, Network, NetworkBuilder, NodeId, NodeOp, TapeEntry,
};
pub use optim::{clip_grads, LrSchedule, Sgd, SgdConfig};
pub use param::Param;
pub use trainer::{
    evaluate, finite_check, run_epoch, train_epoch, train_epoch_with_hook, EpochStats, TrainConfig,
    TrainError, Trainable,
};
