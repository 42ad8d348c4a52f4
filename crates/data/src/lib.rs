//! SynthCifar: procedurally generated image-classification datasets.
//!
//! The paper evaluates on CIFAR-10 / CIFAR-100, which cannot be downloaded
//! in this environment. SynthCifar is the documented substitution
//! (DESIGN.md §2): a seeded generator that produces 3-channel images whose
//! classes are mixtures of oriented gratings and Gaussian blobs, perturbed
//! per-sample by spatial jitter, amplitude scaling, flips and pixel noise.
//!
//! Why this preserves the paper's phenomena:
//!
//! * trained ReLU networks on these images develop the **skewed,
//!   near-zero-concentrated pre-activation distributions** that the paper's
//!   analysis (Fig. 1a, Eq. 6/7) is about — that property comes from ReLU +
//!   natural-image-like statistics, not from CIFAR specifically;
//! * class structure is non-trivial (jitter + noise + shared frequency
//!   bands), so accuracy is a meaningful, non-saturating signal;
//! * generation is deterministic given a seed, so every experiment is
//!   exactly reproducible.
//!
//! # Example
//!
//! ```
//! use ull_data::SynthCifarConfig;
//!
//! let cfg = SynthCifarConfig::tiny(10);
//! let (train, test) = ull_data::generate(&cfg);
//! assert_eq!(train.len(), cfg.train_size);
//! assert_eq!(test.len(), cfg.test_size);
//! let batch = train.batch(&[0, 1, 2]);
//! assert_eq!(batch.images.shape()[0], 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
mod dataset;
mod synth;

pub use augment::Augment;
pub use dataset::{Batch, BatchIter, Dataset};
pub use synth::{generate, SynthCifarConfig};
