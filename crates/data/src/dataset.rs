//! In-memory dataset container and batching.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use ull_tensor::Tensor;

/// Per-channel standardisation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Per-channel means.
    pub mean: [f32; 3],
    /// Per-channel standard deviations.
    pub std: [f32; 3],
}

/// An in-memory labelled image dataset. Images are `[3, H, W]` tensors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    images: Vec<Tensor>,
    labels: Vec<usize>,
}

/// A mini-batch assembled by [`Dataset::batch`]: stacked images and labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Stacked images, `[N, 3, H, W]`.
    pub images: Tensor,
    /// Integer class labels, length `N`.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Builds a dataset from parallel image/label vectors.
    ///
    /// # Errors
    ///
    /// Returns an error string if the vectors' lengths differ, images have
    /// inconsistent shapes, or any image is not rank 3.
    pub fn new(images: Vec<Tensor>, labels: Vec<usize>) -> Result<Self, String> {
        if images.len() != labels.len() {
            return Err(format!(
                "images ({}) and labels ({}) length mismatch",
                images.len(),
                labels.len()
            ));
        }
        if let Some(first) = images.first() {
            if first.rank() != 3 {
                return Err(format!("images must be rank 3, got {:?}", first.shape()));
            }
            let shape = first.shape().to_vec();
            for (i, img) in images.iter().enumerate() {
                if img.shape() != shape.as_slice() {
                    return Err(format!(
                        "image {i} shape {:?} differs from {:?}",
                        img.shape(),
                        shape
                    ));
                }
            }
        }
        Ok(Dataset { images, labels })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The `i`-th image.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn image(&self, i: usize) -> &Tensor {
        &self.images[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Shape of one image, e.g. `[3, 32, 32]`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub(crate) fn image_shape(&self) -> &[usize] {
        self.images
            .first()
            .expect("image_shape of empty dataset")
            .shape()
    }

    /// Stacks the samples at `indices` into a `[N, 3, H, W]` batch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn batch(&self, indices: &[usize]) -> Batch {
        assert!(!indices.is_empty(), "cannot build an empty batch");
        let shape = self.image_shape();
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let per = c * h * w;
        let mut data = Vec::with_capacity(indices.len() * per);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.images[i].data());
            labels.push(self.labels[i]);
        }
        Batch {
            images: Tensor::from_vec(data, &[indices.len(), c, h, w])
                .expect("batch length by construction"),
            labels,
        }
    }

    /// Computes per-channel mean/std over the whole dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub(crate) fn channel_stats(&self) -> ChannelStats {
        assert!(!self.is_empty(), "channel_stats of empty dataset");
        let shape = self.image_shape();
        let plane = shape[1] * shape[2];
        let mut mean = [0.0f64; 3];
        let mut sq = [0.0f64; 3];
        let n = (self.len() * plane) as f64;
        for img in &self.images {
            for c in 0..3 {
                for &v in &img.data()[c * plane..(c + 1) * plane] {
                    mean[c] += v as f64;
                    sq[c] += (v as f64) * (v as f64);
                }
            }
        }
        let mut out = ChannelStats {
            mean: [0.0; 3],
            std: [0.0; 3],
        };
        for c in 0..3 {
            let m = mean[c] / n;
            out.mean[c] = m as f32;
            out.std[c] = ((sq[c] / n - m * m).max(1e-12)).sqrt() as f32;
        }
        out
    }

    /// Standardises every image in place with the given statistics.
    pub(crate) fn standardize(&mut self, stats: &ChannelStats) {
        if self.is_empty() {
            return;
        }
        let shape = self.image_shape().to_vec();
        let plane = shape[1] * shape[2];
        for img in &mut self.images {
            let d = img.data_mut();
            for c in 0..3 {
                let inv = 1.0 / stats.std[c];
                for v in &mut d[c * plane..(c + 1) * plane] {
                    *v = (*v - stats.mean[c]) * inv;
                }
            }
        }
    }

    /// Returns a shuffled epoch iterator over mini-batches of `batch_size`.
    /// The final short batch is included.
    pub fn epoch_batches<'a>(&'a self, batch_size: usize, rng: &mut StdRng) -> BatchIter<'a> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        BatchIter {
            dataset: self,
            order,
            batch_size: batch_size.max(1),
            cursor: 0,
        }
    }

    /// Returns a deterministic (unshuffled) iterator over mini-batches.
    pub fn eval_batches(&self, batch_size: usize) -> BatchIter<'_> {
        BatchIter {
            dataset: self,
            order: (0..self.len()).collect(),
            batch_size: batch_size.max(1),
            cursor: 0,
        }
    }

    /// A copy of the dataset with zero-mean Gaussian noise of the given
    /// standard deviation added to every pixel — the input-corruption
    /// robustness probe used when comparing DNN and SNN degradation (cf.
    /// the paper's references \[9\]/\[26\] on SNN robustness).
    pub fn with_noise(&self, std: f32, seed: u64) -> Dataset {
        let mut rng = ull_tensor::init::seeded_rng(seed);
        let images = self
            .images
            .iter()
            .map(|img| {
                let noise = ull_tensor::init::normal(img.shape(), 0.0, std, &mut rng);
                img.add(&noise)
            })
            .collect();
        Dataset {
            images,
            labels: self.labels.clone(),
        }
    }

    /// A copy where each pixel is independently replaced by NaN with
    /// probability `rate` — deterministic (seeded) input corruption for
    /// robustness studies, e.g. sensor dropouts feeding non-numbers into
    /// the first layer. Labels are unchanged; `rate = 0` is the identity.
    pub fn with_nan_poison(&self, rate: f32, seed: u64) -> Dataset {
        let mut rng = ull_tensor::init::seeded_rng(seed);
        let images = self
            .images
            .iter()
            .map(|img| {
                let mut img = img.clone();
                for x in img.data_mut() {
                    if rng.gen_bool(rate.clamp(0.0, 1.0) as f64) {
                        *x = f32::NAN;
                    }
                }
                img
            })
            .collect();
        Dataset {
            images,
            labels: self.labels.clone(),
        }
    }

    /// A new dataset containing only the first `n` samples (prefix subset).
    pub fn take(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        Dataset {
            images: self.images[..n].to_vec(),
            labels: self.labels[..n].to_vec(),
        }
    }
}

/// Iterator over mini-batches of a [`Dataset`]; see
/// [`Dataset::epoch_batches`] and [`Dataset::eval_batches`].
#[derive(Debug)]
pub struct BatchIter<'a> {
    dataset: &'a Dataset,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl Iterator for BatchIter<'_> {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let batch = self.dataset.batch(&self.order[self.cursor..end]);
        self.cursor = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_tensor::init::seeded_rng;

    fn toy_dataset(n: usize) -> Dataset {
        let images: Vec<Tensor> = (0..n).map(|i| Tensor::full(&[3, 2, 2], i as f32)).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        Dataset::new(images, labels).unwrap()
    }

    #[test]
    fn new_validates_lengths_and_shapes() {
        let imgs = vec![Tensor::zeros(&[3, 2, 2])];
        assert!(Dataset::new(imgs.clone(), vec![0, 1]).is_err());
        let bad = vec![Tensor::zeros(&[3, 2, 2]), Tensor::zeros(&[3, 4, 4])];
        assert!(Dataset::new(bad, vec![0, 1]).is_err());
        let rank2 = vec![Tensor::zeros(&[2, 2])];
        assert!(Dataset::new(rank2, vec![0]).is_err());
        assert!(Dataset::new(imgs, vec![0]).is_ok());
    }

    #[test]
    fn batch_stacks_in_order() {
        let d = toy_dataset(5);
        let b = d.batch(&[2, 0, 4]);
        assert_eq!(b.images.shape(), &[3, 3, 2, 2]);
        assert_eq!(b.labels, vec![2, 0, 1]);
        assert_eq!(b.images.at(&[0, 0, 0, 0]), 2.0);
        assert_eq!(b.images.at(&[1, 0, 0, 0]), 0.0);
        assert_eq!(b.images.at(&[2, 0, 0, 0]), 4.0);
    }

    #[test]
    fn epoch_batches_cover_everything_once() {
        let d = toy_dataset(10);
        let mut rng = seeded_rng(3);
        let mut seen = vec![0usize; 10];
        for b in d.epoch_batches(3, &mut rng) {
            for (i, img0) in b.labels.iter().enumerate() {
                let _ = img0;
                let v = b.images.at(&[i, 0, 0, 0]) as usize;
                seen[v] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn epoch_batches_shuffle_is_seed_deterministic() {
        let d = toy_dataset(8);
        let collect = |seed: u64| -> Vec<f32> {
            d.epoch_batches(8, &mut seeded_rng(seed))
                .flat_map(|b| {
                    (0..8)
                        .map(move |i| b.images.at(&[i, 0, 0, 0]))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn eval_batches_are_in_order_with_tail() {
        let d = toy_dataset(7);
        let batches: Vec<Batch> = d.eval_batches(3).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[2].images.shape()[0], 1);
        assert_eq!(batches[0].images.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(batches[2].images.at(&[0, 0, 0, 0]), 6.0);
    }

    #[test]
    fn standardize_centres_channels() {
        let mut d = toy_dataset(4);
        let stats = d.channel_stats();
        d.standardize(&stats);
        let after = d.channel_stats();
        for c in 0..3 {
            assert!(after.mean[c].abs() < 1e-5);
            assert!((after.std[c] - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn with_noise_perturbs_without_relabelling() {
        let d = toy_dataset(4);
        let n = d.with_noise(0.5, 7);
        assert_eq!(n.labels(), d.labels());
        assert_ne!(n.image(0).data(), d.image(0).data());
        // Zero noise is the identity.
        let z = d.with_noise(0.0, 7);
        for i in 0..d.len() {
            for (a, b) in z.image(i).data().iter().zip(d.image(i).data()) {
                assert!((a - b).abs() < 1e-6);
            }
        }
        // Seeded: reproducible.
        assert_eq!(d.with_noise(0.5, 7), n);
    }

    #[test]
    fn with_nan_poison_is_seeded_and_rate_bounded() {
        let d = toy_dataset(4);
        // Identity at rate 0.
        assert_eq!(d.with_nan_poison(0.0, 3), d);
        // Seeded: reproducible; labels untouched.
        let p = d.with_nan_poison(0.25, 3);
        assert_eq!(p.labels(), d.labels());
        let p2 = d.with_nan_poison(0.25, 3);
        for i in 0..d.len() {
            assert_eq!(
                p.image(i)
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                p2.image(i)
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            );
        }
        // Poison rate lands in the right ballpark.
        let mut nan = 0usize;
        let mut total = 0usize;
        for i in 0..d.len() {
            nan += p.image(i).data().iter().filter(|x| x.is_nan()).count();
            total += p.image(i).data().len();
        }
        let rate = nan as f32 / total as f32;
        assert!((0.1..0.4).contains(&rate), "observed poison rate {rate}");
        // Everything NaN at rate 1.
        let all = d.with_nan_poison(1.0, 3);
        assert!(all.image(0).data().iter().all(|x| x.is_nan()));
    }

    #[test]
    fn take_prefix() {
        let d = toy_dataset(5);
        let t = d.take(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.labels(), &[0, 1]);
        assert_eq!(d.take(100).len(), 5);
    }
}
