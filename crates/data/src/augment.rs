//! Training-time augmentation: pad-and-crop plus horizontal flip, the
//! standard CIFAR recipe the paper's training setup uses.

use rand::rngs::StdRng;
use rand::Rng;
use ull_tensor::Tensor;

/// Augmentation policy applied to each training batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Augment {
    /// Zero padding before the random crop (0 disables cropping).
    pub pad: usize,
    /// Whether to flip horizontally with probability ½.
    pub flip: bool,
}

impl Augment {
    /// The standard CIFAR policy: pad-4 random crop + horizontal flip
    /// (scaled down automatically for small images by the caller).
    pub fn standard() -> Self {
        Augment { pad: 2, flip: true }
    }

    /// No augmentation.
    pub fn none() -> Self {
        Augment {
            pad: 0,
            flip: false,
        }
    }

    /// Applies the policy to a `[N, C, H, W]` batch in place.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is not rank 4.
    pub fn apply(&self, batch: &mut Tensor, rng: &mut StdRng) {
        assert_eq!(batch.rank(), 4, "augment expects [N, C, H, W]");
        let n = batch.shape()[0];
        for i in 0..n {
            if self.pad > 0 {
                let dy = rng.gen_range(0..=2 * self.pad) as isize - self.pad as isize;
                let dx = rng.gen_range(0..=2 * self.pad) as isize - self.pad as isize;
                shift_image(batch, i, dy, dx);
            }
            if self.flip && rng.gen_bool(0.5) {
                flip_image(batch, i);
            }
        }
    }
}

/// Translates image `i` of a `[N, C, H, W]` batch by (dy, dx), zero-filling.
fn shift_image(batch: &mut Tensor, i: usize, dy: isize, dx: isize) {
    let (c, h, w) = (batch.shape()[1], batch.shape()[2], batch.shape()[3]);
    let plane = h * w;
    let base = i * c * plane;
    let data = batch.data_mut();
    let mut shifted = vec![0.0f32; c * plane];
    for ch in 0..c {
        for y in 0..h {
            let sy = y as isize + dy;
            if sy < 0 || sy >= h as isize {
                continue;
            }
            for x in 0..w {
                let sx = x as isize + dx;
                if sx < 0 || sx >= w as isize {
                    continue;
                }
                shifted[ch * plane + y * w + x] =
                    data[base + ch * plane + sy as usize * w + sx as usize];
            }
        }
    }
    data[base..base + c * plane].copy_from_slice(&shifted);
}

/// Mirrors image `i` of a `[N, C, H, W]` batch horizontally, in place.
fn flip_image(batch: &mut Tensor, i: usize) {
    let (c, h, w) = (batch.shape()[1], batch.shape()[2], batch.shape()[3]);
    let plane = h * w;
    let base = i * c * plane;
    let data = batch.data_mut();
    for ch in 0..c {
        for y in 0..h {
            let row = base + ch * plane + y * w;
            data[row..row + w].reverse();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_tensor::init::seeded_rng;

    /// Randomly crops a single `[C, H, W]` image after zero-padding by
    /// `pad`: the translate-with-zero-fill of [`Augment::apply`].
    fn random_crop_with_padding(img: &Tensor, pad: usize, rng: &mut StdRng) -> Tensor {
        assert_eq!(img.rank(), 3, "random_crop expects [C, H, W]");
        let mut batch = img
            .reshape(&[1, img.shape()[0], img.shape()[1], img.shape()[2]])
            .expect("rank-3 to rank-4 reshape");
        let dy = rng.gen_range(0..=2 * pad) as isize - pad as isize;
        let dx = rng.gen_range(0..=2 * pad) as isize - pad as isize;
        shift_image(&mut batch, 0, dy, dx);
        batch
            .reshape(img.shape())
            .expect("rank-4 to rank-3 reshape")
    }

    /// Horizontally flips a single `[C, H, W]` image.
    fn horizontal_flip(img: &Tensor) -> Tensor {
        assert_eq!(img.rank(), 3, "horizontal_flip expects [C, H, W]");
        let mut batch = img
            .reshape(&[1, img.shape()[0], img.shape()[1], img.shape()[2]])
            .expect("rank-3 to rank-4 reshape");
        flip_image(&mut batch, 0);
        batch
            .reshape(img.shape())
            .expect("rank-4 to rank-3 reshape")
    }

    fn ramp_image() -> Tensor {
        Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 2, 2]).unwrap()
    }

    #[test]
    fn flip_reverses_rows() {
        let img = ramp_image();
        let f = horizontal_flip(&img);
        assert_eq!(f.at(&[0, 0, 0]), img.at(&[0, 0, 1]));
        assert_eq!(f.at(&[2, 1, 1]), img.at(&[2, 1, 0]));
        // Double flip is identity.
        assert_eq!(horizontal_flip(&f), img);
    }

    #[test]
    fn zero_pad_crop_preserves_or_zeroes() {
        let img = Tensor::ones(&[3, 4, 4]);
        let mut rng = seeded_rng(1);
        let out = random_crop_with_padding(&img, 2, &mut rng);
        assert_eq!(out.shape(), &[3, 4, 4]);
        assert!(out.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn crop_with_zero_pad_is_identity() {
        let img = ramp_image();
        let mut rng = seeded_rng(2);
        let out = random_crop_with_padding(&img, 0, &mut rng);
        assert_eq!(out, img);
    }

    #[test]
    fn apply_none_is_identity() {
        let mut batch = Tensor::ones(&[2, 3, 4, 4]);
        let before = batch.clone();
        Augment::none().apply(&mut batch, &mut seeded_rng(5));
        assert_eq!(batch, before);
    }

    #[test]
    fn apply_is_deterministic_per_seed() {
        let make = |seed: u64| {
            let mut b =
                Tensor::from_vec((0..96).map(|x| x as f32).collect(), &[2, 3, 4, 4]).unwrap();
            Augment::standard().apply(&mut b, &mut seeded_rng(seed));
            b
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7).data(), make(8).data());
    }

    #[test]
    fn shift_keeps_total_mass_bounded() {
        // Shifting can only lose mass off the edge, never create it.
        let mut batch = Tensor::ones(&[1, 1, 4, 4]);
        shift_image(&mut batch, 0, 2, -1);
        assert!(batch.sum() <= 16.0);
        assert!(batch.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }
}
