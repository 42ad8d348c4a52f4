//! Deterministic, seeded weight initialisation.
//!
//! Every random draw in the workspace flows through a seeded
//! [`rand::rngs::StdRng`] so the full experiment suite is reproducible
//! run-to-run, which EXPERIMENTS.md relies on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Tensor;

/// Creates a seeded RNG. Thin wrapper so downstream crates never construct
/// RNGs ad hoc with entropy.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Tensor with elements drawn from `N(mean, std²)` (Box–Muller).
pub fn normal(shape: &[usize], mean: f32, std: f32, rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let th = 2.0 * std::f32::consts::PI * u2;
        data.push(mean + std * r * th.cos());
        if data.len() < n {
            data.push(mean + std * r * th.sin());
        }
    }
    Tensor::from_vec(data, shape).expect("normal init length by construction")
}

/// Kaiming (He) normal initialisation for ReLU-family networks:
/// `std = sqrt(2 / fan_in)`.
///
/// For convolution weights `[F, C, KH, KW]`, `fan_in = C·KH·KW`; for linear
/// weights `[out, in]`, `fan_in = in`.
///
/// # Panics
///
/// Panics if `shape` has fewer than 2 axes.
pub fn kaiming_normal(shape: &[usize], rng: &mut StdRng) -> Tensor {
    assert!(shape.len() >= 2, "kaiming init needs a weight-like shape");
    let fan_in: usize = shape[1..].iter().product();
    let std = (2.0 / fan_in as f32).sqrt();
    normal(shape, 0.0, std, rng)
}

/// Stateless counter-based hash: folds `words` into `seed` with a
/// SplitMix64 finalizer per word. Unlike a sequential RNG stream, the
/// result depends only on the *coordinates* hashed — not on how many draws
/// happened before — so decisions derived from it (fault triggers, per-
/// neuron masks) are identical for any batch chunking or thread count.
pub fn mix64(seed: u64, words: &[u64]) -> u64 {
    let mut h = splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for &w in words {
        h = splitmix64(h ^ w.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    }
    h
}

/// Maps a hash to a uniform `f32` in `[0, 1)` (24 high bits → mantissa).
pub fn unit_f32(h: u64) -> f32 {
    ((h >> 40) as f32) / (1u64 << 24) as f32
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::moments;

    #[test]
    fn normal_has_requested_moments() {
        let t = normal(&[20000], 1.0, 2.0, &mut seeded_rng(7));
        let m = moments(t.data());
        assert!((m.mean - 1.0).abs() < 0.05, "mean {}", m.mean);
        assert!((m.std - 2.0).abs() < 0.05, "std {}", m.std);
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let w = kaiming_normal(&[64, 32, 3, 3], &mut seeded_rng(3));
        let m = moments(w.data());
        let expected = (2.0f32 / (32.0 * 9.0)).sqrt();
        assert!(
            (m.std - expected).abs() < 0.01,
            "std {} vs {expected}",
            m.std
        );
    }

    #[test]
    fn odd_length_normal_fills_exactly() {
        let t = normal(&[7], 0.0, 1.0, &mut seeded_rng(9));
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn mix64_depends_on_every_coordinate() {
        let base = mix64(1, &[2, 3, 4]);
        assert_eq!(base, mix64(1, &[2, 3, 4]));
        assert_ne!(base, mix64(2, &[2, 3, 4]));
        assert_ne!(base, mix64(1, &[2, 3, 5]));
        assert_ne!(base, mix64(1, &[3, 2, 4]), "order must matter");
        assert_ne!(base, mix64(1, &[2, 3]));
    }

    #[test]
    fn unit_f32_is_uniform_enough() {
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|i| unit_f32(mix64(7, &[i])) as f64).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        for i in 0..n {
            let u = unit_f32(mix64(7, &[i]));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
