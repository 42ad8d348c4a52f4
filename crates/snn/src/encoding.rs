//! Input encodings: direct (analog) vs Poisson rate coding.
//!
//! The paper adopts **direct encoding** (§I): the analog pixel values feed
//! the first convolution at every time step, so only hidden layers spike.
//! The classical alternative — **rate coding** — converts each pixel into
//! a Bernoulli/Poisson spike train whose rate is proportional to
//! intensity. Rate coding keeps the first layer accumulate-only but needs
//! an order of magnitude more time steps for the rates to resolve, which
//! is exactly why the paper (and [7]–[9]) moved away from it. This module
//! implements both so the claim is reproducible (see the
//! `rate_vs_direct` example and the `ablation_design` experiment).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use ull_tensor::Tensor;

use crate::network::{SnnNetwork, SnnOutput};

/// How the input image is presented to the SNN over time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InputEncoding {
    /// The analog image every step (the paper's choice; first layer MACs).
    Direct,
    /// Bernoulli spike trains with per-pixel rate proportional to the
    /// intensity, rescaled to `[0, max_rate]` spikes/step. First layer
    /// becomes accumulate-only but rates need many steps to resolve.
    PoissonRate {
        /// Peak firing probability per step, in `(0, 1]`.
        max_rate: f32,
    },
}

impl InputEncoding {
    /// Produces the input tensor for one time step.
    ///
    /// For `Direct` this is a cheap clone of `x`. For `PoissonRate` the
    /// standardised image is min-max rescaled to `[0, max_rate]` per batch
    /// and sampled as independent Bernoulli spikes of unit amplitude.
    pub fn encode_step(&self, x: &Tensor, rng: &mut StdRng) -> Tensor {
        match *self {
            InputEncoding::Direct => x.clone(),
            InputEncoding::PoissonRate { max_rate } => {
                let lo = x.min();
                let hi = x.max();
                let span = (hi - lo).max(1e-6);
                let mut out = Tensor::zeros(x.shape());
                let od = out.data_mut();
                for (o, &v) in od.iter_mut().zip(x.data()) {
                    // A constant image (hi == lo) or a max_rate outside
                    // (0, 1] would otherwise produce probabilities beyond
                    // [0, 1] — or NaN on non-finite pixels — so clamp the
                    // firing probability. Exactly one RNG draw per element
                    // regardless, to keep the stream position (and thus
                    // every downstream sample) independent of pixel values.
                    let raw = (v - lo) / span * max_rate;
                    let p = if raw.is_finite() {
                        raw.clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    if rng.gen::<f32>() < p {
                        *o = 1.0;
                    }
                }
                out
            }
        }
    }
}

impl SnnNetwork {
    /// Inference with an explicit input encoding. `Direct` matches
    /// [`SnnNetwork::forward`] exactly; `PoissonRate` replaces the analog
    /// input with stochastic spike trains (seeded by `rng`).
    ///
    /// # Panics
    ///
    /// Panics if `t_steps == 0`.
    pub fn forward_with_encoding(
        &self,
        x: &Tensor,
        t_steps: usize,
        encoding: InputEncoding,
        rng: &mut StdRng,
    ) -> SnnOutput {
        assert!(t_steps > 0, "need at least one time step");
        let _span = ull_obs::span("snn.forward");
        let batch = x.shape()[0];
        let mut run = self.stepper(batch, t_steps);
        for _ in 0..t_steps {
            run.step(&encoding.encode_step(x, rng), None);
        }
        let out = run.finish();
        ull_obs::counter_add("snn.forward.images", batch as u64);
        out.stats.publish_to_obs();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SpikeSpec;
    use ull_nn::NetworkBuilder;
    use ull_tensor::init::{normal, seeded_rng};

    fn tiny_snn() -> SnnNetwork {
        let mut b = NetworkBuilder::new(2, 4, 5);
        b.conv2d(3, 3, 1, 1);
        b.threshold_relu(0.8);
        b.flatten();
        b.linear(3);
        let dnn = b.build();
        SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(0.8)]).unwrap()
    }

    #[test]
    fn direct_encoding_matches_plain_forward() {
        let snn = tiny_snn();
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(1));
        let plain = snn.forward(&x, 3);
        let enc = snn.forward_with_encoding(&x, 3, InputEncoding::Direct, &mut seeded_rng(2));
        assert_eq!(plain.logits, enc.logits);
    }

    #[test]
    fn poisson_spikes_are_binary() {
        let x = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut seeded_rng(3));
        let enc = InputEncoding::PoissonRate { max_rate: 0.8 };
        let xt = enc.encode_step(&x, &mut seeded_rng(4));
        assert!(xt.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn poisson_rate_tracks_intensity() {
        // Brightest pixel should fire at ~max_rate, darkest at ~0.
        let x =
            Tensor::from_vec((0..32).map(|i| i as f32 / 31.0).collect(), &[1, 2, 4, 4]).unwrap();
        let enc = InputEncoding::PoissonRate { max_rate: 1.0 };
        let mut rng = seeded_rng(5);
        let trials = 400;
        let mut bright = 0;
        let mut dark = 0;
        for _ in 0..trials {
            let xt = enc.encode_step(&x, &mut rng);
            bright += (xt.data()[31] == 1.0) as usize;
            dark += (xt.data()[0] == 1.0) as usize;
        }
        assert!(
            (bright as f32) / (trials as f32) > 0.95,
            "bright rate {bright}/{trials}"
        );
        assert!(
            (dark as f32) / (trials as f32) < 0.05,
            "dark rate {dark}/{trials}"
        );
    }

    #[test]
    fn constant_image_never_spikes_but_advances_the_rng() {
        // Regression: a constant image used to divide by the clamped span
        // 1e-6, and out-of-range probabilities were passed to the Bernoulli
        // draw unclamped. All pixels sit at the minimum, so none may fire —
        // and the encoder must still consume one draw per element so the
        // stream position does not depend on pixel values.
        let x = Tensor::full(&[1, 2, 4, 4], 0.37);
        let enc = InputEncoding::PoissonRate { max_rate: 1.0 };
        let mut rng = seeded_rng(42);
        let xt = enc.encode_step(&x, &mut rng);
        assert!(xt.data().iter().all(|&v| v == 0.0), "constant image spiked");
        let mut reference = seeded_rng(42);
        for _ in 0..x.len() {
            let _: f32 = reference.gen();
        }
        assert_eq!(rng.gen::<f32>(), reference.gen::<f32>());
    }

    #[test]
    fn out_of_range_rates_clamp_to_certain_or_never() {
        // max_rate > 1 must saturate at "fires every step", not feed a
        // probability > 1 into the sampler; a negative rate never fires.
        let x =
            Tensor::from_vec((0..32).map(|i| i as f32 / 31.0).collect(), &[1, 2, 4, 4]).unwrap();
        let always = InputEncoding::PoissonRate { max_rate: 100.0 };
        for _ in 0..8 {
            let xt = always.encode_step(&x, &mut seeded_rng(3));
            assert_eq!(xt.data()[31], 1.0, "brightest pixel must fire");
        }
        let never = InputEncoding::PoissonRate { max_rate: -1.0 };
        let xt = never.encode_step(&x, &mut seeded_rng(3));
        assert!(xt.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rate_coding_is_noisier_than_direct_at_small_t() {
        // With few steps, rate-coded logits vary across seeds; direct is
        // deterministic. This is the paper's latency argument in miniature.
        let snn = tiny_snn();
        let x = normal(&[1, 2, 4, 4], 0.5, 1.0, &mut seeded_rng(6));
        let enc = InputEncoding::PoissonRate { max_rate: 0.9 };
        let a = snn
            .forward_with_encoding(&x, 2, enc, &mut seeded_rng(7))
            .logits;
        let b = snn
            .forward_with_encoding(&x, 2, enc, &mut seeded_rng(8))
            .logits;
        assert_ne!(a, b, "two rate-coded runs coincided unexpectedly");
        let d1 = snn.forward(&x, 2).logits;
        let d2 = snn.forward(&x, 2).logits;
        assert_eq!(d1, d2);
    }

    #[test]
    fn rate_coding_variance_shrinks_with_t() {
        // Averaged over many steps, rate-coded logits converge run-to-run.
        let snn = tiny_snn();
        let x = normal(&[1, 2, 4, 4], 0.5, 1.0, &mut seeded_rng(9));
        let enc = InputEncoding::PoissonRate { max_rate: 0.9 };
        let spread = |t: usize| -> f32 {
            let runs: Vec<Tensor> = (0..6)
                .map(|s| {
                    snn.forward_with_encoding(&x, t, enc, &mut seeded_rng(100 + s))
                        .logits
                })
                .collect();
            let mut max_d = 0.0f32;
            for i in 0..runs.len() {
                for j in i + 1..runs.len() {
                    for (a, b) in runs[i].data().iter().zip(runs[j].data()) {
                        max_d = max_d.max((a - b).abs());
                    }
                }
            }
            max_d
        };
        let s2 = spread(2);
        let s64 = spread(64);
        assert!(s64 < s2, "spread at T=64 ({s64}) not below T=2 ({s2})");
    }
}
