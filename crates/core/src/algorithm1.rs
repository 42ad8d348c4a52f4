//! Algorithm 1 of the paper: percentile-driven search for the per-layer
//! scaling factors (α, β).
//!
//! The SNN threshold is set to `α·μ` and the spike output height to
//! `β·V^th`. For each candidate α — drawn from the *percentiles* of the
//! layer's DNN pre-activation distribution, which places candidates densely
//! where the distribution has mass — β sweeps `[0, 2]` in steps of 0.01,
//! and the pair minimising the summed post-activation difference (Seg-I /
//! Seg-II / Seg-III of Fig. 1b) wins.
//!
//! # One loss kernel
//!
//! Every loss comes from [`beta_losses`], which scores one α against a
//! grid of β values in a single pass over the percentile samples. Per
//! sample it hoists the β-free part of the contribution — the Seg-I/II
//! staircase level `j·α` with `j = clip(⌊p·T/(αμ)⌋, 0, T)` — out of the
//! β loop, then adds `p − ((j·α)·β)·μ/T` for a block of `BETA_BLOCK` β
//! values into as many independent f64 accumulators, so the additions of
//! different β values overlap instead of forming one serial chain.
//!
//! Each loss is bit-identical to scoring its (α, β) pair on its own with
//! one serial f64 sum over the samples:
//!
//! * each (α, β) adds the same f32 contribution, evaluated with the same
//!   operations in the same order (`j·α` is the first product of
//!   `p − j·α·β·μ/T` evaluated left to right; Seg-III's `μ − (α·β)·μ` is
//!   the same expression with `j·α` replaced by `α` and a division by
//!   exactly 1.0);
//! * its accumulator starts at `0.0` and adds the contributions in
//!   sample order (ascending p in a percentile table), skipping `p ≤ 0`
//!   — blocking only changes which β values share a pass, never the
//!   order within one β's sum;
//! * [`find_scaling_factors`] folds the winner first-best with a strict
//!   `<` on `|loss|`, β ascending within a candidate and then candidates
//!   in table order, so ties resolve as in the serial double loop.
//!
//! [`compute_loss`] is the kernel called with a one-value grid.

use serde::{Deserialize, Serialize};
use ull_tensor::parallel;
use ull_tensor::stats::percentile_table;

use crate::analysis::LayerActivations;

/// The β grid step prescribed by Algorithm 1.
pub const BETA_STEP: f32 = 0.01;
/// The β search range prescribed by Algorithm 1.
pub const BETA_MAX: f32 = 2.0;

/// β values scored per pass of [`beta_losses`], one f64 accumulator each.
const BETA_BLOCK: usize = 8;

/// Result of the (α, β) search for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerScaling {
    /// Node id of the threshold layer in the source DNN.
    pub node: usize,
    /// Trained DNN threshold μ of the layer.
    pub mu: f32,
    /// Chosen threshold scale α ∈ (0, 1].
    pub alpha: f32,
    /// Chosen output scale β ∈ [0, 2].
    pub beta: f32,
    /// The winning |loss| value.
    pub loss: f32,
}

/// The β grid `{0, 0.01, …, 2}` Algorithm 1 sweeps for every α.
pub fn beta_grid() -> Vec<f32> {
    (0..=(BETA_MAX / BETA_STEP) as usize)
        .map(|i| i as f32 * BETA_STEP)
        .collect()
}

/// `ComputeLoss` of Algorithm 1: the signed post-activation difference
/// between the DNN threshold-ReLU and the (α, β)-scaled T-step staircase,
/// summed over the percentile samples `p`.
///
/// Three segments (Fig. 1b):
///
/// * **Seg-I** `0 ≤ p < αμ`: the staircase step below `p` is
///   `j = ⌊p·T/(αμ)⌋ ≤ T−1`, contributing `p − j·αβμ/T`.
/// * **Seg-II** `αμ ≤ p ≤ μ`: the staircase is saturated at `αβμ`,
///   contributing `p − αβμ`. The boundary `p = αμ` belongs here: the
///   staircase reaches its top step exactly at the threshold
///   (`⌊T⌋ clamped to T` in [`crate::snn_staircase`]).
/// * **Seg-III** `p > μ`: both saturate, contributing `μ − αβμ`.
///
/// Seg-I and Seg-II share one formula, `j = clip(⌊p·T/(αμ)⌋, 0, T)` —
/// bit-for-bit the expression [`crate::snn_staircase`] evaluates — so the
/// loss is exactly `Σ dnn_activation(p) − snn_staircase(p)` over the
/// samples. This is [`beta_losses`] on the one-value grid `[beta]`.
///
/// # Panics
///
/// Panics if `mu <= 0`, `alpha <= 0`, or `t == 0`.
pub fn compute_loss(percentiles: &[f32], mu: f32, alpha: f32, beta: f32, t: usize) -> f32 {
    beta_losses(percentiles, mu, alpha, &[beta], t)[0]
}

/// [`compute_loss`] for one α and every β of `betas`: element `k` of the
/// result is `compute_loss(percentiles, mu, alpha, betas[k], t)`, bit for
/// bit, computed in one pass over the samples per block of β values (see
/// the module docs for why the bits match).
///
/// # Panics
///
/// Panics if `mu <= 0`, `alpha <= 0`, or `t == 0`.
pub fn beta_losses(percentiles: &[f32], mu: f32, alpha: f32, betas: &[f32], t: usize) -> Vec<f32> {
    assert!(mu > 0.0, "mu must be positive");
    assert!(alpha > 0.0, "alpha must be positive");
    assert!(t > 0, "need at least one time step");
    let tf = t as f32;
    let amu = alpha * mu;
    // Each positive sample contributes `base − step·β·μ/div`; the
    // β-free `(base, step, div)` are computed once here.
    let terms: Vec<[f32; 3]> = percentiles
        .iter()
        .filter_map(|&p| {
            if p <= 0.0 {
                None
            } else if p <= mu {
                // Seg-I / Seg-II. The clamp to T (not T−1) is what
                // saturates the p == αμ boundary at αβμ like the real
                // staircase.
                let j = (p * tf / amu).floor().clamp(0.0, tf);
                Some([p, j * alpha, tf])
            } else {
                // Seg-III: μ − (α·β)·μ; dividing by 1.0 is exact.
                Some([mu, alpha, 1.0])
            }
        })
        .collect();
    let mut losses = Vec::with_capacity(betas.len());
    for block in betas.chunks(BETA_BLOCK) {
        // A short last block repeats its final β; those lanes are dropped.
        let mut beta = [block[block.len() - 1]; BETA_BLOCK];
        beta[..block.len()].copy_from_slice(block);
        let mut acc = [0.0f64; BETA_BLOCK];
        for &[base, step, div] in &terms {
            for (a, &b) in acc.iter_mut().zip(&beta) {
                *a += (base - step * b * mu / div) as f64;
            }
        }
        losses.extend(acc[..block.len()].iter().map(|&l| l as f32));
    }
    losses
}

/// `FindScalingFactors` of Algorithm 1: for each percentile candidate
/// `α = P[j]/μ` and each `β ∈ {0, 0.01, …, 2}`, evaluates the loss
/// ([`beta_losses`] over the whole β grid) and returns the (α, β) with the
/// smallest |loss|.
///
/// `percentiles` is the table `P[0..=M]` restricted to values ≤ μ; pass
/// the full activation percentile table and the function trims it.
///
/// A degenerate layer — no positive percentile at or below μ (all
/// activations zero, or μ driven to its training floor below every
/// sample) — has no α candidates, so the search returns Algorithm 1's
/// line-1 initialisation `(α, β) = (1, 1)` with zero loss: the loss sum
/// runs over positive percentiles only, and there are none.
///
/// # Panics
///
/// Panics if `mu <= 0` or `t == 0`.
pub fn find_scaling_factors(percentiles: &[f32], mu: f32, t: usize) -> (f32, f32, f32) {
    assert!(mu > 0.0, "mu must be positive");
    assert!(t > 0, "need at least one time step");
    // Restrict to P[j] ≤ μ (M is the largest index with P[M] ≤ μ) and > 0.
    let candidates: Vec<f32> = percentiles
        .iter()
        .copied()
        .filter(|&p| p > 0.0 && p <= mu)
        .collect();
    if candidates.is_empty() {
        return (1.0, 1.0, 0.0);
    }
    // Initial factors α = β = 1 (line 1 of Algorithm 1).
    let mut best = (1.0f32, 1.0f32);
    let mut best_loss = compute_loss(&candidates, mu, 1.0, 1.0, t);
    let betas = beta_grid();
    // Nominal (α, β) pairs: the kernel scores every one of them.
    ull_obs::counter_add("convert.alpha_candidates", candidates.len() as u64);
    ull_obs::counter_add(
        "convert.pairs_evaluated",
        (candidates.len() * betas.len()) as u64,
    );
    // The α candidate set splits over the pool: each candidate's β sweep is
    // independent, and every (α, β) loss is a fixed function of the inputs.
    // Each work item returns its candidate's first-best (strict <, β
    // ascending); folding those in candidate order with the same strict <
    // replays the serial double loop exactly, so the winner — ties
    // included — is identical for every thread count.
    let per_candidate = parallel::par_map(candidates.len(), |ci| {
        let alpha = candidates[ci] / mu;
        let losses = beta_losses(&candidates, mu, alpha, &betas, t);
        let mut k_best = 0;
        for (k, loss) in losses.iter().enumerate().skip(1) {
            if loss.abs() < losses[k_best].abs() {
                k_best = k;
            }
        }
        ((alpha, betas[k_best]), losses[k_best])
    });
    for (cand_best, cand_loss) in per_candidate {
        if cand_loss.abs() < best_loss.abs() {
            best = cand_best;
            best_loss = cand_loss;
        }
    }
    (best.0, best.1, best_loss)
}

/// Runs Algorithm 1 on every layer's collected activations, producing the
/// per-layer scalings the converter consumes.
///
/// Layers are searched in parallel (their searches are independent); the
/// within-layer α split of [`find_scaling_factors`] then runs inline on
/// each worker, so the pool is saturated at the layer level without
/// spawning a second generation of threads. Results come back in layer
/// order and match the serial search bit for bit.
pub fn scale_layers(layers: &[LayerActivations], t: usize) -> Vec<LayerScaling> {
    let _span = ull_obs::span("convert.algorithm1");
    parallel::par_map(layers.len(), |i| {
        let layer = &layers[i];
        let table = percentile_table(&layer.samples);
        let (alpha, beta, loss) = find_scaling_factors(&table, layer.mu, t);
        LayerScaling {
            node: layer.node,
            mu: layer.mu,
            alpha,
            beta,
            loss,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{dnn_activation, snn_staircase, StaircaseConfig};

    fn skewed(mu: f32, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let u = (i as f32 + 0.5) / n as f32;
                ((-u.ln()) * mu / 6.0).min(mu * 1.2)
            })
            .collect()
    }

    fn uniform(mu: f32, n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 + 0.5) / n as f32 * mu).collect()
    }

    #[test]
    fn search_is_thread_count_invariant() {
        let samples = skewed(1.0, 400);
        let table = percentile_table(&samples);
        let serial = parallel::with_threads(1, || find_scaling_factors(&table, 1.0, 4));
        let par = parallel::with_threads(4, || find_scaling_factors(&table, 1.0, 4));
        assert_eq!(serial, par, "winner must not depend on the thread count");
    }

    #[test]
    fn degenerate_layer_falls_back_to_identity_scaling() {
        // Regression: a dead or floor-saturated layer (all-zero samples,
        // or μ below every positive percentile) used to panic; it now
        // returns the Algorithm 1 initialisation (α, β) = (1, 1).
        assert_eq!(find_scaling_factors(&[0.0; 8], 1.0, 4), (1.0, 1.0, 0.0));
        // Every percentile is above μ → no candidate survives the trim.
        assert_eq!(
            find_scaling_factors(&[0.5, 0.8, 1.2], 0.01, 4),
            (1.0, 1.0, 0.0)
        );
    }

    #[test]
    fn compute_loss_is_zero_when_curves_match() {
        // With α=1, β=1 and percentiles exactly on staircase levels the
        // segments contribute their DNN−SNN gap; check against the direct
        // evaluation of the two activation functions.
        let mu = 1.0;
        let t = 4;
        let ps = uniform(mu, 50);
        let direct: f32 = ps
            .iter()
            .map(|&p| {
                dnn_activation(p, mu) - snn_staircase(p, &StaircaseConfig::scaled(mu, t, 1.0, 1.0))
            })
            .sum();
        let algo = compute_loss(&ps, mu, 1.0, 1.0, t);
        assert!((direct - algo).abs() < 1e-4, "{direct} vs {algo}");
    }

    #[test]
    fn compute_loss_matches_staircase_for_scaled_pairs() {
        let mu = 2.0;
        let t = 2;
        let ps = skewed(mu, 200);
        for &(a, b) in &[(0.5f32, 1.2f32), (0.25, 0.8), (0.9, 1.0)] {
            let direct: f32 = ps
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| {
                    dnn_activation(p, mu) - snn_staircase(p, &StaircaseConfig::scaled(mu, t, a, b))
                })
                .sum();
            let algo = compute_loss(&ps, mu, a, b, t);
            assert!(
                (direct - algo).abs() < 1e-3 * ps.len() as f32,
                "α={a} β={b}: {direct} vs {algo}"
            );
        }
    }

    #[test]
    fn compute_loss_saturates_at_the_seg_boundary() {
        // At p == αμ the staircase sits on its top step (steps = T), so the
        // contribution must be p − αβμ — not p − (T−1)/T·αβμ as the old
        // Seg-I clamp produced. Check the exact boundary for several
        // (α, β, T) and verify agreement with the activation functions.
        for &(mu, alpha, beta, t) in &[
            (1.0f32, 0.5f32, 1.2f32, 2usize),
            (2.0, 0.25, 0.8, 3),
            (0.7, 1.0, 1.0, 4),
        ] {
            let p = alpha * mu;
            let algo = compute_loss(&[p], mu, alpha, beta, t);
            let expected = p - alpha * beta * mu;
            assert!(
                (algo - expected).abs() < 1e-6,
                "boundary α={alpha} β={beta} T={t}: {algo} vs {expected}"
            );
            let direct = dnn_activation(p, mu)
                - snn_staircase(p, &StaircaseConfig::scaled(mu, t, alpha, beta));
            assert!(
                (algo - direct).abs() < 1e-6,
                "activation mismatch at boundary: {algo} vs {direct}"
            );
        }
    }

    #[test]
    fn compute_loss_agrees_with_activations_near_all_steps() {
        // Dense probe including values a hair either side of every
        // staircase step: the closed form must equal the direct
        // DNN − SNN difference everywhere.
        let mu = 1.0;
        let t = 4;
        for &(alpha, beta) in &[(0.6f32, 1.1f32), (1.0, 1.0), (0.3, 1.9)] {
            let cfg = StaircaseConfig::scaled(mu, t, alpha, beta);
            let mut ps = Vec::new();
            for j in 0..=t {
                let step = alpha * mu * j as f32 / t as f32;
                ps.extend([step - 1e-4, step, step + 1e-4]);
            }
            ps.extend([mu, mu * 1.5]);
            for &p in ps.iter().filter(|&&p| p > 0.0) {
                let algo = compute_loss(&[p], mu, alpha, beta, t);
                let direct = dnn_activation(p, mu) - snn_staircase(p, &cfg);
                assert!(
                    (algo - direct).abs() < 1e-6,
                    "α={alpha} β={beta} p={p}: {algo} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn search_improves_over_identity_for_skewed() {
        let mu = 1.0;
        let t = 2;
        let samples = skewed(mu, 4000);
        let table = ull_tensor::stats::percentile_table(&samples);
        let identity_loss = compute_loss(
            &table
                .iter()
                .copied()
                .filter(|&p| p > 0.0 && p <= mu)
                .collect::<Vec<_>>(),
            mu,
            1.0,
            1.0,
            t,
        );
        let (alpha, beta, loss) = find_scaling_factors(&table, mu, t);
        assert!(
            loss.abs() < identity_loss.abs() * 0.5,
            "search loss {loss} vs identity {identity_loss}"
        );
        // Skewed distributions want a down-scaled threshold.
        assert!(alpha < 1.0, "alpha = {alpha}");
        assert!((0.0..=2.0).contains(&beta));
    }

    #[test]
    fn search_keeps_identity_for_already_matched_case() {
        // For uniform percentiles the bias-free staircase still undershoots,
        // so some (α, β) wins — but the search must never return something
        // *worse* than identity.
        let mu = 1.0;
        let samples = uniform(mu, 2000);
        let table = ull_tensor::stats::percentile_table(&samples);
        let cands: Vec<f32> = table
            .iter()
            .copied()
            .filter(|&p| p > 0.0 && p <= mu)
            .collect();
        let identity = compute_loss(&cands, mu, 1.0, 1.0, 3);
        let (_, _, loss) = find_scaling_factors(&table, mu, 3);
        assert!(loss.abs() <= identity.abs() + 1e-6);
    }

    #[test]
    fn alpha_candidates_come_from_percentiles() {
        let mu = 1.0;
        let samples = skewed(mu, 1000);
        let table = ull_tensor::stats::percentile_table(&samples);
        let (alpha, _, _) = find_scaling_factors(&table, mu, 2);
        // α must be a percentile divided by μ (or the identity fallback).
        let ok = (alpha - 1.0).abs() < 1e-6 || table.iter().any(|&p| (p / mu - alpha).abs() < 1e-6);
        assert!(ok, "alpha {alpha} not derived from a percentile");
    }

    #[test]
    fn beta_sweep_covers_range() {
        // With a single sample sitting exactly on a staircase level, the
        // optimal β exactly cancels the loss; make sure the sweep finds a
        // near-zero loss (grid resolution 0.01).
        let mu = 1.0;
        let ps = vec![0.6f32];
        let (_, _, loss) = find_scaling_factors(&[0.6, 1.0], mu, 2);
        let _ = ps;
        assert!(loss.abs() < 0.05, "loss {loss}");
    }

    #[test]
    fn scale_layers_produces_one_scaling_per_layer() {
        let layers = vec![
            LayerActivations {
                node: 2,
                mu: 1.0,
                samples: skewed(1.0, 500),
            },
            LayerActivations {
                node: 5,
                mu: 0.7,
                samples: skewed(0.7, 500),
            },
        ];
        let scalings = scale_layers(&layers, 2);
        assert_eq!(scalings.len(), 2);
        assert_eq!(scalings[0].node, 2);
        assert_eq!(scalings[1].node, 5);
        for s in &scalings {
            assert!(s.alpha > 0.0 && s.alpha <= 1.0);
            assert!((0.0..=2.0).contains(&s.beta));
        }
    }

    #[test]
    fn all_negative_percentiles_fall_back_to_identity() {
        assert_eq!(find_scaling_factors(&[-1.0, -0.5], 1.0, 2), (1.0, 1.0, 0.0));
    }
}
