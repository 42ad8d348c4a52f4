//! Scalar reference of Algorithm 1: the independent oracle of the blocked
//! loss kernel (`ull_core::beta_losses`). `compute_loss` here is one
//! serial f64 chain per (α, β) that recomputes every sample's staircase
//! step, and `find_scaling_factors` is the plain serial double loop over
//! the α candidates and the β grid. Neither shares code with the crate's
//! kernel, so the kernel and the search must match them bit for bit.

/// The β grid `{0, 0.01, …, 2}`, built independently of the crate's.
pub fn betas() -> Vec<f32> {
    (0..=200).map(|i| i as f32 * 0.01).collect()
}

/// The signed post-activation difference between the DNN threshold-ReLU
/// and the (α, β)-scaled T-step staircase, summed over the samples:
/// `p − j·αβμ/T` with `j = clip(⌊p·T/(αμ)⌋, 0, T)` for `0 < p ≤ μ`,
/// `μ − αβμ` for `p > μ`, nothing for `p ≤ 0`.
pub fn compute_loss(percentiles: &[f32], mu: f32, alpha: f32, beta: f32, t: usize) -> f32 {
    let tf = t as f32;
    let amu = alpha * mu;
    let mut loss = 0.0f64;
    for &p in percentiles {
        if p <= 0.0 {
            continue;
        }
        let contribution = if p <= mu {
            let j = (p * tf / amu).floor().clamp(0.0, tf);
            p - j * alpha * beta * mu / tf
        } else {
            mu - alpha * beta * mu
        };
        loss += contribution as f64;
    }
    loss as f32
}

/// The (α, β, loss) with the smallest |loss| over the candidates
/// `α = p/μ` (`0 < p ≤ μ`) and the β grid, starting from (1, 1): one
/// serial double loop, candidates in table order, β ascending, replaced
/// only on a strictly smaller |loss|. No candidate → `(1, 1, 0)`.
pub fn find_scaling_factors(percentiles: &[f32], mu: f32, t: usize) -> (f32, f32, f32) {
    let candidates: Vec<f32> = percentiles
        .iter()
        .copied()
        .filter(|&p| p > 0.0 && p <= mu)
        .collect();
    if candidates.is_empty() {
        return (1.0, 1.0, 0.0);
    }
    let mut best = (1.0f32, 1.0f32, compute_loss(&candidates, mu, 1.0, 1.0, t));
    for &p in &candidates {
        let alpha = p / mu;
        for beta in betas() {
            let loss = compute_loss(&candidates, mu, alpha, beta, t);
            if loss.abs() < best.2.abs() {
                best = (alpha, beta, loss);
            }
        }
    }
    best
}

/// The percentile table over a *stable* sort, as `percentile_table`
/// computed it before its sort became unstable.
pub fn stable_percentile_table(values: &[f32]) -> Vec<f32> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    (0..=100)
        .map(|i| ull_tensor::stats::percentile_sorted(&sorted, i as f32))
        .collect()
}
