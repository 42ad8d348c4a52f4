//! Differential harness for Algorithm 1's blocked loss kernel.
//!
//! `beta_losses` scores a block of β values per pass over the samples and
//! hoists each sample's staircase step out of the β loop; the search folds
//! its per-candidate results in parallel. Both must reproduce the scalar
//! oracle of `common/reference.rs` — one serial f64 chain per (α, β) and
//! the serial double loop — bit for bit, ties included, at 1 and 4 pool
//! threads. Inputs are random percentile tables with the awkward entries
//! mixed in: `p ≤ 0`, `±0.0`, `p = μ` (α = 1), dyadic values that land
//! exactly on `αμ` and on staircase steps, `p > μ` and duplicates, over
//! T ∈ 1..=5 and candidate counts that are not multiples of the β block.

mod common;

use common::reference;
use ull_core::{beta_grid, beta_losses, compute_loss, find_scaling_factors};
use ull_tensor::parallel;
use ull_tensor::stats::percentile_table;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 8) as f32 / (1u32 << 23) as f32
    }
}

fn pick_mu(rng: &mut Lcg) -> f32 {
    // Powers of two keep `(p/μ)·μ == p`, so candidates sit exactly on αμ.
    match rng.below(4) {
        0 => 1.0,
        1 => 0.5,
        2 => 2.0,
        _ => 0.3 + rng.unit(),
    }
}

/// One table entry in `(0, μ]`: a future α candidate.
fn candidate(rng: &mut Lcg, mu: f32, earlier: &[f32]) -> f32 {
    match rng.below(5) {
        0 => mu,
        1 => (1 + rng.below(16)) as f32 / 16.0 * mu,
        2 if !earlier.is_empty() => earlier[rng.below(earlier.len())],
        _ => (rng.unit() * mu).max(f32::MIN_POSITIVE),
    }
}

/// A sorted table with exactly `candidates` entries in `(0, μ]` plus
/// `extra` entries at or below zero or above μ.
fn table(rng: &mut Lcg, mu: f32, candidates: usize, extra: usize) -> Vec<f32> {
    let mut out: Vec<f32> = Vec::with_capacity(candidates + extra);
    for _ in 0..candidates {
        let p = candidate(rng, mu, &out);
        out.push(p);
    }
    for _ in 0..extra {
        out.push(match rng.below(4) {
            0 => 0.0,
            1 => -0.0,
            2 => -rng.unit() * mu,
            _ => mu * (1.0 + rng.unit()) + f32::EPSILON,
        });
    }
    out.sort_by(|a, b| a.partial_cmp(b).unwrap());
    out
}

fn bits(r: (f32, f32, f32)) -> (u32, u32, u32) {
    (r.0.to_bits(), r.1.to_bits(), r.2.to_bits())
}

#[test]
fn kernel_loss_matches_the_scalar_loss_for_every_grid_beta() {
    let grid = beta_grid();
    assert_eq!(
        grid.iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
        reference::betas()
            .iter()
            .map(|b| b.to_bits())
            .collect::<Vec<_>>(),
        "β grid"
    );
    let mut rng = Lcg(0x5eed_a1b1);
    for case in 0..240 {
        let mu = pick_mu(&mut rng);
        let t = 1 + case % 5;
        let n = if case % 40 == 0 {
            101
        } else {
            1 + rng.below(40)
        };
        let extra = rng.below(8);
        let ps = table(&mut rng, mu, n, extra);
        let mut alphas: Vec<f32> = ps
            .iter()
            .filter(|&&p| p > 0.0 && p <= mu)
            .take(6)
            .map(|&p| p / mu)
            .collect();
        alphas.extend([1.0, 0.01 + 1.5 * rng.unit()]);
        // The whole grid, and a prefix whose length is not a multiple of
        // the kernel's β block.
        let prefix = &grid[..1 + case % 17];
        for &alpha in &alphas {
            for betas in [&grid[..], prefix] {
                let got = beta_losses(&ps, mu, alpha, betas, t);
                assert_eq!(got.len(), betas.len());
                for (k, (&loss, &beta)) in got.iter().zip(betas).enumerate() {
                    let want = reference::compute_loss(&ps, mu, alpha, beta, t);
                    assert_eq!(
                        loss.to_bits(),
                        want.to_bits(),
                        "case {case} α={alpha} β[{k}]={beta} T={t}: {loss} vs {want}"
                    );
                }
            }
            let beta = grid[rng.below(grid.len())];
            assert_eq!(
                compute_loss(&ps, mu, alpha, beta, t).to_bits(),
                reference::compute_loss(&ps, mu, alpha, beta, t).to_bits(),
                "case {case}: compute_loss α={alpha} β={beta} T={t}"
            );
        }
    }
}

#[test]
fn search_matches_the_serial_double_loop_at_1_and_4_threads() {
    let mut rng = Lcg(0x0a1f_a5ea);
    let counts = (1..=24).chain([37, 64, 101]);
    for (case, candidates) in counts.enumerate() {
        let mu = pick_mu(&mut rng);
        let t = 1 + case % 5;
        let extra = rng.below(6);
        let ps = table(&mut rng, mu, candidates, extra);
        let want = reference::find_scaling_factors(&ps, mu, t);
        for threads in [1, 4] {
            let got = parallel::with_threads(threads, || find_scaling_factors(&ps, mu, t));
            assert_eq!(
                bits(got),
                bits(want),
                "{candidates} candidates, T={t}, {threads} threads: {got:?} vs {want:?}"
            );
        }
    }
}

#[test]
fn tied_losses_resolve_to_the_lowest_beta() {
    // One candidate (α = 1) whose losses at β = 1.12 and 1.13 have equal
    // magnitude and opposite sign: the first in β order must win, as in
    // the serial loop. A β-descending fold would return 1.13.
    let (ps, mu, t) = ([0.125f32, 1.0], 1.0f32, 2usize);
    let grid = beta_grid();
    let losses = beta_losses(&ps, mu, 1.0, &grid, t);
    assert_eq!(losses[112], -losses[113], "β = 1.12 and 1.13 must tie");
    let min = losses.iter().fold(f32::INFINITY, |m, l| m.min(l.abs()));
    assert_eq!(losses[112].abs(), min, "the tie must be the minimum");
    let want = reference::find_scaling_factors(&ps, mu, t);
    assert_eq!(bits(want), bits((1.0, grid[112], losses[112])));
    for threads in [1, 4] {
        let got = parallel::with_threads(threads, || find_scaling_factors(&ps, mu, t));
        assert_eq!(bits(got), bits(want));
    }
}

#[test]
fn unstable_percentile_sort_changes_only_the_sign_of_zeros() {
    let mut rng = Lcg(0x2e60_5167);
    let mut zero_entries = 0;
    parallel::with_threads(1, || {
        for case in 0..40 {
            let n = 20 + rng.below(2000);
            let mu = pick_mu(&mut rng);
            let samples: Vec<f32> = (0..n)
                .map(|_| match rng.below(6) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => -rng.unit() * mu,
                    3 => (1 + rng.below(8)) as f32 / 8.0 * mu,
                    _ => rng.unit() * 1.3 * mu,
                })
                .collect();
            let got = percentile_table(&samples);
            let want = reference::stable_percentile_table(&samples);
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                if *w == 0.0 {
                    zero_entries += 1;
                }
                assert!(
                    g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0),
                    "case {case} P[{i}]: {g:?} vs stable {w:?}"
                );
            }
            let t = 1 + case % 5;
            assert_eq!(
                bits(find_scaling_factors(&got, mu, t)),
                bits(find_scaling_factors(&want, mu, t)),
                "case {case}: search differs between the two tables"
            );
        }
    });
    assert!(zero_entries > 0, "no table had a zero entry to test");
}
