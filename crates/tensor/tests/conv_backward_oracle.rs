//! Differential test of the conv backward against the scalar oracle of
//! `common/reference.rs`, which lowers through materialized columns
//! (`im2col`, two masked GEMMs, `col2im`). `conv2d_backward` builds no
//! column matrix, so every `(dx, dW, db)` bit it returns is checked here
//! against the materialized order, at `ULL_THREADS` 1 and 4.

mod common;

use common::reference;
use ull_tensor::conv::{conv2d_backward, ConvGeometry};
use ull_tensor::{parallel, Tensor};

fn assert_bits_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
    }
}

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// An output gradient `[N, F, OH, OW]` with every third pixel's whole row
/// of `F` entries zero and scattered single zeros elsewhere, both signs of
/// zero mixed in.
fn sparse_grad(shape: &[usize], seed: u64) -> Tensor {
    let mut g = rand_tensor(shape, seed);
    let (f, pixels) = (shape[1], shape[2] * shape[3]);
    for (i, v) in g.data_mut().iter_mut().enumerate() {
        let p = i / (f * pixels) * pixels + i % pixels;
        let sign = if i % 2 == 0 { 0.0 } else { -0.0 };
        if p % 3 == 0 || i.wrapping_mul(2654435761) % 5 == 0 {
            *v = sign;
        }
    }
    g
}

#[test]
fn backward_is_bit_identical_to_the_materialized_oracle() {
    let mut case = 0usize;
    for k in [1usize, 3] {
        for stride in [1usize, 2] {
            for padding in 0..=2usize {
                for (h, w) in [(1usize, 1usize), (5, 5), (6, 7)] {
                    if h + 2 * padding < k || w + 2 * padding < k {
                        continue;
                    }
                    case += 1;
                    let n = 1 + case % 4;
                    let c = [1usize, 3, 5, 6][case % 4];
                    let f = [3usize, 7, 9, 13][(case / 2) % 4];
                    let geo = ConvGeometry {
                        kh: k,
                        kw: k,
                        stride,
                        padding,
                    };
                    let (oh, ow) = geo.output_hw(h, w);
                    let seed = case as u64 * 7;
                    let x = rand_tensor(&[n, c, h, w], seed);
                    let weight = rand_tensor(&[f, c, k, k], seed + 1);
                    let grad = sparse_grad(&[n, f, oh, ow], seed + 2);
                    let (dx, dw, db) = reference::conv2d_backward(&x, &weight, &grad, geo);
                    for threads in [1usize, 4] {
                        let ctx = format!(
                            "k {k} stride {stride} pad {padding} {n}x{c}x{h}x{w} f {f}, threads {threads}"
                        );
                        let (gx, gw, gb) = parallel::with_threads(threads, || {
                            conv2d_backward(&x, &weight, &grad, geo)
                        });
                        assert_bits_eq(&gx, &dx, &format!("dx, {ctx}"));
                        assert_bits_eq(&gw, &dw, &format!("dW, {ctx}"));
                        assert_bits_eq(&gb, &db, &format!("db, {ctx}"));
                    }
                }
            }
        }
    }
    assert!(case >= 30, "only {case} geometries ran");
}

/// `<im2col(x), y> == <x, col2im(y)>` — the defining adjoint property of
/// the oracle's lowering.
#[test]
fn im2col_col2im_adjointness() {
    let geo = ConvGeometry::square(3, 1, 1);
    let x = rand_tensor(&[1, 2, 4, 4], 3);
    let cols = reference::im2col(&x, geo);
    let y = rand_tensor(cols.shape(), 4);
    let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
    let back = reference::col2im(&y, 1, 2, 4, 4, geo);
    let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
    assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
}
