//! Counted-work checks for the tensor kernels: nominal `tensor.macs`,
//! executed `tensor.acs`, and `tensor.im2col.bytes`, which stays 0 now
//! that no conv materializes its column matrix. Each check counts
//! inside its own private registry, so kernels other tests run at the
//! same time never reach its counters.

use ull_tensor::conv::{conv2d, conv2d_backward, conv2d_packed_into, ConvGeometry, ConvScratch};
use ull_tensor::{
    matmul, matmul_tb_events, matmul_tb_packed, matmul_transpose_b, parallel, PackedWeights,
    SpikeBatch, Tensor,
};

/// Cheap deterministic LCG in `[-1, 1)`.
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

/// Spike-like tensor: zeros except `amp` wherever the hash fires.
fn spike_tensor(shape: &[usize], amp: f32, one_in: usize, seed: usize) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|i| {
            if (i.wrapping_mul(2654435761).wrapping_add(seed)) % one_in == 0 {
                amp
            } else {
                0.0
            }
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

#[test]
fn executed_acs_counter_reflects_sparsity() {
    parallel::with_threads(1, || {
        let reg = ull_obs::Registry::new();
        let mut a = rand_tensor(&[4, 10], 30);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            *v = if i % 2 == 0 { 1.0 } else { 0.0 }; // exactly half the lhs is zero
        }
        let b = rand_tensor(&[10, 6], 31);
        let bt = rand_tensor(&[6, 10], 32);
        ull_obs::with_registry(&reg, || {
            let _ = matmul(&a, &b);
            let _ = matmul_transpose_b(&a, &bt);
        });
        let snap = reg.snapshot();
        // Nominal: 2 · (4·10·6); executed: half of that in each kernel.
        assert_eq!(snap.counters["tensor.macs"], 2 * 4 * 10 * 6);
        assert_eq!(snap.counters["tensor.acs"], 4 * 10 * 6);
    });
}

#[test]
fn executed_acs_counter_matches_the_unpacked_kernel() {
    parallel::with_threads(1, || {
        let mut a = rand_tensor(&[4, 10], 30);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            *v = if i % 2 == 0 { 1.0 } else { 0.0 };
        }
        let b = rand_tensor(&[6, 10], 31);
        let packed = PackedWeights::pack_rhs_t(&b);
        let reg = ull_obs::Registry::new();
        let _ = ull_obs::with_registry(&reg, || matmul_tb_packed(&a, &packed));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["tensor.macs"], 4 * 10 * 6);
        assert_eq!(snap.counters["tensor.acs"], 2 * 10 * 6);
    });
}

#[test]
fn event_kernels_report_executed_acs() {
    parallel::with_threads(1, || {
        let reg = ull_obs::Registry::new();
        let a = spike_tensor(&[3, 10], 1.0, 2, 0);
        let b = rand_tensor(&[4, 10], 70);
        let ev = SpikeBatch::from_dense(&a).unwrap();
        let mut out = Tensor::default();
        ull_obs::with_registry(&reg, || matmul_tb_events(&ev, &b, &mut out));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["tensor.macs"], 3 * 10 * 4);
        assert_eq!(snap.counters["tensor.acs"], (ev.nnz() * 4) as u64);
    });
}

/// `[tensor.macs, tensor.acs, tensor.im2col.bytes]` recorded while `f` runs.
fn counted_work(f: impl FnOnce()) -> [u64; 3] {
    let reg = ull_obs::Registry::new();
    ull_obs::with_registry(&reg, f);
    let snap = reg.snapshot();
    ["tensor.macs", "tensor.acs", "tensor.im2col.bytes"]
        .map(|key| snap.counters.get(key).copied().unwrap_or(0))
}

/// Packing changes only the weight memory layout, so it must not move any
/// counted work: a conv and a linear layer on spike input report the same
/// nominal MACs, executed ACs and (zero) im2col bytes on a pack built once as
/// on one `conv2d`/`matmul_transpose_b` make per call, at any thread
/// count.
#[test]
fn packing_moves_no_counted_work() {
    let geo = ConvGeometry::square(3, 1, 1);
    let x = spike_tensor(&[2, 3, 8, 8], 0.5, 4, 3);
    let weight = rand_tensor(&[8, 3, 3, 3], 80);
    let bias = rand_tensor(&[8], 81);
    let conv_pack = PackedWeights::pack_conv(&weight);
    let a = spike_tensor(&[4, 32], 1.0, 3, 5);
    let b = rand_tensor(&[10, 32], 82);
    let linear_pack = PackedWeights::pack_rhs_t(&b);
    for threads in [1usize, 4] {
        parallel::with_threads(threads, || {
            let conv_unpacked = counted_work(|| {
                conv2d(&x, &weight, Some(&bias), geo);
            });
            let conv_packed = counted_work(|| {
                let mut out = Tensor::default();
                let mut scratch = ConvScratch::default();
                conv2d_packed_into(&x, &conv_pack, Some(&bias), geo, &mut scratch, &mut out);
            });
            assert_eq!(conv_packed, conv_unpacked, "conv, threads {threads}");
            assert!(
                conv_unpacked[1] < conv_unpacked[0],
                "zero inputs are skipped"
            );
            assert_eq!(conv_unpacked[2], 0, "conv materializes no columns");

            let linear_unpacked = counted_work(|| {
                matmul_transpose_b(&a, &b);
            });
            let linear_packed = counted_work(|| {
                matmul_tb_packed(&a, &linear_pack);
            });
            assert_eq!(linear_packed, linear_unpacked, "linear, threads {threads}");
            assert!(
                linear_unpacked[1] < linear_unpacked[0],
                "zero inputs are skipped"
            );
        });
    }
}

/// The backward pass of a conv counts the work of its two GEMMs: the
/// weight gradient `g2ᵀ · cols` and the input gradient `g2 · W`, each
/// `N·OH·OW · F · C·KH·KW` nominal MACs, with the zero entries of the
/// output gradient `g2` skipped. The pinned values are those the
/// materialized-column backward recorded on this input, so lowering the
/// columns implicitly moves no counted work, at any thread count.
#[test]
fn conv_backward_counts_the_work_of_its_two_gemms() {
    let geo = ConvGeometry::square(3, 2, 1);
    let x = rand_tensor(&[2, 3, 9, 9], 90);
    let weight = rand_tensor(&[7, 3, 3, 3], 91);
    let grad = spike_tensor(&[2, 7, 5, 5], -0.25, 3, 11);
    for threads in [1usize, 4] {
        parallel::with_threads(threads, || {
            let [macs, acs, cols_bytes] = counted_work(|| {
                conv2d_backward(&x, &weight, &grad, geo);
            });
            assert_eq!(
                macs, 18_900,
                "2 · 50 pixels · 7 filters · 27, threads {threads}"
            );
            assert_eq!(acs, 6_318, "threads {threads}");
            assert_eq!(cols_bytes, 0, "no column matrix, threads {threads}");
        });
    }
}
