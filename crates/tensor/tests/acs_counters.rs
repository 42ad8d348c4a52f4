//! Counted-work checks for the tensor kernels: nominal `tensor.macs`,
//! executed `tensor.acs` and `tensor.im2col.bytes`.
//!
//! The obs registry is process-global, so any kernel another test runs
//! while one of these has recording enabled lands in the same counters.
//! In the crate's lib test binary, which runs many kernel tests at once,
//! these checks failed intermittently. They therefore live in their own
//! test binary, where every test holds `ull_obs::test_lock()` for the
//! whole time it records.

use ull_tensor::conv::{conv2d, conv2d_packed_into, ConvGeometry, ConvScratch};
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
    let _obs = ull_obs::test_lock();
    let _guard = parallel::override_lock();
    parallel::set_threads(1);
    ull_obs::reset();
    ull_obs::set_enabled(true);
    let mut a = rand_tensor(&[4, 10], 30);
    for (i, v) in a.data_mut().iter_mut().enumerate() {
        *v = if i % 2 == 0 { 1.0 } else { 0.0 }; // exactly half the lhs is zero
    }
    let b = rand_tensor(&[10, 6], 31);
    let bt = rand_tensor(&[6, 10], 32);
    let _ = matmul(&a, &b);
    let _ = matmul_transpose_b(&a, &bt);
    ull_obs::set_enabled(false);
    let snap = ull_obs::snapshot();
    // Nominal: 2 · (4·10·6); executed: half of that in each kernel.
    assert_eq!(snap.counters["tensor.macs"], 2 * 4 * 10 * 6);
    assert_eq!(snap.counters["tensor.acs"], 4 * 10 * 6);
    parallel::set_threads(0);
}

#[test]
fn executed_acs_counter_matches_the_unpacked_kernel() {
    let _obs = ull_obs::test_lock();
    let _guard = parallel::override_lock();
    parallel::set_threads(1);
    let mut a = rand_tensor(&[4, 10], 30);
    for (i, v) in a.data_mut().iter_mut().enumerate() {
        *v = if i % 2 == 0 { 1.0 } else { 0.0 };
    }
    let b = rand_tensor(&[6, 10], 31);
    let packed = PackedWeights::pack_rhs_t(&b);
    ull_obs::reset();
    ull_obs::set_enabled(true);
    let _ = matmul_tb_packed(&a, &packed);
    ull_obs::set_enabled(false);
    let snap = ull_obs::snapshot();
    assert_eq!(snap.counters["tensor.macs"], 4 * 10 * 6);
    assert_eq!(snap.counters["tensor.acs"], 2 * 10 * 6);
    parallel::set_threads(0);
    ull_obs::reset();
}

#[test]
fn event_kernels_report_executed_acs() {
    let _obs = ull_obs::test_lock();
    let _guard = parallel::override_lock();
    parallel::set_threads(1);
    ull_obs::reset();
    ull_obs::set_enabled(true);
    let a = spike_tensor(&[3, 10], 1.0, 2, 0);
    let b = rand_tensor(&[4, 10], 70);
    let ev = SpikeBatch::from_dense(&a).unwrap();
    let mut out = Tensor::default();
    matmul_tb_events(&ev, &b, &mut out);
    ull_obs::set_enabled(false);
    let snap = ull_obs::snapshot();
    assert_eq!(snap.counters["tensor.macs"], 3 * 10 * 4);
    assert_eq!(snap.counters["tensor.acs"], (ev.nnz() * 4) as u64);
    parallel::set_threads(0);
}

/// `[tensor.macs, tensor.acs, tensor.im2col.bytes]` recorded while `f` runs.
fn counted_work(f: impl FnOnce()) -> [u64; 3] {
    ull_obs::reset();
    ull_obs::set_enabled(true);
    f();
    ull_obs::set_enabled(false);
    let snap = ull_obs::snapshot();
    ull_obs::reset();
    ["tensor.macs", "tensor.acs", "tensor.im2col.bytes"]
        .map(|key| snap.counters.get(key).copied().unwrap_or(0))
}

/// Packing changes only the weight memory layout, so it must not move any
/// counted work: a conv and a linear layer on spike input report the same
/// nominal MACs, executed ACs and im2col bytes through the packed and the
/// unpacked kernels, at any thread count.
#[test]
fn packing_moves_no_counted_work() {
    let _obs = ull_obs::test_lock();
    let _guard = parallel::override_lock();
    let geo = ConvGeometry::square(3, 1, 1);
    let x = spike_tensor(&[2, 3, 8, 8], 0.5, 4, 3);
    let weight = rand_tensor(&[8, 3, 3, 3], 80);
    let bias = rand_tensor(&[8], 81);
    let conv_pack = PackedWeights::pack_conv(&weight);
    let a = spike_tensor(&[4, 32], 1.0, 3, 5);
    let b = rand_tensor(&[10, 32], 82);
    let linear_pack = PackedWeights::pack_rhs_t(&b);
    for threads in [1usize, 4] {
        parallel::set_threads(threads);

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
        assert!(conv_unpacked[2] > 0, "conv lowers through im2col");

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
    }
    parallel::set_threads(0);
}
