//! Proves the steady-state step loop of the eval forward pass — shared by
//! `forward` and the probes — is allocation-free: once the
//! `StepWorkspace` buffers have grown to their working sizes, additional
//! time steps must not touch the allocator. The training forward runs the
//! same loop, so its extra steps allocate exactly the buffers its BPTT
//! tape keeps, and nothing else.
//!
//! The check compares total allocator hits for a short run against a
//! longer run of the same network and input: every allocation the long
//! run performs beyond the short run would have to come from the extra
//! steady steps — the assertion is that there are none.
//!
//! Hits are counted per thread. The tests run the forward on one kernel
//! thread — a one-thread budget, or a two-thread budget with a nested
//! one-thread budget as a serve worker runs it — so every allocation it
//! makes lands on the test's own thread, while the test harness and other
//! test threads allocating at the same moment cannot inflate the count.
//!
//! This lives in an integration test because the library crates
//! `forbid(unsafe_code)` and a counting `#[global_allocator]` needs an
//! `unsafe impl`.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Barrier};

use ull_nn::NetworkBuilder;
use ull_snn::{SnnNetwork, SnnOp, SpikeSpec, StepTamper};
use ull_tensor::init::{normal, seeded_rng};
use ull_tensor::{parallel, Tensor};

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch them at any point of a thread's life without allocating.
    static ALLOC_HITS: Cell<u64> = const { Cell::new(0) };
    static BUFFER_HITS: Cell<u64> = const { Cell::new(0) };
}

/// A tensor's shape vector (at most 4 dims of `usize`) fits in this many
/// bytes; every data buffer, argmax map and per-step vector in these tests
/// is larger. Hits above it count as buffers.
const SHAPE_BYTES: usize = 4 * std::mem::size_of::<usize>();

fn count_hit(size: usize) {
    // `try_with` never panics inside the allocator, even while the
    // thread's locals are being torn down.
    let _ = ALLOC_HITS.try_with(|hits| hits.set(hits.get() + 1));
    if size > SHAPE_BYTES {
        let _ = BUFFER_HITS.try_with(|hits| hits.set(hits.get() + 1));
    }
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a thread-local cell
// that needs no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_hit(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_hit(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_hit(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn test_net(seed: u64) -> SnnNetwork {
    let mut b = NetworkBuilder::new(2, 8, seed);
    b.conv2d(4, 3, 1, 1);
    b.threshold_relu(0.7);
    b.conv2d(5, 3, 1, 1);
    b.threshold_relu(0.9);
    b.maxpool(2);
    b.dropout(0.3);
    b.flatten();
    b.linear(5);
    let dnn = b.build();
    let snn = SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(0.7), SpikeSpec::identity(0.9)])
        .unwrap();
    common::with_biases(snn, seed)
}

/// Allocator hits on the calling thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_HITS.with(Cell::get);
    f();
    ALLOC_HITS.with(Cell::get) - before
}

#[test]
fn steady_state_step_loop_does_not_allocate() {
    let snn = test_net(42);
    // One kernel thread: a one-thread budget, and a two-thread budget
    // with a nested one-thread budget as a serve worker runs it. Batch 1
    // is where a two-thread budget alone would split every GEMM.
    for (threads, batch) in [(1, 3), (2, 1), (2, 3)] {
        let x = normal(&[batch, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(99));
        parallel::with_threads(threads, || {
            parallel::with_threads(1, || {
                // Warm up lazily initialised state (thread-count cache, the
                // network's pack, allocator internals).
                snn.forward(&x, 1);

                // Step 1 grows every workspace buffer to its working size, so
                // steps 2+ must be allocation-free and T=8 may not out-allocate
                // T=2.
                let short = allocs_during(|| {
                    snn.forward(&x, 2);
                });
                let long = allocs_during(|| {
                    snn.forward(&x, 8);
                });
                assert!(
                    long <= short,
                    "{threads} threads, batch {batch}: steady-state steps allocated: \
                 T=2 cost {short} hits, T=8 cost {long}"
                );
            })
        });
    }
}

/// The probes run the same step engine as `forward`: `forward_until`
/// refills one mean buffer in place and `forward_rates` sums into
/// per-node buffers, so their steady-state steps allocate nothing either.
#[test]
fn probe_steady_state_steps_do_not_allocate() {
    let snn = test_net(43);
    let x = normal(&[3, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(98));
    parallel::with_threads(1, || {
        snn.forward_until(&x, 1, |_, _| true);
        snn.forward_rates(&x, 1);

        let short = allocs_during(|| {
            snn.forward_until(&x, 2, |_, _| true);
        });
        let long = allocs_during(|| {
            snn.forward_until(&x, 8, |_, _| true);
        });
        assert!(
            long <= short,
            "forward_until steady-state steps allocated: T=2 cost {short} hits, T=8 cost {long}"
        );

        let short = allocs_during(|| {
            snn.forward_rates(&x, 2);
        });
        let long = allocs_during(|| {
            snn.forward_rates(&x, 8);
        });
        assert!(
            long <= short,
            "forward_rates steady-state steps allocated: T=2 cost {short} hits, T=8 cost {long}"
        );
    });
}

/// Allocator hits above [`SHAPE_BYTES`] on the calling thread while `f`
/// runs: the data buffers, leaving out tensors' shape vectors.
fn buffers_during(f: impl FnOnce()) -> u64 {
    let before = BUFFER_HITS.with(Cell::get);
    f();
    BUFFER_HITS.with(Cell::get) - before
}

/// `forward_train` runs the eval step loop and moves each step's
/// activations into the tape, so every extra step allocates exactly the
/// buffers the tape stores for it: one activation per node, `U(t−1)` and
/// `U_temp` per spike node, one argmax per maxpool, plus the step's two
/// per-node vectors. The conv im2col and GEMM scratch live in the
/// workspace, and the dropout mask is sampled once, so neither shows up.
#[test]
fn training_steps_allocate_only_what_the_tape_keeps() {
    let snn = test_net(44);
    let x = normal(&[3, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(97));
    parallel::with_threads(1, || {
        snn.forward_train(&x, 1, &mut seeded_rng(0));

        let short = buffers_during(|| {
            snn.forward_train(&x, 2, &mut seeded_rng(0));
        });
        let long = buffers_during(|| {
            snn.forward_train(&x, 4, &mut seeded_rng(0));
        });
        let count = |f: fn(&SnnOp) -> bool| snn.nodes().iter().filter(|n| f(&n.op)).count() as u64;
        let spikes = count(|op| matches!(op, SnnOp::Spike(_)));
        let maxpools = count(|op| matches!(op, SnnOp::MaxPool2d { .. }));
        let per_step = snn.nodes().len() as u64 + 2 * spikes + maxpools + 2;
        assert_eq!(
            long - short,
            2 * per_step,
            "T=2 cost {short} buffers, T=4 cost {long}; each step should add {per_step}"
        );
    });
}

/// Packed weights are built exactly once per network: after the first
/// forward, extra timesteps, batches and whole forward calls reuse the
/// network's own pack and allocate nothing new.
#[test]
fn packing_builds_once_and_steady_state_stays_alloc_free() {
    let snn = test_net(7);
    let x = normal(&[3, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(17));
    let x_small = normal(&[1, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(18));
    parallel::with_threads(1, || {
        let reg = ull_obs::Registry::new();
        let pack = ull_obs::with_registry(&reg, || {
            snn.forward(&x, 1); // builds the pack, grows workspace buffers
            let pack = snn.prepack();
            snn.forward(&x, 8); // extra timesteps: same pack
            snn.forward(&x_small, 2); // different batch shape: same pack
            pack
        });
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters.get("snn.pack.builds"),
            Some(&1),
            "pack must be built exactly once across forwards, timesteps and batches"
        );
        assert!(Arc::ptr_eq(&pack, &snn.prepack()));

        // With the pack warm (and outside the collecting registry — its
        // records allocate), extra steady-state steps must not touch the
        // allocator.
        let short = allocs_during(|| {
            snn.forward(&x, 2);
        });
        let long = allocs_during(|| {
            snn.forward(&x, 8);
        });
        assert!(
            long <= short,
            "packed steady-state steps allocated: T=2 cost {short} hits, T=8 cost {long}"
        );
    });
}

/// Two threads racing the first forward of one shared network build its
/// pack exactly once; the loser waits for the winner's pack.
#[test]
fn packing_race_on_first_forward_builds_once() {
    let snn = Arc::new(test_net(8));
    let x = normal(&[2, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(19));
    let start = Barrier::new(2);

    let reg = ull_obs::Registry::new();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                parallel::with_threads(1, || {
                    ull_obs::with_registry(&reg, || {
                        start.wait();
                        snn.forward(&x, 2);
                    })
                })
            });
        }
    });
    assert_eq!(
        reg.snapshot().counters.get("snn.pack.builds"),
        Some(&1),
        "racing first forwards must share one build"
    );
}

struct NoopTamper;

impl StepTamper for NoopTamper {
    fn tamper_spikes(&self, _: usize, _: ull_nn::NodeId, _: usize, _: f32, _: &mut Tensor) {}
}

/// Stale-pack guard: writing weights through `nodes_mut` between
/// (tampered) forwards drops the network's pack, so the next forward
/// re-packs instead of using the stale layout — and stays bit-identical
/// to the unpacked reference step on the mutated weights.
#[test]
fn tampered_weight_mutation_triggers_repack() {
    let mut snn = test_net(11);
    let x = normal(&[2, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(23));
    parallel::with_threads(1, || {
        let reg = ull_obs::Registry::new();
        let packed_out = ull_obs::with_registry(&reg, || {
            snn.forward_tampered(&x, 3, &NoopTamper);
            // Simulate an in-place weight fault between inference calls.
            for node in snn.nodes_mut() {
                if let SnnOp::Conv2d { weight, .. } = &mut node.op {
                    weight.value.data_mut()[0] += 0.25;
                }
            }
            snn.forward_tampered(&x, 3, &NoopTamper)
        });
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters.get("snn.pack.builds"),
            Some(&2),
            "mutated weights must re-pack"
        );

        // The re-packed result must match the unpacked reference on the
        // mutated weights bit for bit — a stale pack would reproduce the old
        // weights.
        let reference = common::reference::reference_run(&snn, &x, 3, None);
        assert_eq!(packed_out.logits.shape(), reference.logits.shape());
        for (p, u) in packed_out.logits.data().iter().zip(reference.logits.data()) {
            assert_eq!(p.to_bits(), u.to_bits(), "{p} vs {u}");
        }
    });
}
