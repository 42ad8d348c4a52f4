//! Network-level weight packing: build each layer's
//! [`ull_tensor::PackedWeights`] once per weight version and reuse it
//! across timesteps, batches, forward calls and threads.
//!
//! A [`PackedNet`] holds one pack per conv/linear node. The network owns
//! it: [`SnnNetwork::prepack`] fills the network's `OnceLock` on first use
//! and every later forward reads it back with no hash and no lock. A clone
//! taken after the first `prepack` shares the `Arc`; a net cloned *before*
//! its first `prepack` builds its own pack. Serving replicas therefore
//! each pack their own copy when they are built.
//!
//! # Staleness
//!
//! `SnnNetwork`'s fields are private, so only its `&mut self` methods can
//! change weights: [`SnnNetwork::nodes_mut`],
//! [`SnnNetwork::visit_params_mut`] and [`SnnNetwork::fold_amplitudes`].
//! Each drops the pack before handing out `&mut` access, so the next
//! forward re-packs the new weights (fault injection, a chaos swap, a
//! training step) — a stale pack can never be used.
//!
//! Builds are observable via the `snn.pack.builds` counter; forwards over a
//! packed network allocate nothing for the pack (asserted by
//! `crates/snn/tests/alloc_free.rs`).

use std::fmt;
use std::sync::Arc;

use ull_nn::NodeId;
use ull_tensor::{PackedWeights, Tensor};

use crate::network::{SnnNetwork, SnnOp};

/// Per-network packed weights: one [`PackedWeights`] per conv/linear node,
/// indexed by node id.
pub struct PackedNet {
    packs: Vec<Option<PackedWeights>>,
}

impl PackedNet {
    fn build(net: &SnnNetwork) -> Self {
        let _span = ull_obs::span("snn.pack.build");
        let packs = net
            .nodes()
            .iter()
            .map(|node| match &node.op {
                SnnOp::Conv2d { weight, .. } => Some(PackedWeights::pack_conv(&weight.value)),
                SnnOp::Linear { weight, .. } => Some(PackedWeights::pack_rhs_t(&weight.value)),
                _ => None,
            })
            .collect();
        PackedNet { packs }
    }

    /// The pack for node `id`, if that node carries weights.
    pub fn node(&self, id: NodeId) -> Option<&PackedWeights> {
        self.packs.get(id).and_then(|p| p.as_ref())
    }

    /// Number of weighted (packed) layers.
    pub fn layer_count(&self) -> usize {
        self.packs.iter().filter(|p| p.is_some()).count()
    }

    /// Total bytes held by the packed buffers.
    pub fn packed_bytes(&self) -> usize {
        self.packs
            .iter()
            .flatten()
            .map(PackedWeights::packed_bytes)
            .sum()
    }
}

/// A summary only: the panels are large and carry no information beyond
/// the network's own weights.
impl fmt::Debug for PackedNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedNet")
            .field("layers", &self.layer_count())
            .field("bytes", &self.packed_bytes())
            .finish()
    }
}

/// FNV-1a content hash of a network's weighted layers: folds each weighted
/// node's id and its weight tensor's shape + bit patterns. Any weight
/// mutation — or moving the same weights to a different node — changes the
/// value. It reads every weight, so it stays off the forward path; it is a
/// reproducibility check for tools, not a pack key.
pub fn net_fingerprint(net: &SnnNetwork) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, node) in net.nodes().iter().enumerate() {
        let weight = match &node.op {
            SnnOp::Conv2d { weight, .. } | SnnOp::Linear { weight, .. } => weight,
            _ => continue,
        };
        for w in [i as u64, tensor_fingerprint(&weight.value)] {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over a tensor's shape and raw `f32` bit patterns. Folds whole
/// `u32` words (not bytes) so a multi-million-parameter network hashes in
/// one fast pass; the shape prefix distinguishes equal-data
/// different-shape tensors.
fn tensor_fingerprint(t: &Tensor) -> u64 {
    let shape = t.shape().iter().map(|&d| d as u64);
    let bits = t.data().iter().map(|v| u64::from(v.to_bits()));
    shape.chain(bits).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The packed weights for `net`, as [`SnnNetwork::prepack`] resolves
/// them. Packing is the only eval kernel route, so this always returns
/// `Some`; the `Option` is kept so existing callers compile unchanged.
pub fn packed_for(net: &SnnNetwork) -> Option<Arc<PackedNet>> {
    Some(net.prepack())
}

impl SnnNetwork {
    /// This network's packed weights, built on the first call after
    /// construction or after any `&mut` access to the nodes, and read back
    /// with no hash and no lock afterwards. Every eval run calls this once
    /// per batch chunk; serving also calls it at replica build and after
    /// every weight swap, so the first inference call does not pay the
    /// packing cost.
    ///
    /// Concurrent first calls build once: the others wait for the winner's
    /// pack.
    pub fn prepack(&self) -> Arc<PackedNet> {
        Arc::clone(self.pack.get_or_init(|| {
            ull_obs::counter_add("snn.pack.builds", 1);
            Arc::new(PackedNet::build(self))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpikeSpec;
    use ull_nn::NetworkBuilder;
    use ull_tensor::init::{normal, seeded_rng};
    use ull_tensor::parallel;

    fn test_net(seed: u64) -> SnnNetwork {
        let mut b = NetworkBuilder::new(2, 8, seed);
        b.conv2d(4, 3, 1, 1);
        b.threshold_relu(0.7);
        b.flatten();
        b.linear(5);
        let dnn = b.build();
        SnnNetwork::from_network(&dnn, &[SpikeSpec::scaled(0.7, 0.8, 1.2)]).unwrap()
    }

    fn input(batch: usize, seed: u64) -> Tensor {
        normal(&[batch, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(seed))
    }

    fn is_packed(net: &SnnNetwork) -> bool {
        net.pack.get().is_some()
    }

    #[test]
    fn fingerprint_is_stable_and_weight_sensitive() {
        let net = test_net(1);
        let fp = net_fingerprint(&net);
        // Pinned: perfbench compares this hash across runs, so a change to
        // how it folds weights must show up here first.
        assert_eq!(fp, 0x57f0_a403_2dad_abb1);
        assert_eq!(fp, net_fingerprint(&net));
        assert_eq!(fp, net_fingerprint(&net.clone()));
        let mut mutated = net.clone();
        for node in mutated.nodes_mut() {
            if let SnnOp::Linear { weight, .. } = &mut node.op {
                weight.value.data_mut()[0] += 1.0;
            }
        }
        assert_ne!(fp, net_fingerprint(&mutated));
    }

    #[test]
    fn tensor_fingerprint_tracks_content_and_shape() {
        let a = normal(&[4, 6], 0.0, 1.0, &mut seeded_rng(11));
        assert_eq!(tensor_fingerprint(&a), tensor_fingerprint(&a.clone()));
        let mut mutated = a.clone();
        mutated.data_mut()[3] += 1.0;
        assert_ne!(tensor_fingerprint(&a), tensor_fingerprint(&mutated));
        // Same bits, different shape — must not collide.
        let reshaped = a.reshape(&[6, 4]).unwrap();
        assert_ne!(tensor_fingerprint(&a), tensor_fingerprint(&reshaped));
    }

    #[test]
    fn packing_is_reused_across_timesteps_batches_and_threads() {
        let net = test_net(2);
        assert!(!is_packed(&net), "a fresh network starts unpacked");
        parallel::with_threads(1, || net.forward(&input(3, 20), 1));
        let pack = net.prepack();
        assert_eq!(pack.layer_count(), 2);
        assert!(pack.packed_bytes() > 0);
        for threads in [1, 4] {
            for (batch, t_steps) in [(3, 5), (1, 2), (5, 3)] {
                parallel::with_threads(threads, || {
                    net.forward(&input(batch, 21), t_steps);
                    net.forward_until(&input(batch, 22), t_steps, |_, _| true);
                });
                assert!(
                    Arc::ptr_eq(&pack, &net.prepack()),
                    "threads {threads}, batch {batch}, T {t_steps} re-packed"
                );
            }
        }
        assert!(Arc::ptr_eq(
            &pack,
            &packed_for(&net).expect("always packed")
        ));
    }

    #[test]
    fn packing_is_shared_by_clones_taken_after_prepack() {
        let net = test_net(4);
        let early = net.clone();
        let pack = net.prepack();
        let late = net.clone();
        assert!(
            Arc::ptr_eq(&pack, &late.prepack()),
            "a later clone shares the Arc"
        );
        assert!(
            !is_packed(&early),
            "a clone taken before prepack has no pack"
        );
        assert!(
            !Arc::ptr_eq(&pack, &early.prepack()),
            "a clone taken before prepack builds its own"
        );
    }

    #[test]
    fn packing_is_ignored_by_eq_and_serde() {
        let net = test_net(5);
        let unpacked = net.clone();
        net.prepack();
        assert_eq!(net, unpacked, "== ignores the pack");
        let json = serde_json::to_string(&net).unwrap();
        assert_eq!(json, serde_json::to_string(&unpacked).unwrap());
        let back: SnnNetwork = serde_json::from_str(&json).unwrap();
        assert!(!is_packed(&back), "a deserialized network starts unpacked");
        assert_eq!(back, net);
        // Debug summarises the pack and never prints its panels.
        assert!(format!("{net:?}").contains("PackedNet { layers: 2, bytes: "));
        assert!(!format!("{back:?}").contains("PackedNet"));
    }

    /// A checkpoint holds exactly `{"nodes", "output"}`, packed or not;
    /// pinned byte for byte so checkpoints stay loadable across versions.
    #[test]
    fn serialized_network_is_pinned() {
        let mut b = NetworkBuilder::new(1, 2, 3);
        b.conv2d_opts(1, 1, 1, 0, true);
        b.threshold_relu(0.5);
        b.flatten();
        b.linear(2);
        let net =
            SnnNetwork::from_network(&b.build(), &[SpikeSpec::scaled(0.5, 0.8, 1.2)]).unwrap();
        net.prepack();
        let want = concat!(
            r#"{"nodes":[{"op":"Input","inputs":[]},"#,
            r#"{"op":{"Conv2d":{"weight":{"value":{"shape":[1,1,1,1],"data":[-0.7721778750419617]},"#,
            r#""grad":{"shape":[1,1,1,1],"data":[0.0]},"#,
            r#""momentum":{"shape":[1,1,1,1],"data":[0.0]},"second_moment":null,"decay":true},"#,
            r#""bias":{"value":{"shape":[1],"data":[0.0]},"#,
            r#""grad":{"shape":[1],"data":[0.0]},"#,
            r#""momentum":{"shape":[1],"data":[0.0]},"second_moment":null,"decay":false},"#,
            r#""geo":{"kh":1,"kw":1,"stride":1,"padding":0}}},"inputs":[0]},"#,
            r#"{"op":{"Spike":{"v_th":{"value":{"shape":[1],"data":[0.4000000059604645]},"#,
            r#""grad":{"shape":[1],"data":[0.0]},"#,
            r#""momentum":{"shape":[1],"data":[0.0]},"second_moment":null,"decay":false},"#,
            r#""leak":{"value":{"shape":[1],"data":[1.0]},"#,
            r#""grad":{"shape":[1],"data":[0.0]},"#,
            r#""momentum":{"shape":[1],"data":[0.0]},"second_moment":null,"decay":false},"amp":0.48000001907348633,"u_init":0.0}},"inputs":[1]},"#,
            r#"{"op":"Flatten","inputs":[2]},"#,
            r#"{"op":{"Linear":{"weight":{"value":{"shape":[2,4],"data":[-1.205735206604004,-0.26126593351364136,-0.7470895648002625,0.5463288426399231,-0.26804518699645996,-1.219836711883545,0.08244244754314423,0.22946149110794067]},"#,
            r#""grad":{"shape":[2,4],"data":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0]},"#,
            r#""momentum":{"shape":[2,4],"data":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0]},"second_moment":null,"decay":true},"#,
            r#""bias":null}},"inputs":[3]}],"output":4}"#,
        );
        assert_eq!(serde_json::to_string(&net).unwrap(), want);
    }
}
