//! Network-level weight packing: build each layer's
//! [`ull_tensor::PackedWeights`] once and reuse it across timesteps,
//! batches, forward calls and serving replicas.
//!
//! The weights of a converted SNN are fixed at conversion time, so their
//! packed layout ([`ull_tensor::packed`]) can be prepared once per network.
//! A [`PackedNet`] holds one pack per conv/linear node; the forward path
//! resolves it through a small process-wide cache keyed by a fingerprint of
//! the network's weights ([`net_fingerprint`]), so repeated forwards,
//! batch-parallel chunks and serving replicas holding clones of the same
//! network all share one pack.
//!
//! # Staleness
//!
//! The fingerprint covers every weight's bits and shape. Mutating any
//! weight (fault injection, a chaos swap, a training step) changes the
//! fingerprint, so the next forward misses the cache and re-packs — a stale
//! pack can never be used. The cache keeps the most recently used
//! [`CACHE_CAP`] networks and evicts least-recently-used beyond that.
//!
//! Cache traffic is observable via the `snn.pack.builds` and
//! `snn.pack.hits` counters; steady-state hits allocate nothing (asserted
//! by `crates/snn/tests/alloc_free.rs`).

use std::sync::{Arc, Mutex};

use ull_nn::NodeId;
use ull_tensor::{tensor_fingerprint, PackedWeights};

use crate::network::{SnnNetwork, SnnOp};

/// Networks retained by the process-wide pack cache (most recently used
/// first). Serving keeps a handful of replicas; 8 covers every deployment
/// in this workspace with room for swaps.
pub const CACHE_CAP: usize = 8;

/// Per-network packed weights: one [`PackedWeights`] per conv/linear node,
/// indexed by node id.
#[derive(Debug)]
pub struct PackedNet {
    fingerprint: u64,
    packs: Vec<Option<PackedWeights>>,
}

impl PackedNet {
    fn build(net: &SnnNetwork, fingerprint: u64) -> Self {
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
        PackedNet { fingerprint, packs }
    }

    /// The pack for node `id`, if that node carries weights.
    pub fn node(&self, id: NodeId) -> Option<&PackedWeights> {
        self.packs.get(id).and_then(|p| p.as_ref())
    }

    /// Fingerprint of the network this pack was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
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

/// FNV-1a fingerprint of a network's weighted layers: folds each weighted
/// node's id and its weight tensor's shape + bit patterns. Any weight
/// mutation — or moving the same weights to a different node — changes the
/// value.
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

static CACHE: Mutex<Vec<(u64, Arc<PackedNet>)>> = Mutex::new(Vec::new());

/// The packed weights for `net`, as [`SnnNetwork::prepack`] resolves
/// them. Packing is the only eval kernel route, so this always returns
/// `Some`; the `Option` is kept so existing callers compile unchanged.
pub fn packed_for(net: &SnnNetwork) -> Option<Arc<PackedNet>> {
    Some(net.prepack())
}

/// Empties the process-wide pack cache. Only needed by tests that count
/// pack builds; production code lets LRU eviction manage the cache.
#[doc(hidden)]
pub fn clear_pack_cache() {
    lock_cache().clear();
}

fn lock_cache() -> std::sync::MutexGuard<'static, Vec<(u64, Arc<PackedNet>)>> {
    match CACHE.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl SnnNetwork {
    /// Resolves this network's packed weights: a shared [`PackedNet`] from
    /// the process-wide cache, built on first sight of this network's
    /// fingerprint. Every eval forward calls this once; serving also calls
    /// it at replica build and after every weight swap, so the first
    /// inference call does not pay the packing cost.
    ///
    /// The fingerprint scan reads every weight but allocates nothing, and
    /// cache hits cost one short critical section.
    pub fn prepack(&self) -> Arc<PackedNet> {
        let fp = net_fingerprint(self);
        let mut cache = lock_cache();
        if let Some(pos) = cache.iter().position(|(k, _)| *k == fp) {
            // Move-to-front MRU; within capacity this never allocates.
            let entry = cache.remove(pos);
            let pack = Arc::clone(&entry.1);
            cache.insert(0, entry);
            ull_obs::counter_add("snn.pack.hits", 1);
            return pack;
        }
        // Build inside the lock so concurrent forwards over the same
        // network (serving replicas at startup) pack once, not once per
        // caller.
        let pack = Arc::new(PackedNet::build(self, fp));
        ull_obs::counter_add("snn.pack.builds", 1);
        cache.insert(0, (fp, Arc::clone(&pack)));
        cache.truncate(CACHE_CAP);
        pack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpikeSpec;
    use ull_nn::NetworkBuilder;

    fn test_net(seed: u64) -> SnnNetwork {
        let mut b = NetworkBuilder::new(2, 8, seed);
        b.conv2d(4, 3, 1, 1);
        b.threshold_relu(0.7);
        b.flatten();
        b.linear(5);
        let dnn = b.build();
        SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(0.7)]).unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_weight_sensitive() {
        let net = test_net(1);
        let fp = net_fingerprint(&net);
        assert_eq!(fp, net_fingerprint(&net));
        assert_eq!(fp, net_fingerprint(&net.clone()), "clones share packs");
        let mut mutated = net.clone();
        for node in mutated.nodes_mut() {
            if let SnnOp::Linear { weight, .. } = &mut node.op {
                weight.value.data_mut()[0] += 1.0;
            }
        }
        assert_ne!(fp, net_fingerprint(&mutated));
    }

    #[test]
    fn cache_shares_packs_and_rebuilds_on_mutation() {
        // Any test-wide lock serialises the two tests that clear the cache.
        let _guard = ull_tensor::parallel::override_lock();
        clear_pack_cache();
        let net = test_net(2);
        let a = net.prepack();
        let b = packed_for(&net.clone()).expect("always packed");
        assert!(Arc::ptr_eq(&a, &b), "same weights resolve to one pack");
        assert_eq!(a.layer_count(), 2);
        assert!(a.packed_bytes() > 0);

        let mut mutated = net.clone();
        for node in mutated.nodes_mut() {
            if let SnnOp::Conv2d { weight, .. } = &mut node.op {
                weight.value.data_mut()[0] += 0.5;
            }
        }
        let c = mutated.prepack();
        assert!(!Arc::ptr_eq(&a, &c), "mutated weights force a re-pack");
        assert_ne!(a.fingerprint(), c.fingerprint());
        clear_pack_cache();
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let _guard = ull_tensor::parallel::override_lock();
        clear_pack_cache();
        let nets: Vec<SnnNetwork> = (0..CACHE_CAP as u64 + 2).map(test_net).collect();
        for net in &nets {
            net.prepack();
        }
        // The two oldest fell out; re-resolving them rebuilds.
        let oldest = nets[0].prepack();
        assert_eq!(oldest.fingerprint(), net_fingerprint(&nets[0]));
        clear_pack_cache();
    }
}
