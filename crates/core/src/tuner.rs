//! The collective auto-tuner (§4.2, ROADMAP "topology-aware hierarchical
//! collectives"): [`choose_algo`] picks the inter-node collective
//! algorithm — flat vs k-ary tree vs ring, with the fan-in — for each
//! collective in `Config::with_collective_autotune` mode, as the argmin
//! of a cost model over [`NetParams`].
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.** Every function here is a pure function of its
//!   inputs: the same topology and payload size always produce the same
//!   choice (required so reruns are reproducible and the differential
//!   oracle stays bit-identical).
//! * **Rank agreement.** The choice depends only on inputs that are
//!   identical at every member — the group's node count and the
//!   collective's payload size — never on rank-local history such as
//!   telemetry. Every leader of a communicator therefore independently
//!   picks the *same* algorithm for a given collective; a divergent pick
//!   would be a wire-protocol mismatch.
//!
//! The cost formulas mirror `cluster-sim`'s `CostModel` hierarchical
//! terms (`net_tree_depth`, NUMA leader staging, NIC fan-in
//! serialization), so a choice made here lands within the modeled
//! optimum of the DES sweeps — the fig7 harness gate-asserts the tuned
//! pick stays within 10% of the best static configuration.

use crate::internode::{tree_depth, InternodeAlgo};

/// Interconnect parameters the tuner models with. Defaults mirror the
/// DES cost model (`cluster_sim::CostModel`): 1.3 µs α, 10 GB/s link,
/// 20 GB/s NIC injection, 450 ns offloaded small-payload hop, L3-staged
/// hierarchical leaders vs a cross-NUMA pull per flat round.
#[derive(Clone, Debug)]
pub struct NetParams {
    /// Per-message network latency (ns).
    pub alpha_ns: f64,
    /// Link cost per byte (ns/B).
    pub beta_ns_per_byte: f64,
    /// NIC injection occupancy per byte (ns/B).
    pub nic_ns_per_byte: f64,
    /// Hardware-offloaded hop for ≤ 8 B payloads (DMAPP-style), ns.
    pub small_hop_ns: f64,
    /// NUMA-aware leader staging per tree level (an L3 line), ns.
    pub leader_stage_ns: f64,
    /// Per-round NUMA penalty of the flat leader exchange, ns.
    pub numa_leader_penalty_ns: f64,
}

impl Default for NetParams {
    fn default() -> Self {
        Self {
            alpha_ns: 1300.0,
            beta_ns_per_byte: 0.1,
            nic_ns_per_byte: 0.05,
            small_hop_ns: 450.0,
            leader_stage_ns: 45.0,
            numa_leader_penalty_ns: 110.0,
        }
    }
}

/// Fan-ins the tuner considers for the k-ary tree.
pub const FANIN_CANDIDATES: [usize; 4] = [2, 4, 8, 16];

impl NetParams {
    /// One inter-node message of `bytes` (offload-eligible when tiny).
    fn hop_ns(&self, bytes: usize) -> f64 {
        let wire = self.alpha_ns + bytes as f64 * self.beta_ns_per_byte;
        if bytes <= 8 {
            wire.min(self.small_hop_ns)
        } else {
            wire
        }
    }

    /// Modeled inter-node time of one all-reduce over `nodes` leaders
    /// with `bytes` payload under `algo` (two traversal waves for trees;
    /// mirrors the DES cost model's hierarchical terms).
    pub fn modeled_allreduce_ns(&self, algo: InternodeAlgo, nodes: usize, bytes: usize) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let hop = self.hop_ns(bytes);
        match algo {
            InternodeAlgo::Flat => {
                let rounds = (nodes as f64).log2().ceil();
                rounds * (hop + self.numa_leader_penalty_ns)
            }
            InternodeAlgo::Kary(k) => {
                let level = hop
                    + (k - 1) as f64 * bytes as f64 * self.nic_ns_per_byte
                    + self.leader_stage_ns;
                2.0 * tree_depth(nodes, k) as f64 * level
            }
            InternodeAlgo::Ring => {
                let chunk = (bytes as f64 / nodes as f64).ceil();
                let step = self.alpha_ns + chunk * self.beta_ns_per_byte;
                2.0 * (nodes - 1) as f64 * (step + self.leader_stage_ns)
            }
        }
    }

    /// The modeled-optimal inter-node algorithm for one collective of
    /// `bytes` payload over `nodes` nodes: the argmin over flat, the
    /// [`FANIN_CANDIDATES`] k-ary trees, and the ring. Deterministic,
    /// and a function only of rank-agreed inputs (see module docs). Ties
    /// resolve toward the earlier candidate, flat first — so equal-cost
    /// choices never churn the wire protocol.
    pub fn choose_algo(&self, nodes: usize, bytes: usize) -> InternodeAlgo {
        if nodes <= 2 {
            // One partner (or none): every algorithm degenerates to the
            // same exchange; flat avoids the tree's second wave.
            return InternodeAlgo::Flat;
        }
        let mut best = InternodeAlgo::Flat;
        let mut best_ns = self.modeled_allreduce_ns(best, nodes, bytes);
        for k in FANIN_CANDIDATES {
            let ns = self.modeled_allreduce_ns(InternodeAlgo::Kary(k), nodes, bytes);
            if ns < best_ns {
                best = InternodeAlgo::Kary(k);
                best_ns = ns;
            }
        }
        let ring_ns = self.modeled_allreduce_ns(InternodeAlgo::Ring, nodes, bytes);
        if ring_ns < best_ns {
            best = InternodeAlgo::Ring;
        }
        best
    }
}

/// Pick the inter-node algorithm with the default [`NetParams`] — the
/// per-collective entry point of `Config::with_collective_autotune`.
pub fn choose_algo(nodes: usize, bytes: usize) -> InternodeAlgo {
    NetParams::default().choose_algo(nodes, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_choice_is_flat_small_tree_at_scale_ring_for_bulk() {
        // ≤ 2 nodes: nothing to win, stay flat.
        assert_eq!(choose_algo(1, 8), InternodeAlgo::Flat);
        assert_eq!(choose_algo(2, 8), InternodeAlgo::Flat);
        // Small payloads at scale: a k-ary tree (some k ≥ 2).
        match choose_algo(64, 8) {
            InternodeAlgo::Kary(k) => assert!(k >= 2),
            other => panic!("expected a tree at 64 nodes / 8 B, got {other:?}"),
        }
        // Large payloads at scale: the bandwidth-optimal ring.
        assert_eq!(choose_algo(64, 1 << 20), InternodeAlgo::Ring);
    }

    #[test]
    fn chosen_algo_is_argmin_of_the_model() {
        let p = NetParams::default();
        for nodes in [3usize, 4, 16, 64, 256, 1024] {
            for bytes in [0usize, 8, 512, 4096, 65_536, 1 << 20] {
                let chosen = p.choose_algo(nodes, bytes);
                let best = FANIN_CANDIDATES
                    .iter()
                    .map(|&k| InternodeAlgo::Kary(k))
                    .chain([InternodeAlgo::Flat, InternodeAlgo::Ring])
                    .map(|a| p.modeled_allreduce_ns(a, nodes, bytes))
                    .fold(f64::INFINITY, f64::min);
                let got = p.modeled_allreduce_ns(chosen, nodes, bytes);
                assert!(
                    got <= best + 1e-9,
                    "nodes={nodes} bytes={bytes}: chose {chosen:?} at {got}, best {best}"
                );
            }
        }
    }

    #[test]
    fn equal_costs_resolve_to_flat() {
        // A free network makes every candidate cost zero: the tie goes to
        // the first candidate, so the wire protocol never churns.
        let free = NetParams {
            alpha_ns: 0.0,
            beta_ns_per_byte: 0.0,
            nic_ns_per_byte: 0.0,
            small_hop_ns: 0.0,
            leader_stage_ns: 0.0,
            numa_leader_penalty_ns: 0.0,
        };
        for nodes in [3usize, 64, 1024] {
            for bytes in [0usize, 8, 1 << 20] {
                assert_eq!(free.choose_algo(nodes, bytes), InternodeAlgo::Flat);
            }
        }
    }

    #[test]
    fn one_node_costs_nothing() {
        let p = NetParams::default();
        let algos = [
            InternodeAlgo::Flat,
            InternodeAlgo::Kary(4),
            InternodeAlgo::Ring,
        ];
        for algo in algos {
            for nodes in [0usize, 1] {
                assert_eq!(p.modeled_allreduce_ns(algo, nodes, 1 << 20), 0.0);
            }
            assert!(p.modeled_allreduce_ns(algo, 2, 8) > 0.0);
        }
    }

    #[test]
    fn tiny_payloads_take_the_offloaded_hop() {
        let p = NetParams::default();
        assert_eq!(p.hop_ns(0), p.small_hop_ns);
        assert_eq!(p.hop_ns(8), p.small_hop_ns);
        // One byte past the offload cutoff pays the full α + nβ wire.
        assert_eq!(p.hop_ns(9), p.alpha_ns + 9.0 * p.beta_ns_per_byte);
    }
}
