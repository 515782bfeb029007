//! Machine cost models: network (LogGP-style) and compute.
//!
//! The simulator executes the real algorithm and charges *virtual time* for
//! compute and communication. The network model follows the LogGP family:
//! a message of `m` bytes over `h` hops costs
//!
//! ```text
//! t = latency + m * byte_time + h * per_hop
//! ```
//!
//! with a fixed CPU `overhead` charged on both the sending and receiving
//! rank. Compute is charged per abstract "op" reported by the algorithm
//! (see [`crate::SpmdComm::work`]); what counts as one op is up to the caller
//! and calibrated per preset.
//!
//! # Calibration
//!
//! The `meiko_cs2` preset is *shape*-calibrated to the P-AutoClass paper
//! (IPPS 2000): link bandwidth 50 MB/s is from the paper; MPI latency and
//! the per-op cost are chosen so that one `base_cycle` over 10 000
//! two-attribute tuples with 8 classes takes roughly the paper's ~0.45 s
//! on one processor, and so that speedup for small datasets saturates
//! around 4–8 processors as the paper's Figure 7 shows. Absolute numbers
//! are not claimed to match the 1999 hardware.

use crate::topology::Topology;

/// Network timing parameters (seconds).
///
/// Under non-blocking operations (see [`crate::Request`]) only the *wire*
/// components — `latency`, `byte_time`, `per_hop` (LogGP `L`/`G` and hop
/// cost) — can hide behind concurrent compute; `overhead` (LogGP `o`) is
/// CPU time and is always charged on the posting rank's clock at post.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Per-message start-up latency (the LogGP `L`).
    pub latency: f64,
    /// Seconds per payload byte (inverse bandwidth, the LogGP `G`).
    pub byte_time: f64,
    /// Additional cost per network hop (switch traversal).
    pub per_hop: f64,
    /// CPU time charged on each endpoint per message (the LogGP `o`).
    pub overhead: f64,
}

impl NetworkModel {
    /// Transit time of an `bytes`-byte message over `hops` hops. Messages a
    /// rank sends to itself (0 hops) bypass the network and cost nothing in
    /// transit (endpoint overhead is still charged by the communicator).
    pub fn transit(&self, bytes: usize, hops: usize) -> f64 {
        if hops == 0 {
            return 0.0;
        }
        self.latency + bytes as f64 * self.byte_time + hops as f64 * self.per_hop
    }

    /// A zero-cost network (useful for ideal-machine comparisons).
    pub fn ideal() -> Self {
        NetworkModel { latency: 0.0, byte_time: 0.0, per_hop: 0.0, overhead: 0.0 }
    }
}

/// Compute timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeModel {
    /// Seconds per abstract op reported through [`crate::SpmdComm::work`].
    pub sec_per_op: f64,
    /// Multiplier applied to wall-clock time measured through
    /// [`crate::Comm::measured`]; lets a fast host impersonate slow
    /// historical CPUs (or vice versa).
    pub wall_scale: f64,
}

impl ComputeModel {
    /// Zero-cost compute model (virtual time advances only for comm).
    pub fn ideal() -> Self {
        ComputeModel { sec_per_op: 0.0, wall_scale: 0.0 }
    }
}

/// Algorithm used by `Allreduce` (and `Reduce`/`Bcast` pick the matching
/// tree shapes). Early-1990s MPI implementations commonly used linear
/// gather+broadcast reductions; modern ones use recursive doubling or ring
/// algorithms. The choice changes the latency/bandwidth trade-off and is
/// the A-collectives ablation of `cargo xtask report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// Gather everything to rank 0, reduce there, broadcast back. Costs
    /// `O(P)` message latencies; best only for tiny communicators. Folds
    /// in rank order: the result is the sequential left fold for any P.
    Linear,
    /// Recursive doubling: `ceil(log2 P)` rounds of pairwise exchanges of
    /// the full vector. Latency-optimal for short messages.
    RecursiveDoubling,
    /// Reduce-scatter + allgather over a ring: `2(P-1)` rounds of `m/P`
    /// sized messages. Bandwidth-optimal for long messages.
    Ring,
    /// Rabenseifner's algorithm: recursive-halving reduce-scatter followed
    /// by a recursive-doubling allgather. `2·ceil(log2 P)` rounds moving
    /// `~2m(P−1)/P` bytes per rank — the ring's bandwidth optimality with
    /// logarithmic instead of linear latency. The best of both worlds for
    /// long vectors on machines where latency still matters.
    Rabenseifner,
    /// Hierarchical allreduce for machines built from multicore nodes
    /// (see [`crate::Topology::HierFatTree`]): an ascending-order linear
    /// fold to each node's leader over the cheap intra-node fabric,
    /// Rabenseifner among the node leaders over the inter-node network,
    /// then an intra-node broadcast of the result. On a flat topology
    /// (node size 1) it degenerates to plain Rabenseifner. Never chosen by
    /// `Auto`: it is an explicit request, because its advantage only
    /// exists when the machine actually has an intra-node fast path.
    Hierarchical,
    /// Pick the predicted-cheapest concrete algorithm per call from the
    /// machine's LogGP parameters, the communicator size, and the vector
    /// length (see [`select_allreduce`]). The selection depends only on
    /// values identical on every rank, so all ranks pick the same
    /// algorithm.
    Auto,
}

impl AllreduceAlgo {
    /// The concrete algorithm an allreduce of `elems` f64s on `p` ranks
    /// under `net` runs: `Auto` resolves through [`select_allreduce`], any
    /// other algorithm is itself. Every input is identical on every rank
    /// and backend, so all of them dispatch to the same schedule.
    pub fn resolve(self, p: usize, elems: usize, net: &NetworkModel) -> AllreduceAlgo {
        match self {
            AllreduceAlgo::Auto => select_allreduce(p, elems, net),
            algo => algo,
        }
    }
}

/// Predicted virtual cost (seconds) of one allreduce of `elems` f64s on
/// `p` ranks under `net`, per algorithm. These are the standard LogGP-style
/// estimates with per-message cost `l = L + m·G + 2o` (topology hops are
/// deliberately ignored: selection only needs the relative ordering, and
/// hop counts vary per pair):
///
/// ```text
/// linear:       2(P−1)·(l + mG)            gather to root + broadcast
/// rec-doubling: ceil(log2 P)·(l + mG)      + 2(l + mG) if P not a power of 2
/// ring:         2(P−1)·(l + (m/P)G)        reduce-scatter + allgather
/// rabenseifner: 2·Σ_{r=1..log2 P'}(l + (m/2^r)G)
///               ≈ 2·log2 P'·l + 2m(1−1/P')G, + 2(l + mG) if P not a power of 2
/// ```
///
/// where `m = 8·elems` bytes and `P'` is the largest power of two ≤ P.
/// `Auto` evaluates to the cost of the algorithm [`select_allreduce`]
/// picks.
pub fn predicted_allreduce_cost(
    algo: AllreduceAlgo,
    p: usize,
    elems: usize,
    net: &NetworkModel,
) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let m = (elems * 8) as f64;
    let pf = p as f64;
    // One message of `bytes` payload: latency + wire time + both endpoints'
    // CPU overhead.
    let msg = |bytes: f64| net.latency + bytes * net.byte_time + 2.0 * net.overhead;
    // Largest power of two ≤ p, and the extra two full-vector messages the
    // pow2-based algorithms pay to park the remainder ranks.
    let pow2 = if p.is_power_of_two() { p } else { p.next_power_of_two() / 2 };
    let park = if p.is_power_of_two() { 0.0 } else { 2.0 * msg(m) };
    match algo {
        AllreduceAlgo::Linear => 2.0 * (pf - 1.0) * msg(m),
        AllreduceAlgo::RecursiveDoubling => {
            let rounds = pow2.trailing_zeros() as f64;
            rounds * msg(m) + park
        }
        AllreduceAlgo::Ring => 2.0 * (pf - 1.0) * msg(m / pf),
        AllreduceAlgo::Rabenseifner => {
            // Halving message sizes m/2, m/4, … in the reduce-scatter, the
            // same sizes again in the allgather.
            let mut cost = park;
            let mut sz = m / 2.0;
            for _ in 0..pow2.trailing_zeros() {
                cost += 2.0 * msg(sz);
                sz /= 2.0;
            }
            cost
        }
        AllreduceAlgo::Hierarchical => {
            // The true cost depends on the node grouping, which this
            // topology-blind estimator cannot see; approximate by the
            // inter-node stage (Rabenseifner over the leaders). Adequate
            // because Hierarchical is only ever chosen explicitly.
            predicted_allreduce_cost(AllreduceAlgo::Rabenseifner, p, elems, net)
        }
        AllreduceAlgo::Auto => {
            predicted_allreduce_cost(select_allreduce(p, elems, net), p, elems, net)
        }
    }
}

/// Resolve [`AllreduceAlgo::Auto`]: the concrete algorithm with the lowest
/// predicted LogGP cost for this (P, vector length, network). Deterministic
/// — strict `<` with a fixed candidate order breaks ties — and a pure
/// function of values that are identical on every rank (the collective
/// fingerprint already enforces equal lengths), so all ranks agree.
pub fn select_allreduce(p: usize, elems: usize, net: &NetworkModel) -> AllreduceAlgo {
    let candidates = [
        AllreduceAlgo::RecursiveDoubling,
        AllreduceAlgo::Rabenseifner,
        AllreduceAlgo::Ring,
        AllreduceAlgo::Linear,
    ];
    let mut best = AllreduceAlgo::RecursiveDoubling;
    let mut best_cost = f64::INFINITY;
    for algo in candidates {
        let cost = predicted_allreduce_cost(algo, p, elems, net);
        if cost < best_cost {
            best = algo;
            best_cost = cost;
        }
    }
    best
}

/// A complete machine description: size, interconnect, and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Number of ranks (processors).
    pub p: usize,
    /// Interconnect shape.
    pub topology: Topology,
    /// Network timing for the inter-node interconnect.
    pub network: NetworkModel,
    /// Optional timing for the *intra-node* fabric (shared memory or an
    /// on-node bus). Used for pairs the topology reports as
    /// [`colocated`](Topology::colocated); `None` means every pair pays
    /// the main network's prices. Only meaningful with a hierarchical
    /// topology, whose node grouping defines colocation.
    pub intra: Option<NetworkModel>,
    /// Compute timing.
    pub compute: ComputeModel,
    /// Default algorithm for `Allreduce`.
    pub allreduce: AllreduceAlgo,
    /// Per-rank relative compute speed (1.0 = the base `compute` model;
    /// 0.5 = half speed). Empty means homogeneous. Lets experiments model
    /// heterogeneous nodes and the load imbalance they cause.
    pub rank_speed: Vec<f64>,
    /// Warm standby processors beyond `p`: physical slots `p..p+spares`
    /// hold idle ranks that the recovery supervisor can promote into a
    /// failed logical slot via [`MachineSpec::promote`] without changing
    /// `p` (and hence without changing any collective schedule).
    pub spares: usize,
    /// Logical-rank → physical-slot indirection. Empty means the identity
    /// mapping. Entry `r` names the physical slot that carries logical
    /// rank `r`; after a promotion the failed rank's entry points at a
    /// spare slot (`>= p`). Only *costs* (hops, transit, speed) see the
    /// physical slot — message routing, collectives, and verification all
    /// stay in logical-rank space, which is what keeps a promoted run
    /// bitwise identical to the fault-free one.
    pub member_table: Vec<usize>,
}

impl MachineSpec {
    /// The schedule a world allreduce of `elems` f64s runs under `algo`
    /// on this machine: the algorithm resolved over all `p` ranks (see
    /// [`AllreduceAlgo::resolve`]) and the ranks per node.
    pub fn allreduce_schedule(&self, algo: AllreduceAlgo, elems: usize) -> (AllreduceAlgo, usize) {
        (algo.resolve(self.p, elems, &self.network), self.topology.node_size())
    }

    /// Physical slot carrying a logical rank (identity when no promotion
    /// has touched the member table).
    pub fn slot(&self, rank: usize) -> usize {
        self.member_table.get(rank).copied().unwrap_or(rank)
    }

    /// Total physical slots: the `p` working ranks plus the warm spares.
    pub fn slots(&self) -> usize {
        self.p + self.spares
    }

    /// Hop count between two logical ranks under this machine's topology,
    /// measured between the physical slots that carry them.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        self.topology.hops_with_size(self.slots(), self.slot(a), self.slot(b))
    }

    /// Transit time of a message between two logical ranks. Colocated
    /// pairs (same node under a hierarchical topology) use the intra-node
    /// fabric's prices when one is configured; self-messages stay free.
    pub fn transit(&self, bytes: usize, from: usize, to: usize) -> f64 {
        let (from, to) = (self.slot(from), self.slot(to));
        if from != to && self.topology.colocated(from, to) {
            if let Some(intra) = &self.intra {
                return intra.transit(bytes, 1);
            }
        }
        self.network.transit(bytes, self.topology.hops_with_size(self.slots(), from, to))
    }

    /// Relative compute speed of a logical rank (1.0 when unspecified),
    /// read from the physical slot carrying it.
    pub fn speed(&self, rank: usize) -> f64 {
        let s = self.rank_speed.get(self.slot(rank)).copied().unwrap_or(1.0);
        if s.is_finite() && s > 0.0 {
            s
        } else {
            1.0
        }
    }

    /// Returns a copy with the given per-rank speeds (convenience for
    /// heterogeneous-machine experiments).
    pub fn with_rank_speeds(mut self, speeds: Vec<f64>) -> Self {
        assert_eq!(speeds.len(), self.p, "need one speed per rank");
        self.rank_speed = speeds;
        self
    }

    /// Returns a copy with `n` warm spare slots appended after the `p`
    /// working ranks (identity member table until a promotion).
    pub fn with_spares(mut self, n: usize) -> Self {
        self.spares = n;
        self
    }

    /// Point logical rank `logical` at physical slot `slot` (normally a
    /// spare slot in `p..slots()`), materializing the identity member
    /// table first if it was empty.
    ///
    /// # Panics
    /// Panics if `logical >= p` or `slot >= slots()` — promotion rewires
    /// an existing logical rank onto an existing physical slot, never
    /// grows the machine.
    pub fn promote(&mut self, logical: usize, slot: usize) {
        assert!(logical < self.p, "logical rank {logical} out of range (p = {})", self.p);
        assert!(slot < self.slots(), "slot {slot} out of range ({} slots)", self.slots());
        if self.member_table.is_empty() {
            self.member_table = (0..self.p).collect();
        }
        self.member_table[logical] = slot;
    }
}

/// Ready-made machine descriptions.
pub mod presets {
    use super::*;

    /// The paper's testbed: a Meiko CS-2 with up to 10 SPARC processors on
    /// an arity-4 fat tree with 50 MB/s links. See the module docs for the
    /// calibration rationale. The default allreduce is `Linear`, matching
    /// the saturation behaviour the paper observed with its era's MPI.
    pub fn meiko_cs2(p: usize) -> MachineSpec {
        MachineSpec {
            p,
            topology: Topology::FatTree { arity: 4 },
            network: NetworkModel {
                // Era MPI cost is dominated by per-message CPU protocol
                // processing (`overhead`, charged per endpoint and thus
                // serialized at a busy root), with a smaller pipelined wire
                // latency. Both are shape-calibrated to Fig. 7's saturation.
                latency: 80e-6,
                byte_time: 1.0 / 50e6, // 50 MB/s from the paper
                per_hop: 1e-6,
                overhead: 120e-6,
            },
            intra: None,
            compute: ComputeModel {
                // One "op" in autoclass terms is one (item, class,
                // attribute) kernel evaluation (a Gaussian log-density or
                // a multinomial lookup plus weighted accumulation).
                sec_per_op: 0.75e-6, // ~1.3 M kernel evals/s on a ~1999 SPARC
                wall_scale: 1.0,
            },
            allreduce: AllreduceAlgo::Linear,
            rank_speed: Vec::new(),
            spares: 0,
            member_table: Vec::new(),
        }
    }

    /// A contemporary commodity cluster: low-latency network, fast CPUs.
    pub fn modern_cluster(p: usize) -> MachineSpec {
        MachineSpec {
            p,
            topology: Topology::FatTree { arity: 16 },
            network: NetworkModel {
                latency: 2e-6,
                byte_time: 1.0 / 10e9,
                per_hop: 100e-9,
                overhead: 500e-9,
            },
            intra: None,
            compute: ComputeModel { sec_per_op: 2e-9, wall_scale: 1.0 },
            // A modern MPI picks its collective algorithm per call from the
            // message size; model that with the size-adaptive selector.
            allreduce: AllreduceAlgo::Auto,
            rank_speed: Vec::new(),
            spares: 0,
            member_table: Vec::new(),
        }
    }

    /// A machine with free communication — the upper bound on speedup.
    pub fn ideal(p: usize) -> MachineSpec {
        MachineSpec {
            p,
            topology: Topology::Crossbar,
            network: NetworkModel::ideal(),
            intra: None,
            compute: ComputeModel { sec_per_op: 1.4e-6, wall_scale: 1.0 },
            allreduce: AllreduceAlgo::RecursiveDoubling,
            rank_speed: Vec::new(),
            spares: 0,
            member_table: Vec::new(),
        }
    }

    /// A fat tree of multicore nodes: `node_size` ranks per node sharing a
    /// fast on-node fabric, nodes connected by a modern-cluster-grade
    /// arity-16 fat tree. The default allreduce is [`AllreduceAlgo::
    /// Hierarchical`], which folds inside each node before going over the
    /// wire — the machine shape the large-P sweeps (P = 64…1024) model.
    pub fn hier_cluster(p: usize, node_size: usize) -> MachineSpec {
        MachineSpec {
            p,
            topology: Topology::HierFatTree { node_size: node_size.max(1), arity: 16 },
            network: NetworkModel {
                latency: 2e-6,
                byte_time: 1.0 / 10e9,
                per_hop: 100e-9,
                overhead: 500e-9,
            },
            // Shared-memory transfers inside a node: ~100× lower latency,
            // memory-bus bandwidth, negligible per-hop cost.
            intra: Some(NetworkModel {
                latency: 200e-9,
                byte_time: 1.0 / 40e9,
                per_hop: 10e-9,
                overhead: 100e-9,
            }),
            compute: ComputeModel { sec_per_op: 2e-9, wall_scale: 1.0 },
            allreduce: AllreduceAlgo::Hierarchical,
            rank_speed: Vec::new(),
            spares: 0,
            member_table: Vec::new(),
        }
    }

    /// Zero-cost machine used by unit tests that only check data movement.
    pub fn zero_cost(p: usize) -> MachineSpec {
        MachineSpec {
            p,
            topology: Topology::Crossbar,
            network: NetworkModel::ideal(),
            intra: None,
            compute: ComputeModel::ideal(),
            allreduce: AllreduceAlgo::RecursiveDoubling,
            rank_speed: Vec::new(),
            spares: 0,
            member_table: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_table_defaults_to_identity() {
        let m = presets::meiko_cs2(4);
        assert_eq!(m.spares, 0);
        assert_eq!(m.slots(), 4);
        for r in 0..4 {
            assert_eq!(m.slot(r), r);
        }
        // With spares but no promotion, costs are untouched for flat
        // (non-hierarchical) topologies: hop counts there depend only on
        // the endpoint pair, not the machine size.
        let spared = presets::meiko_cs2(4).with_spares(2);
        assert_eq!(spared.slots(), 6);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(spared.transit(64, a, b), m.transit(64, a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn promotion_reroutes_costs_through_the_spare_slot() {
        let mut m = presets::meiko_cs2(4).with_spares(1).with_rank_speeds(vec![1.0; 4]);
        m.rank_speed.push(0.5); // the spare slot is a slower node
        assert_eq!(m.speed(1), 1.0);
        m.promote(1, 4);
        assert_eq!(m.slot(1), 4, "logical rank 1 now lives on slot 4");
        assert_eq!(m.slot(0), 0, "other ranks keep their slots");
        assert_eq!(m.speed(1), 0.5, "speed reads the physical slot");
        // Self-messages of the promoted rank stay free: both endpoints
        // resolve to the same slot.
        assert_eq!(m.transit(64, 1, 1), 0.0);
        assert_eq!(m.p, 4, "promotion never changes P");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn promotion_to_a_nonexistent_slot_panics() {
        let mut m = presets::zero_cost(2).with_spares(1);
        m.promote(0, 3);
    }

    #[test]
    fn transit_is_affine_in_bytes_and_hops() {
        let n = NetworkModel { latency: 1.0, byte_time: 0.5, per_hop: 0.25, overhead: 0.0 };
        assert_eq!(n.transit(0, 1), 1.25);
        assert_eq!(n.transit(4, 1), 1.0 + 2.0 + 0.25);
        assert_eq!(n.transit(4, 3), 1.0 + 2.0 + 0.75);
    }

    #[test]
    fn self_messages_have_no_transit() {
        let n = NetworkModel { latency: 1.0, byte_time: 1.0, per_hop: 1.0, overhead: 1.0 };
        assert_eq!(n.transit(1_000_000, 0), 0.0);
    }

    #[test]
    fn presets_are_sane() {
        let m = presets::meiko_cs2(10);
        assert_eq!(m.p, 10);
        assert!(m.network.latency > 0.0);
        assert!(m.compute.sec_per_op > 0.0);
        // 50 MB/s from the paper
        assert!((m.network.byte_time - 2e-8).abs() < 1e-12);

        let i = presets::ideal(4);
        assert_eq!(i.network.transit(100, i.hops(0, 3)), 0.0);
    }

    /// Meiko-like parameters used by the selection tests: high latency and
    /// per-message overhead, 50 MB/s links.
    fn meiko_net() -> NetworkModel {
        NetworkModel { latency: 80e-6, byte_time: 2e-8, per_hop: 1e-6, overhead: 120e-6 }
    }

    #[test]
    fn selection_prefers_recursive_doubling_for_short_vectors() {
        let net = meiko_net();
        for p in [2, 4, 8, 16] {
            assert_eq!(
                select_allreduce(p, 2, &net),
                AllreduceAlgo::RecursiveDoubling,
                "P={p}: short vectors are latency-bound"
            );
        }
    }

    #[test]
    fn selection_prefers_rabenseifner_for_long_vectors_on_pow2() {
        let net = meiko_net();
        for p in [4, 8, 16] {
            assert_eq!(
                select_allreduce(p, 262_144, &net),
                AllreduceAlgo::Rabenseifner,
                "P={p}: long vectors are bandwidth-bound, log latency beats ring"
            );
        }
    }

    #[test]
    fn selection_prefers_ring_for_long_vectors_on_awkward_p() {
        // Non-power-of-two P makes Rabenseifner pay two extra full-vector
        // parking messages; the ring has no such penalty.
        let net = meiko_net();
        assert_eq!(select_allreduce(6, 1 << 20, &net), AllreduceAlgo::Ring);
    }

    #[test]
    fn selection_is_always_concrete() {
        let net = meiko_net();
        for p in 1..=17 {
            for elems in [0, 1, 64, 4096, 1 << 18] {
                let algo = select_allreduce(p, elems, &net);
                assert!(
                    !matches!(algo, AllreduceAlgo::Auto),
                    "P={p} elems={elems}: selected {algo:?}"
                );
            }
        }
    }

    #[test]
    fn selection_is_deterministic_on_a_free_network() {
        // All costs are 0 on the ideal network; the fixed candidate order
        // must break the tie the same way every time.
        let net = NetworkModel::ideal();
        for p in 2..=9 {
            assert_eq!(select_allreduce(p, 100, &net), AllreduceAlgo::RecursiveDoubling);
        }
    }

    #[test]
    fn predicted_costs_match_hand_formulas() {
        let net = meiko_net();
        let msg = |bytes: f64| net.latency + bytes * net.byte_time + 2.0 * net.overhead;
        let m = 8.0 * 512.0;
        // P=4 (pow2): 2 rounds of recursive doubling.
        let rd = predicted_allreduce_cost(AllreduceAlgo::RecursiveDoubling, 4, 512, &net);
        assert!((rd - 2.0 * msg(m)).abs() < 1e-12);
        let ring = predicted_allreduce_cost(AllreduceAlgo::Ring, 4, 512, &net);
        assert!((ring - 6.0 * msg(m / 4.0)).abs() < 1e-12);
        let rab = predicted_allreduce_cost(AllreduceAlgo::Rabenseifner, 4, 512, &net);
        assert!((rab - 2.0 * (msg(m / 2.0) + msg(m / 4.0))).abs() < 1e-12);
        // Auto's cost equals its selection's cost.
        let auto = predicted_allreduce_cost(AllreduceAlgo::Auto, 4, 512, &net);
        let sel = select_allreduce(4, 512, &net);
        assert_eq!(auto, predicted_allreduce_cost(sel, 4, 512, &net));
        // P=1 is free for everyone.
        assert_eq!(predicted_allreduce_cost(AllreduceAlgo::Linear, 1, 512, &net), 0.0);
    }

    #[test]
    fn hier_cluster_intra_node_transit_is_cheaper() {
        let m = presets::hier_cluster(64, 8);
        // Ranks 0 and 7 share node 0; 0 and 8 do not.
        let intra = m.transit(1024, 0, 7);
        let inter = m.transit(1024, 0, 8);
        assert!(intra < inter, "intra {intra} vs inter {inter}");
        assert_eq!(m.transit(1024, 5, 5), 0.0, "self messages stay free");
        // Without an intra model, colocated pairs pay network prices.
        let mut flat = m.clone();
        flat.intra = None;
        assert!(flat.transit(1024, 0, 7) > intra);
    }

    #[test]
    fn hierarchical_is_never_auto_selected_and_has_a_cost() {
        let net = meiko_net();
        for p in 2..=17 {
            assert_ne!(select_allreduce(p, 4096, &net), AllreduceAlgo::Hierarchical);
        }
        let c = predicted_allreduce_cost(AllreduceAlgo::Hierarchical, 8, 4096, &net);
        assert_eq!(c, predicted_allreduce_cost(AllreduceAlgo::Rabenseifner, 8, 4096, &net));
    }

    #[test]
    fn machine_transit_uses_topology_hops() {
        let m = presets::meiko_cs2(10);
        // ranks 0 and 1 share a leaf switch (2 hops); 0 and 5 do not (4 hops)
        assert!(m.transit(8, 0, 5) > m.transit(8, 0, 1));
        assert_eq!(m.transit(8, 3, 3), 0.0);
    }
}
