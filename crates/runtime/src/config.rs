//! Simulated machine description.

/// Ready-queue ordering policy applied per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Highest task priority first, submission order breaking ties —
    /// Chameleon-style panel-first scheduling. The default.
    #[default]
    Priority,
    /// Strict submission order, ignoring priorities (a naive runtime).
    Fifo,
    /// Most recently ready first (depth-first-ish; exposes how much the
    /// priority scheme matters).
    Lifo,
}

/// Where a remote tile fetch is sourced from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceSelection {
    /// Always from the tile version's producer (the last writer's node) —
    /// the plain MPI point-to-point behaviour of the paper's Chameleon
    /// (§II-C: no collective communication schemes).
    #[default]
    Holder,
    /// From whichever node already holds a valid replica and has the
    /// earliest-free send port. This approximates tree/pipelined broadcast
    /// by relaying through earlier receivers — the ablation for the
    /// paper's "each tile is sent to its destination as a separate
    /// message" design point.
    AnyReplica,
}

/// How concurrent transfers share the simulated fabric.
///
/// All three models move the same messages — per-link message counts and
/// byte volumes are *model-invariant* (they are decided by the task graph
/// and the replica cache, not by timing) — but they disagree on *when*
/// each transfer completes:
///
/// * [`NetworkModel::Constant`]: every transfer costs
///   `latency + bytes/bandwidth`, serialized on the sender's out port and
///   the receiver's in port (the paper's contention-free cost model,
///   bitwise-compatible with the original simulator);
/// * [`NetworkModel::SharedBandwidth`]: concurrent flows crossing one NIC
///   split its capacity max-min fairly, and every completion time is
///   recomputed on each flow arrival/departure;
/// * [`NetworkModel::Hierarchical`]: nodes hang off switches; cross-switch
///   flows additionally cross a shared uplink, NICs bound how many flows
///   they serialize at once, and a switch without an uplink makes remote
///   pairs unreachable (a typed `NoRoute`).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum NetworkModel {
    /// Per-link constant latency/bandwidth cost, ports serialize. Default.
    #[default]
    Constant,
    /// Max-min fair sharing of each NIC among its concurrent flows.
    SharedBandwidth,
    /// Nodes × switches with per-NIC serialization limits and an uplink
    /// bottleneck.
    Hierarchical(HierarchicalTopology),
}

impl NetworkModel {
    /// Stable model name (used in sweeps, reports and the CLI).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Constant => "constant",
            Self::SharedBandwidth => "shared-bandwidth",
            Self::Hierarchical(_) => "hierarchical",
        }
    }
}

/// Two-level topology for [`NetworkModel::Hierarchical`]: every node's NIC
/// connects to one switch; switches reach each other through their uplink.
///
/// Capacities are expressed in units of one NIC's full-duplex bandwidth
/// (`MachineConfig::bandwidth`), so `uplink_capacity = 4.0` means one
/// switch uplink carries four concurrent node-rate flows before it
/// becomes the bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalTopology {
    /// Number of switches `S` (must be ≥ 1).
    pub switches: u32,
    /// Optional explicit node → switch map (length = nodes). Defaults to
    /// round-robin: node `n` hangs off switch `n % S`.
    pub switch_map: Option<Vec<u32>>,
    /// Maximum concurrent flows each NIC direction serves (0 = unlimited).
    /// Excess flows queue FIFO at the NIC, with bypass: a blocked head
    /// does not block flows whose NICs have room.
    pub nic_limit: u32,
    /// Capacity of each switch uplink (each direction), in node-NIC
    /// bandwidth units.
    pub uplink_capacity: f64,
    /// Optional per-switch uplink presence (length = switches; default all
    /// `true`). A cross-switch flow touching a switch without an uplink
    /// has no route.
    pub uplinked: Option<Vec<bool>>,
}

impl HierarchicalTopology {
    /// A fully-uplinked topology with `switches` switches, round-robin
    /// node placement, unlimited NIC concurrency and 4× uplinks.
    #[must_use]
    pub fn new(switches: u32) -> Self {
        assert!(switches >= 1, "hierarchical topology needs a switch");
        Self {
            switches,
            switch_map: None,
            nic_limit: 0,
            uplink_capacity: 4.0,
            uplinked: None,
        }
    }

    /// Switch of `node`.
    ///
    /// # Panics
    /// Panics if an explicit map is set but too short, or maps the node to
    /// a switch out of range.
    #[must_use]
    pub fn switch_of(&self, node: u32) -> u32 {
        let s = match &self.switch_map {
            Some(map) => map[node as usize],
            None => node % self.switches,
        };
        assert!(
            s < self.switches,
            "node {node} mapped to switch {s} of {}",
            self.switches
        );
        s
    }

    /// Whether switch `s` has an uplink.
    #[must_use]
    pub fn is_uplinked(&self, s: u32) -> bool {
        match &self.uplinked {
            Some(v) => v[s as usize],
            None => true,
        }
    }
}

/// Parameters of the simulated cluster.
///
/// The defaults are calibrated to the paper's testbed (§IV-D): nodes with 36
/// Intel Skylake cores of which ~34 run kernels (one core drives the StarPU
/// scheduler and one the MPI thread), connected by a 100 Gb/s OmniPath
/// fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of nodes `P`.
    pub nodes: u32,
    /// Worker cores per node executing kernels (all nodes, unless
    /// [`MachineConfig::per_node_workers`] overrides it).
    pub workers_per_node: u32,
    /// Optional per-node worker counts for *heterogeneous* clusters
    /// (paper §VI's outlook; trace replay sets one slot per send and
    /// receive). When set, its length must equal `nodes` and it
    /// takes precedence over `workers_per_node`.
    pub per_node_workers: Option<Vec<u32>>,
    /// Per-message latency in seconds.
    pub latency: f64,
    /// Link bandwidth in bytes/second (per node port, full duplex: the send
    /// and receive directions are independent).
    pub bandwidth: f64,
    /// Whether received tiles are cached per node until the next write
    /// (StarPU behaviour). Disabling re-fetches for every consumer task —
    /// the `ablation_replica_cache` experiment.
    pub replica_cache: bool,
    /// Ready-queue policy.
    pub scheduler: SchedulerPolicy,
    /// Remote-fetch sourcing policy.
    pub source_selection: SourceSelection,
    /// Contention model applied to concurrent transfers.
    pub network: NetworkModel,
}

impl MachineConfig {
    /// The PlaFRIM-like testbed of the paper with `nodes` nodes.
    #[must_use]
    pub fn paper_testbed(nodes: u32) -> Self {
        Self {
            nodes,
            workers_per_node: 34,
            per_node_workers: None,
            latency: 5e-6,
            // 100 Gb/s ~ 12.5 GB/s per direction.
            bandwidth: 12.5e9,
            replica_cache: true,
            scheduler: SchedulerPolicy::Priority,
            source_selection: SourceSelection::Holder,
            network: NetworkModel::Constant,
        }
    }

    /// A small machine for unit tests: deterministic, low worker counts.
    #[must_use]
    pub fn test_machine(nodes: u32, workers_per_node: u32) -> Self {
        Self {
            nodes,
            workers_per_node,
            per_node_workers: None,
            latency: 1e-5,
            bandwidth: 1e9,
            replica_cache: true,
            scheduler: SchedulerPolicy::Priority,
            source_selection: SourceSelection::Holder,
            network: NetworkModel::Constant,
        }
    }

    /// Worker count of `node`.
    ///
    /// # Panics
    /// Panics if a per-node override is set with the wrong length.
    #[must_use]
    pub fn workers_of(&self, node: u32) -> u32 {
        match &self.per_node_workers {
            Some(v) => {
                assert_eq!(
                    v.len(),
                    self.nodes as usize,
                    "per_node_workers length must equal nodes"
                );
                v[node as usize]
            }
            None => self.workers_per_node,
        }
    }

    /// Total worker count across the machine.
    #[must_use]
    pub fn total_workers(&self) -> u32 {
        match &self.per_node_workers {
            Some(v) => v.iter().sum(),
            None => self.nodes * self.workers_per_node,
        }
    }

    /// Time to push one message of `bytes` through a port.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let m = MachineConfig::paper_testbed(23);
        assert_eq!(m.nodes, 23);
        assert_eq!(m.workers_per_node, 34);
        assert!(m.replica_cache);
    }

    #[test]
    fn transfer_time_combines_latency_and_bandwidth() {
        let mut m = MachineConfig::test_machine(1, 1);
        m.latency = 1.0;
        m.bandwidth = 100.0;
        assert!((m.transfer_time(200) - 3.0).abs() < 1e-12);
        // A 500x500 f64 tile over the paper fabric: ~160 us + latency.
        let p = MachineConfig::paper_testbed(4);
        let t = p.transfer_time(500 * 500 * 8);
        assert!(t > 1e-4 && t < 3e-4, "{t}");
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;

    #[test]
    fn per_node_workers_override() {
        let mut m = MachineConfig::test_machine(3, 4);
        assert_eq!(m.workers_of(1), 4);
        assert_eq!(m.total_workers(), 12);
        m.per_node_workers = Some(vec![2, 8, 4]);
        assert_eq!(m.workers_of(0), 2);
        assert_eq!(m.workers_of(1), 8);
        assert_eq!(m.total_workers(), 14);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn per_node_workers_wrong_length_panics() {
        let mut m = MachineConfig::test_machine(3, 4);
        m.per_node_workers = Some(vec![1, 2]);
        let _ = m.workers_of(0);
    }

    #[test]
    fn scheduler_default_is_priority() {
        assert_eq!(SchedulerPolicy::default(), SchedulerPolicy::Priority);
    }
}

#[cfg(test)]
mod network_model_tests {
    use super::*;

    #[test]
    fn default_model_is_constant() {
        assert_eq!(NetworkModel::default(), NetworkModel::Constant);
        assert_eq!(
            MachineConfig::paper_testbed(4).network,
            NetworkModel::Constant
        );
        assert_eq!(
            MachineConfig::test_machine(4, 1).network,
            NetworkModel::Constant
        );
    }

    #[test]
    fn model_names_are_stable() {
        assert_eq!(NetworkModel::Constant.name(), "constant");
        assert_eq!(NetworkModel::SharedBandwidth.name(), "shared-bandwidth");
        assert_eq!(
            NetworkModel::Hierarchical(HierarchicalTopology::new(2)).name(),
            "hierarchical"
        );
    }

    #[test]
    fn round_robin_switch_placement() {
        let h = HierarchicalTopology::new(3);
        assert_eq!(h.switch_of(0), 0);
        assert_eq!(h.switch_of(4), 1);
        assert!(h.is_uplinked(2));
    }

    #[test]
    fn explicit_switch_map_and_uplinks() {
        let mut h = HierarchicalTopology::new(2);
        h.switch_map = Some(vec![0, 0, 1, 1]);
        h.uplinked = Some(vec![true, false]);
        assert_eq!(h.switch_of(1), 0);
        assert_eq!(h.switch_of(3), 1);
        assert!(h.is_uplinked(0));
        assert!(!h.is_uplinked(1));
    }

    #[test]
    #[should_panic(expected = "switch")]
    fn switch_map_out_of_range_panics() {
        let mut h = HierarchicalTopology::new(2);
        h.switch_map = Some(vec![5]);
        let _ = h.switch_of(0);
    }
}
