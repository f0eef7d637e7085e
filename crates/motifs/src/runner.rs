//! Motif execution harness: assemble a cluster, run, and summarize.

use rvma_net::fabric::{partition_fabric, FabricConfig, TopologySpec};
use rvma_net::packet::NetEvent;
use rvma_nic::{build_cluster, HostLogic, NicConfig, Protocol};
use rvma_sim::{Engine, SimConfig, SimTime, StatsRegistry};

/// Histogram name motif nodes record their finish time into.
pub const MOTIF_DONE_HIST: &str = "motif.node_done_ns";

/// Summary of one motif run.
#[derive(Debug, Clone)]
pub struct MotifResult {
    /// Topology name.
    pub topology: String,
    /// Protocol used.
    pub protocol: Protocol,
    /// Time at which the last node finished its motif work.
    pub makespan: SimTime,
    /// Simulated instant the network fully quiesced (includes trailing
    /// control traffic such as final RTRs).
    pub quiesce: SimTime,
    /// Nodes that reported completion.
    pub nodes_done: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Packets injected.
    pub packets: u64,
    /// RDMA registration handshakes.
    pub handshakes: u64,
    /// RDMA fences sent.
    pub fences: u64,
    /// RDMA RTR credits sent.
    pub rtrs: u64,
    /// Total events fired.
    pub events: u64,
}

impl MotifResult {
    /// Makespan in microseconds (convenience for reports).
    pub fn makespan_us(&self) -> f64 {
        self.makespan.as_us_f64()
    }
}

/// Distill a finished run's stats into a [`MotifResult`]. Panics if any
/// node failed to finish (deadlock in the motif or protocol model).
fn summarize(
    stats: &StatsRegistry,
    quiesce: SimTime,
    events: u64,
    nodes: u64,
    spec: &TopologySpec,
    protocol: Protocol,
) -> MotifResult {
    let nodes_done = stats.counter_value("motif.nodes_done");
    assert_eq!(
        nodes_done, nodes,
        "{} of {} nodes finished — motif deadlocked on {} / {}",
        nodes_done, nodes, spec.name, protocol
    );
    let makespan = stats
        .get_histogram(MOTIF_DONE_HIST)
        .and_then(|h| h.max())
        .map(SimTime::from_ns_f64)
        .unwrap_or(SimTime::ZERO);

    MotifResult {
        topology: spec.name.clone(),
        protocol,
        makespan,
        quiesce,
        nodes_done,
        msgs_sent: stats.counter_value("nic.msgs_sent"),
        packets: stats.counter_value("nic.packets_injected"),
        handshakes: stats.counter_value("nic.handshakes"),
        fences: stats.counter_value("nic.fences_sent"),
        rtrs: stats.counter_value("nic.rtrs_sent"),
        events,
    }
}

/// Run a motif on `spec` with per-node behaviour from `logic` on an engine
/// configured by `sim` ([`build_motif_engine`]), and collect the summary.
/// Results are bit-identical across `sim.threads` values for a fixed
/// `sim.shards`. Panics if any node fails to finish (deadlock in the motif
/// or protocol model).
pub fn run_motif(
    spec: &TopologySpec,
    fcfg: &FabricConfig,
    ncfg: NicConfig,
    protocol: Protocol,
    seed: u64,
    sim: SimConfig,
    logic: impl FnMut(u32) -> Box<dyn HostLogic>,
) -> MotifResult {
    let (mut engine, nodes) = build_motif_engine(spec, fcfg, ncfg, protocol, seed, sim, logic);
    let events = engine.run_to_completion();
    summarize(engine.stats(), engine.now(), events, nodes, spec, protocol)
}

/// Assemble a motif cluster inside an [`Engine`]: window clamped to the
/// fabric's lookahead, components partitioned topology-aware so terminals
/// co-locate with their switch ([`partition_fabric`]). The returned engine
/// is built but not yet run; callers that want raw stats or traces (e.g.
/// parity tests) run it themselves.
pub fn build_motif_engine(
    spec: &TopologySpec,
    fcfg: &FabricConfig,
    ncfg: NicConfig,
    protocol: Protocol,
    seed: u64,
    sim: SimConfig,
    logic: impl FnMut(u32) -> Box<dyn HostLogic>,
) -> (Engine<NetEvent>, u64) {
    let mut cfg = sim;
    // The window must not exceed the minimum cross-shard latency or
    // cross-shard sends would land inside the current window.
    cfg.window = cfg.window.min(fcfg.lookahead());
    let mut engine = Engine::with_config(seed, cfg);
    engine.set_partition(partition_fabric(spec, cfg.shards));
    let cluster = build_cluster(&mut engine, spec, fcfg, ncfg, protocol, logic);
    let nodes = cluster.nodes() as u64;
    (engine, nodes)
}

/// A node that participates in no communication: it reports completion at
/// t = 0. Used to pad topologies whose terminal count exceeds the motif's
/// process grid (the spare terminals the paper's node allocations also
/// leave idle).
pub struct IdleNode;

impl HostLogic for IdleNode {
    fn on_start(&mut self, api: &mut rvma_nic::TermApi<'_, '_>) {
        let now = api.now();
        api.record_time(MOTIF_DONE_HIST, now);
        api.count("motif.nodes_done");
    }
    fn on_recv(&mut self, _msg: rvma_nic::RecvInfo, _api: &mut rvma_nic::TermApi<'_, '_>) {}
}

/// Run the same motif under both protocols on one shard
/// ([`SimConfig::single_shard`]) and report the RDMA/RVMA makespan ratio
/// (speedup > 1 means RVMA is faster) — the quantity the paper's Figs. 7–8
/// plot.
pub fn compare_protocols(
    spec: &TopologySpec,
    fcfg: &FabricConfig,
    ncfg: NicConfig,
    seed: u64,
    mut logic: impl FnMut(u32) -> Box<dyn HostLogic>,
) -> (MotifResult, MotifResult, f64) {
    let sim = SimConfig::single_shard();
    let rdma = run_motif(spec, fcfg, ncfg, Protocol::Rdma, seed, sim, &mut logic);
    let rvma = run_motif(spec, fcfg, ncfg, Protocol::Rvma, seed, sim, &mut logic);
    let speedup = rdma.makespan.as_ns_f64() / rvma.makespan.as_ns_f64();
    (rdma, rvma, speedup)
}
