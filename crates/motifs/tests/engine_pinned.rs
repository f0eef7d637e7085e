//! Pinned results: the repository benchmark's Sweep3D case (a 16×16 grid on
//! an adaptive k=12 fat tree at 400 Gbps, 432 terminals) must give the same
//! event count, final clock, packet count and finished-node count on a
//! one-shard `Engine::new` and on the sharded engine at 1 and 2 threads.
//! Fat-tree routing draws no RNG, so the numbers hold for every seed.

use rvma_motifs::{build_motif_engine, IdleNode, Sweep3dConfig, Sweep3dNode};
use rvma_net::fabric::{FabricConfig, TopologySpec};
use rvma_net::packet::NetEvent;
use rvma_net::router::RoutingKind;
use rvma_net::topology::{fattree, FatTreeParams};
use rvma_nic::{build_cluster, HostLogic, NicConfig, Protocol};
use rvma_sim::{Engine, SimConfig, SimTime};

const MOTIF: Sweep3dConfig = Sweep3dConfig {
    pgrid: [16, 16],
    cells: [16, 16, 64],
    zblock: 16,
    elem_bytes: 8,
    compute_per_block: SimTime::from_ns(500),
    octants: 2,
};

/// `(events, final ps, nic.packets_injected, motif.nodes_done)`.
type Pinned = (u64, u64, u64, u64);

const RVMA: Pinned = (27_808, 79_057_600, 3_840, 432);
const RDMA: Pinned = (64_568, 279_072_375, 12_960, 432);

fn logic(n: u32) -> Box<dyn HostLogic> {
    if n < MOTIF.nodes() {
        Box::new(Sweep3dNode::new(MOTIF, n))
    } else {
        Box::new(IdleNode)
    }
}

fn spec() -> TopologySpec {
    let spec = fattree(FatTreeParams { k: 12 }, RoutingKind::Adaptive);
    assert_eq!(spec.terminals, 432);
    spec
}

fn observe(engine: &mut Engine<NetEvent>) -> Pinned {
    let events = engine.run_to_completion();
    let stats = engine.stats();
    (
        events,
        engine.now().as_ps(),
        stats.counter_value("nic.packets_injected"),
        stats.counter_value("motif.nodes_done"),
    )
}

#[test]
fn one_shard_engine_matches_pinned_sweep3d() {
    let (spec, fcfg) = (spec(), FabricConfig::at_gbps(400));
    for seed in [1, 7, 12_345, 0xdead_beef] {
        for (protocol, want) in [(Protocol::Rvma, RVMA), (Protocol::Rdma, RDMA)] {
            let mut engine = Engine::new(seed);
            build_cluster(
                &mut engine,
                &spec,
                &fcfg,
                NicConfig::default(),
                protocol,
                logic,
            );
            assert_eq!(observe(&mut engine), want, "{protocol} seed {seed}");
        }
    }
}

#[test]
fn sharded_engine_matches_pinned_sweep3d() {
    let (spec, fcfg) = (spec(), FabricConfig::at_gbps(400));
    for threads in [1, 2] {
        for (protocol, want) in [(Protocol::Rvma, RVMA), (Protocol::Rdma, RDMA)] {
            let sim = SimConfig::new(threads, SimTime::MAX);
            let (mut engine, _nodes) =
                build_motif_engine(&spec, &fcfg, NicConfig::default(), protocol, 1, sim, logic);
            assert_eq!(
                observe(&mut engine),
                want,
                "{protocol} at {threads} threads"
            );
        }
    }
}
