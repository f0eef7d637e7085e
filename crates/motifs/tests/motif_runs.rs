//! End-to-end motif runs on small fabrics: liveness, message accounting,
//! and the qualitative protocol ordering the paper reports.

use rvma_motifs::{
    compare_protocols, run_motif, Halo3dConfig, Halo3dNode, Sweep3dConfig, Sweep3dNode,
};
use rvma_net::fabric::FabricConfig;
use rvma_net::router::RoutingKind;
use rvma_net::topology::{dragonfly, hyperx, torus3d, DragonflyParams, HyperXParams, TorusParams};
use rvma_nic::{HostLogic, NicConfig, Protocol};
use rvma_sim::{SimConfig, SimTime};

fn small_halo() -> Halo3dConfig {
    Halo3dConfig {
        pgrid: [2, 2, 2],
        cells: [32, 32, 32],
        elem_bytes: 8,
        iters: 3,
        compute: SimTime::from_us(2),
    }
}

fn small_sweep() -> Sweep3dConfig {
    Sweep3dConfig {
        pgrid: [4, 2],
        cells: [16, 16, 64],
        zblock: 16,
        elem_bytes: 8,
        compute_per_block: SimTime::from_us(1),
        octants: 8,
    }
}

/// 2×2×2 torus carries exactly the 8 halo nodes.
fn torus_spec(kind: RoutingKind) -> rvma_net::fabric::TopologySpec {
    torus3d(
        TorusParams {
            dims: [2, 2, 2],
            tps: 1,
        },
        kind,
    )
}

/// 4×2 HyperX with one terminal per switch = 8 nodes.
fn hyperx_spec(kind: RoutingKind) -> rvma_net::fabric::TopologySpec {
    hyperx(HyperXParams { d: [4, 2], tps: 1 }, kind)
}

#[test]
fn halo3d_completes_and_counts_messages() {
    let cfg = small_halo();
    let spec = torus_spec(RoutingKind::Static);
    let r = run_motif(
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        Protocol::Rvma,
        1,
        SimConfig::single_shard(),
        |n| Box::new(Halo3dNode::new(cfg, n)) as Box<dyn HostLogic>,
    );
    assert_eq!(r.nodes_done, 8);
    assert_eq!(r.msgs_sent, cfg.total_messages());
    assert!(r.makespan > SimTime::ZERO);
    assert!(r.quiesce >= r.makespan);
    assert_eq!(r.handshakes, 0);
}

#[test]
fn halo3d_rdma_handshakes_once_per_channel() {
    let cfg = small_halo();
    let spec = torus_spec(RoutingKind::Static);
    let r = run_motif(
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        Protocol::Rdma,
        1,
        SimConfig::single_shard(),
        |n| Box::new(Halo3dNode::new(cfg, n)) as Box<dyn HostLogic>,
    );
    assert_eq!(r.nodes_done, 8);
    // One handshake per directed neighbor link (channel), amortized over
    // iterations: 8 nodes x 3 neighbors each in a 2x2x2 grid.
    let channels: u64 = (0..8).map(|n| cfg.neighbors(n).len() as u64).sum();
    assert_eq!(r.handshakes, channels);
    // One RTR per consumed message.
    assert_eq!(r.rtrs, cfg.total_messages());
    // Spec-compliant RDMA: one completion fence per message even on an
    // ordered network.
    assert_eq!(r.fences, cfg.total_messages());
}

#[test]
fn halo3d_rdma_fences_on_adaptive() {
    let cfg = small_halo();
    let spec = torus_spec(RoutingKind::Adaptive);
    let r = run_motif(
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        Protocol::Rdma,
        1,
        SimConfig::single_shard(),
        |n| Box::new(Halo3dNode::new(cfg, n)) as Box<dyn HostLogic>,
    );
    assert_eq!(r.fences, cfg.total_messages());
}

#[test]
fn sweep3d_completes_and_counts_messages() {
    let cfg = small_sweep();
    let spec = hyperx_spec(RoutingKind::Static);
    let r = run_motif(
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        Protocol::Rvma,
        1,
        SimConfig::single_shard(),
        |n| Box::new(Sweep3dNode::new(cfg, n)) as Box<dyn HostLogic>,
    );
    assert_eq!(r.nodes_done, 8);
    assert_eq!(r.msgs_sent, cfg.total_messages());
}

#[test]
fn sweep3d_rvma_beats_rdma_on_adaptive_network() {
    let cfg = small_sweep();
    let spec = hyperx_spec(RoutingKind::Adaptive);
    let (rdma, rvma, speedup) = compare_protocols(
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        1,
        |n| Box::new(Sweep3dNode::new(cfg, n)) as Box<dyn HostLogic>,
    );
    assert_eq!(rdma.nodes_done, 8);
    assert_eq!(rvma.nodes_done, 8);
    assert!(
        speedup > 1.0,
        "RVMA should beat RDMA on adaptive nets: {speedup}"
    );
}

#[test]
fn halo3d_rvma_beats_rdma_on_adaptive_network() {
    let cfg = small_halo();
    let spec = torus_spec(RoutingKind::Adaptive);
    let (_rdma, _rvma, speedup) = compare_protocols(
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        1,
        |n| Box::new(Halo3dNode::new(cfg, n)) as Box<dyn HostLogic>,
    );
    assert!(speedup > 1.0, "halo3d speedup {speedup}");
}

#[test]
fn sweep3d_on_dragonfly_with_ugal_completes() {
    // 72-terminal dragonfly, 8x8 sweep grid fits in 64 nodes; idle extras.
    let cfg = Sweep3dConfig {
        pgrid: [8, 8],
        cells: [8, 8, 32],
        zblock: 16,
        elem_bytes: 8,
        compute_per_block: SimTime::from_us(1),
        octants: 4,
    };
    let spec = dragonfly(DragonflyParams { a: 4, p: 2, h: 2 }, RoutingKind::Adaptive);
    assert!(spec.terminals >= cfg.nodes());
    struct Idle;
    impl HostLogic for Idle {
        fn on_start(&mut self, api: &mut rvma_nic::TermApi<'_, '_>) {
            api.count("motif.nodes_done");
            let now = api.now();
            api.record_time(rvma_motifs::MOTIF_DONE_HIST, now);
        }
        fn on_recv(&mut self, _m: rvma_nic::RecvInfo, _api: &mut rvma_nic::TermApi<'_, '_>) {}
    }
    let nodes = cfg.nodes();
    let r = run_motif(
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        Protocol::Rvma,
        3,
        SimConfig::single_shard(),
        |n| {
            if n < nodes {
                Box::new(Sweep3dNode::new(cfg, n)) as Box<dyn HostLogic>
            } else {
                Box::new(Idle) as Box<dyn HostLogic>
            }
        },
    );
    assert_eq!(r.nodes_done, spec.terminals as u64);
    assert_eq!(r.msgs_sent, cfg.total_messages());
}

#[test]
fn motif_runs_are_deterministic() {
    let cfg = small_sweep();
    let spec = hyperx_spec(RoutingKind::Adaptive);
    let run = || {
        run_motif(
            &spec,
            &FabricConfig::at_gbps(100),
            NicConfig::default(),
            Protocol::Rdma,
            7,
            SimConfig::single_shard(),
            |n| Box::new(Sweep3dNode::new(cfg, n)) as Box<dyn HostLogic>,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
}

#[test]
fn faster_links_shrink_halo_makespan() {
    let cfg = small_halo();
    let spec = torus_spec(RoutingKind::Static);
    let at = |gbps| {
        run_motif(
            &spec,
            &FabricConfig::at_gbps(gbps),
            NicConfig::default(),
            Protocol::Rvma,
            1,
            SimConfig::single_shard(),
            |n| Box::new(Halo3dNode::new(cfg, n)) as Box<dyn HostLogic>,
        )
        .makespan
    };
    assert!(at(400) < at(100));
}
