//! Full-stack integration: fabric + NIC + motif layers composed through
//! the facade crate, exercising every topology family end to end.

use rvma::motifs::{run_motif, Halo3dConfig, Halo3dNode, IdleNode, MOTIF_DONE_HIST};
use rvma::net::fabric::{build_fabric, FabricConfig};
use rvma::net::packet::NetEvent;
use rvma::net::router::RoutingKind;
use rvma::net::topology::{
    dragonfly, fattree, hyperx, star, torus3d, DragonflyParams, FatTreeParams, HyperXParams,
    TorusParams,
};
use rvma::nic::{build_cluster, HostLogic, NicConfig, Protocol, RecvInfo, TermApi};
use rvma::sim::{Engine, SimConfig, SimTime};

/// Random-pairs traffic: every even terminal sends to the next odd one.
struct PairSender {
    peer: u32,
}
impl HostLogic for PairSender {
    fn on_start(&mut self, api: &mut TermApi<'_, '_>) {
        api.send(self.peer, 7, 6000);
    }
    fn on_recv(&mut self, _m: RecvInfo, _api: &mut TermApi<'_, '_>) {}
}
struct PairReceiver;
impl HostLogic for PairReceiver {
    fn on_start(&mut self, _api: &mut TermApi<'_, '_>) {}
    fn on_recv(&mut self, m: RecvInfo, api: &mut TermApi<'_, '_>) {
        assert_eq!(m.bytes, 6000);
        api.count("pairs.received");
    }
}

fn pair_traffic(spec: rvma::net::fabric::TopologySpec, proto: Protocol) -> (u64, u64) {
    let mut engine: Engine<NetEvent> = Engine::new(5);
    build_cluster(
        &mut engine,
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        proto,
        |n| {
            if n % 2 == 0 && n + 1 < spec.terminals {
                Box::new(PairSender { peer: n + 1 }) as Box<dyn HostLogic>
            } else {
                Box::new(PairReceiver) as Box<dyn HostLogic>
            }
        },
    );
    engine.run_to_completion();
    (
        engine.stats().counter_value("pairs.received"),
        engine.stats().counter_value("net.switch_forwarded"),
    )
}

#[test]
fn every_topology_delivers_pair_traffic_rvma() {
    let specs = [
        torus3d(
            TorusParams {
                dims: [3, 3, 2],
                tps: 2,
            },
            RoutingKind::Adaptive,
        ),
        fattree(FatTreeParams { k: 4 }, RoutingKind::Adaptive),
        hyperx(HyperXParams { d: [3, 3], tps: 2 }, RoutingKind::Adaptive),
        dragonfly(DragonflyParams { a: 4, p: 2, h: 2 }, RoutingKind::Adaptive),
        star(8, RoutingKind::Static),
    ];
    for spec in specs {
        let pairs = spec.terminals / 2;
        let name = spec.name.clone();
        let (received, forwarded) = pair_traffic(spec, Protocol::Rvma);
        assert_eq!(received as u32, pairs, "{name}: lost messages");
        assert!(forwarded > 0, "{name}: no switch traffic");
    }
}

#[test]
fn every_topology_delivers_pair_traffic_rdma() {
    let specs = [
        torus3d(
            TorusParams {
                dims: [3, 3, 2],
                tps: 2,
            },
            RoutingKind::Static,
        ),
        fattree(FatTreeParams { k: 4 }, RoutingKind::Static),
        hyperx(HyperXParams { d: [3, 3], tps: 2 }, RoutingKind::Static),
        dragonfly(DragonflyParams { a: 4, p: 2, h: 2 }, RoutingKind::Static),
    ];
    for spec in specs {
        let pairs = spec.terminals / 2;
        let name = spec.name.clone();
        let (received, _) = pair_traffic(spec, Protocol::Rdma);
        assert_eq!(received as u32, pairs, "{name}: lost messages");
    }
}

#[test]
fn fabric_reserves_terminal_ids_for_cluster() {
    let spec = torus3d(
        TorusParams {
            dims: [2, 2, 2],
            tps: 1,
        },
        RoutingKind::Static,
    );
    let mut engine: Engine<NetEvent> = Engine::new(0);
    let fabric = build_fabric(&mut engine, &spec, &FabricConfig::at_gbps(100));
    assert_eq!(fabric.switch_cids.len(), 8);
    assert_eq!(fabric.terminal_cids.len(), 8);
    // Terminals must follow switches contiguously.
    assert_eq!(
        fabric.terminal_cids[0].as_usize(),
        fabric.switch_cids.last().unwrap().as_usize() + 1
    );
}

#[test]
fn motif_runner_reports_consistent_counters() {
    let motif = Halo3dConfig {
        pgrid: [2, 2, 1],
        cells: [16, 16, 16],
        elem_bytes: 8,
        iters: 2,
        compute: SimTime::from_us(1),
    };
    let spec = hyperx(HyperXParams { d: [2, 2], tps: 1 }, RoutingKind::Static);
    let r = run_motif(
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        Protocol::Rdma,
        3,
        SimConfig::single_shard(),
        |n| Box::new(Halo3dNode::new(motif, n)) as Box<dyn HostLogic>,
    );
    assert_eq!(r.msgs_sent, motif.total_messages());
    assert_eq!(r.fences, r.msgs_sent);
    assert_eq!(r.rtrs, r.msgs_sent);
    // A 2x2x1 grid has 8 directed x-links + 8 directed y-links... compute
    // from the config instead of hand-counting:
    let channels: u64 = (0..motif.nodes())
        .map(|n| motif.neighbors(n).len() as u64)
        .sum();
    assert_eq!(r.handshakes, channels);
    assert!(r.packets >= r.msgs_sent);
    assert!(r.quiesce >= r.makespan);
}

#[test]
fn idle_node_completes_instantly() {
    let spec = star(4, RoutingKind::Static);
    let mut engine: Engine<NetEvent> = Engine::new(1);
    build_cluster(
        &mut engine,
        &spec,
        &FabricConfig::at_gbps(100),
        NicConfig::default(),
        Protocol::Rvma,
        |_| Box::new(IdleNode) as Box<dyn HostLogic>,
    );
    engine.run_to_completion();
    assert_eq!(engine.stats().counter_value("motif.nodes_done"), 4);
    let hist = engine.stats().get_histogram(MOTIF_DONE_HIST).unwrap();
    assert_eq!(hist.max(), Some(0.0));
}

#[test]
fn facade_reexports_compose() {
    // The facade's quickstart path: core primitives reachable via `rvma::core`.
    use rvma::core::{LoopbackNetwork, NodeAddr, Threshold, VirtAddr};
    let net = LoopbackNetwork::new();
    let server = net.add_endpoint(NodeAddr::node(0));
    let client = net.initiator(NodeAddr::node(1));
    let win = server
        .init_window(VirtAddr::new(1), Threshold::bytes(8))
        .unwrap();
    let mut n = win.post_buffer(vec![0; 8]).unwrap();
    client
        .put(NodeAddr::node(0), VirtAddr::new(1), &[1; 8])
        .unwrap();
    assert_eq!(n.poll().unwrap().data(), &[1; 8]);
}
