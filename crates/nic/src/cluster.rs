//! Cluster assembly: fabric + one terminal per node, started at t = 0.

use crate::config::{NicConfig, Protocol};
use crate::host::HostLogic;
use crate::terminal::{NicLocal, Terminal};
use rvma_net::fabric::{build_fabric, Fabric, FabricConfig, TopologySpec};
use rvma_net::packet::NetEvent;
use rvma_sim::{ComponentId, Engine, SimTime};

/// Handle to a fully assembled simulated cluster.
pub struct Cluster {
    /// The underlying fabric (switch/terminal component ids, name).
    pub fabric: Fabric,
    /// Which protocol the terminals speak.
    pub protocol: Protocol,
}

impl Cluster {
    /// Terminal component ids, indexed by node.
    pub fn terminals(&self) -> &[ComponentId] {
        &self.fabric.terminal_cids
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.fabric.terminal_cids.len()
    }
}

/// Build the fabric and its terminals inside `engine`, and schedule every
/// terminal's `on_start` at t = 0. `logic` is called once per node index to
/// produce that node's application behaviour.
pub fn build_cluster(
    engine: &mut Engine<NetEvent>,
    spec: &TopologySpec,
    fcfg: &FabricConfig,
    ncfg: NicConfig,
    protocol: Protocol,
    mut logic: impl FnMut(u32) -> Box<dyn HostLogic>,
) -> Cluster {
    let fabric = build_fabric(engine, spec, fcfg);
    let ordered = spec.router.ordered();
    for t in 0..spec.terminals {
        let cid = engine.add_component(Terminal::new(
            t,
            ncfg,
            protocol,
            ordered,
            fabric.terminal_attach[t as usize],
            fabric.injection_link,
            logic(t),
        ));
        debug_assert_eq!(cid, fabric.terminal_cids[t as usize]);
    }
    fabric.assert_terminals_added(engine);
    for &cid in &fabric.terminal_cids {
        engine.schedule(SimTime::ZERO, cid, NetEvent::local(NicLocal::Start));
    }
    Cluster { fabric, protocol }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{RecvInfo, TermApi};
    use rvma_net::router::RoutingKind;
    use rvma_net::topology::{star, torus3d, TorusParams};

    struct Probe;
    impl HostLogic for Probe {
        fn on_start(&mut self, api: &mut TermApi<'_, '_>) {
            api.count("probe.started");
        }
        fn on_recv(&mut self, _m: RecvInfo, _api: &mut TermApi<'_, '_>) {}
    }

    #[test]
    fn every_terminal_starts_at_t_zero() {
        let spec = star(5, RoutingKind::Static);
        let mut engine = Engine::new(0);
        let cluster = build_cluster(
            &mut engine,
            &spec,
            &rvma_net::fabric::FabricConfig::at_gbps(100),
            NicConfig::default(),
            Protocol::Rvma,
            |_| Box::new(Probe) as Box<dyn HostLogic>,
        );
        assert_eq!(cluster.nodes(), 5);
        assert_eq!(cluster.terminals().len(), 5);
        assert_eq!(cluster.protocol, Protocol::Rvma);
        engine.run_to_completion();
        assert_eq!(engine.stats().counter_value("probe.started"), 5);
        assert_eq!(engine.now(), SimTime::ZERO, "starts fire at t=0");
    }

    #[test]
    fn terminal_ids_match_fabric_reservation() {
        let spec = torus3d(
            TorusParams {
                dims: [2, 2, 2],
                tps: 2,
            },
            RoutingKind::Adaptive,
        );
        let mut engine = Engine::new(0);
        let cluster = build_cluster(
            &mut engine,
            &spec,
            &rvma_net::fabric::FabricConfig::at_gbps(100),
            NicConfig::default(),
            Protocol::Rdma,
            |_| Box::new(Probe) as Box<dyn HostLogic>,
        );
        // 8 switches then 16 terminals, contiguous.
        assert_eq!(cluster.terminals()[0].as_usize(), 8);
        assert_eq!(cluster.terminals()[15].as_usize(), 23);
        assert_eq!(engine.component_count(), 24);
    }
}
