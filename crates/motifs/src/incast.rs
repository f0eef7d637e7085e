//! Incast motif: many-to-one traffic.
//!
//! The paper's introduction motivates RVMA with many-to-one communication
//! ("public internet client-server situations") where RDMA's model breaks:
//! either all clients coordinate one shared buffer, or the server dedicates
//! exclusive resources per client for an unbounded time. Under RVMA the
//! server posts one bucket and every client just puts.
//!
//! This motif has `n − 1` senders stream `msgs` messages of `bytes` each at
//! node 0. It doubles as the NIC counter-pressure workload (many concurrent
//! in-flight messages at one endpoint) used by the counter-capacity
//! ablation.

use crate::runner::MOTIF_DONE_HIST;
use rvma_nic::{HostLogic, RecvInfo, TermApi};

/// Incast workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct IncastConfig {
    /// Total nodes; node 0 is the sink, nodes `1..nodes` send.
    pub nodes: u32,
    /// Messages per sender.
    pub msgs: u32,
    /// Bytes per message.
    pub bytes: u64,
}

impl IncastConfig {
    /// Messages the sink must absorb.
    pub fn total_messages(&self) -> u64 {
        (self.nodes as u64 - 1) * self.msgs as u64
    }
}

/// Mailbox ("service port") all senders target.
pub const INCAST_TAG: u64 = 0x5EC;

/// Per-node incast behaviour.
pub struct IncastNode {
    cfg: IncastConfig,
    node: u32,
    received: u64,
}

impl IncastNode {
    /// Behaviour for `node` under `cfg`.
    pub fn new(cfg: IncastConfig, node: u32) -> Self {
        IncastNode {
            cfg,
            node,
            received: 0,
        }
    }
}

impl HostLogic for IncastNode {
    fn on_start(&mut self, api: &mut TermApi<'_, '_>) {
        if self.node == 0 {
            return; // the sink waits
        }
        for _ in 0..self.cfg.msgs {
            api.send(0, INCAST_TAG, self.cfg.bytes);
        }
        // Senders are done once their commands are issued; the wire time is
        // charged to the sink's completion.
        let now = api.now();
        api.record_time(MOTIF_DONE_HIST, now);
        api.count("motif.nodes_done");
    }

    fn on_recv(&mut self, msg: RecvInfo, api: &mut TermApi<'_, '_>) {
        debug_assert_eq!(self.node, 0, "only the sink receives");
        debug_assert_eq!(msg.tag, INCAST_TAG);
        self.received += 1;
        if self.received == self.cfg.total_messages() {
            let now = api.now();
            api.record_time(MOTIF_DONE_HIST, now);
            api.count("motif.nodes_done");
            api.record("incast.sink_done_us", now.as_us_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_motif;
    use rvma_net::fabric::FabricConfig;
    use rvma_net::router::RoutingKind;
    use rvma_net::topology::star;
    use rvma_nic::{NicConfig, Protocol};
    use rvma_sim::SimConfig;

    fn cfg() -> IncastConfig {
        IncastConfig {
            nodes: 9,
            msgs: 4,
            bytes: 4096,
        }
    }

    #[test]
    fn message_accounting() {
        assert_eq!(cfg().total_messages(), 32);
    }

    #[test]
    fn incast_completes_under_rvma() {
        let c = cfg();
        let spec = star(c.nodes, RoutingKind::Adaptive);
        let r = run_motif(
            &spec,
            &FabricConfig::at_gbps(100),
            NicConfig::default(),
            Protocol::Rvma,
            1,
            SimConfig::single_shard(),
            |n| Box::new(IncastNode::new(c, n)) as _,
        );
        assert_eq!(r.nodes_done, c.nodes as u64);
        assert_eq!(r.msgs_sent, c.total_messages());
        assert_eq!(r.handshakes, 0, "RVMA sink dedicates nothing per client");
    }

    #[test]
    fn incast_rdma_pays_per_client_resources() {
        let c = cfg();
        let spec = star(c.nodes, RoutingKind::Adaptive);
        let r = run_motif(
            &spec,
            &FabricConfig::at_gbps(100),
            NicConfig::default(),
            Protocol::Rdma,
            1,
            SimConfig::single_shard(),
            |n| Box::new(IncastNode::new(c, n)) as _,
        );
        assert_eq!(r.nodes_done, c.nodes as u64);
        // One registered buffer (channel) per client: the exclusive
        // per-client resource the paper criticizes.
        assert_eq!(r.handshakes, (c.nodes - 1) as u64);
        assert_eq!(r.rtrs, c.total_messages());
    }

    #[test]
    fn rvma_sink_finishes_sooner_than_rdma() {
        let c = cfg();
        let spec = star(c.nodes, RoutingKind::Adaptive);
        let run = |p| {
            run_motif(
                &spec,
                &FabricConfig::at_gbps(100),
                NicConfig::default(),
                p,
                1,
                SimConfig::single_shard(),
                |n| Box::new(IncastNode::new(c, n)) as _,
            )
            .makespan
        };
        assert!(run(Protocol::Rvma) < run(Protocol::Rdma));
    }
}
