//! Trace-driven workload replay.
//!
//! Beyond the fixed motifs, downstream users often have a communication
//! trace (from an application run or a synthetic generator) they want to
//! evaluate under RDMA vs. RVMA. A [`Trace`] is a list of [`TraceOp`]s per
//! node — timed sends, gets, and compute blocks with optional happens-after
//! dependencies on received messages — and [`ReplayNode`] executes one
//! node's slice against the simulated NIC.

use crate::runner::MOTIF_DONE_HIST;
use rvma_nic::{HostLogic, RecvInfo, TermApi};
use rvma_sim::SimTime;

/// One operation in a node's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Send `bytes` to `dst` under `tag`.
    Send {
        /// Destination node.
        dst: u32,
        /// Channel tag.
        tag: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// One-sided read of `bytes` from `dst` under `tag`; the replay blocks
    /// until the read completes.
    Get {
        /// Target node.
        dst: u32,
        /// Channel tag.
        tag: u64,
        /// Bytes to fetch.
        bytes: u64,
    },
    /// Busy the host for the duration.
    Compute(SimTime),
    /// Block until `count` messages (cumulative) have been received on
    /// `tag` — the happens-after edge for consumer dependencies.
    WaitRecv {
        /// Channel tag to count on.
        tag: u64,
        /// Cumulative message count to wait for.
        count: u64,
    },
}

/// A whole-job trace: `ops[node]` is that node's program.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-node operation lists.
    pub ops: Vec<Vec<TraceOp>>,
}

impl Trace {
    /// An empty trace for `nodes` nodes.
    pub fn new(nodes: u32) -> Self {
        Trace {
            ops: vec![Vec::new(); nodes as usize],
        }
    }

    /// Append an op to `node`'s program.
    pub fn push(&mut self, node: u32, op: TraceOp) -> &mut Self {
        self.ops[node as usize].push(op);
        self
    }

    /// Total sends across the trace (for accounting checks).
    pub fn total_sends(&self) -> u64 {
        self.ops
            .iter()
            .flatten()
            .filter(|o| matches!(o, TraceOp::Send { .. }))
            .count() as u64
    }

    /// A synthetic uniform-random trace: each node issues `sends` messages
    /// of `bytes` to targets drawn round-robin with a seed-dependent
    /// stride (deterministic, no RNG needed at replay time).
    pub fn uniform_random(nodes: u32, sends: u32, bytes: u64, seed: u64) -> Trace {
        assert!(nodes >= 2);
        let mut t = Trace::new(nodes);
        for n in 0..nodes {
            for k in 0..sends {
                let mix = n as u64 * 0x9E37_79B9 + k as u64 * 0x85EB_CA6B + seed;
                let dst = (mix % (nodes as u64 - 1)) as u32;
                let dst = if dst >= n { dst + 1 } else { dst };
                t.push(n, TraceOp::Send { dst, tag: 0, bytes });
            }
        }
        t
    }
}

#[derive(Debug, PartialEq)]
enum Blocker {
    None,
    Compute,
    Get(u64),
    Recv { tag: u64, count: u64 },
    Done,
}

/// Executes one node's slice of a [`Trace`].
pub struct ReplayNode {
    program: Vec<TraceOp>,
    pc: usize,
    blocker: Blocker,
    /// Cumulative receive counts per tag (small tag space assumed).
    recvd: std::collections::HashMap<u64, u64>,
}

impl ReplayNode {
    /// Behaviour for `node` of `trace`.
    pub fn new(trace: &Trace, node: u32) -> Self {
        ReplayNode {
            program: trace.ops[node as usize].clone(),
            pc: 0,
            blocker: Blocker::None,
            recvd: std::collections::HashMap::new(),
        }
    }

    /// Run ops until one blocks or the program ends.
    fn advance(&mut self, api: &mut TermApi<'_, '_>) {
        if self.blocker == Blocker::Done {
            return;
        }
        loop {
            // Re-check a pending recv dependency.
            if let Blocker::Recv { tag, count } = self.blocker {
                if self.recvd.get(&tag).copied().unwrap_or(0) < count {
                    return;
                }
                self.blocker = Blocker::None;
            }
            if self.blocker != Blocker::None {
                return;
            }
            let Some(op) = self.program.get(self.pc).copied() else {
                self.blocker = Blocker::Done;
                let now = api.now();
                api.record_time(MOTIF_DONE_HIST, now);
                api.count("motif.nodes_done");
                return;
            };
            self.pc += 1;
            match op {
                TraceOp::Send { dst, tag, bytes } => {
                    api.send(dst, tag, bytes);
                }
                TraceOp::Get { dst, tag, bytes } => {
                    let id = api.get(dst, tag, bytes);
                    self.blocker = Blocker::Get(id);
                    return;
                }
                TraceOp::Compute(dur) => {
                    api.compute(dur, 0);
                    self.blocker = Blocker::Compute;
                    return;
                }
                TraceOp::WaitRecv { tag, count } => {
                    self.blocker = Blocker::Recv { tag, count };
                }
            }
        }
    }
}

impl HostLogic for ReplayNode {
    fn on_start(&mut self, api: &mut TermApi<'_, '_>) {
        self.advance(api);
    }

    fn on_recv(&mut self, msg: RecvInfo, api: &mut TermApi<'_, '_>) {
        *self.recvd.entry(msg.tag).or_insert(0) += 1;
        self.advance(api);
    }

    fn on_compute_done(&mut self, _tag: u64, api: &mut TermApi<'_, '_>) {
        if self.blocker == Blocker::Compute {
            self.blocker = Blocker::None;
        }
        self.advance(api);
    }

    fn on_get_complete(&mut self, msg_id: u64, api: &mut TermApi<'_, '_>) {
        if self.blocker == Blocker::Get(msg_id) {
            self.blocker = Blocker::None;
        }
        self.advance(api);
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

    fn run_trace(trace: &Trace, proto: Protocol) -> crate::runner::MotifResult {
        let spec = star(trace.ops.len() as u32, RoutingKind::Adaptive);
        run_motif(
            &spec,
            &FabricConfig::at_gbps(100),
            NicConfig::default(),
            proto,
            1,
            SimConfig::single_shard(),
            |n| Box::new(ReplayNode::new(trace, n)) as _,
        )
    }

    #[test]
    fn pingpong_trace_round_trips() {
        // Node 0: send, wait for reply. Node 1: wait, then reply.
        let mut t = Trace::new(2);
        t.push(
            0,
            TraceOp::Send {
                dst: 1,
                tag: 1,
                bytes: 4096,
            },
        )
        .push(0, TraceOp::WaitRecv { tag: 2, count: 1 });
        t.push(1, TraceOp::WaitRecv { tag: 1, count: 1 }).push(
            1,
            TraceOp::Send {
                dst: 0,
                tag: 2,
                bytes: 4096,
            },
        );
        let r = run_trace(&t, Protocol::Rvma);
        assert_eq!(r.nodes_done, 2);
        assert_eq!(r.msgs_sent, 2);
    }

    #[test]
    fn compute_and_get_block_in_order() {
        let mut t = Trace::new(2);
        t.push(0, TraceOp::Compute(SimTime::from_us(5)))
            .push(
                0,
                TraceOp::Get {
                    dst: 1,
                    tag: 0,
                    bytes: 8192,
                },
            )
            .push(0, TraceOp::Compute(SimTime::from_us(1)));
        let r = run_trace(&t, Protocol::Rvma);
        assert_eq!(r.nodes_done, 2);
        // Makespan covers both computes and the get round trip.
        assert!(r.makespan > SimTime::from_us(6));
    }

    #[test]
    fn uniform_random_trace_is_deterministic_and_complete() {
        let t = Trace::uniform_random(8, 16, 2048, 7);
        assert_eq!(t.total_sends(), 8 * 16);
        // No self-sends.
        for (n, ops) in t.ops.iter().enumerate() {
            for op in ops {
                if let TraceOp::Send { dst, .. } = op {
                    assert_ne!(*dst as usize, n);
                }
            }
        }
        let a = run_trace(&t, Protocol::Rdma);
        let b = run_trace(&t, Protocol::Rdma);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.msgs_sent, 8 * 16);
    }

    #[test]
    fn rvma_faster_on_random_traffic() {
        // Fire-and-forget sends complete the *program* instantly; to time
        // the traffic, every node also waits for the messages addressed to
        // it (computable from the deterministic trace).
        let mut t = Trace::uniform_random(8, 32, 4096, 3);
        let mut expected = [0u64; 8];
        for ops in &t.ops {
            for op in ops {
                if let TraceOp::Send { dst, .. } = op {
                    expected[*dst as usize] += 1;
                }
            }
        }
        for (n, &count) in expected.iter().enumerate() {
            if count > 0 {
                t.push(n as u32, TraceOp::WaitRecv { tag: 0, count });
            }
        }
        let rdma = run_trace(&t, Protocol::Rdma);
        let rvma = run_trace(&t, Protocol::Rvma);
        assert_eq!(rdma.nodes_done, 8);
        assert!(
            rvma.makespan < rdma.makespan,
            "rvma {} vs rdma {}",
            rvma.makespan,
            rdma.makespan
        );
    }

    #[test]
    fn empty_trace_finishes_instantly() {
        let t = Trace::new(2);
        let r = run_trace(&t, Protocol::Rvma);
        assert_eq!(r.nodes_done, 2);
        assert_eq!(r.makespan, SimTime::ZERO);
    }
}
