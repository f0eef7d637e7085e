//! Trace-driven workload replay: evaluate your own communication pattern
//! under RDMA vs RVMA.
//!
//! Builds a small producer/consumer pipeline trace by hand — the same
//! structure you would load from an application trace — and replays it on
//! an adaptive dragonfly under both protocols.
//!
//! Run with: `cargo run --release --example trace_replay`

use rvma::motifs::{run_motif, ReplayNode, Trace, TraceOp};
use rvma::net::fabric::FabricConfig;
use rvma::net::router::RoutingKind;
use rvma::net::topology::{dragonfly, DragonflyParams};
use rvma::nic::{NicConfig, Protocol};
use rvma::sim::{SimConfig, SimTime};

fn main() {
    // A 4-stage pipeline over 8 nodes: stage i (nodes 2i, 2i+1) receives a
    // block, computes, and forwards to stage i+1. Node 0 additionally
    // issues one-sided reads back to stage 0's partner for metadata.
    let mut t = Trace::new(8);
    let block = 256 * 1024;
    for round in 0..4u64 {
        for stage in 0..3u32 {
            for lane in 0..2u32 {
                let me = stage * 2 + lane;
                let next = me + 2;
                if stage > 0 {
                    t.push(
                        me,
                        TraceOp::WaitRecv {
                            tag: 9,
                            count: round + 1,
                        },
                    );
                }
                t.push(me, TraceOp::Compute(SimTime::from_us(3)));
                t.push(
                    me,
                    TraceOp::Send {
                        dst: next,
                        tag: 9,
                        bytes: block,
                    },
                );
            }
        }
        // The sink stage consumes.
        for lane in 0..2u32 {
            t.push(
                6 + lane,
                TraceOp::WaitRecv {
                    tag: 9,
                    count: round + 1,
                },
            );
        }
        // A metadata read-back, one-sided.
        t.push(
            0,
            TraceOp::Get {
                dst: 1,
                tag: 77,
                bytes: 4096,
            },
        );
    }

    println!(
        "replaying a 4-round, 4-stage pipeline trace ({} sends) on an adaptive dragonfly\n",
        t.total_sends()
    );
    let spec = dragonfly(DragonflyParams { a: 4, p: 2, h: 2 }, RoutingKind::Adaptive);
    for proto in [Protocol::Rdma, Protocol::Rvma] {
        let r = run_motif(
            &spec,
            &FabricConfig::at_gbps(400),
            NicConfig::default(),
            proto,
            9,
            SimConfig::single_shard(),
            |n| {
                if n < 8 {
                    Box::new(ReplayNode::new(&t, n)) as _
                } else {
                    Box::new(rvma::motifs::IdleNode) as _
                }
            },
        );
        println!(
            "  {:<4} makespan {:>8.1} us  ({} msgs, {} handshakes, {} fences)",
            proto.to_string(),
            r.makespan_us(),
            r.msgs_sent,
            r.handshakes,
            r.fences
        );
    }
}
