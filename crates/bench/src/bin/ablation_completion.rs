//! Ablation — completion mechanism in isolation.
//!
//! The motif figures conflate three RDMA costs: the registration
//! handshake, the per-message RTR buffer coordination, and the completion
//! fence. This ablation isolates the *completion mechanism* by giving RDMA
//! effectively infinite RTR credits (deep buffer pool) so only the fence
//! vs. threshold difference remains, then re-enabling each cost:
//!
//! * `RDMA deep+poll` — deep credits + last-byte polling (no fence):
//!   the completion mechanism matches RVMA; only the one-time handshake
//!   differs.
//! * `RDMA deep+fence` — deep credits, spec-compliant fence: isolates the
//!   fence cost.
//! * `RDMA 1-credit+fence` — the full traditional-RDMA baseline.

use rvma_bench::{print_table, topology_for, write_csv, SweepConfig, TopologyFamily};
use rvma_motifs::{run_motif, IdleNode, Sweep3dConfig, Sweep3dNode};
use rvma_net::fabric::FabricConfig;
use rvma_net::router::RoutingKind;
use rvma_nic::{HostLogic, NicConfig, Protocol};
use rvma_sim::{SimConfig, SimTime};

fn main() {
    let cfg = SweepConfig::from_args(std::env::args().skip(1));
    let motif = Sweep3dConfig {
        pgrid: rvma_bench::factor2(cfg.nodes),
        cells: [64, 64, 512],
        zblock: 16,
        elem_bytes: 8,
        compute_per_block: SimTime::from_ns(500),
        octants: 8,
    };
    // All variants run on the SAME statically-routed dragonfly so the
    // last-byte-poll variant (which requires ordered delivery) is legal and
    // every difference is attributable to the protocol configuration.
    let spec = topology_for(TopologyFamily::Dragonfly, RoutingKind::Static, cfg.nodes);
    let fcfg = FabricConfig::at_gbps(400);
    let active = cfg.nodes;
    // One shard: the ablations compare NIC configurations, not engines.
    let sim = SimConfig::single_shard();

    let run = |proto: Protocol, ncfg: NicConfig| {
        run_motif(&spec, &fcfg, ncfg, proto, cfg.seed, sim, |n| {
            if n < active {
                Box::new(Sweep3dNode::new(motif, n)) as Box<dyn HostLogic>
            } else {
                Box::new(IdleNode)
            }
        })
    };

    let deep_poll = NicConfig {
        rdma_credits: 1 << 20,
        rdma_last_byte_poll: true,
        ..Default::default()
    };
    let deep_fence = NicConfig {
        rdma_credits: 1 << 20,
        ..Default::default()
    };

    println!(
        "Ablation — completion mechanism, Sweep3D on {} @400G ({} nodes)\n",
        spec.name, cfg.nodes
    );

    let rvma = run(Protocol::Rvma, NicConfig::default());
    let rdma_full = run(Protocol::Rdma, NicConfig::default());
    let rdma_deep_fence = run(Protocol::Rdma, deep_fence);
    let rdma_deep_poll = run(Protocol::Rdma, deep_poll);

    let base = rvma.makespan.as_ns_f64();
    let headers = ["configuration", "makespan(us)", "vs RVMA"];
    let rows: Vec<Vec<String>> = [
        ("RVMA (threshold completion)", &rvma),
        ("RDMA deep-credits + last-byte poll", &rdma_deep_poll),
        ("RDMA deep-credits + fence", &rdma_deep_fence),
        ("RDMA 1-credit + fence (traditional)", &rdma_full),
    ]
    .iter()
    .map(|(name, r)| {
        vec![
            name.to_string(),
            format!("{:.1}", r.makespan_us()),
            format!("{:.2}x", r.makespan.as_ns_f64() / base),
        ]
    })
    .collect();
    print_table(&headers, &rows);
    println!(
        "\nfence cost alone: {:.2}x; RTR coordination adds: {:.2}x",
        rdma_deep_fence.makespan.as_ns_f64() / rdma_deep_poll.makespan.as_ns_f64(),
        rdma_full.makespan.as_ns_f64() / rdma_deep_fence.makespan.as_ns_f64()
    );
    match write_csv("ablation_completion", &headers, &rows) {
        Ok(p) => println!("csv: {p}"),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
