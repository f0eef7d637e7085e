//! Ablation — host-bus (PCIe) latency sweep.
//!
//! The paper models 150 ns (balancing PCIe Gen 4/5) and remarks that
//! Gen 6 brings tens of nanoseconds, making the bus negligible against the
//! cables. This sweep runs Sweep3D at 10/50/150/300 ns for both protocols:
//! RVMA's relative advantage persists because its savings are *network*
//! messages, not bus crossings.

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
    let spec = topology_for(TopologyFamily::Dragonfly, RoutingKind::Adaptive, cfg.nodes);
    let fcfg = FabricConfig::at_gbps(400);
    let active = cfg.nodes;
    // One shard: the ablations compare NIC configurations, not engines.
    let sim = SimConfig::single_shard();

    println!(
        "Ablation — PCIe latency, Sweep3D on {} @400G ({} nodes)\n",
        spec.name, cfg.nodes
    );
    let headers = ["pcie(ns)", "RDMA(us)", "RVMA(us)", "speedup"];
    let mut rows = Vec::new();
    for pcie_ns in [10u64, 50, 150, 300] {
        let ncfg = NicConfig {
            pcie_latency: SimTime::from_ns(pcie_ns),
            ..Default::default()
        };
        let run = |proto: Protocol| {
            run_motif(&spec, &fcfg, ncfg, proto, cfg.seed, sim, |n| {
                if n < active {
                    Box::new(Sweep3dNode::new(motif, n)) as Box<dyn HostLogic>
                } else {
                    Box::new(IdleNode)
                }
            })
        };
        let rdma = run(Protocol::Rdma);
        let rvma = run(Protocol::Rvma);
        rows.push(vec![
            pcie_ns.to_string(),
            format!("{:.1}", rdma.makespan_us()),
            format!("{:.1}", rvma.makespan_us()),
            format!(
                "{:.2}x",
                rdma.makespan.as_ns_f64() / rvma.makespan.as_ns_f64()
            ),
        ]);
    }
    print_table(&headers, &rows);
    println!("\n(paper: results at 150 ns are a conservative estimate of RVMA's future impact)");
    match write_csv("ablation_pcie", &headers, &rows) {
        Ok(p) => println!("csv: {p}"),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
