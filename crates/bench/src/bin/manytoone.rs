//! Many-to-one (incast) study — the paper's introduction scenario.
//!
//! "RDMA \[is\] unattractive for use in many-to-one communication models
//! such as those found in public internet client-server situations":
//! either all clients coordinate one shared buffer, or the server
//! dedicates exclusive resources per client indefinitely. This binary
//! sweeps the client count and reports sink-completion time and the
//! per-client server resources each protocol consumed.

use rvma_bench::{print_table, write_csv};
use rvma_motifs::{run_motif, IncastConfig, IncastNode};
use rvma_net::fabric::FabricConfig;
use rvma_net::router::RoutingKind;
use rvma_net::topology::star;
use rvma_nic::{NicConfig, Protocol};
use rvma_sim::SimConfig;

fn main() {
    println!("Many-to-one (incast): RVMA vs RDMA as the client count grows\n");
    let headers = [
        "clients",
        "RDMA sink-done(us)",
        "RVMA sink-done(us)",
        "speedup",
        "RDMA channels",
        "RVMA channels",
    ];
    let mut rows = Vec::new();
    for clients in [4u32, 8, 16, 32, 64] {
        let cfg = IncastConfig {
            nodes: clients + 1,
            msgs: 16,
            bytes: 8192,
        };
        let spec = star(cfg.nodes, RoutingKind::Adaptive);
        let run = |p| {
            run_motif(
                &spec,
                &FabricConfig::at_gbps(100),
                NicConfig::default(),
                p,
                5,
                SimConfig::single_shard(),
                |n| Box::new(IncastNode::new(cfg, n)) as _,
            )
        };
        let rdma = run(Protocol::Rdma);
        let rvma = run(Protocol::Rvma);
        rows.push(vec![
            clients.to_string(),
            format!("{:.1}", rdma.makespan_us()),
            format!("{:.1}", rvma.makespan_us()),
            format!(
                "{:.2}x",
                rdma.makespan.as_ns_f64() / rvma.makespan.as_ns_f64()
            ),
            rdma.handshakes.to_string(),
            rvma.handshakes.to_string(),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "\nRDMA registers one exclusive buffer (channel) per client; the RVMA sink\n\
         posts one shared bucket and dedicates nothing per client (paper Sec. I)."
    );
    match write_csv("manytoone", &headers, &rows) {
        Ok(p) => println!("csv: {p}"),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
