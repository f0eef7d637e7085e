//! Goodput of the reliable-delivery layer as the fabric degrades.
//!
//! Sweeps `drop_p` ∈ {0, 0.01, 0.02, 0.05, 0.10, 0.20} over the inline
//! [`LoopbackNetwork`] with a fixed side order of duplication and reordering
//! (`dup_p = reorder_p = 0.02`), pushing a stream of reliable puts through
//! its retransmitting [`rvma_core::Initiator`] and measuring delivered goodput plus
//! the retransmission overhead the retry layer paid to keep every epoch
//! byte-exact. The seeded dice make every row reproducible.
//!
//! Writes `results/loss_sweep.csv`. Run with `--quick` for a CI smoke
//! (tiny op count, same CSV columns) — the CI `fault_recovery` job uses it
//! to keep goodput-vs-loss data fresh without a long bench run.
//!
//! `--trace <prefix>` additionally re-runs the `drop_p = 0.05` point with
//! op-level telemetry enabled and writes `<prefix>.trace.json` (Chrome
//! `trace_event` format, load in `chrome://tracing` or Perfetto) and
//! `<prefix>.snapshot.json` (the `rvma-telemetry-v1` histogram snapshot).

use rvma_bench::{print_table, write_csv};
use rvma_core::{
    DeliveryOrder, EndpointConfig, FaultModel, LoopbackNetwork, NodeAddr, TelemetrySnapshot,
    Threshold, VirtAddr,
};
use std::time::Instant;

const SEED: u64 = 0x105_5EED;
const DROP_RATES: [f64; 6] = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20];

struct Config {
    /// Reliable puts per sweep point; each put completes one epoch.
    ops: usize,
    /// Bytes per put.
    msg_bytes: usize,
    /// Wire MTU.
    mtu: usize,
}

struct Sample {
    goodput_mbps: f64,
    /// Retransmitted fragment copies per delivered fragment.
    retransmit_rate: f64,
    /// Fragments the fabric dropped (including retransmitted copies).
    dropped: u64,
}

fn run_point(cfg: &Config, drop_p: f64, telemetry: bool) -> (Sample, Option<TelemetrySnapshot>) {
    let model = FaultModel {
        drop_p,
        dup_p: 0.02,
        reorder_p: 0.02,
        ..FaultModel::NONE
    };
    let endpoint_config = EndpointConfig {
        dedup_window: 1 << 15,
        fault_model: model,
        fault_seed: SEED,
        // The default 8-round budget is sized for drop_p ≈ 0.05; at the
        // sweep's 0.20 tail a fragment survives all 8 rounds with
        // p ≈ 0.22^8 ≈ 5e-6, which across ~10^5 fragments fails a run every
        // few sweeps. A deeper budget keeps the sweep deterministic without
        // affecting the measured goodput at realistic loss rates (extra
        // rounds only run when needed).
        retry_budget: 32,
        telemetry,
        ..Default::default()
    };
    let net =
        LoopbackNetwork::for_endpoint_config(cfg.mtu, DeliveryOrder::InOrder, &endpoint_config);
    let server = net.add_endpoint(NodeAddr::node(0));
    let init = net.initiator(NodeAddr::node(1));
    let vaddr = VirtAddr::new(0x10);
    let win = server
        .init_window(vaddr, Threshold::bytes(cfg.msg_bytes as u64))
        .expect("window");

    let payload = vec![0xA5u8; cfg.msg_bytes];
    let mut fragments = 0u64;
    let mut transmissions = 0u64;
    let start = Instant::now();
    for _ in 0..cfg.ops {
        let mut note = win.post_buffer(vec![0u8; cfg.msg_bytes]).expect("post");
        let report = init
            .put(NodeAddr::node(0), vaddr, &payload)
            .expect("reliable put");
        fragments += report.fragments;
        transmissions += report.transmissions;
        net.flush_delayed();
        let buf = note.wait();
        assert!(
            buf.data().iter().all(|&b| b == 0xA5),
            "epoch corrupted at drop_p={drop_p}"
        );
    }
    let elapsed = start.elapsed();

    let bytes = (cfg.ops * cfg.msg_bytes) as f64;
    let sample = Sample {
        goodput_mbps: bytes / elapsed.as_secs_f64() / 1e6,
        retransmit_rate: (transmissions - fragments) as f64 / fragments as f64,
        dropped: net.fault_stats().dropped(),
    };
    (sample, net.telemetry().map(|t| t.snapshot()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trace_prefix = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1).cloned());
    let cfg = if quick {
        Config {
            ops: 200,
            msg_bytes: 512,
            mtu: 64,
        }
    } else {
        Config {
            ops: 5_000,
            msg_bytes: 4096,
            mtu: 256,
        }
    };

    println!(
        "loss_sweep: {} ops x {} B (mtu {}), dup_p = reorder_p = 0.02, seed {:#x}{}",
        cfg.ops,
        cfg.msg_bytes,
        cfg.mtu,
        SEED,
        if quick { " [--quick]" } else { "" }
    );

    let mut rows = Vec::new();
    for drop_p in DROP_RATES {
        let (s, _) = run_point(&cfg, drop_p, false);
        rows.push(vec![
            format!("{drop_p:.2}"),
            format!("{:.1}", s.goodput_mbps),
            format!("{:.4}", s.retransmit_rate),
            s.dropped.to_string(),
        ]);
    }

    let headers = ["drop_p", "goodput_mbps", "retransmit_rate", "dropped_frags"];
    print_table(&headers, &rows);
    match write_csv("loss_sweep", &headers, &rows) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("csv write failed: {e}"),
    }

    if let Some(prefix) = trace_prefix {
        // One telemetry-enabled pass at the sweep's headline loss rate;
        // the recorder rides the same seeded run the CSV row came from.
        let (_, snap) = run_point(&cfg, 0.05, true);
        let snap = snap.expect("telemetry enabled for trace capture");
        let trace_path = format!("{prefix}.trace.json");
        let json_path = format!("{prefix}.snapshot.json");
        if let Err(e) = std::fs::write(&trace_path, snap.to_chrome_trace()) {
            eprintln!("trace write failed: {e}");
            return;
        }
        if let Err(e) = std::fs::write(&json_path, snap.to_json()) {
            eprintln!("snapshot write failed: {e}");
            return;
        }
        println!(
            "wrote {trace_path} ({} events, {} dropped) and {json_path}",
            snap.events.len(),
            snap.dropped
        );
    }
}
