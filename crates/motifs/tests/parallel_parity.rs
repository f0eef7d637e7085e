//! Motif-level parity: every motif, run on the sharded engine at 1/2/4/8
//! threads, must produce bit-identical results — final clock, events fired,
//! every counter, every histogram sample, and the merged event trace. The
//! fabrics use adaptive routing so the runs are rng-dependent: any
//! nondeterminism in shard scheduling would surface as diverging routes.

use rvma_motifs::{
    build_motif_engine, AllReduceConfig, AllReduceNode, Halo3dConfig, Halo3dNode, IdleNode,
    IncastConfig, IncastNode, KvConfig, KvNode, MotifResult, Sweep3dConfig, Sweep3dNode,
};
use rvma_net::fabric::{FabricConfig, TopologySpec};
use rvma_net::packet::NetEvent;
use rvma_net::router::RoutingKind;
use rvma_net::topology::{
    dragonfly, fattree, star, torus3d, DragonflyParams, FatTreeParams, TorusParams,
};
use rvma_nic::{HostLogic, NicConfig, Protocol};
use rvma_sim::{Engine, SimConfig, SimTime, StatsRegistry, TraceEntry};

/// Everything observable about a finished run, bit-exact.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    now: SimTime,
    events: u64,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Vec<u64>)>,
    trace: Vec<TraceEntry>,
}

fn fingerprint(eng: &Engine<NetEvent>, events: u64) -> Fingerprint {
    let stats: &StatsRegistry = eng.stats();
    let mut counters: Vec<(String, u64)> = stats
        .counter_names()
        .map(|n| (n.to_string(), stats.counter_value(n)))
        .collect();
    counters.sort();
    let mut histograms: Vec<(String, Vec<u64>)> = stats
        .histogram_names()
        .map(|n| {
            let samples = stats
                .get_histogram(n)
                .map(|h| h.samples().iter().map(|s| s.to_bits()).collect())
                .unwrap_or_default();
            (n.to_string(), samples)
        })
        .collect();
    histograms.sort();
    Fingerprint {
        now: eng.now(),
        events,
        counters,
        histograms,
        trace: eng.merged_trace(),
    }
}

/// Run `logic` on `spec` at each thread count and demand identical output.
fn assert_parity(
    name: &str,
    spec: &TopologySpec,
    protocol: Protocol,
    logic: impl Fn(u32) -> Box<dyn HostLogic> + Copy,
) {
    let fcfg = FabricConfig::at_gbps(100);
    let ncfg = NicConfig::default();
    let run = |threads: usize| {
        let sim = SimConfig::new(threads, SimTime::from_us(1));
        let (mut eng, _nodes) =
            build_motif_engine(spec, &fcfg, ncfg, protocol, 42, sim, |n| logic(n));
        eng.enable_trace(1 << 18);
        let events = eng.run_to_completion();
        fingerprint(&eng, events)
    };
    let want = run(1);
    assert!(want.events > 0, "{name}: motif must actually run");
    assert!(
        want.counters
            .iter()
            .any(|(n, v)| n == "motif.nodes_done" && *v > 0),
        "{name}: nodes must finish"
    );
    for threads in [2, 4, 8] {
        let got = run(threads);
        assert_eq!(got, want, "{name} diverged at {threads} threads");
    }
}

/// Wrap a motif constructor, padding spare terminals with [`IdleNode`].
fn padded<F>(active: u32, f: F) -> impl Fn(u32) -> Box<dyn HostLogic> + Copy
where
    F: Fn(u32) -> Box<dyn HostLogic> + Copy,
{
    move |n| {
        if n < active {
            f(n)
        } else {
            Box::new(IdleNode)
        }
    }
}

#[test]
fn sweep3d_parity() {
    let cfg = Sweep3dConfig {
        pgrid: [2, 2],
        cells: [4, 4, 8],
        zblock: 4,
        elem_bytes: 8,
        compute_per_block: SimTime::from_ns(200),
        octants: 2,
    };
    let spec = fattree(FatTreeParams { k: 4 }, RoutingKind::Adaptive);
    for protocol in [Protocol::Rvma, Protocol::Rdma] {
        assert_parity(
            "sweep3d",
            &spec,
            protocol,
            padded(4, move |n| Box::new(Sweep3dNode::new(cfg, n)) as _),
        );
    }
}

#[test]
fn halo3d_parity() {
    let cfg = Halo3dConfig {
        pgrid: [2, 2, 2],
        cells: [8, 8, 8],
        elem_bytes: 8,
        iters: 2,
        compute: SimTime::from_ns(500),
    };
    let spec = torus3d(
        TorusParams {
            dims: [2, 2, 2],
            tps: 1,
        },
        RoutingKind::Adaptive,
    );
    assert_parity("halo3d", &spec, Protocol::Rvma, move |n| {
        Box::new(Halo3dNode::new(cfg, n)) as _
    });
}

#[test]
fn incast_parity() {
    let cfg = IncastConfig {
        nodes: 9,
        msgs: 4,
        bytes: 4096,
    };
    let spec = star(9, RoutingKind::Adaptive);
    assert_parity("incast", &spec, Protocol::Rvma, move |n| {
        Box::new(IncastNode::new(cfg, n)) as _
    });
}

#[test]
fn allreduce_parity() {
    let cfg = AllReduceConfig {
        nodes: 8,
        bytes: 1 << 16,
        iters: 2,
        compute_per_chunk: SimTime::from_ns(500),
    };
    let spec = fattree(FatTreeParams { k: 4 }, RoutingKind::Adaptive);
    assert_parity(
        "allreduce",
        &spec,
        Protocol::Rvma,
        padded(8, move |n| Box::new(AllReduceNode::new(cfg, n)) as _),
    );
}

#[test]
fn kvstore_parity() {
    let cfg = KvConfig {
        nodes: 16,
        servers: 4,
        ops: 16,
        read_ratio: 0.75,
        value_bytes: 2048,
        keys: 256,
        zipf_s: 0.99,
        seed: 5,
    };
    let spec = fattree(FatTreeParams { k: 4 }, RoutingKind::Adaptive);
    for protocol in [Protocol::Rvma, Protocol::Rdma] {
        let c = cfg;
        assert_parity("kvstore", &spec, protocol, move |n| {
            Box::new(KvNode::new(c, n)) as _
        });
    }
}

/// Compare the [`MotifResult`] summaries of `run` at each thread count.
fn assert_summary_parity(name: &str, threads: &[usize], run: impl Fn(usize) -> MotifResult) {
    let want = run(threads[0]);
    for &t in &threads[1..] {
        let got = run(t);
        assert_eq!(got.makespan, want.makespan, "{name} at {t} threads");
        assert_eq!(got.quiesce, want.quiesce, "{name} at {t} threads");
        assert_eq!(got.events, want.events, "{name} at {t} threads");
        assert_eq!(got.msgs_sent, want.msgs_sent, "{name} at {t} threads");
        assert_eq!(got.packets, want.packets, "{name} at {t} threads");
    }
}

/// `run_motif` is deterministic across thread counts at the summary level
/// too (the API most callers use), including `threads = 1`, which the
/// figure bins run by default.
#[test]
fn run_motif_summary_parity() {
    let cfg = IncastConfig {
        nodes: 9,
        msgs: 4,
        bytes: 4096,
    };
    let spec = star(9, RoutingKind::Adaptive);
    assert_summary_parity("incast", &[1, 2, 4, 8], |threads| {
        rvma_motifs::run_motif(
            &spec,
            &FabricConfig::at_gbps(100),
            NicConfig::default(),
            Protocol::Rvma,
            42,
            SimConfig::new(threads, SimTime::from_us(1)),
            move |n| Box::new(IncastNode::new(cfg, n)) as _,
        )
    });

    // Adaptive Dragonfly is the one router that draws from the RNG (Valiant
    // detours), so a thread-dependent stream would move these numbers.
    let sweep = Sweep3dConfig {
        pgrid: [4, 4],
        cells: [8, 8, 16],
        zblock: 4,
        elem_bytes: 8,
        compute_per_block: SimTime::from_ns(200),
        octants: 2,
    };
    let spec = dragonfly(DragonflyParams { a: 4, p: 2, h: 2 }, RoutingKind::Adaptive);
    for protocol in [Protocol::Rvma, Protocol::Rdma] {
        assert_summary_parity("dragonfly sweep3d", &[1, 2, 4], |threads| {
            rvma_motifs::run_motif(
                &spec,
                &FabricConfig::at_gbps(400),
                NicConfig::default(),
                protocol,
                42,
                SimConfig::new(threads, SimTime::MAX),
                padded(16, move |n| Box::new(Sweep3dNode::new(sweep, n)) as _),
            )
        });
    }
}
