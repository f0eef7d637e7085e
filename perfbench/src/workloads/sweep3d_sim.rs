//! `sweep3d_sim`: Sweep3D on an adaptive-routed fat tree, under both
//! `Protocol::Rvma` and `Protocol::Rdma`, through the sequential `Engine`
//! (assembled and run as `run_motif` does) and through the sharded
//! `ParEngine` at `available_parallelism` threads (`build_motif_engine`).
//! One repetition runs all four; repetitions continue until the run's
//! time is used.
//!
//! Why: the only workload through `sim`/`net`/`nic`/`motifs`. It bypasses
//! the `rvma-core` datapath, so core changes predict no change here, and
//! it guards a consolidation of the two engines against slowing either
//! engine's users.
//!
//! Its end-to-end metrics read: an op is one repetition (latency = the
//! wall time of its four runs), `ops_per_s` is simulated events per wall
//! second of `run_to_completion`, `goodput_MBps` is simulated payload
//! bytes per wall second, and `worker_cpu_us_per_op` is process CPU per
//! simulated event.

use super::{execute, warm_up, Measure, Outcome, Pass, Summary};
use crate::cli::Args;
use crate::gen::workload_seed;
use crate::procfs;
use crate::report::Metric;
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;
use rvma_motifs::{build_motif_engine, IdleNode, Sweep3dConfig, Sweep3dNode};
use rvma_net::fabric::{FabricConfig, TopologySpec};
use rvma_net::packet::NetEvent;
use rvma_net::router::RoutingKind;
use rvma_net::topology::{fattree, FatTreeParams};
use rvma_nic::{build_cluster, HostLogic, NicConfig, Protocol};
use rvma_sim::{Engine, ParEngine, SimConfig, SimTime};
use std::time::Instant;

const MOTIF: Sweep3dConfig = Sweep3dConfig {
    pgrid: [16, 16],
    cells: [16, 16, 64],
    zblock: 16,
    elem_bytes: 8,
    compute_per_block: SimTime::from_ns(500),
    octants: 2,
};

/// One of the four runs of a repetition, with its per-layer metric names.
struct Case {
    par: bool,
    protocol: Protocol,
    run_s: &'static str,
    events: &'static str,
    final_time: &'static str,
}

const CASES: [Case; 4] = [
    Case {
        par: false,
        protocol: Protocol::Rvma,
        run_s: "sim.run_s.seq_rvma",
        events: "sim.events.seq_rvma",
        final_time: "sim.final_time_ns.seq_rvma",
    },
    Case {
        par: false,
        protocol: Protocol::Rdma,
        run_s: "sim.run_s.seq_rdma",
        events: "sim.events.seq_rdma",
        final_time: "sim.final_time_ns.seq_rdma",
    },
    Case {
        par: true,
        protocol: Protocol::Rvma,
        run_s: "sim.run_s.par_rvma",
        events: "sim.events.par_rvma",
        final_time: "sim.final_time_ns.par_rvma",
    },
    Case {
        par: true,
        protocol: Protocol::Rdma,
        run_s: "sim.run_s.par_rdma",
        events: "sim.events.par_rdma",
        final_time: "sim.final_time_ns.par_rdma",
    },
];

/// What one simulation run produced; must repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimResult {
    events: u64,
    final_ps: u64,
    cross_events: u64,
    spills: u64,
}

struct Run {
    result: SimResult,
    build_s: f64,
    run_s: f64,
    cpu_ns: u64,
}

fn logic(n: u32) -> Box<dyn HostLogic> {
    if n < MOTIF.nodes() {
        Box::new(Sweep3dNode::new(MOTIF, n))
    } else {
        Box::new(IdleNode)
    }
}

struct Sweep3dSim {
    seed: u64,
    spec: TopologySpec,
    fcfg: FabricConfig,
    threads: usize,
    /// First repetition's results, the reference every later one must match.
    reference: Option<[SimResult; 4]>,
    payload_bytes: u64,
}

pub fn run(args: &Args) -> Outcome {
    let mut k = 4;
    while k * k * k / 4 < MOTIF.nodes() {
        k += 2;
    }
    let mut w = Sweep3dSim {
        seed: workload_seed(args.seed, args.workload),
        spec: fattree(FatTreeParams { k }, RoutingKind::Adaptive),
        fcfg: FabricConfig::at_gbps(400),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        reference: None,
        payload_bytes: MOTIF.total_messages() * MOTIF.x_face_bytes(),
    };
    // One repetition before timing: warms the allocator and records the
    // results every later repetition must reproduce.
    if let Err(failed) = warm_up(&mut w, 0.0) {
        return failed;
    }
    let setup_s = w.build_median();
    execute(args, setup_s, super::SETUPS as u64, &mut w)
}

/// A built, not yet run, simulation on either engine.
enum Built {
    Seq(Engine<NetEvent>),
    Par(ParEngine<NetEvent>),
}

impl Sweep3dSim {
    fn build(&self, par: bool, protocol: Protocol) -> Built {
        let ncfg = NicConfig::default();
        if par {
            let sim = SimConfig::new(self.threads, SimTime::MAX);
            let (engine, _nodes) = build_motif_engine(
                &self.spec, &self.fcfg, ncfg, protocol, self.seed, sim, logic,
            );
            Built::Par(engine)
        } else {
            let mut engine = Engine::new(self.seed);
            build_cluster(&mut engine, &self.spec, &self.fcfg, ncfg, protocol, logic);
            Built::Seq(engine)
        }
    }

    /// Build and run one simulation, timing both.
    fn one(&self, par: bool, protocol: Protocol) -> Run {
        let me = std::process::id();
        let t0 = Instant::now();
        let mut built = self.build(par, protocol);
        let t1 = Instant::now();
        let cpu0 = procfs::process_cpu_ns(me).unwrap_or(0);
        let (result, nodes_done) = match &mut built {
            Built::Seq(e) => {
                let events = e.run_to_completion();
                let r = SimResult {
                    events,
                    final_ps: e.now().as_ps(),
                    cross_events: 0,
                    spills: 0,
                };
                (r, e.stats().counter_value("motif.nodes_done"))
            }
            Built::Par(e) => {
                let events = e.run_to_completion();
                let r = SimResult {
                    events,
                    final_ps: e.now().as_ps(),
                    cross_events: e.cross_events(),
                    spills: e.mailbox_spills(),
                };
                (r, e.stats().counter_value("motif.nodes_done"))
            }
        };
        let cpu1 = procfs::process_cpu_ns(me).unwrap_or(0);
        let t2 = Instant::now();
        drop(built);
        assert_eq!(
            nodes_done, self.spec.terminals as u64,
            "Sweep3D deadlocked: {nodes_done} of {} nodes finished",
            self.spec.terminals
        );
        Run {
            result,
            build_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            cpu_ns: cpu1 - cpu0,
        }
    }

    /// `setup_s`: median over set-ups of the time to build a repetition's
    /// four engines.
    fn build_median(&self) -> f64 {
        let builds: Vec<f64> = (0..super::SETUPS)
            .map(|_| {
                CASES
                    .iter()
                    .map(|c| {
                        let t0 = Instant::now();
                        let built = self.build(c.par, c.protocol);
                        let secs = t0.elapsed().as_secs_f64();
                        drop(built);
                        secs
                    })
                    .sum()
            })
            .collect();
        median(&builds)
    }
}

impl Measure for Sweep3dSim {
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass {
        let t0 = Instant::now();
        let mut tracer = traced.then(|| Tracer::new(t0, 1));
        let mut p = Pass::default();
        let (mut rep_run_ns, mut rep_eps, mut rep_mbps, mut builds) =
            (vec![], vec![], vec![], vec![]);
        let mut run_s: [Vec<f64>; 4] = Default::default();
        let (mut cpu_ns, mut events) = (0u64, 0u64);
        let results = loop {
            let rep = p.attempted / 4;
            let r0 = Instant::now();
            let runs: Vec<Run> = CASES.iter().map(|c| self.one(c.par, c.protocol)).collect();
            let r1 = Instant::now();
            let results = [
                runs[0].result,
                runs[1].result,
                runs[2].result,
                runs[3].result,
            ];
            p.attempted += 4;
            let reference = *self.reference.get_or_insert(results);
            for (c, (got, want)) in results.iter().zip(&reference).enumerate() {
                if got == want {
                    p.completed += 1;
                } else {
                    p.failed += 1;
                    p.problems.push(format!(
                        "{} repetition {rep} diverged: {got:?} vs {want:?}",
                        CASES[c].run_s
                    ));
                }
            }
            let run_total: f64 = runs.iter().map(|r| r.run_s).sum();
            let rep_events: u64 = results.iter().map(|r| r.events).sum();
            rep_run_ns.push((run_total * 1e9) as u64);
            rep_eps.push(rep_events as f64 / run_total);
            rep_mbps.push(4.0 * self.payload_bytes as f64 / run_total / 1e6);
            builds.push(runs.iter().map(|r| r.build_s).sum::<f64>());
            for (c, r) in runs.iter().enumerate() {
                run_s[c].push(r.run_s);
            }
            cpu_ns += runs.iter().map(|r| r.cpu_ns).sum::<u64>();
            events += rep_events;
            if let Some(t) = tracer.as_mut() {
                let root = Some(t.record("bench.rep", r0, r1, None, rep));
                // Reconstruct each run's build and run intervals in order.
                let mut at = r0;
                for r in &runs {
                    let b = at + std::time::Duration::from_secs_f64(r.build_s);
                    let e = b + std::time::Duration::from_secs_f64(r.run_s);
                    t.record("motifs.build", at, b, root, rep);
                    t.record("sim.run", b, e, root, rep);
                    at = e;
                }
            }
            if t0.elapsed().as_secs_f64() >= seconds {
                break results;
            }
        };
        let ratio = |a: usize, b: usize| results[a].final_ps as f64 / results[b].final_ps as f64;
        let mut sorted = rep_run_ns.clone();
        sorted.sort_unstable();
        let reps = rep_run_ns.len() as u64;
        p.summary = Summary {
            lat_p50_us: nearest_rank(&sorted, 0.5) as f64 / 1e3,
            lat_p99_us: nearest_rank(&sorted, 0.99) as f64 / 1e3,
            lat_samples: reps,
            ops_per_s: median(&rep_eps),
            goodput_mbps: median(&rep_mbps),
            cpu_us_per_op: cpu_ns as f64 / 1e3 / events.max(1) as f64,
            slices: reps,
        };
        p.extra.push(Metric {
            name: "sim_events_per_s",
            unit: "1/s",
            value: median(&rep_eps),
            samples: reps,
        });
        p.extra.push(Metric {
            name: "rvma_rdma_time_ratio.seq",
            unit: "ratio",
            value: ratio(0, 1),
            samples: reps,
        });
        p.extra.push(Metric {
            name: "rvma_rdma_time_ratio.par",
            unit: "ratio",
            value: ratio(2, 3),
            samples: reps,
        });
        if let Some(t) = tracer {
            let mut layers = vec![Metric::layer("motifs.build_s", median(&builds), reps)];
            for (c, case) in CASES.iter().enumerate() {
                let r = &results[c];
                layers.extend([
                    Metric::layer(case.run_s, median(&run_s[c]), reps),
                    Metric::layer(case.events, r.events as f64, reps),
                    Metric::layer(case.final_time, r.final_ps as f64 / 1e3, reps),
                ]);
            }
            let cross = |c: usize| results[c].cross_events as f64 / results[c].events as f64;
            let total_run: f64 = run_s.iter().flatten().sum();
            layers.extend([
                Metric::layer("sim.rvma_rdma_time_ratio.seq", ratio(0, 1), reps),
                Metric::layer("sim.rvma_rdma_time_ratio.par", ratio(2, 3), reps),
                Metric::layer("sim.cross_events_ratio.par_rvma", cross(2), reps),
                Metric::layer("sim.cross_events_ratio.par_rdma", cross(3), reps),
                Metric::layer(
                    "sim.mailbox_spills",
                    (results[2].spills + results[3].spills) as f64,
                    reps,
                ),
                Metric::layer("sim.self_ns_per_op", total_run * 1e9 / events as f64, reps),
                Metric::layer("bench.spans", t.spans().len() as f64, reps),
            ]);
            p.layers = layers;
            crate::write_spans(&t, "sweep3d_sim");
        }
        p
    }
}
