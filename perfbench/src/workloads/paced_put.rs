//! `paced_put`: open loop. One thread submits `AsyncInitiator::put_at` at
//! Poisson arrivals of 10 k puts/s, 8 B – 4 KiB log-uniform (one fragment
//! up to the 2 KiB MTU, two above it). Before each due time it pre-posts a
//! pooled byte-threshold buffer, and after the put it waits on that
//! buffer's notification.
//!
//! Why: the gaps between puts straddle the wire worker's spin → yield →
//! park budget, so the idle policy, the wake and the `notify` handoff do
//! most of the work here and almost none in `incast`.
//!
//! The gated latency runs from the `put_at` call until `Notification::wait`
//! returns. The open-loop latency from each put's due time, which also
//! counts the backlog a stall leaves behind, is printed beside it as
//! `lat_from_due_*` with the generator's lateness, but not gated: on a
//! shared 2-vCPU host its p99 is set by how many millisecond scheduler
//! stalls a run happens to meet, and moved by 85-99 % between runs.

use super::threaded::{sum_pools, Counters};
use super::{execute, span_quantile, timed_setups, Measure, Outcome, Pass, Slicer};
use crate::cli::Args;
use crate::gen::{log_uniform, poisson_schedule, workload_seed, Pattern, SplitMix64};
use crate::procfs;
use crate::report::Metric;
use crate::stats::p50_p99;
use crate::trace::{self_time_by_name, Tracer};
use rvma_core::transport::DeliveryOrder;
use rvma_core::{
    AsyncInitiator, AsyncNetwork, EndpointConfig, NodeAddr, RvmaEndpoint, Threshold, VirtAddr,
    Window, DEFAULT_MTU,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RATE_PER_S: f64 = 10_000.0;
const MIN_SIZE: usize = 8;
const MAX_SIZE: usize = 4096;
const WARMUP_OPS: usize = 2_000;
const DEST: NodeAddr = NodeAddr::node(0);
const MAILBOX: VirtAddr = VirtAddr::new(1);

struct Rig {
    client: AsyncInitiator,
    win: Window,
    ep: Arc<RvmaEndpoint>,
    net: AsyncNetwork,
}

fn rig() -> Rig {
    let net = AsyncNetwork::for_endpoint_config(
        DEFAULT_MTU,
        DeliveryOrder::InOrder,
        Duration::ZERO,
        &EndpointConfig::default(),
    );
    let ep = net.add_endpoint(DEST);
    let win = ep
        .init_window(MAILBOX, Threshold::bytes(MAX_SIZE as u64))
        .expect("paced_put window");
    let client = net.initiator(NodeAddr::node(1));
    Rig {
        client,
        win,
        ep,
        net,
    }
}

struct PacedPut {
    rig: Rig,
    pattern: Pattern,
    seed: u64,
    passes: u64,
}

pub fn run(args: &Args) -> Outcome {
    let seed = workload_seed(args.seed, args.workload);
    let (setup_s, rig) = timed_setups(rig);
    let mut w = PacedPut {
        rig,
        pattern: Pattern::new(seed, 64 * MAX_SIZE),
        seed,
        passes: 0,
    };
    w.prime();
    execute(args, setup_s, super::SETUPS as u64, &mut w)
}

impl PacedPut {
    /// Fill the buffer pool, the payload pool and the route cache.
    fn prime(&mut self) {
        let mut rng = SplitMix64::new(self.seed ^ 0x5741_524D);
        for _ in 0..WARMUP_OPS {
            let size = log_uniform(&mut rng, MIN_SIZE, MAX_SIZE);
            let payload = self.pattern.slice(0, size);
            let mut note = self
                .rig
                .win
                .post_pooled_with(size, Threshold::bytes(size as u64))
                .expect("warm-up post");
            self.rig
                .client
                .put_at(DEST, MAILBOX, 0, payload)
                .expect("warm-up put");
            note.wait();
        }
    }
}

impl Measure for PacedPut {
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass {
        self.passes += 1;
        let stream = self.seed.wrapping_add(self.passes);
        let due = poisson_schedule(stream, RATE_PER_S, (seconds * 1e9) as u64);
        let mut rng = SplitMix64::new(stream ^ 0x5349_5A45);
        let inputs: Vec<(usize, usize)> = due
            .iter()
            .map(|_| {
                let size = log_uniform(&mut rng, MIN_SIZE, MAX_SIZE);
                (size, self.pattern.offset_for(rng.next_u64(), size))
            })
            .collect();
        let Rig {
            client,
            win,
            ep,
            net,
        } = &self.rig;
        let pools = || sum_pools(std::iter::once(win.pool_stats()));
        let before = Counters::read(net, ep, client, pools());

        let me = std::process::id();
        let t0 = Instant::now();
        let mut slicer = Slicer::new(t0, seconds, || procfs::threads_cpu_ns(me, Some(me)));
        let mut tracer = traced.then(|| Tracer::new(t0, 1));
        let mut late_ns = Vec::with_capacity(due.len());
        let mut from_due_ns = Vec::with_capacity(due.len());
        let mut p = Pass::default();
        let mut bytes = 0u64;
        for (i, (&due_ns, &(size, off))) in due.iter().zip(&inputs).enumerate() {
            let payload = self.pattern.slice(off, size);
            let due_at = t0 + Duration::from_nanos(due_ns);
            let post_start = Instant::now();
            let posted = win.post_pooled_with(size, Threshold::bytes(size as u64));
            let post_end = Instant::now();
            p.attempted += 1;
            let mut note = match posted {
                Ok(n) => n,
                Err(e) => {
                    p.failed += 1;
                    p.problems.push(format!("post failed: {e}"));
                    break;
                }
            };
            while Instant::now() < due_at {
                std::hint::spin_loop();
            }
            let put_start = Instant::now();
            let put = client.put_at(DEST, MAILBOX, 0, payload);
            let put_end = Instant::now();
            if let Err(e) = put {
                p.failed += 1;
                p.problems.push(format!("put failed: {e}"));
                break;
            }
            let wait_start = Instant::now();
            let buf = note.wait();
            let ret = Instant::now();
            if buf.data() == payload {
                p.completed += 1;
                bytes += size as u64;
                slicer.ops(1, size as u64);
            } else {
                p.failed += 1;
            }
            slicer.lat((ret - put_start).as_nanos() as u64);
            from_due_ns.push((ret - due_at).as_nanos() as u64);
            late_ns.push((put_start - due_at).as_nanos() as u64);
            if let Some(t) = tracer.as_mut() {
                let op = i as u64;
                let root = t.record("bench.op", due_at, ret, None, op);
                if post_start > due_at {
                    t.record("bench.gen_late", due_at, post_start, Some(root), op);
                }
                t.record("window.post", post_start, post_end, Some(root), op);
                t.record(
                    "transport_threaded.put_at",
                    put_start,
                    put_end,
                    Some(root),
                    op,
                );
                t.record("notify.wait", wait_start, ret, Some(root), op);
            }
            if !slicer.tick(ret) {
                break;
            }
        }
        // The schedule can end just before the last slice does.
        while slicer.tick(Instant::now()) {
            std::thread::sleep(Duration::from_micros(200));
        }
        p.summary = slicer.summary();

        let nacks = client.take_nacks();
        p.check(nacks.is_empty(), || {
            format!("{} NACKs on a clean fabric", nacks.len())
        });
        let after = Counters::read(net, ep, client, pools());
        p.check(after.nacks_since(&before) == 0, || {
            "endpoint sent NACKs".into()
        });
        let us = |v: &mut Vec<u64>| {
            let (p50, p99) = if v.is_empty() { (0, 0) } else { p50_p99(v) };
            (p50 as f64 / 1e3, p99 as f64 / 1e3)
        };
        let late_p99_us = us(&mut late_ns).1;
        let (due_p50, due_p99) = us(&mut from_due_ns);
        let n = from_due_ns.len() as u64;
        for (name, value) in [
            ("lat_from_due_p50_us", due_p50),
            ("lat_from_due_p99_us", due_p99),
            ("gen_late_p99_us", late_p99_us),
        ] {
            p.extra.push(Metric {
                name,
                unit: "us",
                value,
                samples: n,
            });
        }
        if let Some(t) = tracer {
            p.layers = after.layer_metrics(&before, p.completed, bytes);
            p.layers.extend(span_layers(&t, p.completed));
            p.layers.push(Metric::layer(
                "bench.gen_late_p99_us",
                late_p99_us,
                late_ns.len() as u64,
            ));
            p.notes
                .push(super::residual_note(&t, "gen_late + post + put_at + wait"));
            crate::write_spans(&t, "paced_put");
        }
        p
    }
}

/// Layer metrics taken from the spans.
fn span_layers(t: &Tracer, ops: u64) -> Vec<Metric> {
    let per_op = |ns: u64| ns as f64 / ops.max(1) as f64;
    let by_name = self_time_by_name(t.spans());
    let own = |name: &str| per_op(by_name.get(name).copied().unwrap_or(0));
    let mut put = t.durations("transport_threaded.put_at");
    let mut wait = t.durations("notify.wait");
    let mut post = t.durations("window.post");
    let lat_total: u64 = t
        .spans()
        .iter()
        .filter(|s| s.name == "bench.op")
        .map(|s| s.dur())
        .sum();
    let residual = by_name.get("bench.op").copied().unwrap_or(0);
    let n = ops;
    vec![
        span_quantile("transport_threaded.put_at_ns.p50", &mut put, 0.50),
        span_quantile("transport_threaded.put_at_ns.p99", &mut put, 0.99),
        Metric::layer(
            "transport_threaded.self_ns_per_op",
            own("transport_threaded.put_at"),
            n,
        ),
        span_quantile("notify.wait_ns.p50", &mut wait, 0.50),
        span_quantile("notify.wait_ns.p99", &mut wait, 0.99),
        Metric::layer("notify.self_ns_per_op", own("notify.wait"), n),
        span_quantile("window.post_ns.p50", &mut post, 0.50),
        Metric::layer("window.self_ns_per_op", own("window.post"), n),
        Metric::layer("bench.residual_ns_per_op", per_op(residual), n),
        Metric::layer(
            "bench.residual_share",
            super::ratio(residual as f64, lat_total as f64),
            n,
        ),
        Metric::layer("bench.spans", t.spans().len() as f64, n),
    ]
}
