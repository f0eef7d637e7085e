//! `shm_mixed`: closed loop over one `ShmClient` to a `ShmServer` in a
//! separate OS process (this binary re-executed in its receiver role),
//! with at most 16 puts in flight. Sizes are seeded: 90 % are 8 B – 4 KiB
//! eager puts, 10 % are 64 KiB – 1 MiB rendezvous puts, half of those
//! staged by `put_notify_at` and half written into a registered extent
//! (`reserve_extent` + `put_from_extent`). The receiver verifies every
//! completed buffer and reposts.
//!
//! Why: the only cross-process path. Doorbell-bound small puts run beside
//! copy-bound bulk puts, and allocator pressure can force eager fallback,
//! so a gain for one use that costs the other shows.
//!
//! Op `i` goes to mailbox `i % 16`, whose epochs complete at one op. The
//! receiver keeps buffers posted for the next two puts of every mailbox
//! and publishes, in a small shared credit segment, how many puts it has
//! consumed; the sender never runs ahead of the posted buffers, so no put
//! can meet an empty mailbox.

use super::{execute, span_quantile, timed_setups, warm_up, Measure, Outcome, Pass, Slicer};
use crate::cli::{Args, SHM_CHILD};
use crate::gen::{draw, log_uniform, workload_seed, Pattern};
use crate::procfs;
use crate::report::Metric;
use crate::trace::{self_time_by_name, Tracer};
use rvma_core::{
    BulkExtent, CompletionQueue, CqCompletion, EndpointConfig, NodeAddr, PutFuture, ShmClient,
    ShmSegment, ShmServer, Threshold, VirtAddr, DEFAULT_MTU,
};
use std::collections::VecDeque;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const MAILBOXES: u64 = 16;
const IN_FLIGHT: usize = 16;
/// Buffers the receiver keeps posted per mailbox.
const POSTED: u64 = 2;
const CREDIT: u64 = MAILBOXES * POSTED;
const BIG_MIN: usize = 64 << 10;
const BIG_MAX: usize = 1 << 20;
const PATTERN_BYTES: usize = 2 << 20;
const DEST: NodeAddr = NodeAddr::node(0);
const STALL: Duration = Duration::from_secs(10);

/// Credit segment words (byte offsets, one cache line apart).
const W_READY: usize = 0;
const W_CONSUMED: usize = 64;
const W_STOP_AT: usize = 128;
const W_VERIFIED: usize = 192;
const W_BAD: usize = 256;
const CREDIT_BYTES: usize = 4096;

fn vaddr(i: u64) -> VirtAddr {
    VirtAddr::new(1 + i % MAILBOXES)
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Lane {
    Eager,
    Staged,
    Extent,
}

/// Size, lane and payload draw of op `i`, computable by either process.
fn op_params(seed: u64, i: u64) -> (usize, Lane, u64) {
    let mut r = draw(seed, i);
    let (size, lane) = if r.below(10) == 0 {
        let lane = if r.below(2) == 0 {
            Lane::Staged
        } else {
            Lane::Extent
        };
        (log_uniform(&mut r, BIG_MIN, BIG_MAX), lane)
    } else {
        (log_uniform(&mut r, 8, 4096), Lane::Eager)
    };
    (size, lane, r.next_u64())
}

fn word(seg: &ShmSegment, off: usize) -> &AtomicU64 {
    assert!(off + 8 <= seg.len() && off.is_multiple_of(8));
    // SAFETY: `off` is in bounds and 8-aligned (the mapping is page
    // aligned), and the segment is created zero-filled, a valid
    // `AtomicU64`; both processes access these words only atomically.
    unsafe { seg.at::<AtomicU64>(off) }
}

/// The receiver process and the sender's connection to it.
struct Rig {
    client: ShmClient,
    credit: ShmSegment,
    child: Child,
    /// Puts sent so far (op `i` is the `i`-th put).
    sent: u64,
}

impl Rig {
    fn start(seed: u64, n: u64) -> Rig {
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).expect("create out/ for shm segments");
        let tag = format!("{}-{n}", std::process::id());
        let seg = dir.join(format!("shm-{tag}.seg"));
        let credit_path = dir.join(format!("credit-{tag}.seg"));
        let child = Command::new(std::env::current_exe().expect("own executable"))
            .arg(SHM_CHILD)
            .arg(&seg)
            .arg(&credit_path)
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("start the shm receiver process");
        let client = ShmClient::connect(&seg, NodeAddr::node(1)).expect("connect to receiver");
        // The receiver creates the credit segment before the server
        // segment the connect above waited for.
        let credit = ShmSegment::open(&credit_path).expect("open credit segment");
        let t0 = Instant::now();
        while word(&credit, W_READY).load(Ordering::Acquire) == 0 {
            assert!(t0.elapsed() < STALL, "receiver never posted its buffers");
            std::thread::sleep(Duration::from_micros(100));
        }
        Rig {
            client,
            credit,
            child,
            sent: 0,
        }
    }

    fn consumed(&self) -> u64 {
        word(&self.credit, W_CONSUMED).load(Ordering::Acquire)
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        // The receiver stops once it has consumed every put sent; reap it,
        // and kill it if it does not exit.
        word(&self.credit, W_STOP_AT).store(self.sent + 1, Ordering::Release);
        let t0 = Instant::now();
        while t0.elapsed() < STALL {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Call boundaries of a traced op, recorded once it resolves.
struct Stamps {
    reserve_end: Option<Instant>,
    submit_start: Instant,
    submit_end: Instant,
    extent: bool,
}

struct InFlight {
    i: u64,
    fut: PutFuture,
    start: Instant,
    size: usize,
    stamps: Option<Stamps>,
    /// Held until the put resolves: the receiver reads from it until then.
    _extent: Option<BulkExtent>,
}

struct ShmMixed {
    rig: Rig,
    pattern: Pattern,
    seed: u64,
}

pub fn run(args: &Args) -> Outcome {
    if !rvma_core::shm_supported() {
        return Outcome {
            failed: 1,
            problems: vec!["shared-memory transport unsupported on this platform".into()],
            ..Outcome::default()
        };
    }
    let seed = workload_seed(args.seed, args.workload);
    let mut n = 0;
    let (setup_s, rig) = timed_setups(|| {
        n += 1;
        Rig::start(seed, n)
    });
    let mut w = ShmMixed {
        rig,
        pattern: Pattern::new(seed, PATTERN_BYTES),
        seed,
    };
    if let Err(failed) = warm_up(&mut w, 0.2) {
        return failed;
    }
    execute(args, setup_s, super::SETUPS as u64, &mut w)
}

impl Measure for ShmMixed {
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass {
        let ShmMixed { rig, pattern, seed } = self;
        let read = |rig: &Rig, w| word(&rig.credit, w).load(Ordering::Acquire);
        let (verified0, bad0) = (read(rig, W_VERIFIED), read(rig, W_BAD));
        let staged0 = rig.client.staged_bytes();
        let fallbacks0 = rig.client.bulk_stats().eager_fallbacks;
        let me = std::process::id();
        let child = rig.child.id();
        let cpu_server = || procfs::threads_cpu_ns(child, None);
        let server0 = cpu_server();
        let t0 = Instant::now();
        let mut slicer = Slicer::new(t0, seconds, || {
            procfs::threads_cpu_ns(me, Some(me)) + cpu_server()
        });
        let mut tracer = traced.then(|| Tracer::new(t0, 4));
        let mut p = Pass::default();
        let mut bytes = 0u64;
        let mut extent_misses = 0u64;
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
        let mut running = true;
        loop {
            if inflight.len() == IN_FLIGHT || (!running && !inflight.is_empty()) {
                let op = inflight.pop_front().expect("an op in flight");
                let wait_start = Instant::now();
                let delivery = pollster::block_on(op.fut);
                let ret = Instant::now();
                if delivery.nacked {
                    p.failed += 1;
                } else {
                    p.completed += 1;
                    bytes += op.size as u64;
                    slicer.ops(1, op.size as u64);
                }
                slicer.lat((ret - op.start).as_nanos() as u64);
                if let (Some(t), Some(s)) = (tracer.as_mut(), op.stamps) {
                    let root = Some(t.record("bench.op", op.start, ret, None, op.i));
                    if let Some(re) = s.reserve_end {
                        t.record("transport_shm.reserve_extent", op.start, re, root, op.i);
                        t.record("bench.fill_extent", re, s.submit_start, root, op.i);
                    }
                    let submit = if s.extent {
                        "transport_shm.put_from_extent"
                    } else {
                        "transport_shm.put_notify"
                    };
                    t.record(submit, s.submit_start, s.submit_end, root, op.i);
                    // In the transport while the sender waited on older puts.
                    t.record(
                        "transport_shm.in_flight",
                        s.submit_end,
                        wait_start,
                        root,
                        op.i,
                    );
                    t.record("transport_shm.future_wait", wait_start, ret, root, op.i);
                }
                running = running && slicer.tick(ret);
                continue;
            }
            if !running {
                break;
            }
            let i = rig.sent;
            // Credit: op i's buffer is posted once op i - CREDIT is consumed.
            let c0 = Instant::now();
            while i >= rig.consumed() + CREDIT {
                if c0.elapsed() > STALL {
                    p.problems.push("receiver stopped consuming".into());
                    break;
                }
                std::thread::yield_now();
            }
            if !p.problems.is_empty() {
                break;
            }
            let (size, lane, r) = op_params(*seed, i);
            let payload = pattern.slice(pattern.offset_for(r, size), size);
            let start = Instant::now();
            let mut extent = None;
            let mut reserve_end = None;
            if lane == Lane::Extent {
                extent = rig.client.reserve_extent(size);
                reserve_end = Some(Instant::now());
                match extent.as_mut() {
                    Some(e) => e.as_mut_slice().copy_from_slice(payload),
                    None => extent_misses += 1,
                }
            }
            let submit_start = Instant::now();
            let fut = match &extent {
                Some(e) => rig.client.put_from_extent(e, DEST, vaddr(i), 0),
                None => rig.client.put_notify_at(DEST, vaddr(i), 0, payload),
            };
            let submit_end = Instant::now();
            p.attempted += 1;
            rig.sent += 1;
            let fut = match fut {
                Ok(f) => f,
                Err(e) => {
                    p.failed += 1;
                    p.problems.push(format!("put failed: {e}"));
                    break;
                }
            };
            let stamps = tracer.as_ref().filter(|t| t.sampled(i)).map(|_| Stamps {
                reserve_end,
                submit_start,
                submit_end,
                extent: extent.is_some(),
            });
            inflight.push_back(InFlight {
                i,
                fut,
                start,
                size,
                stamps,
                _extent: extent,
            });
        }
        p.summary = slicer.summary();
        drop(inflight);
        if let Err(e) = rig.client.flush() {
            p.problems.push(format!("flush failed: {e}"));
        }
        let bulk = rig.client.bulk_stats();
        p.check(bulk.in_flight == 0, || {
            format!("{} bulk extents still in flight", bulk.in_flight)
        });
        p.check(bulk.reserved_bytes == bulk.released_bytes, || {
            format!(
                "bulk region reserved {} B but released {} B",
                bulk.reserved_bytes, bulk.released_bytes
            )
        });
        let nacks = rig.client.take_nacks();
        p.check(nacks.is_empty(), || format!("{} NACKs", nacks.len()));
        // Wait for the receiver to verify everything this pass sent.
        let w0 = Instant::now();
        while rig.consumed() < rig.sent && w0.elapsed() < STALL {
            std::thread::sleep(Duration::from_micros(200));
        }
        p.check(rig.consumed() == rig.sent, || {
            format!("receiver consumed {} of {} puts", rig.consumed(), rig.sent)
        });
        let bad = read(rig, W_BAD) - bad0;
        let seen = read(rig, W_VERIFIED) - verified0 + bad;
        let resolved = p.completed + p.failed;
        p.check(seen == resolved, || {
            format!("receiver saw {seen} puts, sender resolved {resolved}")
        });
        p.completed -= bad.min(p.completed);
        p.failed += bad;
        if let Some(t) = tracer {
            p.layers = span_layers(&t, p.completed);
            p.notes.push(super::residual_note(
                &t,
                "reserve + fill + submit + in flight + future wait",
            ));
            let n = p.completed;
            p.layers.extend([
                Metric::layer(
                    "transport_shm.eager_fallbacks",
                    (bulk.eager_fallbacks - fallbacks0 + extent_misses) as f64,
                    n,
                ),
                Metric::layer(
                    "transport_shm.staged_bytes_per_byte",
                    super::ratio((rig.client.staged_bytes() - staged0) as f64, bytes as f64),
                    n,
                ),
                Metric::layer(
                    "transport_shm.server_cpu_us_per_op",
                    (cpu_server() - server0) as f64 / 1e3 / n.max(1) as f64,
                    n,
                ),
                Metric::layer("endpoint.nacks", nacks.len() as f64, n),
            ]);
            crate::write_spans(&t, "shm_mixed");
        }
        p
    }

    fn peak_rss_bytes(&mut self) -> u64 {
        let own = procfs::peak_rss_bytes(std::process::id()).unwrap_or(0);
        own + procfs::peak_rss_bytes(self.rig.child.id()).unwrap_or(0)
    }
}

/// Layer metrics from the spans of the sampled ops.
fn span_layers(t: &Tracer, ops: u64) -> Vec<Metric> {
    let roots: Vec<u64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "bench.op")
        .map(|s| s.dur())
        .collect();
    let sampled = roots.len().max(1) as f64;
    let lat_total: u64 = roots.iter().sum();
    let by_name = self_time_by_name(t.spans());
    let own = |names: &[&str]| {
        names
            .iter()
            .map(|n| by_name.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / sampled
    };
    let residual = by_name.get("bench.op").copied().unwrap_or(0) as f64;
    let mut wait = t.durations("transport_shm.future_wait");
    vec![
        span_quantile(
            "transport_shm.put_notify_ns.p50",
            &mut t.durations("transport_shm.put_notify"),
            0.5,
        ),
        span_quantile("transport_shm.future_wait_ns.p50", &mut wait, 0.5),
        span_quantile("transport_shm.future_wait_ns.p99", &mut wait, 0.99),
        span_quantile(
            "transport_shm.reserve_extent_ns.p50",
            &mut t.durations("transport_shm.reserve_extent"),
            0.5,
        ),
        Metric::layer(
            "transport_shm.self_ns_per_op",
            own(&[
                "transport_shm.put_notify",
                "transport_shm.put_from_extent",
                "transport_shm.reserve_extent",
                "transport_shm.in_flight",
                "transport_shm.future_wait",
            ]),
            ops,
        ),
        Metric::layer("bench.residual_ns_per_op", residual / sampled, ops),
        Metric::layer(
            "bench.residual_share",
            super::ratio(residual, lat_total as f64),
            ops,
        ),
        Metric::layer("bench.spans", t.spans().len() as f64, ops),
    ]
}

/// Receiver process: owns the segment and the mailboxes, verifies every
/// completed buffer against the seeded payload, reposts, and publishes
/// its progress in the credit segment. Args: `<segment> <credit> <seed>`.
pub fn receiver_main(args: &[String]) -> ExitCode {
    let [seg, credit, seed] = args else {
        eprintln!("perfbench receiver: expected <segment> <credit> <seed>");
        return ExitCode::from(2);
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("perfbench receiver: bad seed {seed:?}");
        return ExitCode::from(2);
    };
    match receive(Path::new(seg), Path::new(credit), seed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench receiver: {e}");
            ExitCode::FAILURE
        }
    }
}

fn receive(seg: &Path, credit_path: &Path, seed: u64) -> Result<(), String> {
    let credit = ShmSegment::create(credit_path, CREDIT_BYTES).map_err(|e| e.to_string())?;
    let server = ShmServer::create(seg, DEFAULT_MTU, EndpointConfig::default())
        .map_err(|e| e.to_string())?;
    let ep = server.add_endpoint(DEST);
    let cq = CompletionQueue::new(4 * CREDIT as usize);
    let wins = (0..MAILBOXES)
        .map(|m| ep.init_window(vaddr(m), Threshold::ops(1)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let pattern = Pattern::new(seed, PATTERN_BYTES);
    let post = |i: u64| {
        let (size, _, _) = op_params(seed, i);
        wins[(i % MAILBOXES) as usize]
            .post_pooled_cq(size, &cq, i)
            .map_err(|e| format!("post for op {i}: {e}"))
    };
    for i in 0..CREDIT {
        post(i)?;
    }
    word(&credit, W_READY).store(1, Ordering::Release);
    let parent = std::os::unix::process::parent_id();
    // done[k]: op `consumed + k` has been consumed.
    let mut done: VecDeque<bool> = VecDeque::new();
    let (mut consumed, mut verified, mut bad) = (0u64, 0u64, 0u64);
    let mut out: Vec<CqCompletion> = Vec::with_capacity(64);
    loop {
        if cq.wait_batch(64, &mut out, Duration::from_millis(20)) == 0
            && std::os::unix::process::parent_id() != parent
        {
            return Err("sender process went away".into());
        }
        for c in out.drain(..) {
            let i = c.user;
            let (size, _, r) = op_params(seed, i);
            if c.buffer.data() == pattern.slice(pattern.offset_for(r, size), size) {
                verified += 1;
            } else {
                bad += 1;
            }
            drop(c);
            post(i + CREDIT)?;
            let k = (i - consumed) as usize;
            if done.len() <= k {
                done.resize(k + 1, false);
            }
            done[k] = true;
            while done.front() == Some(&true) {
                done.pop_front();
                consumed += 1;
            }
        }
        word(&credit, W_VERIFIED).store(verified, Ordering::Release);
        word(&credit, W_BAD).store(bad, Ordering::Release);
        word(&credit, W_CONSUMED).store(consumed, Ordering::Release);
        let stop_at = word(&credit, W_STOP_AT).load(Ordering::Acquire);
        if stop_at != 0 && consumed + 1 >= stop_at {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mix_matches_the_spec() {
        let n = 20_000;
        let ops: Vec<_> = (0..n).map(|i| op_params(42, i)).collect();
        let big = ops.iter().filter(|o| o.1 != Lane::Eager).count();
        let extent = ops.iter().filter(|o| o.1 == Lane::Extent).count();
        assert!((1_700..2_300).contains(&big), "{big} big ops");
        assert!((big * 4 / 10..big * 6 / 10).contains(&extent));
        for (size, lane, _) in ops {
            match lane {
                Lane::Eager => assert!((8..=4096).contains(&size)),
                _ => assert!((BIG_MIN..=BIG_MAX).contains(&size)),
            }
        }
        assert_eq!(op_params(42, 77), op_params(42, 77));
    }
}
