//! Single-put round-trip latency through the threaded datapath.
//!
//! One client, one server mailbox, one wire worker, zero modeled wire
//! latency: each iteration pre-posts a pooled buffer, issues one `put_at`,
//! and stamps the time until `Notification::wait` returns — so the
//! measurement is the full submission → ring → delivery → completing
//! write → wake chain and nothing else. Every sample is kept; the
//! percentiles are computed from the full sorted vector, because the
//! datapath rework (bounded rings, adaptive spin/park workers, lock-free
//! completion handoff) targets exactly the tail that means and medians
//! hide.
//!
//! The `tuned` lane is the current datapath: bounded wire rings with a
//! spin → yield → park idle policy on the workers, and the lock-free
//! spin-then-park completion slot.
//!
//! A second lane, `async`, shares the tuned fabric but completes through
//! the Future/Waker path: the receiver pre-posts with
//! `post_pooled_async` and `block_on`s the returned future. Against
//! `tuned` it bounds the async machinery's single-op overhead — the waker
//! handoff replaces the notification slot's spin-then-park wait, so a
//! lone blocking op may pay one futex round-trip the spinning path
//! avoids; the async lane buys scalability (thousands of cheap parked
//! futures), not single-op latency.
//!
//! A third lane, `--shm`, leaves the process: the receiver is this
//! binary re-exec'd as a shared-memory [`ShmServer`] (`--shm-child`
//! role), and each sample times `put_notify_at` → `block_on` on the
//! [`ShmClient`]. Unlike the in-process lanes (timed to the completing
//! write), the shm sample is a full **round trip**: request ring →
//! cross-process delivery → `PutDone` response ring → future wake — the
//! honest unit of cost for a cross-process initiator, which cannot
//! observe the remote completing write directly.
//!
//! Flags: `--quick` (tiny CI smoke, no CSV), `--tuned` / `--async` (run
//! only that configuration), `--shm` (run only the cross-process lane).
//! Default runs both in-process lanes and writes
//! `results/put_latency.csv`. Any other argument exits with status 2.

use rvma_bench::{print_table, reject_unknown_flags, write_csv};
use rvma_core::transport::DeliveryOrder;
use rvma_core::{
    shm_supported, AsyncNetwork, EndpointConfig, NodeAddr, ShmClient, ShmServer, Threshold,
    VirtAddr, DEFAULT_MTU,
};
use std::time::{Duration, Instant};

/// 8 B – 4 KiB: below, at, and above the 2 KiB MTU (the last two sizes
/// cross from the inline single-fragment path into the batched path).
const SIZES: [usize; 5] = [8, 64, 512, 2048, 4096];

#[derive(Clone, Copy, PartialEq)]
enum Lane {
    Tuned,
    /// Tuned fabric, Future/Waker completion: `post_pooled_async` +
    /// `block_on` instead of `Notification::wait`.
    Async,
}

/// All measured round-trip samples (ns), in issue order.
fn run(size: usize, warmup: usize, iters: usize, lane: Lane) -> Vec<u64> {
    let net = AsyncNetwork::new(DEFAULT_MTU, DeliveryOrder::InOrder, Duration::ZERO);
    let server = net.add_endpoint(NodeAddr::node(0));
    let client = net.initiator(NodeAddr::node(1));
    let vaddr = VirtAddr::new(1);
    let win = server
        .init_window(vaddr, Threshold::bytes(size as u64))
        .expect("window");
    let payload = vec![0xA5u8; size];

    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        // Pre-post (receiver-side work, outside the timed region); the
        // pool recycles the previous epoch's allocation.
        let elapsed = if lane == Lane::Async {
            let fut = win.post_pooled_async(size).expect("post");
            let start = Instant::now();
            client
                .put_at(NodeAddr::node(0), vaddr, 0, &payload)
                .expect("put");
            let buf = pollster::block_on(fut);
            let elapsed = start.elapsed();
            debug_assert_eq!(buf.len(), size);
            elapsed
        } else {
            let mut note = win.post_pooled(size).expect("post");
            let start = Instant::now();
            client
                .put_at(NodeAddr::node(0), vaddr, 0, &payload)
                .expect("put");
            let buf = note.wait();
            let elapsed = start.elapsed();
            debug_assert_eq!(buf.len(), size);
            elapsed
        };
        if i >= warmup {
            samples.push(elapsed.as_nanos() as u64);
        }
    }
    samples
}

/// The `--shm` lane: round-trip samples (ns) against a receiver in a
/// separate OS process. The child owns the segment and the mailbox; the
/// parent connects, then times `put_notify_at` → `block_on` per
/// iteration — submission, request-ring crossing, remote delivery,
/// `PutDone` response, and the future wake, all in one number.
fn run_shm(size: usize, warmup: usize, iters: usize) -> Vec<u64> {
    let total = (warmup + iters) as u64;
    let path = rvma_core::shm::default_segment_path("lat");
    let exe = std::env::current_exe().expect("bench binary path");
    let mut child = std::process::Command::new(exe)
        .arg("--shm-child")
        .arg(&path)
        .arg(total.to_string())
        .arg(size.to_string())
        .spawn()
        .expect("spawn shm receiver process");
    // `connect` retries until the child publishes the segment (≤ 10 s).
    let client = ShmClient::connect(&path, NodeAddr::node(1)).expect("connect to segment");
    let dest = NodeAddr::node(0);
    let vaddr = VirtAddr::new(1);
    let payload = vec![0xA5u8; size];

    // The segment turns READY before the child's mailboxes exist; probe
    // the handshake mailbox (which the child posts *after* the measured
    // one) until a put lands, so the timed loop never sees a NACK.
    loop {
        let fut = client
            .put_notify_at(dest, VirtAddr::new(2), 0, &[1u8])
            .expect("probe");
        if !pollster::block_on(fut).nacked {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = client.take_nacks();

    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let start = Instant::now();
        let fut = client.put_notify_at(dest, vaddr, 0, &payload).expect("put");
        let delivery = pollster::block_on(fut);
        let elapsed = start.elapsed();
        assert!(!delivery.nacked, "put NACKed mid-measurement");
        if i >= warmup {
            samples.push(elapsed.as_nanos() as u64);
        }
    }
    // No trailing flush: every sample already round-tripped, and the
    // child tears the segment down as soon as its epoch completes.
    drop(client);
    assert!(
        child.wait().expect("child exit").success(),
        "receiver process failed"
    );
    samples
}

/// Child role of the `--shm` lane: pure receiver process. Owns the
/// segment, posts one op-threshold epoch spanning the whole run, and
/// exits when it completes. Args: `<path> <total_ops> <size>`.
fn shm_child(args: &[String]) {
    let path = std::path::PathBuf::from(&args[0]);
    let total: u64 = args[1].parse().expect("total ops");
    let size: usize = args[2].parse().expect("size");
    let server = ShmServer::create(&path, DEFAULT_MTU, EndpointConfig::default()).expect("segment");
    let ep = server.add_endpoint(NodeAddr::node(0));
    let win = ep
        .init_window(VirtAddr::new(1), Threshold::ops(total))
        .expect("window");
    let mut note = win.post_buffer(vec![0u8; size.max(1)]).expect("post");
    // Handshake mailbox, posted only once the measured window is live:
    // the parent probes it to know the receiver is ready.
    let ready = ep
        .init_window(VirtAddr::new(2), Threshold::ops(1))
        .expect("handshake window");
    let _ready_note = ready.post_buffer(vec![0u8; 8]).expect("handshake post");
    note.wait();
}

/// Nearest-rank percentile of an already-sorted sample vector.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

struct Summary {
    p50: u64,
    p90: u64,
    p99: u64,
    p999: u64,
    min: u64,
    mean: u64,
}

fn summarize(mut samples: Vec<u64>) -> Summary {
    samples.sort_unstable();
    let mean = samples.iter().sum::<u64>() / samples.len() as u64;
    Summary {
        p50: percentile(&samples, 0.50),
        p90: percentile(&samples, 0.90),
        p99: percentile(&samples, 0.99),
        p999: percentile(&samples, 0.999),
        min: samples[0],
        mean,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--shm-child") {
        shm_child(&args[pos + 1..]);
        return;
    }
    reject_unknown_flags(&args, &["--quick", "--tuned", "--async", "--shm"]);
    let quick = args.iter().any(|a| a == "--quick");
    let only_tuned = args.iter().any(|a| a == "--tuned");
    let only_async = args.iter().any(|a| a == "--async");
    let only_shm = args.iter().any(|a| a == "--shm");
    let (warmup, iters) = if quick { (50, 300) } else { (2_000, 20_000) };

    if only_shm {
        if !shm_supported() {
            println!(
                "put_latency --shm: shared-memory transport unsupported on this platform; skipping"
            );
            return;
        }
        println!(
            "cross-process put round-trip (--shm): {iters} samples/cell after {warmup} warmup, \
             MTU {DEFAULT_MTU}, receiver in a separate OS process\n"
        );
        let headers = [
            "config", "size_B", "iters", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "min_ns",
            "mean_ns",
        ];
        let mut rows = Vec::new();
        for &size in &SIZES {
            let s = summarize(run_shm(size, warmup, iters));
            rows.push(vec![
                "shm".to_string(),
                size.to_string(),
                iters.to_string(),
                s.p50.to_string(),
                s.p90.to_string(),
                s.p99.to_string(),
                s.p999.to_string(),
                s.min.to_string(),
                s.mean.to_string(),
            ]);
        }
        print_table(&headers, &rows);
        println!(
            "\nEach sample is a full round trip (request ring -> cross-process delivery -> \
             PutDone response -> future wake); not comparable 1:1 with the in-process lanes, \
             which stop the clock at the completing write."
        );
        if !quick {
            match write_csv("put_latency_shm", &headers, &rows) {
                Ok(p) => println!("csv: {p}"),
                Err(e) => eprintln!("csv write failed: {e}"),
            }
        }
        return;
    }

    let configs: &[(&str, Lane)] = match (only_tuned, only_async) {
        (true, false) => &[("tuned", Lane::Tuned)],
        (false, true) => &[("async", Lane::Async)],
        _ => &[("tuned", Lane::Tuned), ("async", Lane::Async)],
    };

    println!(
        "single-put round-trip latency: {iters} samples/cell after {warmup} warmup, \
         MTU {DEFAULT_MTU}, zero wire latency, 1 worker\n"
    );

    let headers = [
        "config", "size_B", "iters", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "min_ns", "mean_ns",
    ];
    let mut rows = Vec::new();
    // (size, tuned, async) — whichever lanes ran.
    type Cell = (usize, Option<Summary>, Option<Summary>);
    let mut per_size: Vec<Cell> = Vec::new();
    for &size in &SIZES {
        let mut cell: Cell = (size, None, None);
        for &(name, lane) in configs {
            let s = summarize(run(size, warmup, iters, lane));
            rows.push(vec![
                name.to_string(),
                size.to_string(),
                iters.to_string(),
                s.p50.to_string(),
                s.p90.to_string(),
                s.p99.to_string(),
                s.p999.to_string(),
                s.min.to_string(),
                s.mean.to_string(),
            ]);
            match lane {
                Lane::Tuned => cell.1 = Some(s),
                Lane::Async => cell.2 = Some(s),
            }
        }
        per_size.push(cell);
    }
    print_table(&headers, &rows);

    if per_size.iter().any(|(_, t, a)| t.is_some() && a.is_some()) {
        println!(
            "\nasync vs tuned (same fabric; async-path single-op overhead, <1 = async slower):"
        );
        for (size, tuned, async_) in &per_size {
            let (Some(t), Some(a)) = (tuned, async_) else {
                continue;
            };
            println!(
                "  {size:>5} B: p50 {:.2}x, p99 {:.2}x  (tuned/async)",
                t.p50 as f64 / a.p50 as f64,
                t.p99 as f64 / a.p99 as f64,
            );
        }
    }

    if !quick {
        match write_csv("put_latency", &headers, &rows) {
            Ok(p) => println!("\ncsv: {p}"),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }
}
