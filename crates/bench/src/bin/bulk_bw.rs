//! Large-message goodput: eager staging vs the zero-copy/rendezvous lane.
//!
//! Small puts ride the eager fragment path (stage into a pooled payload,
//! fragment at the MTU, deliver per-fragment) — per-byte cost is dominated
//! by the staging copy and per-fragment bookkeeping. Above
//! `EndpointConfig::eager_threshold` the datapath switches lanes:
//!
//! * in-process backends carry shared [`Bytes`] slices end to end — the
//!   initiator never copies the payload at all (copies/byte = 1: only the
//!   receiver's gather into the epoch buffer remains);
//! * the shared-memory backend's `put_at` reserves an extent in the
//!   segment's bulk region, writes the payload **once**, and sends an
//!   8-byte rendezvous descriptor through the request ring; the server
//!   gathers straight from the extent into the window buffer
//!   (copies/byte = 2, vs 3 for eager's slot-stage + slot-pop + gather);
//! * the shm **registered-extent** path (`ShmClient::reserve_extent` +
//!   `put_from_extent`) drops the staging copy too: the application
//!   writes into registered bulk memory and every put is a bare RTS
//!   descriptor (copies/byte = 1 — only the gather remains). The forced
//!   zero-copy lane below measures this path, reusing a ring of
//!   registered extents the way `ib_send_bw` resends a registered
//!   buffer.
//!
//! This bench sweeps message size across three **lane policies** on the
//! same fabric:
//!
//! * `frag`     — `eager_threshold = usize::MAX`: every put staged and
//!   fragmented (the pre-rendezvous datapath, the A/B baseline);
//! * `adaptive` — the default threshold (8 KiB): the shipping policy;
//! * `zerocopy` — `eager_threshold = 0`: every non-empty put takes the
//!   large-message lane.
//!
//! Goodput is bytes landed per second of wall clock, measured by a
//! byte-threshold epoch covering the whole run (the clock stops at the
//! completing write). The shm lane runs the initiator in a **separate OS
//! process** (this binary re-exec'd with `--bulk-child`); the child owns
//! the clock — first put to final flush-ack — so spawn + connect are
//! excluded and a one-quantum run can't slip between two parent-side
//! observations.
//!
//! `copies_pb` is copies per byte: initiator staging + wire staging +
//! receiver gather, divided by bytes accepted. For the in-process
//! backends both terms come from live counters
//! ([`Transport::staged_bytes`], `StatsSnapshot::bytes_copied`); for shm
//! the client-side stage lives in the child process, so it is counted
//! analytically (one segment write per payload byte on the staged
//! lanes, none on the registered lane) and added to the server's
//! observed slot-pop + gather counters.
//!
//! Run with `--quick` for a CI smoke: two sizes, fewer bytes, no CSV,
//! plus hard assertions that the threaded and shm zero-copy lanes are
//! exactly one copy per byte.

use rvma_bench::{print_table, write_csv};
use rvma_core::transport::DeliveryOrder;
use rvma_core::{
    shm_supported, AsyncNetwork, Bytes, EndpointConfig, LoopbackNetwork, NodeAddr, ShmClient,
    ShmServer, Threshold, Transport, VirtAddr,
};
use std::time::{Duration, Instant};

const SERVER: NodeAddr = NodeAddr::node(0);
const CLIENT: NodeAddr = NodeAddr::node(1);
const MAILBOX: VirtAddr = VirtAddr(0x10);
const MTU: usize = 4096;
/// Initiator-side pacing window (in-process lanes): bytes allowed in
/// flight ahead of the receiver's epoch-progress counter.
const WINDOW_BYTES: u64 = 8 << 20;
/// Bulk region sized so the rendezvous lane keeps a deep pipeline even
/// at the 4 MiB point of the sweep.
const BULK_BYTES: usize = 32 << 20;

#[derive(Clone, Copy, PartialEq)]
enum Lane {
    Frag,
    Adaptive,
    ZeroCopy,
}

impl Lane {
    const ALL: [Lane; 3] = [Lane::Frag, Lane::Adaptive, Lane::ZeroCopy];

    fn name(self) -> &'static str {
        match self {
            Lane::Frag => "frag",
            Lane::Adaptive => "adaptive",
            Lane::ZeroCopy => "zerocopy",
        }
    }

    fn threshold(self) -> usize {
        match self {
            Lane::Frag => usize::MAX,
            Lane::Adaptive => EndpointConfig::default().eager_threshold,
            Lane::ZeroCopy => 0,
        }
    }

    fn cfg(self) -> EndpointConfig {
        EndpointConfig {
            eager_threshold: self.threshold(),
            shm_bulk_bytes: BULK_BYTES,
            // The same endpoint config on every backend keeps the cells
            // comparable with earlier results; no lane here needs dedup.
            dedup_window: 1 << 15,
            ..Default::default()
        }
    }
}

struct Cell {
    goodput_mbps: f64,
    copies_pb: f64,
    staged: u64,
}

/// A zeroed window buffer with every page touched, so the receiver's
/// gather measures copies, not first-touch allocation faults (the same
/// one-time cost every lane would otherwise pay inside the clock).
fn prefaulted(len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    for page in buf.iter_mut().step_by(4096) {
        unsafe { std::ptr::write_volatile(page, 0) };
    }
    buf
}

/// One in-process cell: `puts` puts of `size` bytes into a single
/// byte-threshold epoch; goodput from put-issue to completing write.
fn run_inproc(backend: &str, lane: Lane, size: usize, puts: usize) -> Cell {
    let cfg = lane.cfg();
    let (_net_inline, _net_threaded, ep, t): (
        Option<std::sync::Arc<LoopbackNetwork>>,
        Option<AsyncNetwork>,
        _,
        Box<dyn Transport>,
    ) = match backend {
        "inline" => {
            let net = LoopbackNetwork::for_endpoint_config(MTU, DeliveryOrder::InOrder, &cfg);
            let ep = net.add_endpoint(SERVER);
            let t: Box<dyn Transport> = Box::new(net.initiator(CLIENT));
            (Some(net), None, ep, t)
        }
        "threaded" => {
            let net = AsyncNetwork::for_endpoint_config(
                MTU,
                DeliveryOrder::InOrder,
                Duration::ZERO,
                &cfg,
            );
            let ep = net.add_endpoint(SERVER);
            let t: Box<dyn Transport> = Box::new(net.initiator(CLIENT));
            (None, Some(net), ep, t)
        }
        other => panic!("unknown in-process backend {other}"),
    };
    let total = (puts * size) as u64;
    let win = ep
        .init_window(MAILBOX, Threshold::bytes(total))
        .expect("window");
    let progress = win.progress();
    let mut note = win.post_buffer(prefaulted(total as usize)).expect("post");
    let payload = Bytes::from(vec![0xB5u8; size]);

    let start = Instant::now();
    for k in 0..puts {
        let issued = (k * size) as u64;
        while issued.saturating_sub(progress.bytes()) > WINDOW_BYTES {
            std::thread::yield_now();
        }
        t.put_bytes_at(SERVER, MAILBOX, k * size, payload.clone())
            .expect("put");
    }
    t.flush().expect("flush");
    let buf = note.wait();
    let elapsed = start.elapsed();
    assert_eq!(buf.full_buffer().len(), total as usize, "short completion");
    assert!(t.take_nacks().is_empty(), "unexpected NACKs");

    let stats = ep.stats();
    let staged = t.staged_bytes();
    Cell {
        goodput_mbps: total as f64 / elapsed.as_secs_f64() / 1e6,
        copies_pb: (staged + stats.bytes_copied) as f64 / stats.bytes_accepted as f64,
        staged,
    }
}

/// One cross-process shm cell: initiator in a re-exec'd child, lane
/// policy published to it through the segment header. The *child* owns
/// the clock — first put to final flush-ack (every byte delivered
/// server-side) — and reports it on stdout; a parent-side clock keyed
/// on observing the first delivery can miss the whole cell on a small
/// host where the server thread drains the run in one quantum.
fn run_shm(lane: Lane, size: usize, puts: usize) -> Cell {
    let server = ShmServer::create_default(MTU, lane.cfg()).expect("segment");
    let ep = server.add_endpoint(SERVER);
    let total = (puts * size) as u64;
    let win = ep
        .init_window(MAILBOX, Threshold::bytes(total))
        .expect("window");
    let mut note = win.post_buffer(prefaulted(total as usize)).expect("post");

    let exe = std::env::current_exe().expect("bench binary path");
    let child = std::process::Command::new(exe)
        .arg("--bulk-child")
        .arg(server.path())
        .arg(puts.to_string())
        .arg(size.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn shm initiator process");
    let buf = note.wait();
    assert_eq!(buf.full_buffer().len(), total as usize, "short completion");
    let out = child.wait_with_output().expect("child exit");
    assert!(out.status.success(), "initiator process failed");
    let elapsed_ns: u64 = String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("elapsed_ns=").map(str::to_owned))
        .expect("child reports elapsed_ns")
        .parse()
        .expect("elapsed_ns value");
    let elapsed = Duration::from_nanos(elapsed_ns.max(1));

    let stats = ep.stats();
    // Client-side stage is analytic (the counter lives in the child):
    // one segment write per payload byte on the staged lanes; zero on
    // the registered-extent lane, whose one-time ring fill is setup —
    // symmetric with the payload-`Vec` creation the staged lanes don't
    // count either. wire_copied is the observed slot-pop copy (zero on
    // the rendezvous lane).
    let staged = if lane == Lane::ZeroCopy { 0 } else { total };
    let wire = server.wire_copied();
    Cell {
        goodput_mbps: total as f64 / elapsed.as_secs_f64() / 1e6,
        copies_pb: (staged + wire + stats.bytes_copied) as f64 / stats.bytes_accepted as f64,
        staged,
    }
}

/// Child role: pure initiator process. Lane policy (eager threshold,
/// bulk region) arrives via the segment header at connect. The forced
/// zero-copy lane (`eager_threshold == 0`) runs the registered-extent
/// path: a ring of extents filled once up front, each put a bare RTS
/// descriptor — the RDMA-style "send repeatedly from registered memory"
/// bandwidth discipline (cf. `ib_send_bw`). The other lanes go through
/// `put_at` (stage-and-fragment below the threshold, staged rendezvous
/// above it).
fn bulk_child(args: &[String]) {
    let path = std::path::PathBuf::from(&args[0]);
    let puts: usize = args[1].parse().expect("puts");
    let size: usize = args[2].parse().expect("size");
    let client = ShmClient::connect(&path, CLIENT).expect("connect to segment");
    let start;
    if client.eager_threshold() == 0 && size > 0 {
        // Registered ring deep enough to pipeline, shallow enough to
        // leave buddy-allocator slack (extents are pow2-rounded).
        let depth = (WINDOW_BYTES as usize / size.next_power_of_two()).clamp(1, 64);
        let ring: Vec<_> = (0..depth.min(puts))
            .map(|_| {
                let mut ext = client.reserve_extent(size).expect("bulk region exhausted");
                ext.as_mut_slice().fill(0xB5);
                ext
            })
            .collect();
        // Burst a ring's worth of descriptors, then flush: the barrier
        // both paces the pipeline and proves every extent in the ring is
        // gathered (ack'd) before its next reuse. Sleeping in the flush
        // instead of spinning on per-put futures matters on small hosts,
        // where a polling initiator steals cycles from the gather.
        start = Instant::now();
        let mut k = 0;
        while k < puts {
            let burst = ring.len().min(puts - k);
            for ext in ring.iter().take(burst) {
                // The flush barrier is the completion signal; the
                // per-put future is deliberately dropped.
                drop(
                    client
                        .put_from_extent(ext, SERVER, MAILBOX, k * size)
                        .expect("put"),
                );
                k += 1;
            }
            client.flush().expect("burst flush");
        }
    } else {
        let payload = vec![0xB5u8; size];
        start = Instant::now();
        for k in 0..puts {
            client
                .put_at(SERVER, MAILBOX, k * size, &payload)
                .expect("put");
        }
    }
    // The flush ack certifies every put reached its final disposition
    // server-side — the child-owned clock ends on delivered bytes, not
    // on locally-queued ones.
    client.flush().expect("final flush");
    println!("elapsed_ns={}", start.elapsed().as_nanos());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--bulk-child") {
        bulk_child(&args[pos + 1..]);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    // Single-cell filters (debug/profiling aid): --backend <name>,
    // --lane <frag|adaptive|zerocopy>, --size <bytes>.
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|p| args[p + 1].clone())
    };
    let only_backend = flag("--backend");
    let only_lane = flag("--lane");
    let only_size: Option<usize> = flag("--size").map(|s| s.parse().expect("size"));
    let (sizes, total_per_cell): (&[usize], usize) = if quick {
        (&[64 << 10, 256 << 10], 8 << 20)
    } else {
        (
            &[4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20],
            64 << 20,
        )
    };
    let backends: &[&str] = &["inline", "threaded", "shm"];

    println!(
        "large-message goodput: one initiator, single byte-threshold epoch per cell, \
         MTU {MTU}, bulk region {} MiB\n\
         lanes: frag = forced fragmentation (threshold MAX), adaptive = default \
         threshold ({} B), zerocopy = threshold 0 (registered extents over shm)\n",
        BULK_BYTES >> 20,
        EndpointConfig::default().eager_threshold,
    );

    let headers = [
        "backend",
        "size_B",
        "lane",
        "puts",
        "goodput_MBps",
        "copies_per_byte",
        "speedup_vs_frag",
    ];
    let mut rows = Vec::new();
    for &backend in backends {
        if backend == "shm" && !shm_supported() {
            eprintln!("bulk_bw: skipping shm backend (unsupported platform)");
            continue;
        }
        if only_backend.as_deref().is_some_and(|b| b != backend) {
            continue;
        }
        for &size in sizes {
            if only_size.is_some_and(|s| s != size) {
                continue;
            }
            let puts = (total_per_cell / size).max(4);
            let mut frag_base = None;
            for lane in Lane::ALL {
                if only_lane.as_deref().is_some_and(|l| l != lane.name()) {
                    continue;
                }
                let cell = if backend == "shm" {
                    run_shm(lane, size, puts)
                } else {
                    run_inproc(backend, lane, size, puts)
                };
                let base = *frag_base.get_or_insert(cell.goodput_mbps);
                if quick && backend == "threaded" && lane == Lane::ZeroCopy {
                    assert_eq!(
                        cell.staged, 0,
                        "threaded zero-copy lane staged bytes (must be none)"
                    );
                    assert_eq!(
                        cell.copies_pb, 1.0,
                        "threaded zero-copy lane must be exactly one copy per byte"
                    );
                }
                if quick && backend == "shm" && lane == Lane::ZeroCopy {
                    // wire_copied and the receiver gather are live
                    // counters: a reintroduced slot-stage or double
                    // gather fails here, not just in the numbers.
                    assert_eq!(
                        cell.copies_pb, 1.0,
                        "shm registered-extent lane must be exactly one copy per byte"
                    );
                }
                rows.push(vec![
                    backend.to_string(),
                    size.to_string(),
                    lane.name().to_string(),
                    puts.to_string(),
                    format!("{:.0}", cell.goodput_mbps),
                    format!("{:.2}", cell.copies_pb),
                    format!("{:.2}x", cell.goodput_mbps / base),
                ]);
            }
        }
    }
    print_table(&headers, &rows);
    println!(
        "\nGoodput = payload bytes landed / wall clock (byte-threshold completion).\n\
         copies_per_byte = (initiator staging + wire staging + receiver gather) / bytes \
         accepted;\n\
         the receiver gather is the one copy no lane can avoid. shm rows count the \
         client's\n\
         segment write analytically (the counter lives in the child process); the \
         registered\n\
         zerocopy lane stages nothing, its one-time ring fill being setup like any \
         lane's\n\
         payload allocation.\n\
         speedup_vs_frag = vs the forced-fragmentation lane at the same backend and size."
    );
    if !quick {
        match write_csv("bulk_bw", &headers, &rows) {
            Ok(p) => println!("csv: {p}"),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }
}
