//! Cross-process transport: the RVMA wire protocol over shared memory.
//!
//! This is the first backend where initiator and target live in *different
//! OS processes*. A file-backed [`ShmSegment`]
//! carries two bounded rings of fixed-size slots — the Vyukov design of
//! [`crate::ring`] re-laid over raw shared memory, with futex doorbells
//! replacing the in-process Dekker unpark:
//!
//! * the **request ring** (MPSC: any number of initiator threads → the
//!   server's single wire worker) carries put fragments and flush markers;
//! * the **response ring** (SPSC: wire worker → the client's response
//!   pump) carries per-fragment delivery acks for notified puts, NACKs,
//!   and flush acks.
//!
//! Layering is the point: the server-side worker runs the *same*
//! receiver datapath as the in-process transports — [`RvmaEndpoint`]
//! delivery, dedup windows ([`crate::retry`]), seeded fault injection with
//! link-level retransmission, op-level telemetry — and the client resolves
//! the *same* [`PutFuture`] the threaded transport hands out, fed by acks
//! crossing the segment instead of an in-process countdown. Nothing above
//! the wire knows the peer is in another address space.
//!
//! ## Quiesce over shared memory
//!
//! [`ShmClient::flush`] pushes a tokened flush marker through the request
//! ring. The worker acks it only when no link-level retransmission is
//! parked in its deferred queue (`pending_retries == 0`); otherwise the
//! marker is re-deferred *behind* the parked fragments, so the ack proves
//! every fragment submitted before the flush — including fault re-enqueues
//! and anything parked in the shm ring/doorbell path — reached its final
//! disposition. This is the same drain-barrier contract as
//! `AsyncNetwork::quiesce`, kept honest by the bounded retry budget.
//!
//! ## Peer death
//!
//! Every blocking loop is bounded: futex waits time out and re-check, the
//! segment header carries both PIDs plus a `state` word the server flips
//! to `SERVER_GONE` on drop, and stuck producers probe `/proc/<pid>`.
//! A dead server fails client calls with [`RvmaError::TransportFailed`]
//! and resolves outstanding [`PutFuture`]s as NACKed; a dead client makes
//! the server drop undeliverable responses. The segment file is unlinked
//! by its creator; an already-mapped segment stays usable until the last
//! mapping drops (POSIX unlink semantics), so no state leaks even when a
//! peer dies mid-conversation. See DESIGN.md §12.

use crate::addr::{NodeAddr, VirtAddr};
use crate::endpoint::{
    fragment_count, mtu_ranges, EndpointConfig, Fragment, RvmaEndpoint, DEFAULT_WIRE_IDLE_SPINS,
    DEFAULT_WIRE_IDLE_YIELDS,
};
use crate::error::{NackReason, Result, RvmaError};
use crate::retry::{deliver_copies, FaultInjector, FaultStats, Link, Pass};
use crate::shm::{self, ShmSegment};
use crate::telemetry::{self, EventKind, Telemetry};
use crate::transport::Transport;
use crate::transport_threaded::{PutFuture, PutNotify};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Segment magic ("RVMASHM1") — a peer mapping the wrong file fails fast.
const SHM_MAGIC: u64 = 0x5256_4D41_5348_4D31;
/// Wire-layout version; bump on any slot/header change. v2 added the
/// bulk region (rendezvous lane) and the `bulk_bytes`/`eager_threshold`
/// header words.
const SHM_VERSION: u32 = 2;

/// The mmap zero-fill value — what a client sees before the server's
/// `STATE_READY` publish.
#[allow(dead_code)]
const STATE_INIT: u32 = 0;
const STATE_READY: u32 = 1;
const STATE_SERVER_GONE: u32 = 2;

// Request-ring message kinds.
const REQ_PUT: u32 = 1;
const REQ_FLUSH: u32 = 2;
/// Rendezvous RTS: the payload already sits in the segment's bulk region;
/// the slot carries only the extent offset (8 bytes). The server gathers
/// straight from the extent into the posted window buffer and the client
/// releases the extent when the `RSP_PUT_DONE` ack comes back.
const REQ_BULK: u32 = 3;

// Response-ring message kinds.
const RSP_PUT_DONE: u32 = 1;
const RSP_NACK: u32 = 2;
const RSP_FLUSH_ACK: u32 = 3;

/// Bounded doorbell sleep: a lost wakeup (or dying peer) costs at most
/// this much latency, never a hang.
const DOORBELL_WAIT: Duration = Duration::from_millis(20);

/// How long `connect` waits for the server to initialise the segment.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

fn round64(n: usize) -> usize {
    (n + 63) & !63
}

/// Largest power of two `<= n` (0 for 0) — the bulk region is sized down,
/// never up, so a config request never inflates the segment.
fn prev_pow2(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1usize << (usize::BITS - 1 - n.leading_zeros())
    }
}

fn pid_alive(pid: u32) -> bool {
    if !cfg!(target_os = "linux") {
        return true;
    }
    Path::new(&format!("/proc/{pid}")).exists()
}

fn encode_nack(r: NackReason) -> u32 {
    match r {
        NackReason::WindowClosed => 1,
        NackReason::NoSuchMailbox => 2,
        NackReason::NoBufferPosted => 3,
        NackReason::OutOfBounds => 4,
    }
}

fn decode_nack(v: u32) -> NackReason {
    match v {
        1 => NackReason::WindowClosed,
        3 => NackReason::NoBufferPosted,
        4 => NackReason::OutOfBounds,
        _ => NackReason::NoSuchMailbox,
    }
}

// ---------------------------------------------------------------------------
// Segment layout
// ---------------------------------------------------------------------------

/// Futex-backed eventcount doorbell living in the segment header. The
/// producer bumps `seq` (cheap RMW) after publishing and issues the wake
/// syscall only when a consumer advertised itself in `waiters`; the
/// consumer snapshots `seq` *before* its final emptiness re-check, so a
/// publish between check and sleep changes the word and the futex refuses
/// to block. All waits are additionally time-bounded (see
/// [`DOORBELL_WAIT`]).
#[repr(C)]
struct Doorbell {
    seq: AtomicU32,
    waiters: AtomicU32,
}

impl Doorbell {
    fn ring(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            shm::futex_wake(&self.seq, u32::MAX);
        }
    }

    /// Advertise intent to sleep; returns the observed sequence. The
    /// caller must re-check its work predicate between `prepare` and
    /// `wait`, and call `cancel` instead of `wait` if work appeared.
    fn prepare(&self) -> u32 {
        let seen = self.seq.load(Ordering::SeqCst);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        seen
    }

    fn cancel(&self) {
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    fn wait(&self, seen: u32, timeout: Duration) {
        shm::futex_wait(&self.seq, seen, timeout);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// First bytes of the segment: identification, handshake state, geometry,
/// liveness PIDs, and the two doorbells. Everything is atomics — the
/// header is the one region both processes write concurrently.
#[repr(C)]
struct SegHeader {
    magic: AtomicU64,
    mtu: AtomicU64,
    req_slots: AtomicU64,
    rsp_slots: AtomicU64,
    /// Bulk (rendezvous) region size in bytes; 0 disables the lane.
    bulk_bytes: AtomicU64,
    /// Puts longer than this take the rendezvous lane. The server
    /// publishes it so both processes agree on lane policy without any
    /// out-of-band configuration channel.
    eager_threshold: AtomicU64,
    version: AtomicU32,
    state: AtomicU32,
    server_pid: AtomicU32,
    client_pid: AtomicU32,
    req_bell: Doorbell,
    rsp_bell: Doorbell,
}

/// Space reserved for [`SegHeader`] at offset 0.
const HDR_SPACE: usize = 128;

/// Producer/consumer cursors of one ring, each on its own cache line.
#[repr(C, align(64))]
struct RingCtrl {
    tail: AtomicU64,
    _pad0: [u8; 56],
    head: AtomicU64,
    _pad1: [u8; 56],
}

const CTRL_SPACE: usize = 128;

/// Per-slot request header (fixed 64 bytes after the slot's sequence
/// word; the inline payload follows). `Bytes` handles cannot cross
/// address spaces, so the fragment is fully serialised: identification,
/// placement, and the payload bytes themselves.
#[repr(C)]
struct ReqHdr {
    kind: AtomicU32,
    len: AtomicU32,
    dest_nid: AtomicU32,
    dest_pid: AtomicU32,
    init_nid: AtomicU32,
    init_pid: AtomicU32,
    /// Nonzero for notified puts: the client-side key the delivery ack
    /// comes back under. Doubles as the flush token for `REQ_FLUSH`.
    token: AtomicU32,
    _rsv: AtomicU32,
    op_id: AtomicU64,
    vaddr: AtomicU64,
    total_len: AtomicU64,
    offset: AtomicU64,
}

const REQ_HDR_SIZE: usize = 64;

/// Per-slot response header (acks flowing server → client).
#[repr(C)]
struct RspHdr {
    kind: AtomicU32,
    token: AtomicU32,
    reason: AtomicU32,
    nacked: AtomicU32,
    vaddr: AtomicU64,
}

const RSP_HDR_SIZE: usize = 24;

/// Computed segment geometry; both sides derive it from the header's
/// `(mtu, req_slots, rsp_slots)` so they always agree on offsets.
#[derive(Clone, Copy)]
struct SegGeometry {
    mtu: usize,
    req_slots: usize,
    rsp_slots: usize,
    req_ctrl: usize,
    req_base: usize,
    req_stride: usize,
    rsp_ctrl: usize,
    rsp_base: usize,
    rsp_stride: usize,
    /// Start of the bulk (rendezvous) region; extents on the wire are
    /// offsets relative to this base.
    bulk_base: usize,
    /// Bulk region size (a power of two, or 0 when the lane is disabled).
    bulk_bytes: usize,
    total: usize,
}

impl SegGeometry {
    fn new(mtu: usize, req_slots: usize, rsp_slots: usize, bulk_bytes: usize) -> SegGeometry {
        let req_stride = round64(8 + REQ_HDR_SIZE + mtu);
        let rsp_stride = round64(8 + RSP_HDR_SIZE);
        let req_ctrl = HDR_SPACE;
        let req_base = req_ctrl + CTRL_SPACE;
        let rsp_ctrl = round64(req_base + req_slots * req_stride);
        let rsp_base = rsp_ctrl + CTRL_SPACE;
        let bulk_base = round64(rsp_base + rsp_slots * rsp_stride);
        let total = round64(bulk_base + bulk_bytes);
        SegGeometry {
            mtu,
            req_slots,
            rsp_slots,
            req_ctrl,
            req_base,
            req_stride,
            rsp_ctrl,
            rsp_base,
            rsp_stride,
            bulk_base,
            bulk_bytes,
            total,
        }
    }
}

fn header(seg: &ShmSegment) -> &SegHeader {
    // SAFETY: offset 0 is 64-aligned and HDR_SPACE covers the struct; the
    // mapping outlives every borrow (the segment Arc is held alongside).
    unsafe { seg.at::<SegHeader>(0) }
}

// ---------------------------------------------------------------------------
// The ring over raw shared memory
// ---------------------------------------------------------------------------

/// One Vyukov bounded ring laid out in the segment: a control block of
/// head/tail cursors plus `cap` fixed-stride slots, each starting with its
/// sequence word. Producers claim a slot by CAS on `tail`, fill it, and
/// publish with a release store of `seq = tail + 1`; the single consumer
/// reads at `seq == head + 1` and recycles with `seq = head + cap`. Same
/// protocol as [`crate::ring::RingQueue`], but every word lives at a
/// process-independent offset instead of behind a `Box`.
#[derive(Clone)]
struct RawRing {
    seg: Arc<ShmSegment>,
    ctrl: usize,
    base: usize,
    stride: usize,
    cap: usize,
}

impl RawRing {
    fn ctrl(&self) -> &RingCtrl {
        // SAFETY: ctrl offset is 64-aligned and in bounds by geometry.
        unsafe { self.seg.at::<RingCtrl>(self.ctrl) }
    }

    fn slot_off(&self, idx: usize) -> usize {
        self.base + idx * self.stride
    }

    fn slot_seq(&self, idx: usize) -> &AtomicU64 {
        // SAFETY: slot offsets are 64-aligned and in bounds by geometry.
        unsafe { self.seg.at::<AtomicU64>(self.slot_off(idx)) }
    }

    /// Creator-side slot initialisation (`seq[i] = i`) — must complete
    /// before the header flips to `STATE_READY`.
    fn init_slots(&self) {
        for i in 0..self.cap {
            self.slot_seq(i).store(i as u64, Ordering::Relaxed);
        }
    }

    /// Claim a slot for writing. Returns the slot index and the ticket to
    /// publish with, or `None` when the ring is full.
    fn begin_push(&self) -> Option<(usize, u64)> {
        let ctrl = self.ctrl();
        loop {
            let tail = ctrl.tail.load(Ordering::Relaxed);
            let idx = (tail % self.cap as u64) as usize;
            let seq = self.slot_seq(idx).load(Ordering::Acquire);
            if seq == tail {
                if ctrl
                    .tail
                    .compare_exchange_weak(tail, tail + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return Some((idx, tail));
                }
            } else if seq < tail {
                return None; // full
            }
            std::hint::spin_loop();
        }
    }

    fn publish(&self, idx: usize, ticket: u64) {
        self.slot_seq(idx).store(ticket + 1, Ordering::Release);
    }

    /// True when the next slot is ready for the consumer.
    fn can_pop(&self) -> bool {
        let head = self.ctrl().head.load(Ordering::Relaxed);
        let idx = (head % self.cap as u64) as usize;
        self.slot_seq(idx).load(Ordering::Acquire) == head + 1
    }

    /// Single-consumer: claim the next filled slot for reading. Returns
    /// the slot index; the caller must `release` it when done copying.
    fn begin_pop(&self) -> Option<usize> {
        let head = self.ctrl().head.load(Ordering::Relaxed);
        let idx = (head % self.cap as u64) as usize;
        if self.slot_seq(idx).load(Ordering::Acquire) == head + 1 {
            Some(idx)
        } else {
            None
        }
    }

    fn release_pop(&self, idx: usize) {
        let ctrl = self.ctrl();
        let head = ctrl.head.load(Ordering::Relaxed);
        self.slot_seq(idx)
            .store(head + self.cap as u64, Ordering::Release);
        ctrl.head.store(head + 1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Wire messages (deserialised owned forms)
// ---------------------------------------------------------------------------

enum ServerMsg {
    Frag {
        dest: NodeAddr,
        frag: Fragment,
        token: u32,
        /// Fault-layer attempts burned (0 = fresh off the wire). Only
        /// server-local retries raise it; it never crosses the segment.
        attempt: u32,
    },
    /// Rendezvous RTS: gather `total_len` bytes straight out of the bulk
    /// region at `ext_off` into the posted buffer — no slot copy, no
    /// `Bytes` allocation. The client keeps the extent reserved until the
    /// `RSP_PUT_DONE` ack, so a deferred (fault-injected) retry of this
    /// message reads bytes that are still valid.
    Bulk {
        dest: NodeAddr,
        initiator: NodeAddr,
        op_id: u64,
        vaddr: VirtAddr,
        total_len: u64,
        offset: usize,
        /// Extent offset relative to the bulk region base.
        ext_off: usize,
        token: u32,
        attempt: u32,
    },
    Flush(u32),
}

struct RspMsg {
    kind: u32,
    token: u32,
    reason: u32,
    nacked: u32,
    vaddr: u64,
}

fn req_hdr(seg: &ShmSegment, slot_off: usize) -> &ReqHdr {
    // SAFETY: slot base is 64-aligned, +8 keeps u64 alignment; in bounds.
    unsafe { seg.at::<ReqHdr>(slot_off + 8) }
}

fn rsp_hdr(seg: &ShmSegment, slot_off: usize) -> &RspHdr {
    // SAFETY: as above.
    unsafe { seg.at::<RspHdr>(slot_off + 8) }
}

// ---------------------------------------------------------------------------
// Server (receiver process)
// ---------------------------------------------------------------------------

struct ServerInner {
    seg: Arc<ShmSegment>,
    geo: SegGeometry,
    config: EndpointConfig,
    endpoints: RwLock<HashMap<NodeAddr, Arc<RvmaEndpoint>>>,
    /// The link layer the threaded workers run too (present when the fault
    /// model is non-trivial). Its pending retransmissions are parked in
    /// the worker's deferred queue; the flush protocol re-defers its ack
    /// behind them — the shm half of the quiesce drain barrier.
    link: Option<Link>,
    telemetry: Option<Arc<Telemetry>>,
    stop: AtomicBool,
    delivered: AtomicU64,
    /// Payload bytes the worker copied out of request slots into owned
    /// `Bytes` (the eager lane's wire copy). The rendezvous lane adds
    /// nothing here — the gather goes segment → posted buffer directly.
    wire_copied: AtomicU64,
}

impl ServerInner {
    fn req_ring(&self) -> RawRing {
        RawRing {
            seg: self.seg.clone(),
            ctrl: self.geo.req_ctrl,
            base: self.geo.req_base,
            stride: self.geo.req_stride,
            cap: self.geo.req_slots,
        }
    }

    fn rsp_ring(&self) -> RawRing {
        RawRing {
            seg: self.seg.clone(),
            ctrl: self.geo.rsp_ctrl,
            base: self.geo.rsp_base,
            stride: self.geo.rsp_stride,
            cap: self.geo.rsp_slots,
        }
    }
}

/// The receiving (server) half of the shared-memory transport: owns the
/// segment, hosts [`RvmaEndpoint`]s, and runs one wire-worker thread that
/// pops fragments off the request ring and drives the standard receiver
/// datapath — dedup, fault injection, telemetry, notification — exactly as
/// the in-process transports do.
pub struct ShmServer {
    inner: Arc<ServerInner>,
    worker: Option<JoinHandle<()>>,
}

impl ShmServer {
    /// Create the segment at `path` and start the wire worker. Ring
    /// capacities come from [`EndpointConfig::shm_req_slots`] /
    /// [`EndpointConfig::shm_rsp_slots`]; fault model, dedup window,
    /// retry budget, and telemetry all plumb through unchanged from the
    /// same config the in-process transports take.
    pub fn create(path: &Path, mtu: usize, config: EndpointConfig) -> Result<ShmServer> {
        assert!(mtu > 0, "MTU must be positive");
        let req_slots = config.shm_req_slots.next_power_of_two().max(2);
        let rsp_slots = config.shm_rsp_slots.next_power_of_two().max(2);
        // The bulk region must be a power of two for the buddy allocator;
        // anything below one minimum block disables the rendezvous lane.
        let mut bulk_bytes = prev_pow2(config.shm_bulk_bytes);
        if bulk_bytes < (1usize << BULK_MIN_ORDER) {
            bulk_bytes = 0;
        }
        let geo = SegGeometry::new(mtu, req_slots, rsp_slots, bulk_bytes);
        let seg = Arc::new(ShmSegment::create(path, geo.total)?);

        let telemetry = config.telemetry.then(|| Arc::new(Telemetry::new()));
        let link = Link::new(&config, &telemetry);
        let inner = Arc::new(ServerInner {
            seg: seg.clone(),
            geo,
            config,
            endpoints: RwLock::new(HashMap::new()),
            link,
            telemetry,
            stop: AtomicBool::new(false),
            delivered: AtomicU64::new(0),
            wire_copied: AtomicU64::new(0),
        });

        inner.req_ring().init_slots();
        inner.rsp_ring().init_slots();
        let hdr = header(&seg);
        hdr.mtu.store(mtu as u64, Ordering::Relaxed);
        hdr.req_slots.store(req_slots as u64, Ordering::Relaxed);
        hdr.rsp_slots.store(rsp_slots as u64, Ordering::Relaxed);
        hdr.bulk_bytes.store(bulk_bytes as u64, Ordering::Relaxed);
        hdr.eager_threshold
            .store(inner.config.eager_threshold as u64, Ordering::Relaxed);
        hdr.version.store(SHM_VERSION, Ordering::Relaxed);
        hdr.server_pid.store(std::process::id(), Ordering::Relaxed);
        hdr.magic.store(SHM_MAGIC, Ordering::Relaxed);
        // Publish: a connecting client acquires everything above through
        // this store.
        hdr.state.store(STATE_READY, Ordering::Release);

        let worker = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("rvma-shm-wire".into())
                .spawn(move || shm_worker(inner))
                .expect("spawn shm wire worker")
        };
        Ok(ShmServer {
            inner,
            worker: Some(worker),
        })
    }

    /// Create with defaults at a fresh unique path (see
    /// [`crate::shm::default_segment_path`]).
    pub fn create_default(mtu: usize, config: EndpointConfig) -> Result<ShmServer> {
        ShmServer::create(&shm::default_segment_path("srv"), mtu, config)
    }

    /// The segment path a peer passes to [`ShmClient::connect`].
    pub fn path(&self) -> &Path {
        self.inner.seg.path()
    }

    /// The wire MTU.
    pub fn mtu(&self) -> usize {
        self.inner.geo.mtu
    }

    /// Create and host an endpoint at `addr` (the shm analogue of
    /// `AsyncNetwork::add_endpoint`).
    pub fn add_endpoint(&self, addr: NodeAddr) -> Arc<RvmaEndpoint> {
        let ep = RvmaEndpoint::with_config(addr, self.inner.config.clone());
        if let Some(t) = &self.inner.telemetry {
            ep.attach_telemetry(t.clone());
        }
        self.inner.endpoints.write().insert(addr, ep.clone());
        ep
    }

    /// Attach an existing endpoint.
    pub fn register(&self, endpoint: Arc<RvmaEndpoint>) {
        if let Some(t) = &self.inner.telemetry {
            endpoint.attach_telemetry(t.clone());
        }
        self.inner
            .endpoints
            .write()
            .insert(endpoint.addr(), endpoint);
    }

    /// Detach the endpoint at `addr`; queued fragments NACK with
    /// `NoSuchMailbox` when the worker reaches them — the crash-fault
    /// behaviour, triggerable explicitly.
    pub fn remove_endpoint(&self, addr: NodeAddr) -> bool {
        self.inner.endpoints.write().remove(&addr).is_some()
    }

    /// The server-side telemetry recorder, when enabled.
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.inner.telemetry.clone()
    }

    /// Network-wide fault counters, when fault injection is active.
    pub fn fault_stats(&self) -> Option<Arc<FaultStats>> {
        self.inner.link.as_ref().map(|link| link.stats().clone())
    }

    /// Link-level retransmissions currently parked in the worker's
    /// deferred queue (nonzero ⇒ a flush ack is being held back).
    pub fn pending_retries(&self) -> u64 {
        self.inner.link.as_ref().map_or(0, Link::pending_retries)
    }

    /// Fragments delivered to endpoints so far.
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }

    /// Payload bytes copied slot → owned `Bytes` by the wire worker (the
    /// eager lane's extra copy; rendezvous gathers add nothing here).
    pub fn wire_copied(&self) -> u64 {
        self.inner.wire_copied.load(Ordering::Relaxed)
    }

    /// Stop the worker after a final fault-free drain of the request ring
    /// and the deferred queue (the graceful analogue of `WireMsg::Stop`).
    /// Further client traffic fails with the server-gone state.
    pub fn stop(&mut self) {
        header(&self.inner.seg)
            .state
            .store(STATE_SERVER_GONE, Ordering::SeqCst);
        self.inner.stop.store(true, Ordering::SeqCst);
        header(&self.inner.seg).req_bell.ring();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ShmServer {
    fn drop(&mut self) {
        self.stop();
        // Segment unlinks when the Arc drops (we are the creator).
    }
}

/// The server's wire worker: single consumer of the request ring, single
/// producer of the response ring. Ring traffic takes priority; deferred
/// retransmissions (and re-deferred flush markers) run when the ring is
/// momentarily dry, so a retried fragment lands behind the queued traffic
/// exactly as it does on the threaded transport.
fn shm_worker(inner: Arc<ServerInner>) {
    let req = inner.req_ring();
    let rsp = inner.rsp_ring();
    let hdr = header(&inner.seg);
    // The one worker rolls worker 0's dice: the base seed.
    let mut dice = inner.link.as_ref().map(|link| (link, link.injector(0)));
    let mut deferred: VecDeque<ServerMsg> = VecDeque::new();
    loop {
        if let Some(msg) = pop_req(&inner, &req) {
            process_msg(&inner, &rsp, &mut dice, &mut deferred, msg, false);
            continue;
        }
        if let Some(msg) = deferred.pop_front() {
            process_msg(&inner, &rsp, &mut dice, &mut deferred, msg, false);
            continue;
        }
        if inner.stop.load(Ordering::Acquire) {
            break;
        }
        // Spin-then-yield-then-park (the threaded backend's §5 idle
        // ladder). The yield rung matters most on starved boxes: while
        // the worker is merely descheduled — not parked — a producer's
        // push skips both the futex wake syscall and the wake-preemption,
        // so a momentarily-dry ring refills into a batch instead of
        // degenerating into one park/wake round trip per message (the
        // rendezvous lane pushes one descriptor per *message*, so it has
        // no ring backlog to absorb that churn, unlike the eager lane).
        if idle_wait(
            &req,
            &inner.stop,
            DEFAULT_WIRE_IDLE_SPINS,
            DEFAULT_WIRE_IDLE_YIELDS,
        ) {
            continue;
        }
        let seen = hdr.req_bell.prepare();
        if req.can_pop() || inner.stop.load(Ordering::Acquire) {
            hdr.req_bell.cancel();
            continue;
        }
        hdr.req_bell.wait(seen, DOORBELL_WAIT);
    }
    // Final drain, fault-free: retransmissions parked behind the stop and
    // fragments that raced the shutdown must not strand their futures.
    while let Some(msg) = pop_req(&inner, &req).or_else(|| deferred.pop_front()) {
        process_msg(&inner, &rsp, &mut dice, &mut deferred, msg, true);
    }
}

/// One pass of the pre-park idle ladder: spin `spins` times, then yield
/// `yields` times, re-checking the ring (and the stop flag) at each rung.
/// Returns true if work (or stop) appeared — the caller should re-loop
/// instead of parking.
fn idle_wait(ring: &RawRing, stop: &AtomicBool, spins: u32, yields: u32) -> bool {
    for _ in 0..spins {
        if ring.can_pop() || stop.load(Ordering::Relaxed) {
            return true;
        }
        std::hint::spin_loop();
    }
    for _ in 0..yields {
        std::thread::yield_now();
        if ring.can_pop() || stop.load(Ordering::Relaxed) {
            return true;
        }
    }
    false
}

/// Deserialise the next request-ring slot into an owned message.
fn pop_req(inner: &ServerInner, req: &RawRing) -> Option<ServerMsg> {
    let idx = req.begin_pop()?;
    let off = req.slot_off(idx);
    let h = req_hdr(&inner.seg, off);
    let kind = h.kind.load(Ordering::Relaxed);
    let msg = if kind == REQ_FLUSH {
        ServerMsg::Flush(h.token.load(Ordering::Relaxed))
    } else if kind == REQ_BULK {
        // SAFETY: the producer wrote the 8-byte extent offset into the
        // slot's payload region before the release-publish we acquired.
        let ext_off = unsafe {
            let p = inner.seg.as_ptr().add(off + 8 + REQ_HDR_SIZE);
            std::ptr::read_unaligned(p as *const u64)
        } as usize;
        ServerMsg::Bulk {
            dest: NodeAddr::new(
                h.dest_nid.load(Ordering::Relaxed),
                h.dest_pid.load(Ordering::Relaxed),
            ),
            initiator: NodeAddr::new(
                h.init_nid.load(Ordering::Relaxed),
                h.init_pid.load(Ordering::Relaxed),
            ),
            op_id: h.op_id.load(Ordering::Relaxed),
            vaddr: VirtAddr::new(h.vaddr.load(Ordering::Relaxed)),
            total_len: h.total_len.load(Ordering::Relaxed),
            offset: h.offset.load(Ordering::Relaxed) as usize,
            ext_off,
            token: h.token.load(Ordering::Relaxed),
            attempt: 0,
        }
    } else {
        let len = h.len.load(Ordering::Relaxed) as usize;
        let len = len.min(inner.geo.mtu);
        // SAFETY: payload region of a published slot; the producer wrote
        // `len <= mtu` bytes there before the release-publish we acquired.
        let data = unsafe {
            let p = inner.seg.as_ptr().add(off + 8 + REQ_HDR_SIZE);
            std::slice::from_raw_parts(p, len)
        };
        inner.wire_copied.fetch_add(len as u64, Ordering::Relaxed);
        ServerMsg::Frag {
            dest: NodeAddr::new(
                h.dest_nid.load(Ordering::Relaxed),
                h.dest_pid.load(Ordering::Relaxed),
            ),
            frag: Fragment {
                initiator: NodeAddr::new(
                    h.init_nid.load(Ordering::Relaxed),
                    h.init_pid.load(Ordering::Relaxed),
                ),
                op_id: h.op_id.load(Ordering::Relaxed),
                dst_vaddr: VirtAddr::new(h.vaddr.load(Ordering::Relaxed)),
                op_total_len: h.total_len.load(Ordering::Relaxed),
                offset: h.offset.load(Ordering::Relaxed) as usize,
                data: Bytes::copy_from_slice(data),
            },
            token: h.token.load(Ordering::Relaxed),
            attempt: 0,
        }
    };
    req.release_pop(idx);
    Some(msg)
}

fn process_msg(
    inner: &ServerInner,
    rsp: &RawRing,
    dice: &mut Option<(&Link, FaultInjector)>,
    deferred: &mut VecDeque<ServerMsg>,
    msg: ServerMsg,
    drain: bool,
) {
    // Same link layer and dice order as the threaded worker; the final
    // drain delivers fault-free.
    let dice = dice.as_mut().filter(|_| !drain);
    let crash = |dest: NodeAddr| {
        inner.endpoints.write().remove(&dest);
    };
    match msg {
        ServerMsg::Flush(token) => {
            if !drain && inner.link.as_ref().is_some_and(|l| l.pending_retries() > 0) {
                // Fragments are parked in the deferred queue: the drain
                // barrier is not satisfied. Re-defer the marker *behind*
                // them, so the ack accounts for parked retransmissions the
                // same way the threaded barrier does.
                deferred.push_back(ServerMsg::Flush(token));
                return;
            }
            push_rsp(
                inner,
                rsp,
                &RspMsg {
                    kind: RSP_FLUSH_ACK,
                    token,
                    reason: 0,
                    nacked: 0,
                    vaddr: 0,
                },
            );
        }
        ServerMsg::Frag {
            dest,
            frag,
            token,
            attempt,
        } => {
            let mut copies = 1;
            if let Some((link, inj)) = dice {
                let op = (frag.initiator, frag.op_id);
                match link.pass(inj, frag.data.len(), attempt, op, || crash(dest)) {
                    Pass::Retry => {
                        deferred.push_back(ServerMsg::Frag {
                            dest,
                            frag,
                            token,
                            attempt: attempt + 1,
                        });
                        link.retired(attempt);
                        return;
                    }
                    Pass::Deliver { copies: c } => copies = c,
                }
            }
            telemetry::record(
                &inner.telemetry,
                EventKind::WireDeliver,
                telemetry::initiator_key(frag.initiator.nid, frag.initiator.pid),
                frag.op_id,
                frag.offset as u64,
            );
            let vaddr = frag.dst_vaddr.0;
            let ep = inner.endpoints.read().get(&dest).cloned();
            let nacked = deliver_copies(
                ep.as_deref(),
                copies,
                |ep| ep.deliver(&frag),
                |r| push_nack(inner, rsp, r, vaddr),
            );
            inner.delivered.fetch_add(1, Ordering::Relaxed);
            if token != 0 {
                push_rsp(
                    inner,
                    rsp,
                    &RspMsg {
                        kind: RSP_PUT_DONE,
                        token,
                        reason: 0,
                        nacked: nacked as u32,
                        vaddr,
                    },
                );
            }
            if let Some(link) = &inner.link {
                link.retired(attempt);
            }
        }
        ServerMsg::Bulk {
            dest,
            initiator,
            op_id,
            vaddr,
            total_len,
            offset,
            ext_off,
            token,
            attempt,
        } => {
            let len = total_len as usize;
            let mut copies = 1;
            if let Some((link, inj)) = dice {
                // The RTS descriptor rolls the same dice as a put
                // fragment. A deferred copy stays valid because the
                // client holds the extent reserved until our ack; a
                // duplicated copy delivers twice and the dedup window
                // suppresses the second — exactly one ack either way.
                match link.pass(inj, len, attempt, (initiator, op_id), || crash(dest)) {
                    Pass::Retry => {
                        deferred.push_back(ServerMsg::Bulk {
                            dest,
                            initiator,
                            op_id,
                            vaddr,
                            total_len,
                            offset,
                            ext_off,
                            token,
                            attempt: attempt + 1,
                        });
                        link.retired(attempt);
                        return;
                    }
                    Pass::Deliver { copies: c } => copies = c,
                }
            }
            let src_key = telemetry::initiator_key(initiator.nid, initiator.pid);
            telemetry::record(
                &inner.telemetry,
                EventKind::WireDeliver,
                src_key,
                op_id,
                offset as u64,
            );
            // The extent must sit wholly inside the bulk region before the
            // worker dereferences it — a corrupt or hostile descriptor
            // NACKs instead of faulting the server process.
            let in_bounds = inner.geo.bulk_bytes > 0
                && ext_off
                    .checked_add(len)
                    .is_some_and(|end| end <= inner.geo.bulk_bytes);
            let nacked = if in_bounds {
                let ep = inner.endpoints.read().get(&dest).cloned();
                if ep.is_some() {
                    telemetry::record(
                        &inner.telemetry,
                        EventKind::BulkDeliver,
                        src_key,
                        op_id,
                        total_len,
                    );
                }
                // SAFETY: bounds validated against the bulk region above;
                // the client keeps the extent reserved (and unwritten)
                // until it sees our ack.
                let data = unsafe {
                    let p = inner.seg.as_ptr().add(inner.geo.bulk_base + ext_off);
                    std::slice::from_raw_parts(p, len)
                };
                deliver_copies(
                    ep.as_deref(),
                    copies,
                    |ep| ep.deliver_slice(initiator, op_id, vaddr, total_len, offset, data),
                    |r| push_nack(inner, rsp, r, vaddr.0),
                )
            } else {
                push_nack(inner, rsp, NackReason::OutOfBounds, vaddr.0);
                true
            };
            inner.delivered.fetch_add(1, Ordering::Relaxed);
            // Rendezvous tokens are always nonzero: the ack doubles as the
            // extent-release message, so it must flow even for
            // fire-and-forget puts.
            push_rsp(
                inner,
                rsp,
                &RspMsg {
                    kind: RSP_PUT_DONE,
                    token,
                    reason: 0,
                    nacked: nacked as u32,
                    vaddr: vaddr.0,
                },
            );
            if let Some(link) = &inner.link {
                link.retired(attempt);
            }
        }
    }
}

/// Publish an asynchronous NACK of the mailbox at `vaddr`.
fn push_nack(inner: &ServerInner, rsp: &RawRing, reason: NackReason, vaddr: u64) {
    push_rsp(
        inner,
        rsp,
        &RspMsg {
            kind: RSP_NACK,
            token: 0,
            reason: encode_nack(reason),
            nacked: 1,
            vaddr,
        },
    );
}

/// Blocking response push: acks must not drop while the client lives. A
/// full ring kicks the pump's doorbell and backs off; if the client
/// process is gone the response is dropped (nobody is left to read it).
fn push_rsp(inner: &ServerInner, rsp: &RawRing, msg: &RspMsg) {
    let hdr = header(&inner.seg);
    let mut tries = 0u32;
    loop {
        if let Some((idx, ticket)) = rsp.begin_push() {
            let off = rsp.slot_off(idx);
            let h = rsp_hdr(&inner.seg, off);
            h.kind.store(msg.kind, Ordering::Relaxed);
            h.token.store(msg.token, Ordering::Relaxed);
            h.reason.store(msg.reason, Ordering::Relaxed);
            h.nacked.store(msg.nacked, Ordering::Relaxed);
            h.vaddr.store(msg.vaddr, Ordering::Relaxed);
            rsp.publish(idx, ticket);
            hdr.rsp_bell.ring();
            return;
        }
        hdr.rsp_bell.ring();
        tries += 1;
        if tries.is_multiple_of(1024) {
            let cpid = hdr.client_pid.load(Ordering::SeqCst);
            if cpid != 0 && !pid_alive(cpid) {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

// ---------------------------------------------------------------------------
// Client (initiator process)
// ---------------------------------------------------------------------------

/// Smallest buddy block: 2^6 = 64 bytes (one cache line).
const BULK_MIN_ORDER: u32 = 6;

/// Buddy allocator over the segment's bulk region. The metadata lives
/// **client-side only**: the client is the sole mutator (reserve on
/// submit, release on ack), so no cross-process synchronisation is needed
/// and a crashing client can never wedge allocator state the server
/// depends on — the server only ever *reads* extents it was handed.
/// Offsets are relative to the bulk region base.
struct BulkAllocator {
    /// Free block offsets per order; index 0 holds order
    /// [`BULK_MIN_ORDER`]. Lists stay short (≤ region/min-block blocks,
    /// in practice a handful), so linear buddy lookup is fine.
    free: Vec<Vec<usize>>,
    max_order: u32,
    enabled: bool,
}

impl BulkAllocator {
    fn new(bulk_bytes: usize) -> BulkAllocator {
        if bulk_bytes < (1usize << BULK_MIN_ORDER) {
            return BulkAllocator {
                free: Vec::new(),
                max_order: 0,
                enabled: false,
            };
        }
        debug_assert!(bulk_bytes.is_power_of_two());
        let max_order = bulk_bytes.trailing_zeros();
        let mut free = vec![Vec::new(); (max_order - BULK_MIN_ORDER + 1) as usize];
        free.last_mut().expect("at least one order").push(0);
        BulkAllocator {
            free,
            max_order,
            enabled: true,
        }
    }

    /// Reserve a power-of-two extent covering `len` bytes. Returns the
    /// bulk-relative offset and block order, or `None` when the region is
    /// exhausted (or the lane disabled) — the caller falls back to eager.
    fn reserve(&mut self, len: usize) -> Option<(usize, u32)> {
        if !self.enabled || len == 0 {
            return None;
        }
        let order = len.next_power_of_two().trailing_zeros().max(BULK_MIN_ORDER);
        if order > self.max_order {
            return None;
        }
        // Smallest order >= `order` with a free block, split down.
        let mut have = order;
        while self.free[(have - BULK_MIN_ORDER) as usize].is_empty() {
            if have == self.max_order {
                return None;
            }
            have += 1;
        }
        let off = self.free[(have - BULK_MIN_ORDER) as usize]
            .pop()
            .expect("non-empty free list");
        while have > order {
            have -= 1;
            let buddy = off + (1usize << have);
            self.free[(have - BULK_MIN_ORDER) as usize].push(buddy);
        }
        Some((off, order))
    }

    /// Return an extent, merging with its buddy while possible.
    fn release(&mut self, mut off: usize, mut order: u32) {
        while order < self.max_order {
            let buddy = off ^ (1usize << order);
            let list = &mut self.free[(order - BULK_MIN_ORDER) as usize];
            match list.iter().position(|&b| b == buddy) {
                Some(i) => {
                    list.swap_remove(i);
                    off &= !(1usize << order);
                    order += 1;
                }
                None => break,
            }
        }
        self.free[(order - BULK_MIN_ORDER) as usize].push(off);
    }
}

/// A client-owned registered extent in the segment's bulk region (see
/// [`ShmClient::reserve_extent`]). Holds its reservation until dropped;
/// disjoint from every other live extent by buddy-allocator construction.
pub struct BulkExtent {
    inner: Arc<ClientInner>,
    /// Bulk-relative offset (what the RTS descriptor carries).
    off: usize,
    order: u32,
    /// Usable length as requested (the block itself is `1 << order`).
    len: usize,
}

impl BulkExtent {
    /// Usable capacity in bytes (the length passed to `reserve_extent`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length reservation (never constructed: the
    /// allocator rejects `len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The extent's payload region. Write the message here, then
    /// [`ShmClient::put_from_extent`]. Must not be written while a put
    /// from this extent is unresolved (the server reads the region
    /// until its ack).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: the allocator hands out disjoint blocks, `&mut self`
        // is the only client-side borrow, and the documented contract
        // keeps the server out of the region while it is borrowed.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.inner
                    .seg
                    .as_ptr()
                    .add(self.inner.geo.bulk_base + self.off),
                self.len,
            )
        }
    }
}

impl Drop for BulkExtent {
    fn drop(&mut self) {
        self.inner.release_extent(self.off, self.order, self.len);
    }
}

/// Bulk-region accounting of one [`ShmClient`] — the quiesce balance
/// check (`reserved_bytes == released_bytes`, `in_flight == 0` after a
/// [`flush`](ShmClient::flush)) proves no extent leaks, including under
/// fault injection and retransmitted RTS descriptors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkStats {
    /// Payload bytes reserved into bulk extents so far.
    pub reserved_bytes: u64,
    /// Payload bytes whose extents have been released (acked).
    pub released_bytes: u64,
    /// Extents currently reserved and awaiting their ack.
    pub in_flight: u64,
    /// Large puts that fell back to the eager lane because the bulk
    /// region was exhausted (or disabled).
    pub eager_fallbacks: u64,
}

struct PendingPut {
    notify: Arc<PutNotify>,
    remaining: u64,
    /// Rendezvous puts own a bulk extent `(offset, order, len)` released
    /// exactly once — when the ack removes this entry (or on peer death).
    /// A duplicate ack finds no entry and is ignored: no double-free.
    extent: Option<(usize, u32, usize)>,
}

struct FlushState {
    acked: HashSet<u32>,
    dead: bool,
}

struct ClientInner {
    seg: Arc<ShmSegment>,
    geo: SegGeometry,
    src: NodeAddr,
    /// Lane policy published by the server in the segment header.
    eager_threshold: usize,
    next_op: AtomicU64,
    next_token: AtomicU32,
    next_flush: AtomicU32,
    tokens: Mutex<HashMap<u32, PendingPut>>,
    nacks: Mutex<Vec<(VirtAddr, NackReason)>>,
    flush_state: Mutex<FlushState>,
    flush_cv: Condvar,
    stop: AtomicBool,
    telemetry: Option<Arc<Telemetry>>,
    /// Bulk-region buddy allocator (see [`BulkAllocator`]).
    bulk: Mutex<BulkAllocator>,
    bulk_reserved: AtomicU64,
    bulk_released: AtomicU64,
    bulk_in_flight: AtomicU64,
    bulk_fallbacks: AtomicU64,
    /// Payload bytes copied into the segment (request slots on the eager
    /// lane, bulk extents on the rendezvous lane).
    staged: AtomicU64,
}

impl ClientInner {
    fn req_ring(&self) -> RawRing {
        RawRing {
            seg: self.seg.clone(),
            ctrl: self.geo.req_ctrl,
            base: self.geo.req_base,
            stride: self.geo.req_stride,
            cap: self.geo.req_slots,
        }
    }

    fn rsp_ring(&self) -> RawRing {
        RawRing {
            seg: self.seg.clone(),
            ctrl: self.geo.rsp_ctrl,
            base: self.geo.rsp_base,
            stride: self.geo.rsp_stride,
            cap: self.geo.rsp_slots,
        }
    }

    fn server_dead(&self) -> bool {
        let hdr = header(&self.seg);
        if hdr.state.load(Ordering::SeqCst) == STATE_SERVER_GONE {
            return true;
        }
        let spid = hdr.server_pid.load(Ordering::SeqCst);
        spid != 0 && !pid_alive(spid)
    }

    /// Release a rendezvous extent (exactly once per reservation: the
    /// callers are the single ack-path removal, the submit error unwind,
    /// and the peer-death drain — mutually exclusive by token ownership).
    fn release_extent(&self, off: usize, order: u32, len: usize) {
        self.bulk.lock().release(off, order);
        self.bulk_released.fetch_add(len as u64, Ordering::Relaxed);
        self.bulk_in_flight.fetch_sub(1, Ordering::Relaxed);
        telemetry::record(
            &self.telemetry,
            EventKind::BulkRelease,
            telemetry::initiator_key(self.src.nid, self.src.pid),
            0,
            off as u64,
        );
    }

    /// Resolve every outstanding future/flush as failed (peer death).
    fn fail_all_pending(&self) {
        let drained: Vec<PendingPut> = {
            let mut tokens = self.tokens.lock();
            tokens.drain().map(|(_, p)| p).collect()
        };
        for p in drained {
            p.notify.fragments_done(p.remaining, true);
            if let Some((off, order, len)) = p.extent {
                self.release_extent(off, order, len);
            }
        }
        let mut fs = self.flush_state.lock();
        fs.dead = true;
        drop(fs);
        self.flush_cv.notify_all();
    }
}

/// The initiating (client) half: maps a server's segment and speaks the
/// wire protocol through it. All puts go through the request ring; a
/// background response pump resolves [`PutFuture`]s, collects NACKs, and
/// releases [`flush`](ShmClient::flush) barriers from the response ring.
pub struct ShmClient {
    inner: Arc<ClientInner>,
    pump: Option<JoinHandle<()>>,
}

impl ShmClient {
    /// Map the segment at `path` (waiting up to 10 s for the server to
    /// initialise it) and start the response pump.
    pub fn connect(path: &Path, src: NodeAddr) -> Result<ShmClient> {
        ShmClient::connect_with(path, src, None)
    }

    /// [`connect`](ShmClient::connect) with an initiator-side telemetry
    /// recorder for `Submit`/`RingEnqueue` events (pass the server's
    /// recorder in an in-process pair to trace the full put lifecycle).
    pub fn connect_with(
        path: &Path,
        src: NodeAddr,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<ShmClient> {
        let t0 = Instant::now();
        let seg = loop {
            match ShmSegment::open(path) {
                Ok(seg) if seg.len() >= HDR_SPACE => {
                    if header(&seg).state.load(Ordering::Acquire) == STATE_READY {
                        break seg;
                    }
                    if header(&seg).state.load(Ordering::Acquire) == STATE_SERVER_GONE {
                        return Err(RvmaError::TransportFailed(format!(
                            "server at {} already gone",
                            path.display()
                        )));
                    }
                }
                Ok(_) | Err(_) if t0.elapsed() < CONNECT_TIMEOUT => {}
                Ok(_) => {
                    return Err(RvmaError::TransportFailed(format!(
                        "segment {} never became ready",
                        path.display()
                    )));
                }
                Err(e) => return Err(e),
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let hdr = header(&seg);
        if hdr.magic.load(Ordering::Relaxed) != SHM_MAGIC {
            return Err(RvmaError::TransportFailed(format!(
                "{} is not an RVMA segment",
                path.display()
            )));
        }
        if hdr.version.load(Ordering::Relaxed) != SHM_VERSION {
            return Err(RvmaError::TransportFailed(format!(
                "segment {} has wire version {} (expected {SHM_VERSION})",
                path.display(),
                hdr.version.load(Ordering::Relaxed)
            )));
        }
        let geo = SegGeometry::new(
            hdr.mtu.load(Ordering::Relaxed) as usize,
            hdr.req_slots.load(Ordering::Relaxed) as usize,
            hdr.rsp_slots.load(Ordering::Relaxed) as usize,
            hdr.bulk_bytes.load(Ordering::Relaxed) as usize,
        );
        let eager_threshold = hdr.eager_threshold.load(Ordering::Relaxed) as usize;
        if geo.mtu == 0 || seg.len() < geo.total {
            return Err(RvmaError::TransportFailed(format!(
                "segment {} geometry mismatch ({} B mapped, {} B required)",
                path.display(),
                seg.len(),
                geo.total
            )));
        }
        hdr.client_pid.store(std::process::id(), Ordering::SeqCst);

        // Write-fault the client-owned regions up front — the shm
        // analogue of RDMA buffer registration. Extents in the bulk
        // region and request-slot payloads are written by this process
        // only (the server just reads them at gather/deliver), so the
        // touch cannot race a peer store; without it every first store
        // into a fresh rendezvous extent takes a write-protect fault on
        // the datapath, which dominates large-message goodput.
        seg.prefault_writable(geo.req_base, geo.req_stride * geo.req_slots);
        if geo.bulk_bytes > 0 {
            seg.prefault_writable(geo.bulk_base, geo.bulk_bytes);
        }

        let inner = Arc::new(ClientInner {
            seg: Arc::new(seg),
            geo,
            src,
            eager_threshold,
            next_op: AtomicU64::new(1),
            next_token: AtomicU32::new(0),
            next_flush: AtomicU32::new(0),
            tokens: Mutex::new(HashMap::new()),
            nacks: Mutex::new(Vec::new()),
            flush_state: Mutex::new(FlushState {
                acked: HashSet::new(),
                dead: false,
            }),
            flush_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            telemetry,
            bulk: Mutex::new(BulkAllocator::new(geo.bulk_bytes)),
            bulk_reserved: AtomicU64::new(0),
            bulk_released: AtomicU64::new(0),
            bulk_in_flight: AtomicU64::new(0),
            bulk_fallbacks: AtomicU64::new(0),
            staged: AtomicU64::new(0),
        });
        let pump = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("rvma-shm-pump".into())
                .spawn(move || rsp_pump(inner))
                .expect("spawn shm response pump")
        };
        Ok(ShmClient {
            inner,
            pump: Some(pump),
        })
    }

    /// The initiator's source address.
    pub fn src(&self) -> NodeAddr {
        self.inner.src
    }

    /// The wire MTU agreed with the server.
    pub fn mtu(&self) -> usize {
        self.inner.geo.mtu
    }

    /// The lane policy the server published in the segment header: puts
    /// longer than this take the rendezvous lane (0 forces it for every
    /// non-empty put, `usize::MAX` disables it).
    pub fn eager_threshold(&self) -> usize {
        self.inner.eager_threshold
    }

    /// Fire-and-forget `RVMA_Put` at offset 0.
    pub fn put(&self, dest: NodeAddr, vaddr: VirtAddr, data: &[u8]) -> Result<()> {
        self.put_at(dest, vaddr, 0, data)
    }

    /// Fire-and-forget `RVMA_Put` at an explicit buffer offset. Blocks
    /// only for ring backpressure; delivery is asynchronous (use
    /// [`put_notify_at`](ShmClient::put_notify_at) or
    /// [`flush`](ShmClient::flush) to observe it).
    pub fn put_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        self.submit_put(dest, vaddr, offset, data, false)?;
        Ok(())
    }

    /// `RVMA_Put` returning a [`PutFuture`] that resolves when every
    /// fragment reached its final disposition at the server — the same
    /// local-completion contract as `AsyncInitiator::put_notify`, resolved
    /// by cross-process acks instead of an in-process countdown.
    pub fn put_notify(&self, dest: NodeAddr, vaddr: VirtAddr, data: &[u8]) -> Result<PutFuture> {
        self.put_notify_at(dest, vaddr, 0, data)
    }

    /// [`put_notify`](ShmClient::put_notify) at an explicit offset.
    pub fn put_notify_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
    ) -> Result<PutFuture> {
        Ok(self
            .submit_put(dest, vaddr, offset, data, true)?
            .expect("notified submission returns a future"))
    }

    /// Reserve a client-owned **registered extent** in the segment's bulk
    /// region — the shm analogue of an RDMA-registered send buffer. The
    /// application writes payload directly into it
    /// ([`BulkExtent::as_mut_slice`]) and puts from it with
    /// [`put_from_extent`](ShmClient::put_from_extent): no staging copy at
    /// all, the server gathers straight from the extent (one copy per
    /// byte, the one no lane can avoid). Returns `None` when the region
    /// is exhausted or the rendezvous lane is disabled. The extent is
    /// returned to the allocator on drop.
    pub fn reserve_extent(&self, len: usize) -> Option<BulkExtent> {
        let inner = &self.inner;
        let (off, order) = inner.bulk.lock().reserve(len)?;
        inner.bulk_reserved.fetch_add(len as u64, Ordering::Relaxed);
        inner.bulk_in_flight.fetch_add(1, Ordering::Relaxed);
        telemetry::record(
            &inner.telemetry,
            EventKind::BulkReserve,
            telemetry::initiator_key(inner.src.nid, inner.src.pid),
            0,
            off as u64,
        );
        Some(BulkExtent {
            inner: self.inner.clone(),
            off,
            order,
            len,
        })
    }

    /// Zero-copy `RVMA_Put` of a registered extent's contents: one RTS
    /// descriptor through the request ring, no payload copy client-side.
    /// The returned future resolves once the server finished gathering
    /// (same ack as [`put_notify_at`](ShmClient::put_notify_at)) — until
    /// then the extent contents must not be rewritten, and the extent
    /// must not be dropped (the RDMA "don't deregister while posted"
    /// contract).
    pub fn put_from_extent(
        &self,
        ext: &BulkExtent,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
    ) -> Result<PutFuture> {
        let inner = &self.inner;
        assert!(
            Arc::ptr_eq(&ext.inner, inner),
            "extent belongs to a different client"
        );
        let op_id = inner.next_op.fetch_add(1, Ordering::Relaxed);
        telemetry::record(
            &inner.telemetry,
            EventKind::Submit,
            telemetry::initiator_key(inner.src.nid, inner.src.pid),
            op_id,
            ext.len as u64,
        );
        // No owned extent: the application owns the extent's lifetime —
        // the ack resolves the future but releases nothing.
        let notify = self.push_rts(dest, vaddr, offset, op_id, (ext.off, ext.len), None)?;
        Ok(PutFuture::from_notify(notify, 1))
    }

    /// Token 0 means "no ack requested"; skip it on wrap.
    fn alloc_token(&self) -> u32 {
        let mut token = self.inner.next_token.fetch_add(1, Ordering::Relaxed) + 1;
        if token == 0 {
            token = self.inner.next_token.fetch_add(1, Ordering::Relaxed) + 1;
        }
        token
    }

    /// One entry point for every put: picks the lane, owns the token
    /// lifecycle. Returns a future only when `want_notify` (rendezvous
    /// puts always run tokened — the ack releases the extent — but the
    /// future is only surfaced on request).
    fn submit_put(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
        want_notify: bool,
    ) -> Result<Option<PutFuture>> {
        let inner = &self.inner;
        if data.len() > inner.eager_threshold {
            let extent = inner.bulk.lock().reserve(data.len());
            match extent {
                Some((ext_off, order)) => {
                    return self.submit_bulk(dest, vaddr, offset, data, ext_off, order, want_notify)
                }
                // Region exhausted (or lane disabled): eager still works —
                // rendezvous is an optimisation, never a requirement.
                None => {
                    inner.bulk_fallbacks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if !want_notify {
            self.submit(dest, vaddr, offset, data, 0)?;
            return Ok(None);
        }
        let token = self.alloc_token();
        // A put is at least one fragment even when empty — the countdown
        // must resolve for zero-length puts (no-wire-payload audit).
        let fragments = fragment_count(data.len(), inner.geo.mtu);
        let notify = PutNotify::new(fragments);
        inner.tokens.lock().insert(
            token,
            PendingPut {
                notify: notify.clone(),
                remaining: fragments,
                extent: None,
            },
        );
        if let Err(e) = self.submit(dest, vaddr, offset, data, token) {
            inner.tokens.lock().remove(&token);
            return Err(e);
        }
        Ok(Some(PutFuture::from_notify(notify, fragments)))
    }

    /// Rendezvous submission: one copy into the reserved extent, one RTS
    /// descriptor through the request ring. The put is a single logical
    /// fragment regardless of size.
    #[allow(clippy::too_many_arguments)]
    fn submit_bulk(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
        ext_off: usize,
        order: u32,
        want_notify: bool,
    ) -> Result<Option<PutFuture>> {
        let inner = &self.inner;
        inner
            .bulk_reserved
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        inner.bulk_in_flight.fetch_add(1, Ordering::Relaxed);
        let op_id = inner.next_op.fetch_add(1, Ordering::Relaxed);
        let src_key = telemetry::initiator_key(inner.src.nid, inner.src.pid);
        telemetry::record(
            &inner.telemetry,
            EventKind::Submit,
            src_key,
            op_id,
            data.len() as u64,
        );
        telemetry::record(
            &inner.telemetry,
            EventKind::BulkReserve,
            src_key,
            op_id,
            ext_off as u64,
        );
        // The lane's single staging copy: caller buffer → extent. It must
        // complete before the descriptor publishes (the ring slot's
        // release store orders it for the server's acquire pop).
        inner.staged.fetch_add(data.len() as u64, Ordering::Relaxed);
        // SAFETY: the extent was reserved from this segment's bulk region
        // and covers `data.len()` bytes by construction.
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                inner.seg.as_ptr().add(inner.geo.bulk_base + ext_off),
                data.len(),
            );
        }
        let extent = (ext_off, data.len());
        let notify = self.push_rts(dest, vaddr, offset, op_id, extent, Some(order))?;
        Ok(want_notify.then(|| PutFuture::from_notify(notify, 1)))
    }

    /// Push one rendezvous RTS descriptor for the `(offset, len)` extent of
    /// the bulk region, tokened so the server's ack resolves the returned
    /// countdown. `owned` is the buddy order of an extent this put
    /// reserved itself: the ack releases it. `None` leaves a registered
    /// extent to its owner.
    fn push_rts(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        op_id: u64,
        (ext_off, len): (usize, usize),
        owned: Option<u32>,
    ) -> Result<Arc<PutNotify>> {
        let inner = &self.inner;
        let token = self.alloc_token();
        let notify = PutNotify::new(1);
        inner.tokens.lock().insert(
            token,
            PendingPut {
                notify: notify.clone(),
                remaining: 1,
                extent: owned.map(|order| (ext_off, order, len)),
            },
        );
        telemetry::record(
            &inner.telemetry,
            EventKind::RingEnqueue,
            telemetry::initiator_key(inner.src.nid, inner.src.pid),
            op_id,
            offset as u64,
        );
        let pushed = self.push_req(|h, payload| {
            h.kind.store(REQ_BULK, Ordering::Relaxed);
            h.len.store(8, Ordering::Relaxed);
            h.dest_nid.store(dest.nid, Ordering::Relaxed);
            h.dest_pid.store(dest.pid, Ordering::Relaxed);
            h.init_nid.store(inner.src.nid, Ordering::Relaxed);
            h.init_pid.store(inner.src.pid, Ordering::Relaxed);
            h.token.store(token, Ordering::Relaxed);
            h.op_id.store(op_id, Ordering::Relaxed);
            h.vaddr.store(vaddr.0, Ordering::Relaxed);
            h.total_len.store(len as u64, Ordering::Relaxed);
            h.offset.store(offset as u64, Ordering::Relaxed);
            // SAFETY: the payload region is at least MTU (> 8) bytes.
            unsafe {
                std::ptr::write_unaligned(payload as *mut u64, ext_off as u64);
            }
        });
        if let Err(e) = pushed {
            // Never reached the wire: unwind token and owned reservation.
            // (If push_req failed, fail_all_pending may already have
            // drained the token and released the extent — only release
            // what we removed ourselves.)
            if let Some(p) = inner.tokens.lock().remove(&token) {
                if let Some((off, ord, len)) = p.extent {
                    inner.release_extent(off, ord, len);
                }
            }
            return Err(e);
        }
        Ok(notify)
    }

    /// Fragment and push one put into the request ring.
    fn submit(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
        token: u32,
    ) -> Result<()> {
        let mtu = self.inner.geo.mtu;
        self.inner
            .staged
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let op_id = self.inner.next_op.fetch_add(1, Ordering::Relaxed);
        let src_key = telemetry::initiator_key(self.inner.src.nid, self.inner.src.pid);
        telemetry::record(
            &self.inner.telemetry,
            EventKind::Submit,
            src_key,
            op_id,
            data.len() as u64,
        );
        for range in mtu_ranges(data.len(), mtu) {
            let at = (offset + range.start) as u64;
            let chunk = &data[range];
            telemetry::record(
                &self.inner.telemetry,
                EventKind::RingEnqueue,
                src_key,
                op_id,
                at,
            );
            self.push_req(|h, payload| {
                h.kind.store(REQ_PUT, Ordering::Relaxed);
                h.len.store(chunk.len() as u32, Ordering::Relaxed);
                h.dest_nid.store(dest.nid, Ordering::Relaxed);
                h.dest_pid.store(dest.pid, Ordering::Relaxed);
                h.init_nid.store(self.inner.src.nid, Ordering::Relaxed);
                h.init_pid.store(self.inner.src.pid, Ordering::Relaxed);
                h.token.store(token, Ordering::Relaxed);
                h.op_id.store(op_id, Ordering::Relaxed);
                h.vaddr.store(vaddr.0, Ordering::Relaxed);
                h.total_len.store(data.len() as u64, Ordering::Relaxed);
                h.offset.store(at, Ordering::Relaxed);
                // SAFETY: payload points at this slot's mtu-sized region
                // and chunk.len() <= mtu.
                unsafe {
                    std::ptr::copy_nonoverlapping(chunk.as_ptr(), payload, chunk.len());
                }
            })?;
        }
        Ok(())
    }

    /// Claim, fill, publish one request slot; blocks (bounded, liveness-
    /// checked) while the ring is full — backpressure, never drops.
    fn push_req(&self, fill: impl FnOnce(&ReqHdr, *mut u8)) -> Result<()> {
        let inner = &self.inner;
        let req = inner.req_ring();
        let hdr = header(&inner.seg);
        let mut fill = Some(fill);
        let mut tries = 0u32;
        loop {
            if let Some((idx, ticket)) = req.begin_push() {
                let off = req.slot_off(idx);
                let h = req_hdr(&inner.seg, off);
                // SAFETY: in-bounds payload region of the claimed slot.
                let payload = unsafe { inner.seg.as_ptr().add(off + 8 + REQ_HDR_SIZE) };
                (fill.take().expect("slot claimed once"))(h, payload);
                req.publish(idx, ticket);
                hdr.req_bell.ring();
                return Ok(());
            }
            tries += 1;
            if tries.is_multiple_of(1024) {
                if inner.server_dead() {
                    inner.fail_all_pending();
                    return Err(RvmaError::TransportFailed(
                        "server process gone (request ring stalled)".into(),
                    ));
                }
                std::thread::sleep(Duration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Drain barrier: blocks until every previously submitted fragment
    /// reached its final disposition at the server — including link-level
    /// retransmissions parked in the server's deferred queue, which hold
    /// the ack back (see the module docs). Errors if the server dies.
    pub fn flush(&self) -> Result<()> {
        let mut token = self.inner.next_flush.fetch_add(1, Ordering::Relaxed) + 1;
        if token == 0 {
            token = self.inner.next_flush.fetch_add(1, Ordering::Relaxed) + 1;
        }
        self.push_req(|h, _payload| {
            h.kind.store(REQ_FLUSH, Ordering::Relaxed);
            h.len.store(0, Ordering::Relaxed);
            h.token.store(token, Ordering::Relaxed);
        })?;
        let mut fs = self.inner.flush_state.lock();
        loop {
            if fs.acked.remove(&token) {
                return Ok(());
            }
            if fs.dead {
                return Err(RvmaError::TransportFailed(
                    "server process gone (flush never acked)".into(),
                ));
            }
            let timed_out = self
                .inner
                .flush_cv
                .wait_until(&mut fs, Instant::now() + Duration::from_millis(100))
                .timed_out();
            if timed_out && self.inner.server_dead() {
                drop(fs);
                self.inner.fail_all_pending();
                fs = self.inner.flush_state.lock();
            }
        }
    }

    /// Drain the asynchronously collected NACKs. Complete for everything
    /// submitted before the last [`flush`](ShmClient::flush): the response
    /// ring is FIFO, so every NACK of pre-flush traffic lands before the
    /// flush ack the barrier waited on.
    pub fn take_nacks(&self) -> Vec<(VirtAddr, NackReason)> {
        std::mem::take(&mut *self.inner.nacks.lock())
    }

    /// Payload bytes copied into the segment so far (request slots on the
    /// eager lane, bulk extents on the rendezvous lane).
    pub fn staged_bytes(&self) -> u64 {
        self.inner.staged.load(Ordering::Relaxed)
    }

    /// Bulk-region accounting. After a [`flush`](ShmClient::flush) with
    /// no puts in flight, `reserved_bytes == released_bytes` and
    /// `in_flight == 0` — the no-extent-leak invariant.
    pub fn bulk_stats(&self) -> BulkStats {
        BulkStats {
            reserved_bytes: self.inner.bulk_reserved.load(Ordering::Relaxed),
            released_bytes: self.inner.bulk_released.load(Ordering::Relaxed),
            in_flight: self.inner.bulk_in_flight.load(Ordering::Relaxed),
            eager_fallbacks: self.inner.bulk_fallbacks.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ShmClient {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

impl Transport for ShmClient {
    fn backend(&self) -> &'static str {
        "shm"
    }

    fn put_at(&self, dest: NodeAddr, vaddr: VirtAddr, offset: usize, data: &[u8]) -> Result<()> {
        ShmClient::put_at(self, dest, vaddr, offset, data)
    }

    fn flush(&self) -> Result<()> {
        ShmClient::flush(self)
    }

    fn take_nacks(&self) -> Vec<(VirtAddr, NackReason)> {
        ShmClient::take_nacks(self)
    }

    fn staged_bytes(&self) -> u64 {
        ShmClient::staged_bytes(self)
    }
}

/// The client's response pump: single consumer of the response ring.
/// Resolves put-notify countdowns, collects NACKs, releases flush
/// barriers; on server death it fails everything outstanding so no
/// future or flush ever hangs on a dead peer.
fn rsp_pump(inner: Arc<ClientInner>) {
    let rsp = inner.rsp_ring();
    let hdr = header(&inner.seg);
    let mut dead_checks = 0u32;
    loop {
        if let Some(msg) = pop_rsp(&inner, &rsp) {
            handle_rsp(&inner, msg);
            continue;
        }
        if inner.stop.load(Ordering::Acquire) {
            break;
        }
        dead_checks += 1;
        if dead_checks.is_multiple_of(8) && inner.server_dead() {
            // Drain what the server managed to push before dying, then
            // fail the rest.
            while let Some(msg) = pop_rsp(&inner, &rsp) {
                handle_rsp(&inner, msg);
            }
            inner.fail_all_pending();
            break;
        }
        // Same idle ladder as the server worker: acks stream one per
        // rendezvous put, so parking per ack would cost a futex round
        // trip per message. The pump's cadence only affects
        // extent-release latency, which the allocator's depth absorbs.
        if idle_wait(
            &rsp,
            &inner.stop,
            DEFAULT_WIRE_IDLE_SPINS,
            DEFAULT_WIRE_IDLE_YIELDS,
        ) {
            continue;
        }
        let seen = hdr.rsp_bell.prepare();
        if rsp.can_pop() || inner.stop.load(Ordering::Acquire) {
            hdr.rsp_bell.cancel();
            continue;
        }
        hdr.rsp_bell.wait(seen, DOORBELL_WAIT);
    }
}

/// Decode the next response-ring slot (the client's mirror of `pop_req`).
fn pop_rsp(inner: &ClientInner, rsp: &RawRing) -> Option<RspMsg> {
    let idx = rsp.begin_pop()?;
    let h = rsp_hdr(&inner.seg, rsp.slot_off(idx));
    let msg = RspMsg {
        kind: h.kind.load(Ordering::Relaxed),
        token: h.token.load(Ordering::Relaxed),
        reason: h.reason.load(Ordering::Relaxed),
        nacked: h.nacked.load(Ordering::Relaxed),
        vaddr: h.vaddr.load(Ordering::Relaxed),
    };
    rsp.release_pop(idx);
    Some(msg)
}

fn handle_rsp(inner: &ClientInner, msg: RspMsg) {
    match msg.kind {
        RSP_PUT_DONE => {
            // A duplicate ack (possible only through fault injection)
            // finds the token already removed and is ignored — that is
            // what makes the extent release below exactly-once.
            let done = {
                let mut tokens = inner.tokens.lock();
                match tokens.get_mut(&msg.token) {
                    Some(p) => {
                        p.notify.fragments_done(1, msg.nacked != 0);
                        p.remaining -= 1;
                        if p.remaining == 0 {
                            tokens.remove(&msg.token)
                        } else {
                            None
                        }
                    }
                    None => None,
                }
            };
            if let Some(p) = done {
                if let Some((off, order, len)) = p.extent {
                    inner.release_extent(off, order, len);
                }
            }
        }
        RSP_NACK => {
            inner
                .nacks
                .lock()
                .push((VirtAddr::new(msg.vaddr), decode_nack(msg.reason)));
        }
        RSP_FLUSH_ACK => {
            let mut fs = inner.flush_state.lock();
            fs.acked.insert(msg.token);
            drop(fs);
            inner.flush_cv.notify_all();
        }
        _ => {}
    }
}

/// Server + client halves over one real segment in a single process — the
/// unit-test/bench harness shape (the conformance suite additionally runs
/// the client in a forked child process; the wire protocol is identical).
pub fn shm_pair(
    mtu: usize,
    config: EndpointConfig,
    src: NodeAddr,
) -> Result<(ShmServer, ShmClient)> {
    let server = ShmServer::create_default(mtu, config)?;
    let telemetry = server.telemetry();
    let client = ShmClient::connect_with(server.path(), src, telemetry)?;
    Ok((server, client))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Threshold;
    use crate::shm::shm_supported;

    const SERVER: NodeAddr = NodeAddr::node(0);
    const CLIENT: NodeAddr = NodeAddr::node(1);

    #[test]
    fn geometry_is_consistent_and_aligned() {
        let g = SegGeometry::new(2048, 1024, 512, 1 << 20);
        assert_eq!(g.req_base % 64, 0);
        assert_eq!(g.rsp_base % 64, 0);
        assert_eq!(g.req_stride % 64, 0);
        assert_eq!(g.bulk_base % 64, 0);
        assert!(g.req_stride >= 8 + REQ_HDR_SIZE + 2048);
        assert!(g.bulk_base >= g.rsp_base + 512 * g.rsp_stride);
        assert!(g.total >= g.bulk_base + (1 << 20));
        assert_eq!(std::mem::size_of::<ReqHdr>(), REQ_HDR_SIZE);
        assert_eq!(std::mem::size_of::<RspHdr>(), RSP_HDR_SIZE);
        assert!(std::mem::size_of::<SegHeader>() <= HDR_SPACE);
        assert_eq!(std::mem::size_of::<RingCtrl>(), CTRL_SPACE);
        // A zero-sized bulk region must not change the classic layout.
        let g0 = SegGeometry::new(2048, 1024, 512, 0);
        assert_eq!(g0.total, round64(g0.bulk_base));
    }

    #[test]
    fn bulk_allocator_splits_merges_and_exhausts() {
        let mut a = BulkAllocator::new(1 << 12); // 4 KiB region
        let (o1, r1) = a.reserve(100).unwrap(); // order 7 (128 B)
        assert_eq!(r1, 7);
        let (o2, r2) = a.reserve(1 << 11).unwrap(); // order 11
        assert_eq!(r2, 11);
        assert_ne!(o1, o2);
        // Too big for what remains → None (caller falls back to eager).
        assert!(a.reserve(1 << 11).is_none());
        // Oversize vs the whole region → None.
        assert!(a.reserve((1 << 12) + 1).is_none());
        a.release(o1, r1);
        a.release(o2, r2);
        // Everything merged back: the full region is allocatable again.
        let (o3, r3) = a.reserve(1 << 12).unwrap();
        assert_eq!((o3, r3), (0, 12));
        a.release(o3, r3);
    }

    #[test]
    fn pair_roundtrip_multi_fragment_put() {
        if !shm_supported() {
            return;
        }
        let (server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x10), Threshold::bytes(1000))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; 1000]).unwrap();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        client.put(SERVER, VirtAddr::new(0x10), &payload).unwrap();
        let buf = note
            .wait_timeout(Duration::from_secs(10))
            .expect("epoch completes across the segment");
        assert_eq!(buf.data(), &payload[..], "byte-exact delivery");
    }

    #[test]
    fn put_notify_resolves_including_zero_length() {
        if !shm_supported() {
            return;
        }
        let (server, client) = shm_pair(128, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x20), Threshold::ops(2))
            .unwrap();
        let _note = win.post_buffer(vec![0u8; 256]).unwrap();
        let f1 = client
            .put_notify(SERVER, VirtAddr::new(0x20), &[7u8; 200])
            .unwrap();
        // Zero-length put: no wire payload, but the future must resolve.
        let f2 = client.put_notify(SERVER, VirtAddr::new(0x20), &[]).unwrap();
        let d1 = pollster::block_on(f1);
        let d2 = pollster::block_on(f2);
        assert_eq!(d1.fragments, 2);
        assert!(!d1.nacked);
        assert_eq!(d2.fragments, 1);
        assert!(!d2.nacked);
    }

    #[test]
    fn registered_extent_put_is_byte_exact_and_copyless() {
        if !shm_supported() {
            return;
        }
        const LEN: usize = 24 << 10; // multi-MTU, above the default threshold
        let (server, client) = shm_pair(4096, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x30), Threshold::bytes(2 * LEN as u64))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; 2 * LEN]).unwrap();

        let mut ext = client.reserve_extent(LEN).expect("bulk region");
        assert_eq!(ext.len(), LEN);
        for (i, b) in ext.as_mut_slice().iter_mut().enumerate() {
            *b = (i % 253) as u8;
        }
        // Same extent put twice at different offsets: reuse after the ack
        // resolves, contents untouched in between.
        let f1 = client
            .put_from_extent(&ext, SERVER, VirtAddr::new(0x30), 0)
            .unwrap();
        assert!(!pollster::block_on(f1).nacked);
        let f2 = client
            .put_from_extent(&ext, SERVER, VirtAddr::new(0x30), LEN)
            .unwrap();
        assert!(!pollster::block_on(f2).nacked);

        let buf = note
            .wait_timeout(Duration::from_secs(10))
            .expect("epoch completes");
        for half in 0..2 {
            for (i, &b) in buf.data()[half * LEN..(half + 1) * LEN].iter().enumerate() {
                assert_eq!(b, (i % 253) as u8, "byte {i} of half {half}");
            }
        }
        // Zero staging, zero slot-pop: the gather is the only copy.
        assert_eq!(client.staged_bytes(), 0, "registered puts must not stage");
        assert_eq!(server.wire_copied(), 0, "RTS descriptors carry no payload");
        assert_eq!(ep.stats().bytes_copied, 2 * LEN as u64);

        // Dropping the extent returns it: the full region is allocatable
        // again and the quiesce balance holds.
        drop(ext);
        let stats = client.bulk_stats();
        assert_eq!(stats.reserved_bytes, stats.released_bytes);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn nacks_cross_the_segment() {
        if !shm_supported() {
            return;
        }
        let (server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        let _ep = server.add_endpoint(SERVER);
        // No mailbox at this vaddr → NoSuchMailbox NACK back to the client.
        client
            .put(SERVER, VirtAddr::new(0x999), &[1, 2, 3])
            .unwrap();
        client.flush().unwrap();
        let nacks = client.take_nacks();
        assert_eq!(nacks.len(), 1);
        assert_eq!(nacks[0], (VirtAddr::new(0x999), NackReason::NoSuchMailbox));
    }

    #[test]
    fn flush_holds_for_parked_retries() {
        if !shm_supported() {
            return;
        }
        let cfg = EndpointConfig {
            dedup_window: 1 << 12,
            fault_model: crate::retry::FaultModel {
                drop_p: 0.3,
                ..crate::retry::FaultModel::NONE
            },
            fault_seed: 0xF00D,
            ..Default::default()
        };
        let (server, client) = shm_pair(32, cfg, CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x30), Threshold::bytes(4096))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; 4096]).unwrap();
        client
            .put(SERVER, VirtAddr::new(0x30), &[0xAB; 4096])
            .unwrap();
        // The barrier must cover the fault layer's parked retransmissions:
        // after it, the epoch is complete without any further waiting.
        client.flush().unwrap();
        let buf = note.poll().expect("flush drained every retransmission");
        assert!(buf.data().iter().all(|&b| b == 0xAB));
        let stats = server.fault_stats().unwrap();
        assert!(stats.dropped() > 0, "fault model actually fired");
        assert_eq!(server.pending_retries(), 0);
    }

    #[test]
    fn rendezvous_roundtrip_is_byte_exact_and_releases_extent() {
        if !shm_supported() {
            return;
        }
        let cfg = EndpointConfig {
            shm_bulk_bytes: 1 << 20,
            ..Default::default()
        };
        let (server, client) = shm_pair(64, cfg, CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let len = 64 * 1024; // far above the default eager threshold
        let win = ep
            .init_window(VirtAddr::new(0x50), Threshold::bytes(len as u64))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; len]).unwrap();
        let payload: Vec<u8> = (0..len as u32).map(|i| (i % 239) as u8).collect();
        client.put(SERVER, VirtAddr::new(0x50), &payload).unwrap();
        client.flush().unwrap();
        let buf = note.poll().expect("rendezvous epoch complete");
        assert_eq!(buf.data(), &payload[..], "byte-exact gather from extent");
        // Extent balance: the ack released exactly what was reserved.
        let bs = client.bulk_stats();
        assert_eq!(bs.reserved_bytes, len as u64);
        assert_eq!(bs.released_bytes, len as u64);
        assert_eq!(bs.in_flight, 0);
        assert_eq!(bs.eager_fallbacks, 0);
        // Zero eager wire copies: the worker never copied a slot payload.
        assert_eq!(server.wire_copied(), 0);
    }

    #[test]
    fn rendezvous_notify_future_resolves_as_one_fragment() {
        if !shm_supported() {
            return;
        }
        let cfg = EndpointConfig {
            shm_bulk_bytes: 1 << 20,
            ..Default::default()
        };
        let (server, client) = shm_pair(64, cfg, CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let len = 32 * 1024;
        let win = ep
            .init_window(VirtAddr::new(0x55), Threshold::bytes(len as u64))
            .unwrap();
        let _note = win.post_buffer(vec![0u8; len]).unwrap();
        let fut = client
            .put_notify(SERVER, VirtAddr::new(0x55), &vec![0x5A; len])
            .unwrap();
        let d = pollster::block_on(fut);
        assert_eq!(d.fragments, 1, "an RTS is one logical fragment");
        assert!(!d.nacked);
        client.flush().unwrap();
        assert_eq!(client.bulk_stats().in_flight, 0);
    }

    #[test]
    fn rendezvous_survives_retransmitted_rts_without_extent_leak() {
        if !shm_supported() {
            return;
        }
        // Drop AND duplicate dice on the RTS descriptor: deferred copies
        // must gather bytes that are still valid, duplicated deliveries
        // must dedup, and exactly one ack must release each extent.
        let cfg = EndpointConfig {
            dedup_window: 1 << 15,
            shm_bulk_bytes: 1 << 22,
            fault_model: crate::retry::FaultModel {
                drop_p: 0.3,
                dup_p: 0.2,
                ..crate::retry::FaultModel::NONE
            },
            fault_seed: 0xB17E,
            ..Default::default()
        };
        let (server, client) = shm_pair(64, cfg, CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let len = 16 * 1024;
        let rounds = 8u64;
        let win = ep
            .init_window(VirtAddr::new(0x60), Threshold::bytes(len as u64))
            .unwrap();
        let mut notes = Vec::new();
        for _ in 0..rounds {
            notes.push(win.post_buffer(vec![0u8; len]).unwrap());
        }
        let payload: Vec<u8> = (0..len as u32).map(|i| (i % 241) as u8).collect();
        for _ in 0..rounds {
            client.put(SERVER, VirtAddr::new(0x60), &payload).unwrap();
        }
        client.flush().unwrap();
        for mut note in notes {
            let buf = note.poll().expect("every faulted epoch completes");
            assert_eq!(buf.data(), &payload[..], "byte-exact under faults");
        }
        let bs = client.bulk_stats();
        assert_eq!(bs.reserved_bytes, rounds * len as u64);
        assert_eq!(
            bs.released_bytes, bs.reserved_bytes,
            "no extent leaked under drop/dup faults"
        );
        assert_eq!(bs.in_flight, 0);
        assert_eq!(server.pending_retries(), 0);
        let stats = server.fault_stats().unwrap();
        assert!(
            stats.dropped() + stats.duplicated() > 0,
            "dice actually fired"
        );
    }

    #[test]
    fn bulk_exhaustion_falls_back_to_eager() {
        if !shm_supported() {
            return;
        }
        // A 16 KiB region cannot hold a 32 KiB extent: that put must fall
        // back to the eager fragment lane deterministically, while a
        // 12 KiB put still rides rendezvous. Both must land byte-exact.
        let cfg = EndpointConfig {
            shm_bulk_bytes: 16 << 10,
            ..Default::default()
        };
        let (server, client) = shm_pair(256, cfg, CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let big = 32 * 1024; // > bulk region → eager fallback
        let small = 12 * 1024; // fits → rendezvous
        let win = ep
            .init_window(VirtAddr::new(0x70), Threshold::bytes((big + small) as u64))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; big + small]).unwrap();
        let a: Vec<u8> = vec![0xA1; big];
        let b: Vec<u8> = vec![0xB2; small];
        client.put_at(SERVER, VirtAddr::new(0x70), 0, &a).unwrap();
        client.put_at(SERVER, VirtAddr::new(0x70), big, &b).unwrap();
        client.flush().unwrap();
        let buf = note.poll().expect("both puts landed");
        assert_eq!(&buf.data()[..big], &a[..]);
        assert_eq!(&buf.data()[big..], &b[..]);
        let bs = client.bulk_stats();
        assert_eq!(bs.eager_fallbacks, 1, "oversize put fell back exactly once");
        assert_eq!(bs.reserved_bytes, small as u64);
        assert_eq!(bs.released_bytes, small as u64);
        assert_eq!(bs.in_flight, 0);
        // The fallback's bytes crossed as slot copies; the rendezvous
        // put's did not.
        assert_eq!(server.wire_copied(), big as u64);
    }

    #[test]
    fn server_drop_fails_client_cleanly() {
        if !shm_supported() {
            return;
        }
        let (server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x40), Threshold::ops(1))
            .unwrap();
        let _n = win.post_buffer(vec![0u8; 64]).unwrap();
        client.put(SERVER, VirtAddr::new(0x40), &[1u8; 64]).unwrap();
        client.flush().unwrap();
        drop(server);
        // New work against a gone server errors instead of hanging.
        let err = client.flush();
        assert!(matches!(err, Err(RvmaError::TransportFailed(_))));
    }
}
