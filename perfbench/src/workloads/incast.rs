//! `incast` and `incast_lossy`: closed loop. One thread streams 8–256 B
//! puts through a `PutBatch`, round-robin into 64 mailboxes of one
//! endpoint. Epochs complete at 32 ops; two pooled buffers stay posted per
//! mailbox, all completing into one `CompletionQueue` that the same
//! thread polls, verifies and reposts from.
//!
//! The mailboxes append arrivals at a cursor (`MailboxMode::Managed`) and
//! every put starts with its 8-byte op number, so a completed buffer is
//! verified exactly, put by put, even when loss and reordering move a put
//! into a later epoch than the one it was sent in. Sends are credit-limited
//! to the posted epochs: a mailbox's epoch `e` starts only once its epoch
//! `e - 2` has been consumed, and the sender never waits in the middle of
//! an epoch, so every epoch it opens can complete.
//!
//! Why `incast`: it saturates submission batching, `ring`, LUT/mailbox run
//! delivery, epoch rotation, `pool` and `cq`, while the idle policy never
//! parks. Why `incast_lossy`: it is the paper's out-of-order, lossy network
//! (drop, duplicate and reorder 0.1 % each, dedup window on) and the only
//! workload through `retry`; a fast-path change predicts no change here,
//! and a fault-path change predicts none in `incast`.

use super::threaded::{sum_pools, Counters};
use super::{execute, ratio, span_quantile, timed_setups, warm_up, Measure, Outcome, Pass, Slicer};
use crate::cli::Args;
use crate::gen::{draw, workload_seed, Pattern};
use crate::procfs;
use crate::report::Metric;
use crate::trace::Tracer;
use rvma_core::transport::DeliveryOrder;
use rvma_core::{
    AsyncInitiator, AsyncNetwork, CompletionQueue, CqCompletion, EndpointConfig, FaultModel,
    MailboxMode, NodeAddr, PutBatch, RvmaEndpoint, Threshold, VirtAddr, Window,
    DEFAULT_DEDUP_WINDOW, DEFAULT_MTU,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAILBOXES: usize = 64;
const EPOCH_OPS: u64 = 32;
/// Bytes of the op number that opens every put.
const HEADER: usize = 8;
const POSTED: usize = 2;
const MIN_SIZE: u64 = 8;
const MAX_SIZE: u64 = 256;
const BUFFER_BYTES: usize = EPOCH_OPS as usize * MAX_SIZE as usize;
/// Ops per full round of epochs: a pass stops sending only here, so every
/// epoch it opened completes.
const ROUND: u64 = MAILBOXES as u64 * EPOCH_OPS;
const POLL_MAX: usize = 64;
/// A pass fails if no completion arrives for this long.
const STALL: Duration = Duration::from_secs(10);
const DEST: NodeAddr = NodeAddr::node(0);

fn vaddr(m: usize) -> VirtAddr {
    VirtAddr::new(1 + m as u64)
}

struct Rig {
    client: AsyncInitiator,
    cq: CompletionQueue,
    wins: Vec<Window>,
    ep: Arc<RvmaEndpoint>,
    net: AsyncNetwork,
}

fn rig(config: &EndpointConfig) -> Rig {
    let net = AsyncNetwork::for_endpoint_config(
        DEFAULT_MTU,
        DeliveryOrder::InOrder,
        Duration::ZERO,
        config,
    );
    let ep = net.add_endpoint(DEST);
    let cq = CompletionQueue::new(4 * MAILBOXES);
    let wins: Vec<Window> = (0..MAILBOXES)
        .map(|m| {
            let w = ep
                .init_window_mode(vaddr(m), Threshold::ops(EPOCH_OPS), MailboxMode::Managed)
                .expect("incast window");
            for _ in 0..POSTED {
                w.post_pooled_cq(BUFFER_BYTES, &cq, m as u64)
                    .expect("incast post");
            }
            w
        })
        .collect();
    let client = net.initiator(NodeAddr::node(1));
    Rig {
        client,
        cq,
        wins,
        ep,
        net,
    }
}

/// Sender-side state of one mailbox.
#[derive(Clone, Default)]
struct Mailbox {
    next_seq: u64,
    /// Epoch buffers consumed.
    consumed: u64,
    /// Sequence number of `inflight[0]`.
    base: u64,
    /// Per put from `base` on: the doorbell flush that carried it, or
    /// `None` once it has been seen in a completed buffer.
    inflight: VecDeque<Option<u32>>,
}

/// Size and pattern offset of op `i`.
fn op_params(seed: u64, pattern: &Pattern, i: u64) -> (usize, usize) {
    let mut r = draw(seed, i);
    let size = (MIN_SIZE + r.below(MAX_SIZE - MIN_SIZE + 1)) as usize;
    (size, pattern.offset_for(r.next_u64(), size - HEADER))
}

/// The kinds of call the traced run records, each sampled one in `every`.
#[derive(Clone, Copy)]
enum Call {
    Put,
    Flush,
    Poll,
    Wait,
    Post,
    Verify,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Put => "transport_threaded.batch_put",
            Call::Flush => "transport_threaded.batch_flush",
            Call::Poll => "cq.poll_batch",
            Call::Wait => "cq.wait_batch",
            Call::Post => "window.post",
            Call::Verify => "bench.verify",
        }
    }

    fn every(self) -> u64 {
        match self {
            Call::Put => 256,
            Call::Flush | Call::Wait => 4,
            Call::Poll | Call::Post | Call::Verify => 16,
        }
    }
}

/// The traced run's span recorder with per-kind sampling.
struct Sampler {
    tracer: Option<Tracer>,
    seen: [u64; 6],
}

impl Sampler {
    fn record(&mut self, call: Call, start: Instant, end: Instant) {
        if let Some(t) = &mut self.tracer {
            let n = self.seen[call as usize];
            self.seen[call as usize] += 1;
            if n.is_multiple_of(call.every()) {
                t.record(call.name(), start, end, None, n);
            }
        }
    }

    /// Summed duration of the recorded `calls`, scaled up by their
    /// sampling, per op.
    fn per_op_ns(&self, calls: &[Call], ops: u64) -> f64 {
        let t = self.tracer.as_ref().expect("traced");
        let total: u64 = calls
            .iter()
            .map(|&c| t.durations(c.name()).iter().sum::<u64>() * c.every())
            .sum();
        total as f64 / ops.max(1) as f64
    }
}

struct Incast {
    rig: Rig,
    pattern: Pattern,
    seed: u64,
    next_op: u64,
    mailboxes: Vec<Mailbox>,
}

pub fn run(args: &Args) -> Outcome {
    let seed = workload_seed(args.seed, args.workload);
    let mut config = EndpointConfig::default();
    if args.workload == "incast_lossy" {
        config.fault_model = FaultModel {
            drop_p: 0.001,
            dup_p: 0.001,
            reorder_p: 0.001,
            ..FaultModel::NONE
        };
        config.fault_seed = seed;
        config.dedup_window = DEFAULT_DEDUP_WINDOW;
    }
    let (setup_s, rig) = timed_setups(|| rig(&config));
    let mut w = Incast {
        rig,
        pattern: Pattern::new(seed, 1 << 16),
        seed,
        next_op: 0,
        mailboxes: vec![Mailbox::default(); MAILBOXES],
    };
    // Warm the pools and caches with one short untimed pass.
    if let Err(failed) = warm_up(&mut w, 0.2) {
        return failed;
    }
    execute(args, setup_s, super::SETUPS as u64, &mut w)
}

/// The consumer side of one pass.
struct Consumer<'a, F: FnMut() -> u64> {
    rig: &'a Rig,
    pattern: &'a Pattern,
    seed: u64,
    slicer: Slicer<F>,
    sampler: Sampler,
    /// When each doorbell flush happened, by flush index.
    flush_times: Vec<Instant>,
    out: Vec<CqCompletion>,
    last_progress: Instant,
    completed: u64,
    failed: u64,
    bytes: u64,
    outstanding: u64,
    polls_nonempty: u64,
    problems: Vec<String>,
}

impl<F: FnMut() -> u64> Consumer<'_, F> {
    /// Drain completions (waiting for at least one when `block`) and
    /// consume them.
    fn drain(&mut self, block: bool, mailboxes: &mut [Mailbox]) {
        let s = Instant::now();
        let n = if block {
            self.rig
                .cq
                .wait_batch(POLL_MAX, &mut self.out, Duration::from_millis(10))
        } else {
            self.rig.cq.poll_batch(POLL_MAX, &mut self.out)
        };
        let e = Instant::now();
        self.sampler
            .record(if block { Call::Wait } else { Call::Poll }, s, e);
        if n > 0 {
            self.polls_nonempty += 1;
            self.last_progress = e;
        } else if e - self.last_progress > STALL {
            self.problems.push(format!(
                "no completion for 10 s, {} puts in flight",
                self.outstanding
            ));
        }
        let mut out = std::mem::take(&mut self.out);
        for c in out.drain(..) {
            self.consume(c, mailboxes);
        }
        self.out = out;
    }

    /// Verify a completed epoch buffer put by put, mark its puts seen,
    /// and repost.
    fn consume(&mut self, c: CqCompletion, mailboxes: &mut [Mailbox]) {
        let m = c.user as usize;
        let v0 = Instant::now();
        let data = c.buffer.data();
        let mb = &mut mailboxes[m];
        let (mut pos, mut puts, mut ok_bytes, mut ok_puts) = (0usize, 0u64, 0u64, 0u64);
        let mut first_flush = u32::MAX;
        while pos + HEADER <= data.len() {
            let i = u64::from_le_bytes(data[pos..pos + HEADER].try_into().expect("8 bytes"));
            let slot = (i / MAILBOXES as u64)
                .checked_sub(mb.base)
                .and_then(|k| mb.inflight.get_mut(k as usize))
                .filter(|_| i % MAILBOXES as u64 == m as u64);
            let Some(flush) = slot.and_then(Option::take) else {
                self.problems
                    .push(format!("mailbox {m}: put {i} was not in flight"));
                return;
            };
            first_flush = first_flush.min(flush);
            let (size, off) = op_params(self.seed, self.pattern, i);
            if data.get(pos + HEADER..pos + size) == Some(self.pattern.slice(off, size - HEADER)) {
                ok_puts += 1;
                ok_bytes += size as u64;
            } else {
                self.failed += 1;
            }
            self.outstanding -= 1;
            pos += size;
            puts += 1;
        }
        while mb.inflight.front() == Some(&None) {
            mb.inflight.pop_front();
            mb.base += 1;
        }
        mb.consumed += 1;
        self.sampler.record(Call::Verify, v0, Instant::now());
        if puts != EPOCH_OPS || pos != data.len() {
            self.problems.push(format!(
                "mailbox {m}: epoch held {puts} puts in {} bytes, parsed {pos}",
                data.len()
            ));
        }
        self.completed += ok_puts;
        self.bytes += ok_bytes;
        self.slicer.ops(ok_puts, ok_bytes);
        if let Some(&t) = self.flush_times.get(first_flush as usize) {
            self.slicer.lat((v0 - t).as_nanos() as u64);
        }
        drop(c);
        let p0 = Instant::now();
        let posted = self.rig.wins[m].post_pooled_cq(BUFFER_BYTES, &self.rig.cq, m as u64);
        self.sampler.record(Call::Post, p0, Instant::now());
        if let Err(e) = posted {
            self.problems
                .push(format!("repost to mailbox {m} failed: {e}"));
        }
    }

    /// Ring the doorbell for whatever the batch holds.
    fn flush(&mut self, batch: &mut PutBatch<'_>) {
        if batch.pending() > 0 {
            let s = Instant::now();
            let r = batch.flush();
            let e = Instant::now();
            self.sampler.record(Call::Flush, s, e);
            self.flush_times.push(e);
            if let Err(err) = r {
                self.problems.push(format!("flush failed: {err}"));
            }
        }
    }
}

impl Measure for Incast {
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass {
        let Incast {
            rig,
            pattern,
            seed,
            next_op,
            mailboxes,
        } = self;
        let rig = &*rig;
        let pools = || sum_pools(rig.wins.iter().map(Window::pool_stats));
        let before = Counters::read(&rig.net, &rig.ep, &rig.client, pools());
        let cq_before = rig.cq.stats();
        let me = std::process::id();
        let t0 = Instant::now();
        let mut c = Consumer {
            rig,
            pattern,
            seed: *seed,
            slicer: Slicer::new(t0, seconds, || procfs::threads_cpu_ns(me, Some(me))),
            sampler: Sampler {
                tracer: traced.then(|| Tracer::new(t0, 1)),
                seen: [0; 6],
            },
            flush_times: Vec::new(),
            out: Vec::with_capacity(POLL_MAX),
            last_progress: t0,
            completed: 0,
            failed: 0,
            bytes: 0,
            outstanding: 0,
            polls_nonempty: 0,
            problems: Vec::new(),
        };
        let mut attempted = 0u64;
        let mut msg = [0u8; MAX_SIZE as usize];
        let mut batch = rig.client.batch();
        let mut running = true;
        'send: while running || *next_op % ROUND != 0 {
            let i = *next_op;
            let m = (i % MAILBOXES as u64) as usize;
            let seq = mailboxes[m].next_seq;
            // Epoch-level credit, checked only where an epoch starts.
            while seq % EPOCH_OPS == 0 && mailboxes[m].consumed + POSTED as u64 <= seq / EPOCH_OPS {
                c.flush(&mut batch);
                c.drain(true, mailboxes);
                if !c.problems.is_empty() {
                    break 'send;
                }
            }
            let (size, off) = op_params(*seed, pattern, i);
            msg[..HEADER].copy_from_slice(&i.to_le_bytes());
            msg[HEADER..size].copy_from_slice(pattern.slice(off, size - HEADER));
            let flush_idx = c.flush_times.len() as u32;
            let s = c.sampler.tracer.is_some().then(Instant::now);
            let put = batch.put_at(DEST, vaddr(m), 0, &msg[..size]);
            attempted += 1;
            if let Err(e) = put {
                c.failed += 1;
                c.problems.push(format!("put failed: {e}"));
                break;
            }
            // The doorbell rang inside `put_at` when the batch is empty now.
            let auto_flushed = batch.pending() == 0;
            if auto_flushed || s.is_some() {
                let e = Instant::now();
                if let Some(s) = s {
                    let call = if auto_flushed { Call::Flush } else { Call::Put };
                    c.sampler.record(call, s, e);
                }
                if auto_flushed {
                    c.flush_times.push(e);
                }
            }
            mailboxes[m].inflight.push_back(Some(flush_idx));
            mailboxes[m].next_seq += 1;
            c.outstanding += 1;
            *next_op += 1;
            if *next_op % MAILBOXES as u64 == 0 {
                c.drain(false, mailboxes);
                running = c.slicer.tick(Instant::now());
            }
        }
        c.flush(&mut batch);
        while c.outstanding > 0 && c.problems.is_empty() {
            c.drain(true, mailboxes);
        }
        drop(batch);
        rig.net.quiesce();
        let mut p = Pass {
            attempted,
            completed: c.completed,
            failed: c.failed + c.outstanding,
            summary: c.slicer.summary(),
            problems: std::mem::take(&mut c.problems),
            ..Pass::default()
        };
        let nacks = rig.client.take_nacks();
        p.check(nacks.is_empty(), || format!("{} NACKs", nacks.len()));
        let after = Counters::read(&rig.net, &rig.ep, &rig.client, pools());
        p.check(after.nacks_since(&before) == 0, || {
            "endpoint sent NACKs".into()
        });
        if let Some(t) = &c.sampler.tracer {
            let n = p.completed;
            let cq = rig.cq.stats();
            let empty = cq.empty_polls - cq_before.empty_polls;
            let delivered = cq.delivered - cq_before.delivered;
            let flushes = c.flush_times.len() as u64;
            let per_op = |calls: &[Call]| c.sampler.per_op_ns(calls, n);
            p.layers = after.layer_metrics(&before, n, c.bytes);
            p.layers.extend([
                span_quantile(
                    "transport_threaded.batch_flush_ns.p50",
                    &mut t.durations(Call::Flush.name()),
                    0.5,
                ),
                Metric::layer(
                    "transport_threaded.puts_per_flush",
                    ratio(attempted as f64, flushes as f64),
                    flushes,
                ),
                Metric::layer(
                    "transport_threaded.self_ns_per_op",
                    per_op(&[Call::Put, Call::Flush]),
                    n,
                ),
                span_quantile(
                    "cq.poll_batch_ns.p50",
                    &mut t.durations(Call::Poll.name()),
                    0.5,
                ),
                Metric::layer(
                    "cq.entries_per_poll",
                    ratio(delivered as f64, c.polls_nonempty as f64),
                    c.polls_nonempty,
                ),
                Metric::layer(
                    "cq.empty_poll_ratio",
                    ratio(empty as f64, (empty + c.polls_nonempty) as f64),
                    empty + c.polls_nonempty,
                ),
                Metric::layer(
                    "cq.overflowed",
                    (cq.overflowed - cq_before.overflowed) as f64,
                    n,
                ),
                Metric::layer("cq.self_ns_per_op", per_op(&[Call::Poll, Call::Wait]), n),
                span_quantile(
                    "window.post_ns.p50",
                    &mut t.durations(Call::Post.name()),
                    0.5,
                ),
                Metric::layer("window.self_ns_per_op", per_op(&[Call::Post]), n),
                Metric::layer("bench.spans", t.spans().len() as f64, n),
            ]);
            let name = if rig.net.fault_stats().is_some() {
                "incast_lossy"
            } else {
                "incast"
            };
            crate::write_spans(t, name);
        }
        p
    }
}
