//! The reliable-delivery layer: fault modelling and receiver-side dedup.
//!
//! RVMA (like RDMA) is specified over a **reliable** fabric: threshold
//! counting is only sound when fragments are neither dropped (the epoch
//! never completes) nor duplicated (the epoch completes *early*). Real HPC
//! NICs get that guarantee from a link-level reliability layer — per-packet
//! acks, retransmit timers, and receiver dedup windows. This module holds
//! the transport-independent pieces of that layer, rendered in software:
//!
//! * [`FaultModel`] / [`FaultInjector`] — a seeded, per-fragment fault
//!   source (drop, duplicate, reorder, delay, endpoint crash) shared by the
//!   inline [`LoopbackNetwork`](crate::transport::LoopbackNetwork), the
//!   fault-injected [`AsyncNetwork`](crate::transport_threaded::AsyncNetwork)
//!   datapath and the shared-memory server, with common counters in
//!   [`FaultStats`].
//! * [`DedupWindow`] — the receiver-side half: a bounded memory of
//!   `(initiator, op_id, offset)` triples already accepted by a mailbox.
//!   A fragment's offset within its operation *is* its sequence number
//!   (fragments of one put cover disjoint offsets), so replaying any
//!   fragment — including a duplicated *final* fragment that would
//!   otherwise complete an epoch early — is detected and dropped without
//!   touching the threshold counters. Enabled per endpoint via
//!   [`EndpointConfig::dedup_window`](crate::endpoint::EndpointConfig).
//!
//! The initiator-side half — retransmitting unacknowledged fragments until
//! the [`retry_budget`](crate::endpoint::EndpointConfig::retry_budget) is
//! spent — comes in two forms. The inline
//! [`Initiator`](crate::transport::Initiator) runs retransmit rounds and
//! ends in `RetryExhausted`. The wire workers of the threaded and
//! shared-memory transports share one link layer, the crate-private
//! `Link`: it rolls the dice per transmission, re-sends a dropped or
//! deferred fragment with its attempt count bumped, delivers the attempt
//! that reaches the budget fault-free, and counts pending retransmissions
//! for the flush barrier. `deliver_copies` is the final disposition both
//! workers share: deliver, or NACK `NoSuchMailbox` when the endpoint is
//! gone.
//! The recovery half for the *application* — rotating a partially-filled
//! epoch after a timeout instead of wedging — lives in
//! [`Window::recover_timeout`](crate::window::Window::recover_timeout) and
//! [`MpixWindow::fence_recover`](crate::mpix::MpixWindow::fence_recover),
//! mapping the paper's Secs. IV-E/IV-F fault-tolerance story (`MPIX_Rewind`
//! over the retired-buffer ring) onto fabric faults.

use crate::addr::NodeAddr;
use crate::endpoint::{DeliverResult, EndpointConfig, RvmaEndpoint};
use crate::error::NackReason;
use crate::mailbox::OpKey;
use crate::telemetry::{self, EventKind, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default receiver-side dedup capacity (distinct operations remembered per
/// mailbox) used when a caller wants dedup "on" without tuning it.
pub const DEFAULT_DEDUP_WINDOW: usize = 1024;

/// Default per-fragment transmit budget of the reliable paths (initiator
/// retransmit rounds on the inline
/// [`LoopbackNetwork`](crate::transport::LoopbackNetwork), link-level
/// retransmissions on the fault-injected `AsyncNetwork`). At a 5 % loss
/// rate the chance a fragment survives 8 attempts undelivered is
/// 0.05⁸ ≈ 4 × 10⁻¹¹.
pub const DEFAULT_RETRY_BUDGET: u32 = 8;

/// Fault model applied independently to each transmitted fragment.
///
/// Extends the drop/duplicate model with the reorder, delay, and
/// endpoint-crash faults an adaptively-routed (or simply misbehaving)
/// fabric can produce. Construct with struct-update syntax so new fault
/// kinds never break call sites:
///
/// ```
/// use rvma_core::FaultModel;
/// let model = FaultModel { drop_p: 0.05, dup_p: 0.05, ..FaultModel::NONE };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability a fragment is silently dropped.
    pub drop_p: f64,
    /// Probability a delivered fragment is delivered twice.
    pub dup_p: f64,
    /// Probability a fragment is reordered: held back and released after
    /// the next transmission, so it arrives behind younger traffic.
    pub reorder_p: f64,
    /// Probability a fragment is delayed: held back for
    /// [`delay_spans`](FaultModel::delay_spans) further transmissions.
    pub delay_p: f64,
    /// How many subsequent transmissions a delayed fragment is held for.
    pub delay_spans: u32,
    /// After this many total transmitted fragments, the destination of the
    /// next fragment crashes: that fragment and everything later sent to
    /// that endpoint is black-holed (`None` = never).
    pub crash_after_frags: Option<u64>,
}

impl FaultModel {
    /// No faults (behaves like the reliable loopback).
    pub const NONE: FaultModel = FaultModel {
        drop_p: 0.0,
        dup_p: 0.0,
        reorder_p: 0.0,
        delay_p: 0.0,
        delay_spans: 2,
        crash_after_frags: None,
    };

    /// True when no fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.reorder_p == 0.0
            && self.delay_p == 0.0
            && self.crash_after_frags.is_none()
    }

    /// Panics unless every probability is in `[0, 1]`.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.drop_p), "drop_p in [0,1]");
        assert!((0.0..=1.0).contains(&self.dup_p), "dup_p in [0,1]");
        assert!((0.0..=1.0).contains(&self.reorder_p), "reorder_p in [0,1]");
        assert!((0.0..=1.0).contains(&self.delay_p), "delay_p in [0,1]");
    }
}

/// Shared fault counters (relaxed atomics: observability, not
/// synchronization). One instance can be shared by several
/// [`FaultInjector`]s — e.g. every wire worker of a fault-injected
/// `AsyncNetwork` — so the counts are network-wide.
#[derive(Debug, Default)]
pub struct FaultStats {
    transmitted: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    deferred: AtomicU64,
}

impl FaultStats {
    /// Fragments pushed through the fault dice so far.
    pub fn transmitted(&self) -> u64 {
        self.transmitted.load(Ordering::Relaxed)
    }

    /// Fragments dropped (including black-holed by a crashed endpoint).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Fragments delivered twice.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Fragments reordered or delayed.
    pub fn deferred(&self) -> u64 {
        self.deferred.load(Ordering::Relaxed)
    }

    /// A transmission swallowed without rolling dice (crashed destination).
    pub(crate) fn note_blackhole(&self) {
        self.transmitted.fetch_add(1, Ordering::Relaxed);
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// A previously deferred fragment lost before release (its destination
    /// crashed while it was held): counted as dropped, not re-transmitted.
    pub(crate) fn note_dropped_in_flight(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// The outcome of one roll of the fault dice for one fragment.
#[derive(Debug, Clone, Copy)]
pub struct FaultDecision {
    /// Drop the fragment.
    pub drop: bool,
    /// Deliver the fragment twice.
    pub duplicate: bool,
    /// Hold the fragment for this many further transmissions
    /// (0 = deliver now).
    pub defer_spans: u32,
    /// The destination of this fragment crashes (fires at most once per
    /// injector, when the transmit counter crosses
    /// [`FaultModel::crash_after_frags`]).
    pub crash: bool,
}

impl FaultDecision {
    /// No fault: deliver exactly once, now.
    pub const CLEAN: FaultDecision = FaultDecision {
        drop: false,
        duplicate: false,
        defer_spans: 0,
        crash: false,
    };
}

/// A seeded per-fragment fault source. Every transmission rolls *all* the
/// dice (even for probabilities of zero), so fault counts are a pure
/// function of the seed and the transmission sequence — changing one
/// probability never perturbs the stream consumed by the others.
#[derive(Debug)]
pub struct FaultInjector {
    model: FaultModel,
    rng: StdRng,
    stats: Arc<FaultStats>,
}

impl FaultInjector {
    /// Build from a validated model, a seed, and a (possibly shared) stats
    /// block.
    ///
    /// # Panics
    /// Panics if a probability is outside `[0, 1]`.
    pub fn new(model: FaultModel, seed: u64, stats: Arc<FaultStats>) -> Self {
        model.validate();
        FaultInjector {
            model,
            rng: StdRng::seed_from_u64(seed),
            stats,
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> &Arc<FaultStats> {
        &self.stats
    }

    /// Roll the dice for one fragment. Precedence: crash and drop swallow
    /// the fragment; otherwise a deferral postpones it; otherwise a
    /// duplicate delivers it twice.
    pub fn roll(&mut self) -> FaultDecision {
        let drop = self.rng.random_bool(self.model.drop_p);
        let duplicate = self.rng.random_bool(self.model.dup_p);
        let reorder = self.rng.random_bool(self.model.reorder_p);
        let delay = self.rng.random_bool(self.model.delay_p);
        let seq = self.stats.transmitted.fetch_add(1, Ordering::Relaxed) + 1;
        let crash = self.model.crash_after_frags == Some(seq);
        let defer_spans = if delay {
            self.model.delay_spans.max(1)
        } else if reorder {
            1
        } else {
            0
        };
        let decision = if crash || drop {
            FaultDecision {
                drop: true,
                duplicate: false,
                defer_spans: 0,
                crash,
            }
        } else if defer_spans > 0 {
            FaultDecision {
                drop: false,
                duplicate: false,
                defer_spans,
                crash: false,
            }
        } else {
            FaultDecision {
                duplicate,
                ..FaultDecision::CLEAN
            }
        };
        if decision.drop {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
        } else if decision.defer_spans > 0 {
            self.stats.deferred.fetch_add(1, Ordering::Relaxed);
        } else if decision.duplicate {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        decision
    }
}

/// The link-level reliability layer of the wire workers (the threaded
/// pool and the shm server), present when the endpoint config carries a
/// non-trivial [`FaultModel`]. Every transmission goes through
/// [`pass`](Link::pass); a retransmission holds a slot in the
/// pending-retry count from its [`Pass::Retry`] verdict until the retried
/// copy is [`retired`](Link::retired), so a flush barrier that waits for
/// zero never misses one in flight.
pub(crate) struct Link {
    model: FaultModel,
    /// Per-fragment attempt budget; the attempt that reaches it delivers
    /// fault-free (bounded zero-hang guarantee).
    budget: u32,
    /// Base seed; each worker's injector derives from it by index.
    seed: u64,
    /// Link-wide fault counters, shared by every worker's injector.
    stats: Arc<FaultStats>,
    pending_retries: AtomicU64,
    /// Where `Retransmit` events go (the transport's recorder).
    telemetry: Option<Arc<Telemetry>>,
}

/// The link's verdict on one transmission.
pub(crate) enum Pass {
    /// Dropped or deferred: re-send with `attempt + 1` behind the queued
    /// traffic (already counted as a pending retry). Not a final
    /// disposition — the retried copy carries any completion state on.
    Retry,
    /// Deliver `copies` times (2 = duplication fault).
    Deliver { copies: u32 },
}

impl Link {
    /// The link of a transport built from `config` (`None` when its fault
    /// model can never fire); retransmissions are recorded in `telemetry`.
    pub(crate) fn new(config: &EndpointConfig, telemetry: &Option<Arc<Telemetry>>) -> Option<Link> {
        (!config.fault_model.is_none()).then(|| Link {
            model: config.fault_model,
            budget: config.retry_budget.max(1),
            seed: config.fault_seed,
            stats: Arc::new(FaultStats::default()),
            pending_retries: AtomicU64::new(0),
            telemetry: telemetry.clone(),
        })
    }

    /// The dice of wire worker `idx`, seeded `seed ^ idx·φ` (worker 0 rolls
    /// the base seed). The counters are shared, so `crash_after_frags`
    /// keys off the link-wide transmit sequence.
    pub(crate) fn injector(&self, idx: usize) -> FaultInjector {
        let seed = self.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        FaultInjector::new(self.model, seed, self.stats.clone())
    }

    /// The link-wide fault counters.
    pub(crate) fn stats(&self) -> &Arc<FaultStats> {
        &self.stats
    }

    /// Retransmissions issued and not yet retired.
    pub(crate) fn pending_retries(&self) -> u64 {
        self.pending_retries.load(Ordering::Acquire)
    }

    /// One transmission of a `len`-byte fragment of operation `op`
    /// (initiator, op id) on its `attempt`-th retry (0 = first send).
    /// Zero-length fragments carry no payload a fabric could corrupt and
    /// bypass the dice, as does the attempt that reaches the budget.
    /// Otherwise the dice roll: a crash runs `on_crash` (the destination
    /// endpoint goes away) and swallows the fragment like a drop; a drop
    /// or deferral is a [`Pass::Retry`].
    #[inline]
    pub(crate) fn pass(
        &self,
        inj: &mut FaultInjector,
        len: usize,
        attempt: u32,
        op: (NodeAddr, u64),
        on_crash: impl FnOnce(),
    ) -> Pass {
        if len == 0 || attempt >= self.budget {
            return Pass::Deliver { copies: 1 };
        }
        let d = inj.roll();
        if d.crash {
            on_crash();
        }
        if d.drop || d.defer_spans > 0 {
            self.pending_retries.fetch_add(1, Ordering::AcqRel);
            let (initiator, op_id) = op;
            telemetry::record(
                &self.telemetry,
                EventKind::Retransmit,
                telemetry::initiator_key(initiator.nid, initiator.pid),
                op_id,
                (attempt + 1) as u64,
            );
            return Pass::Retry;
        }
        Pass::Deliver {
            copies: if d.duplicate { 2 } else { 1 },
        }
    }

    /// A message on its `attempt`-th try is fully processed (delivered, or
    /// re-sent as attempt + 1): a retransmission releases its pending-retry
    /// slot.
    #[inline]
    pub(crate) fn retired(&self, attempt: u32) {
        if attempt > 0 {
            self.pending_retries.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// A fragment's final disposition at a wire worker: deliver it `copies`
/// times through `deliver` when the destination endpoint exists, or NACK
/// `NoSuchMailbox` once when it is gone. Every NACK goes to `nack`;
/// returns whether any was raised.
pub(crate) fn deliver_copies(
    ep: Option<&RvmaEndpoint>,
    copies: u32,
    mut deliver: impl FnMut(&RvmaEndpoint) -> DeliverResult,
    mut nack: impl FnMut(NackReason),
) -> bool {
    let Some(ep) = ep else {
        nack(NackReason::NoSuchMailbox);
        return true;
    };
    let mut nacked = false;
    for _ in 0..copies {
        if let DeliverResult::Nack(r) = deliver(ep) {
            nack(r);
            nacked = true;
        }
    }
    nacked
}

/// Receiver-side duplicate suppression for one mailbox: a bounded memory
/// of fragments already accepted, keyed by `(initiator, op_id)` with the
/// fragment's byte offset as its sequence number within the operation.
///
/// Capacity bounds the number of distinct *operations* remembered (FIFO
/// eviction), which is how a NIC's finite dedup window behaves: a replay
/// arriving after its operation aged out of the window is accepted as
/// fresh. The reliable paths keep replays tight (an immediate duplicate,
/// or a retransmit racing a deferred copy), so a modest capacity
/// ([`DEFAULT_DEDUP_WINDOW`]) suppresses them all.
///
/// The window deliberately survives epoch rotation: a duplicated *final*
/// fragment of epoch N must not be counted into epoch N + 1.
#[derive(Debug)]
pub struct DedupWindow {
    /// Offsets already accepted, per live operation.
    seen: HashMap<OpKey, Vec<usize>>,
    /// Operations in arrival order, for FIFO eviction.
    order: VecDeque<OpKey>,
    capacity: usize,
}

impl DedupWindow {
    /// A window remembering up to `capacity` operations.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (use
    /// [`EndpointConfig::dedup_window`](crate::endpoint::EndpointConfig) `= 0`
    /// to disable dedup instead).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "dedup window capacity must be positive");
        DedupWindow {
            seen: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Has this exact fragment (operation + offset) been accepted before?
    pub fn is_duplicate(&self, key: OpKey, offset: usize) -> bool {
        self.seen
            .get(&key)
            .is_some_and(|offs| offs.contains(&offset))
    }

    /// Record an accepted fragment, evicting the oldest operation beyond
    /// capacity.
    pub fn record(&mut self, key: OpKey, offset: usize) {
        match self.seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let offs = e.get_mut();
                if !offs.contains(&offset) {
                    offs.push(offset);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(vec![offset]);
                self.order.push_back(key);
                while self.order.len() > self.capacity {
                    if let Some(old) = self.order.pop_front() {
                        self.seen.remove(&old);
                    }
                }
            }
        }
    }

    /// Operations currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(op: u64) -> OpKey {
        OpKey {
            op_id: op,
            initiator: 1,
        }
    }

    #[test]
    fn fault_model_none_is_none() {
        assert!(FaultModel::NONE.is_none());
        assert!(!FaultModel {
            reorder_p: 0.1,
            ..FaultModel::NONE
        }
        .is_none());
        assert!(!FaultModel {
            crash_after_frags: Some(1),
            ..FaultModel::NONE
        }
        .is_none());
    }

    #[test]
    #[should_panic(expected = "reorder_p")]
    fn invalid_reorder_probability_rejected() {
        FaultModel {
            reorder_p: 1.5,
            ..FaultModel::NONE
        }
        .validate();
    }

    #[test]
    fn injector_is_seed_deterministic() {
        let roll_n = |seed| {
            let stats = Arc::new(FaultStats::default());
            let mut inj = FaultInjector::new(
                FaultModel {
                    drop_p: 0.3,
                    dup_p: 0.2,
                    reorder_p: 0.1,
                    ..FaultModel::NONE
                },
                seed,
                stats.clone(),
            );
            for _ in 0..512 {
                inj.roll();
            }
            (stats.dropped(), stats.duplicated(), stats.deferred())
        };
        assert_eq!(roll_n(7), roll_n(7));
        let (d, dup, def) = roll_n(7);
        assert!(d > 80 && d < 240, "dropped {d} wildly off 30% of 512");
        assert!(dup > 20, "duplicated {dup}");
        assert!(def > 10, "deferred {def}");
    }

    #[test]
    fn injector_crashes_exactly_once() {
        let stats = Arc::new(FaultStats::default());
        let mut inj = FaultInjector::new(
            FaultModel {
                crash_after_frags: Some(3),
                ..FaultModel::NONE
            },
            1,
            stats.clone(),
        );
        let crashes: Vec<bool> = (0..6).map(|_| inj.roll().crash).collect();
        assert_eq!(crashes, vec![false, false, true, false, false, false]);
        assert_eq!(stats.transmitted(), 6);
        assert_eq!(stats.dropped(), 1, "the crashing fragment is swallowed");
    }

    #[test]
    fn dedup_window_suppresses_replays() {
        let mut w = DedupWindow::new(4);
        assert!(!w.is_duplicate(key(1), 0));
        w.record(key(1), 0);
        assert!(w.is_duplicate(key(1), 0));
        assert!(!w.is_duplicate(key(1), 64), "other fragments of the op");
        assert!(!w.is_duplicate(key(2), 0), "other ops");
        w.record(key(1), 64);
        assert!(w.is_duplicate(key(1), 64));
        assert_eq!(w.len(), 1, "one op remembered");
    }

    #[test]
    fn dedup_window_evicts_oldest_op() {
        let mut w = DedupWindow::new(2);
        w.record(key(1), 0);
        w.record(key(2), 0);
        w.record(key(3), 0);
        assert_eq!(w.len(), 2);
        assert!(!w.is_duplicate(key(1), 0), "op 1 aged out");
        assert!(w.is_duplicate(key(2), 0));
        assert!(w.is_duplicate(key(3), 0));
        assert!(!w.is_empty());
    }
}
