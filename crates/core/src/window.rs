//! Windows: the application-side handle to a mailbox (paper: `RVMA_Win`).
//!
//! A window is created by `RvmaEndpoint::init_window` and supports the full
//! API of paper Sec. III-C: posting buffers (each returning its own
//! [`Notification`] completion pointer), closing, querying and incrementing
//! the epoch, batch retrieval of notification handles, and the rewind
//! extension of Sec. IV-F.

use crate::addr::VirtAddr;
use crate::buffer::{CompletedBuffer, PostedBuffer, Threshold};
use crate::cq::CompletionQueue;
use crate::endpoint::RvmaEndpoint;
use crate::error::Result;
use crate::mailbox::{EpochProgress, Mailbox};
use crate::notify::{AsyncNotifyStats, Notification, NotificationSlot, NotifyFuture};
use crate::pool::{BufferPool, PoolStats};
use crate::telemetry::Telemetry;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// How [`Window::recover_timeout`] resolved an epoch it waited on.
#[derive(Debug)]
pub enum EpochOutcome {
    /// The epoch reached its threshold within the timeout.
    Completed(CompletedBuffer),
    /// The timeout expired: the partially-filled epoch was rotated out
    /// (`RVMA_Win_inc_epoch`) and handed over with whatever bytes arrived.
    /// The next posted buffer is active — the mailbox is not wedged on the
    /// missing fragments.
    Rewound(CompletedBuffer),
}

impl EpochOutcome {
    /// The epoch's buffer, however the epoch ended.
    pub fn into_buffer(self) -> CompletedBuffer {
        match self {
            EpochOutcome::Completed(b) | EpochOutcome::Rewound(b) => b,
        }
    }

    /// True when the epoch was force-rotated with a partial buffer.
    pub fn is_rewound(&self) -> bool {
        matches!(self, EpochOutcome::Rewound(_))
    }
}

/// Application handle to one RVMA mailbox.
///
/// Dropping a `Window` does **not** close the mailbox — posted buffers keep
/// receiving and completing (their notifications remain live). Call
/// [`close`](Window::close) for the paper's `RVMA_Close_Win` semantics.
#[derive(Debug)]
pub struct Window {
    endpoint: Arc<RvmaEndpoint>,
    mailbox: Arc<Mutex<Mailbox>>,
    vaddr: VirtAddr,
    threshold: Threshold,
    /// Recycles epoch-buffer allocations for [`Window::post_pooled`].
    pool: Arc<BufferPool>,
    /// The endpoint's event recorder, cached at creation so the post path
    /// never touches the endpoint's cold-path lock. `None` unless
    /// telemetry is enabled.
    telemetry: Option<Arc<Telemetry>>,
    /// The endpoint's async-completion counters, armed into every posted
    /// slot (cached at creation, same reason as `telemetry`).
    async_stats: Arc<AsyncNotifyStats>,
}

impl Window {
    pub(crate) fn new(
        endpoint: Arc<RvmaEndpoint>,
        mailbox: Arc<Mutex<Mailbox>>,
        vaddr: VirtAddr,
        threshold: Threshold,
    ) -> Self {
        let telemetry = endpoint.telemetry();
        let async_stats = endpoint.async_notify_stats();
        Window {
            endpoint,
            mailbox,
            vaddr,
            threshold,
            pool: Arc::new(BufferPool::new()),
            telemetry,
            async_stats,
        }
    }

    /// A fresh slot for one posted buffer, armed with the endpoint's async
    /// counters.
    fn new_slot(&self) -> Arc<NotificationSlot> {
        let slot = NotificationSlot::new();
        slot.arm_stats(self.async_stats.clone());
        slot
    }

    /// The mailbox's virtual address.
    pub fn vaddr(&self) -> VirtAddr {
        self.vaddr
    }

    /// The window's default epoch threshold.
    pub fn threshold(&self) -> Threshold {
        self.threshold
    }

    /// The endpoint this window lives on.
    pub fn endpoint(&self) -> &Arc<RvmaEndpoint> {
        &self.endpoint
    }

    /// Post a buffer to the mailbox's bucket with the window's default
    /// threshold (paper: `RVMA_Post_buffer`). Ownership of `buf` moves to
    /// the mailbox and returns through the [`Notification`] on completion.
    pub fn post_buffer(&self, buf: Vec<u8>) -> Result<Notification> {
        self.post_buffer_with(buf, self.threshold)
    }

    /// Post a buffer with an explicit per-buffer threshold override.
    pub fn post_buffer_with(&self, buf: Vec<u8>, threshold: Threshold) -> Result<Notification> {
        let slot = self.new_slot();
        self.mailbox
            .lock()
            .post(PostedBuffer::new(buf, threshold, slot.clone()))?;
        Ok(self.notification(slot))
    }

    /// [`post_buffer`](Window::post_buffer), async flavour: returns a future
    /// resolving to the completed buffer. The completing write wakes the
    /// awaiting task directly through the slot's waker cell — no condvar,
    /// no spin-then-park.
    pub fn post_buffer_async(&self, buf: Vec<u8>) -> Result<NotifyFuture> {
        let slot = self.new_slot();
        slot.arm_async();
        self.mailbox
            .lock()
            .post(PostedBuffer::new(buf, self.threshold, slot.clone()))?;
        Ok(self.notification(slot).into_future())
    }

    /// [`post_pooled`](Window::post_pooled), async flavour; see
    /// [`post_buffer_async`](Window::post_buffer_async).
    pub fn post_pooled_async(&self, len: usize) -> Result<NotifyFuture> {
        let slot = self.new_slot();
        slot.arm_async();
        self.mailbox.lock().post(PostedBuffer::pooled(
            self.pool.take(len),
            self.threshold,
            slot.clone(),
            self.pool.clone(),
        ))?;
        Ok(self.notification(slot).into_future())
    }

    /// Post a buffer whose completion is delivered through `cq` tagged with
    /// `user`, instead of through a per-buffer [`Notification`] — the
    /// epoll-style idiom for multiplexing many windows onto one consumer.
    /// No notification handle is returned: the queue is the sole consumer
    /// of this completion (exactly-once delivery).
    pub fn post_buffer_cq(&self, buf: Vec<u8>, cq: &CompletionQueue, user: u64) -> Result<()> {
        let slot = self.new_slot();
        slot.attach_cq(cq.attachment(user));
        if let Some(t) = &self.telemetry {
            cq.trace_into(t.clone());
        }
        self.mailbox
            .lock()
            .post(PostedBuffer::new(buf, self.threshold, slot))?;
        Ok(())
    }

    /// [`post_pooled`](Window::post_pooled) routed into a completion queue;
    /// see [`post_buffer_cq`](Window::post_buffer_cq).
    pub fn post_pooled_cq(&self, len: usize, cq: &CompletionQueue, user: u64) -> Result<()> {
        let slot = self.new_slot();
        slot.attach_cq(cq.attachment(user));
        if let Some(t) = &self.telemetry {
            cq.trace_into(t.clone());
        }
        self.mailbox.lock().post(PostedBuffer::pooled(
            self.pool.take(len),
            self.threshold,
            slot,
            self.pool.clone(),
        ))?;
        Ok(())
    }

    /// Wrap a slot in a notification, armed with the window's recorder.
    fn notification(&self, slot: Arc<NotificationSlot>) -> Notification {
        let mut n = Notification::new(slot);
        if let Some(t) = &self.telemetry {
            n.trace_into(t.clone());
        }
        n
    }

    /// Post a zeroed `len`-byte buffer drawn from the window's buffer pool
    /// with the window's default threshold. The allocation returns to the
    /// pool automatically when the last owner of the completed buffer
    /// (notification holder, retired-ring entry, rewind clone) drops it, so
    /// a steady-state post → complete → re-post cycle stops allocating once
    /// the pool is warm. [`pool_stats`](Window::pool_stats) exposes the
    /// hit/miss counters.
    pub fn post_pooled(&self, len: usize) -> Result<Notification> {
        self.post_pooled_with(len, self.threshold)
    }

    /// [`post_pooled`](Window::post_pooled) with an explicit per-buffer
    /// threshold override.
    pub fn post_pooled_with(&self, len: usize, threshold: Threshold) -> Result<Notification> {
        let slot = self.new_slot();
        self.mailbox.lock().post(PostedBuffer::pooled(
            self.pool.take(len),
            threshold,
            slot.clone(),
            self.pool.clone(),
        ))?;
        Ok(self.notification(slot))
    }

    /// Hit/miss/occupancy counters of the window's buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Post several buffers at once, returning their notification handles in
    /// posting order — the batch idiom behind `RVMA_Win_get_buf_ptrs`
    /// ("system software may want to guarantee that a constant number of
    /// buffers are always posted").
    pub fn post_buffers(&self, bufs: Vec<Vec<u8>>) -> Result<Vec<Notification>> {
        let mut out = Vec::with_capacity(bufs.len());
        for b in bufs {
            out.push(self.post_buffer(b)?);
        }
        Ok(out)
    }

    /// Current epoch of the mailbox (paper: `RVMA_Win_get_epoch`).
    pub fn epoch(&self) -> u64 {
        self.mailbox.lock().epoch()
    }

    /// Number of buffers posted and not yet completed.
    pub fn posted_buffers(&self) -> usize {
        self.mailbox.lock().posted_buffers()
    }

    /// Hand the active buffer to software *now*, before its threshold is
    /// met (paper: `RVMA_Win_inc_epoch`) — stream semantics, unknown
    /// message sizes, or partial-buffer error recovery.
    pub fn inc_epoch(&self) -> Result<()> {
        self.mailbox.lock().inc_epoch()
    }

    /// Close the window (paper: `RVMA_Close_Win`). Further operations to the
    /// address are discarded (NACKed per endpoint policy). Returns the
    /// never-activated queued buffers to the caller. The LUT entry remains
    /// (reporting `WindowClosed`) until `RvmaEndpoint::evict` reclaims it.
    pub fn close(&self) -> Vec<Vec<u8>> {
        self.mailbox.lock().close()
    }

    /// True once closed.
    pub fn is_closed(&self) -> bool {
        self.mailbox.lock().is_closed()
    }

    /// Hardware rewind (paper Sec. IV-F): the buffer completed `back`
    /// epochs ago (`back = 1` is the most recent). Fails if the retired
    /// ring no longer holds that epoch.
    pub fn rewind(&self, back: u64) -> Result<CompletedBuffer> {
        self.mailbox.lock().rewind(back)
    }

    /// The retired buffer for absolute epoch `epoch`, if still retained.
    pub fn retired_epoch(&self, epoch: u64) -> Result<CompletedBuffer> {
        self.mailbox.lock().retired_epoch(epoch)
    }

    /// Bytes received so far in the currently progressing epoch. Useful for
    /// diagnostics; the in-progress epoch is otherwise deliberately hidden
    /// from the application.
    pub fn bytes_in_progress(&self) -> u64 {
        self.mailbox.lock().bytes_this_epoch()
    }

    /// A lock-free handle to the mailbox's epoch-progress counters (bytes,
    /// ops, epoch). Polling it never touches the mailbox lock, so an
    /// application can watch threshold progress without perturbing the
    /// delivery datapath.
    pub fn progress(&self) -> Arc<EpochProgress> {
        self.mailbox.lock().progress_handle()
    }

    /// Wait up to `timeout` for `n` — the notification of this mailbox's
    /// **active** (oldest unconsumed) epoch — and, if it does not complete,
    /// rotate the partially-filled epoch out instead of wedging: the
    /// fabric-fault recovery idiom of paper Secs. IV-E/IV-F, where an epoch
    /// whose fragments were lost is surrendered with partial contents
    /// rather than blocking the mailbox forever.
    ///
    /// The decision is race-free: the endpoint's completing write runs
    /// under the mailbox lock, so after the timeout this method re-checks
    /// completion *under that lock* — either the epoch completed in the
    /// race window (returned as [`EpochOutcome::Completed`]) or it is
    /// rotated while provably incomplete ([`EpochOutcome::Rewound`]). A
    /// completion can never be lost or double-handled.
    ///
    /// Errors propagate from `inc_epoch` (e.g. the window was closed
    /// underneath the wait); the notification is left unconsumed in that
    /// case.
    ///
    /// # Panics
    /// Panics if `n` was already consumed.
    pub fn recover_timeout(&self, n: &mut Notification, timeout: Duration) -> Result<EpochOutcome> {
        if let Some(buf) = n.wait_timeout(timeout) {
            return Ok(EpochOutcome::Completed(buf));
        }
        let mut mb = self.mailbox.lock();
        if n.is_complete() {
            drop(mb);
            return Ok(EpochOutcome::Completed(n.wait()));
        }
        mb.inc_epoch()?;
        drop(mb);
        // inc_epoch performed the completing write on the active buffer —
        // which is n's buffer by contract — so this wait returns at once.
        Ok(EpochOutcome::Rewound(n.wait()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeAddr;
    use crate::endpoint::{DeliverResult, Fragment};
    use bytes::Bytes;

    fn setup() -> (Arc<RvmaEndpoint>, Window) {
        let ep = RvmaEndpoint::new(NodeAddr::node(1));
        let win = ep
            .init_window(VirtAddr::new(0x10), Threshold::bytes(8))
            .unwrap();
        (ep, win)
    }

    fn put(ep: &RvmaEndpoint, op: u64, off: usize, data: &[u8]) -> DeliverResult {
        ep.deliver(&Fragment {
            initiator: NodeAddr::node(2),
            op_id: op,
            dst_vaddr: VirtAddr::new(0x10),
            op_total_len: data.len() as u64,
            offset: off,
            data: Bytes::copy_from_slice(data),
        })
    }

    #[test]
    fn window_reports_threshold_and_vaddr() {
        let (_ep, win) = setup();
        assert_eq!(win.vaddr(), VirtAddr::new(0x10));
        assert_eq!(win.threshold(), Threshold::bytes(8));
    }

    #[test]
    fn post_buffers_batch_returns_in_order() {
        let (ep, win) = setup();
        let mut ns = win
            .post_buffers(vec![vec![0; 8], vec![0; 8], vec![0; 8]])
            .unwrap();
        assert_eq!(ns.len(), 3);
        assert_eq!(win.posted_buffers(), 3);
        for i in 0..3u8 {
            put(&ep, i as u64, 0, &[i; 8]);
        }
        for (i, n) in ns.iter_mut().enumerate() {
            assert_eq!(n.poll().unwrap().data(), vec![i as u8; 8].as_slice());
        }
        assert_eq!(win.epoch(), 3);
    }

    #[test]
    fn per_buffer_threshold_override() {
        let (ep, win) = setup();
        let mut n = win.post_buffer_with(vec![0; 8], Threshold::ops(1)).unwrap();
        put(&ep, 1, 0, &[5; 2]);
        assert_eq!(n.poll().unwrap().len(), 2);
    }

    #[test]
    fn epoch_and_progress_visibility() {
        let (ep, win) = setup();
        let _n = win.post_buffer(vec![0; 8]).unwrap();
        assert_eq!(win.epoch(), 0);
        put(&ep, 1, 0, &[1; 4]);
        assert_eq!(win.bytes_in_progress(), 4);
        put(&ep, 2, 4, &[1; 4]);
        assert_eq!(win.epoch(), 1);
        assert_eq!(win.bytes_in_progress(), 0);
    }

    #[test]
    fn close_returns_queued_buffers() {
        let (_ep, win) = setup();
        let _n1 = win.post_buffer(vec![1; 8]).unwrap();
        let _n2 = win.post_buffer(vec![2; 8]).unwrap();
        let bufs = win.close();
        assert!(win.is_closed());
        assert_eq!(bufs.len(), 2);
        assert!(win.post_buffer(vec![0; 8]).is_err());
    }

    #[test]
    fn rewind_through_window() {
        let (ep, win) = setup();
        let _ns = win.post_buffers(vec![vec![0; 8], vec![0; 8]]).unwrap();
        put(&ep, 1, 0, &[1; 8]);
        put(&ep, 2, 0, &[2; 8]);
        assert_eq!(win.rewind(2).unwrap().data(), &[1; 8]);
        assert_eq!(win.retired_epoch(1).unwrap().data(), &[2; 8]);
    }

    #[test]
    fn post_pooled_recycles_epoch_buffers() {
        use crate::mailbox::DEFAULT_RETAIN_EPOCHS;
        let (ep, win) = setup();
        // Cold: the pool has nothing shelved.
        let mut n = win.post_pooled(8).unwrap();
        assert_eq!(win.pool_stats().misses, 1);
        put(&ep, 1, 0, &[1; 8]);
        assert_eq!(n.poll().unwrap().data(), &[1; 8]);
        // The retired ring still co-owns the allocation for rewind; run
        // enough epochs to evict it, and its last drop shelves it.
        for k in 0..DEFAULT_RETAIN_EPOCHS as u64 {
            let mut n = win.post_pooled(8).unwrap();
            put(&ep, 2 + k, 0, &[0; 8]);
            let _ = n.poll().unwrap();
        }
        assert_eq!(win.pool_stats().shelved, 1);
        // ...and the next post reuses it, zeroed.
        let mut n = win.post_pooled(8).unwrap();
        assert_eq!(win.pool_stats().hits, 1);
        put(&ep, 9, 0, &[2; 4]);
        put(&ep, 10, 4, &[3; 4]);
        assert_eq!(n.poll().unwrap().data(), &[2, 2, 2, 2, 3, 3, 3, 3]);
    }

    #[test]
    fn recover_timeout_returns_completion_when_epoch_finishes() {
        let (ep, win) = setup();
        let mut n = win.post_buffer(vec![0; 8]).unwrap();
        put(&ep, 1, 0, &[4; 8]);
        match win
            .recover_timeout(&mut n, std::time::Duration::from_secs(5))
            .unwrap()
        {
            EpochOutcome::Completed(buf) => assert_eq!(buf.data(), &[4; 8]),
            EpochOutcome::Rewound(_) => panic!("epoch was complete"),
        }
    }

    #[test]
    fn recover_timeout_rewinds_a_partial_epoch() {
        // Half the epoch's bytes arrive, the rest never do (a lossy fabric
        // without retransmission). The timeout rotates the epoch out with
        // its partial contents and the mailbox keeps going.
        let (ep, win) = setup();
        let mut n1 = win.post_buffer(vec![0; 8]).unwrap();
        let mut n2 = win.post_buffer(vec![0; 8]).unwrap();
        put(&ep, 1, 0, &[6; 4]);
        let outcome = win
            .recover_timeout(&mut n1, std::time::Duration::from_millis(10))
            .unwrap();
        assert!(outcome.is_rewound());
        let partial = outcome.into_buffer();
        assert_eq!(partial.len(), 4);
        assert_eq!(partial.data(), &[6; 4]);
        assert_eq!(win.epoch(), 1, "the wedged epoch was rotated out");
        // The next posted buffer is active and completes normally.
        put(&ep, 2, 0, &[7; 8]);
        assert_eq!(n2.wait().data(), &[7; 8]);
    }

    #[test]
    fn recover_timeout_propagates_closed_window() {
        let (_ep, win) = setup();
        let mut n = win.post_buffer(vec![0; 8]).unwrap();
        win.close();
        assert!(win
            .recover_timeout(&mut n, std::time::Duration::from_millis(5))
            .is_err());
        assert!(!n.is_consumed(), "notification untouched on error");
    }

    #[test]
    fn dropping_window_keeps_mailbox_receiving() {
        let (ep, win) = setup();
        let mut n = win.post_buffer(vec![0; 8]).unwrap();
        drop(win);
        assert_eq!(
            put(&ep, 1, 0, &[3; 8]),
            DeliverResult::Ok {
                completed_epoch: true
            }
        );
        assert_eq!(n.poll().unwrap().data(), &[3; 8]);
    }
}
