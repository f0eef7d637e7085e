//! Bounded lock-free MPSC ring for cross-shard event mailboxes.
//!
//! Same sequence-number protocol as the datapath wire rings in
//! `rvma_core::ring` (Vyukov's bounded MPMC queue, restricted to one
//! consumer): each slot carries an atomic sequence number that encodes
//! whether it is free for the producer at a given ticket or holds a value
//! for the consumer. Producers claim tickets with a CAS on `tail`; the
//! single consumer (the shard's worker thread, which only drains at window
//! barriers) walks `head` without contention.
//!
//! Unlike the datapath rings there is no park/doorbell machinery: the
//! engine never blocks on a mailbox. A full ring reports
//! [`RingFull`] and the sender falls back to the shard's mutex-backed
//! overflow list, so a burst of cross-shard traffic degrades to a lock
//! instead of deadlocking mid-window.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pad to a cache line so `head` and `tail` don't false-share.
#[repr(align(64))]
struct Padded<T>(T);

struct Slot<T> {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

/// A bounded multi-producer single-consumer ring.
pub struct EventRing<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    tail: Padded<AtomicUsize>,
    head: Padded<AtomicUsize>,
}

// SAFETY: values move through the ring at most once; the slot sequence
// protocol (claim ticket by CAS, publish with a release store, consume after
// an acquire load) hands each value from exactly one producer to the single
// consumer with the required happens-before edge.
unsafe impl<T: Send> Send for EventRing<T> {}
unsafe impl<T: Send> Sync for EventRing<T> {}

impl<T> EventRing<T> {
    /// A ring holding up to `capacity` values (rounded up to a power of two,
    /// minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        EventRing {
            slots,
            mask: cap - 1,
            tail: Padded(AtomicUsize::new(0)),
            head: Padded(AtomicUsize::new(0)),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Push from any thread; returns the value back on a full ring.
    pub fn try_push(&self, value: T) -> Result<(), (RingFull, T)> {
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - tail as isize;
            if diff == 0 {
                match self.tail.0.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed ticket `tail`, so this
                        // thread has exclusive write access to the slot
                        // until the release store below publishes it.
                        unsafe { (*slot.val.get()).write(value) };
                        slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(t) => tail = t,
                }
            } else if diff < 0 {
                return Err((RingFull, value));
            } else {
                tail = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop from the single consumer thread.
    ///
    /// # Safety contract (enforced by the engine's structure)
    /// Only one thread may call this at a time; the engine routes each
    /// shard's mailbox to exactly one worker.
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[head & self.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if (seq as isize).wrapping_sub(head.wrapping_add(1) as isize) < 0 {
            return None;
        }
        // SAFETY: the producer's release store published this slot for
        // ticket `head`; the single consumer takes the value exactly once
        // before recycling the slot.
        let value = unsafe { (*slot.val.get()).assume_init_read() };
        slot.seq
            .store(head.wrapping_add(self.mask + 1), Ordering::Release);
        self.head.0.store(head.wrapping_add(1), Ordering::Relaxed);
        Some(value)
    }
}

impl<T> Drop for EventRing<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let r = EventRing::with_capacity(8);
        for i in 0..5 {
            r.try_push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(r.try_pop(), Some(i));
        }
        assert_eq!(r.try_pop(), None);
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let r = EventRing::with_capacity(4);
        for i in 0..4 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.try_push(99), Err((RingFull, 99)));
        assert_eq!(r.try_pop(), Some(0));
        r.try_push(99).unwrap();
        let drained: Vec<_> = std::iter::from_fn(|| r.try_pop()).collect();
        assert_eq!(drained, vec![1, 2, 3, 99]);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::<u8>::with_capacity(0).capacity(), 2);
        assert_eq!(EventRing::<u8>::with_capacity(5).capacity(), 8);
        assert_eq!(EventRing::<u8>::with_capacity(8).capacity(), 8);
    }

    #[test]
    fn drops_undrained_values() {
        let v = Arc::new(());
        {
            let r = EventRing::with_capacity(4);
            r.try_push(Arc::clone(&v)).unwrap();
            r.try_push(Arc::clone(&v)).unwrap();
        }
        assert_eq!(Arc::strong_count(&v), 1);
    }

    #[test]
    fn multi_producer_stress() {
        const PRODUCERS: usize = 4;
        const PER: u64 = 2000;
        let r = Arc::new(EventRing::with_capacity(64));
        let mut got: Vec<u64> = Vec::new();
        std::thread::scope(|s| {
            for p in 0..PRODUCERS as u64 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..PER {
                        let mut v = p * PER + i;
                        loop {
                            match r.try_push(v) {
                                Ok(()) => break,
                                Err((_, back)) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            while got.len() < PRODUCERS * PER as usize {
                match r.try_pop() {
                    Some(v) => got.push(v),
                    None => std::thread::yield_now(),
                }
            }
        });
        // Every value arrives exactly once, and each producer's values
        // arrive in its send order.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..PRODUCERS as u64 * PER).collect::<Vec<_>>());
        for p in 0..PRODUCERS as u64 {
            let per: Vec<_> = got.iter().copied().filter(|v| v / PER == p).collect();
            assert!(per.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
