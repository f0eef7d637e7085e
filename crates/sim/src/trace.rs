//! Bounded event tracing for simulation debugging.
//!
//! When enabled on an [`Engine`](crate::Engine), every dispatched event
//! appends a [`TraceEntry`] to its shard's fixed-capacity ring. The ring keeps the
//! *most recent* events — when a simulation deadlocks or produces a wrong
//! number, the tail of the trace is what you want.

use crate::engine::ComponentId;
use crate::time::SimTime;
use std::collections::VecDeque;

/// One dispatched event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Instant the event fired.
    pub time: SimTime,
    /// Component it was delivered to.
    pub target: ComponentId,
    /// The event's schedule sequence number, unique across shards (see
    /// [`Engine::merged_trace`](crate::Engine::merged_trace)).
    pub seq: u64,
}

/// A fixed-capacity ring of recent [`TraceEntry`]s.
#[derive(Debug)]
pub struct TraceRing {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    /// A ring keeping the last `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceRing {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Append an entry, evicting the oldest beyond capacity.
    pub fn push(&mut self, entry: TraceEntry) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recent entry.
    pub fn last(&self) -> Option<&TraceEntry> {
        self.entries.back()
    }

    /// Render the tail of the trace (up to `n` entries) for diagnostics.
    pub fn tail_report(&self, n: usize) -> String {
        let mut out = String::new();
        let skip = self.entries.len().saturating_sub(n);
        for e in self.entries.iter().skip(skip) {
            out.push_str(&format!("#{} @{} -> {:?}\n", e.seq, e.time, e.target));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_ns(seq * 10),
            target: ComponentId::from_raw(seq as usize % 3),
            seq,
        }
    }

    #[test]
    fn keeps_most_recent() {
        let mut r = TraceRing::new(3);
        for s in 0..5 {
            r.push(entry(s));
        }
        let seqs: Vec<u64> = r.entries().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.last().unwrap().seq, 4);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn empty_ring() {
        let r = TraceRing::new(4);
        assert!(r.is_empty());
        assert!(r.last().is_none());
        assert_eq!(r.tail_report(5), "");
    }

    #[test]
    fn tail_report_formats() {
        let mut r = TraceRing::new(8);
        r.push(entry(0));
        r.push(entry(1));
        let rep = r.tail_report(1);
        assert!(rep.contains("#1"));
        assert!(!rep.contains("#0"));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        TraceRing::new(0);
    }
}
