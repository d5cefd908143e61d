//! A generic time-ordered event queue with FIFO tie-breaking.
//!
//! Components that need to schedule future activity — vsync deadlines,
//! segment arrivals, daemon wakeups, sampler ticks — push `(time, payload)`
//! pairs and pop them in time order. Ties are broken by insertion order so
//! that simulation behaviour never depends on heap internals.

use crate::time::SimTime;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest-seq)
        // entry surfaces first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the earliest event regardless of time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Pop the earliest event if it fires at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time().is_some_and(|t| t <= now) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

// Snapshots serialize the pending entries in pop order (at, seq) — a
// canonical form independent of the heap's internal layout — plus the seq
// allocator, so restored queues pop identically and assign the same seqs
// to future pushes. The derive stand-in has no generics support, hence the
// manual impls.
impl<E: Serialize> Serialize for EventQueue<E> {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) {
        let mut entries: Vec<&Entry<E>> = self.heap.iter().collect();
        entries.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.seq.cmp(&b.seq)));
        s.begin_map(2);
        s.key("entries");
        s.begin_seq(entries.len());
        for e in entries {
            (&e.at, e.seq, &e.payload).serialize(s);
        }
        s.end_seq();
        s.entry("next_seq", &self.next_seq);
        s.end_map();
    }
}

impl<E: Deserialize> Deserialize for EventQueue<E> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, serde::de::Error> {
        use serde::de::{set, take};
        let (mut entries, mut next_seq) = (None, None);
        d.begin_map()?;
        while let Some(k) = d.next_key()? {
            match k {
                "entries" => set(&mut entries, d, "entries")?,
                "next_seq" => set(&mut next_seq, d, "next_seq")?,
                _ => d.skip()?,
            }
        }
        let entries: Vec<(SimTime, u64, E)> = take(entries, "entries", "EventQueue")?;
        Ok(EventQueue {
            heap: entries
                .into_iter()
                .map(|(at, seq, payload)| Entry { at, seq, payload })
                .collect(),
            next_seq: take(next_seq, "next_seq", "EventQueue")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "later");
        q.push(SimTime::from_secs(1), "now");
        assert_eq!(q.pop_due(SimTime::from_secs(2)).map(|(_, e)| e), Some("now"));
        assert_eq!(q.pop_due(SimTime::from_secs(2)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime::from_secs(5)).map(|(_, e)| e), Some("later"));
    }

    #[test]
    fn serde_round_trip_preserves_order_and_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 10u32);
        q.push(SimTime::from_millis(1), 20);
        q.push(t, 30);
        q.pop(); // consume one so next_seq > len
        let mut r = serde::from_value::<EventQueue<u32>>(&serde::to_value(&q)).expect("round trip");
        // Future pushes tie-break after the restored entries, as original.
        q.push(t, 40);
        r.push(t, 40);
        let drain = |q: &mut EventQueue<u32>| -> Vec<(SimTime, u32)> {
            std::iter::from_fn(|| q.pop()).collect()
        };
        assert_eq!(drain(&mut q), drain(&mut r));
    }

    #[test]
    fn peek_then_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_millis(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
