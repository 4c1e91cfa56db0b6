//! The discrete-event core: a binary-heap priority queue over [`SimTime`].
//!
//! Events at equal times pop in insertion order (a monotone sequence number
//! breaks ties), so the event loop is fully deterministic.

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ssd_sim::SimTime;

#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// ```
/// use ssd_sched::EventQueue;
/// use ssd_sim::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(40), "late");
/// q.schedule(SimTime::from_micros(10), "early");
/// q.schedule(SimTime::from_micros(10), "early-but-second");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "early-but-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(40), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Bytes one pending event occupies in the heap (every sift moves that
    /// many): the layout guard of payload types meant to stay small.
    #[cfg(test)]
    pub(crate) const fn entry_bytes() -> usize {
        std::mem::size_of::<Entry<T>>()
    }

    /// Schedules `payload` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, payload: T) {
        let entry = Entry {
            time,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.heap.push(Reverse(entry));
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), 'b');
        q.schedule(SimTime::from_nanos(1), 'a');
        q.schedule(SimTime::from_nanos(5), 'c');
        q.schedule(SimTime::ZERO, 'z');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['z', 'a', 'b', 'c']);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_nanos(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
