//! Discrete-event queue.
//!
//! Events are ordered by `(time, sequence number)`, which makes the engine
//! fully deterministic: two events at the same timestamp are processed in the
//! order they were scheduled. Job arrivals are not events: the engine holds
//! the one future arrival outside this queue and lets it fire before any
//! event at or after its timestamp.

use crate::job::JobId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A running job is expected to finish. The `version` stamps the
    /// allocation the prediction was made for; if the job has been re-scaled
    /// since, the event is stale and ignored.
    JobCompletion { job: JobId, version: u64 },
    /// A periodic decision epoch (lets the scheduler act even when nothing
    /// arrived or completed, e.g. to re-scale running jobs).
    DecisionEpoch,
    /// Sample the utilisation trace.
    UtilizationSample,
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated time at which the event fires.
    pub time: f64,
    /// Monotone sequence number breaking timestamp ties deterministically.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so the BinaryHeap (a max-heap) pops the earliest
        // event first. Times are always finite in the engine.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-priority queue of events.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule an event at `time`.
    pub fn push(&mut self, time: f64, kind: EventKind) {
        debug_assert!(time.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every queued event (retaining the heap's capacity) and restart
    /// the tie-breaking sequence, as if the queue were freshly built.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::DecisionEpoch);
        q.push(1.0, EventKind::UtilizationSample);
        q.push(3.0, EventKind::DecisionEpoch);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::DecisionEpoch);
        q.push(
            2.0,
            EventKind::JobCompletion {
                job: JobId(1),
                version: 0,
            },
        );
        q.push(2.0, EventKind::UtilizationSample);
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(kinds[0], EventKind::DecisionEpoch);
        assert_eq!(
            kinds[1],
            EventKind::JobCompletion {
                job: JobId(1),
                version: 0
            }
        );
        assert_eq!(kinds[2], EventKind::UtilizationSample);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(1.5, EventKind::DecisionEpoch);
        assert_eq!(q.peek_time(), Some(1.5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
