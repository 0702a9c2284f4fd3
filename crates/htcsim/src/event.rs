//! The time-ordered event queue driving the simulation.
//!
//! [`HeapQueue`] is a binary heap that pops in ascending `(time, sequence)`
//! order, where `sequence` is the monotone insertion counter, so
//! equal-timestamp events drain in FIFO order and a run is deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires. Indices are `u32` arena handles into
/// the simulator's job/site storage, keeping an [`Event`] at 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A job enters the brokerage queue.
    JobArrival {
        /// Index into the simulator's job arena.
        job: u32,
    },
    /// A job's input transfer completes and the job can start computing.
    TransferComplete {
        /// Index into the simulator's job arena.
        job: u32,
        /// Site the job was brokered to.
        site: u32,
    },
    /// A job finishes and frees its slot.
    JobFinish {
        /// Index into the simulator's job arena.
        job: u32,
        /// Site the job ran on.
        site: u32,
    },
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulation time in hours.
    pub time: f64,
    /// Monotone sequence number breaking ties deterministically.
    pub sequence: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of events keyed by time, ties broken by insertion order: the
/// simulator's event queue.
#[derive(Debug, Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Event>,
    next_sequence: u64,
}

impl HeapQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule an event at an absolute time (must be finite).
    pub fn push(&mut self, time: f64, kind: EventKind) {
        assert!(time.is_finite(), "event time must be finite");
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.heap.push(Event {
            time,
            sequence,
            kind,
        });
    }

    /// Pop the earliest event (FIFO among equal timestamps).
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = HeapQueue::new();
        q.push(5.0, EventKind::JobArrival { job: 0 });
        q.push(1.0, EventKind::JobArrival { job: 1 });
        q.push(3.0, EventKind::JobArrival { job: 2 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = HeapQueue::new();
        q.push(2.0, EventKind::JobArrival { job: 10 });
        q.push(2.0, EventKind::JobArrival { job: 20 });
        assert_eq!(q.pop().unwrap().kind, EventKind::JobArrival { job: 10 });
        assert_eq!(q.pop().unwrap().kind, EventKind::JobArrival { job: 20 });
    }

    #[test]
    fn equal_timestamp_bursts_drain_in_fifo_order() {
        let mut queue = HeapQueue::new();
        // Three waves of pushes at the same two timestamps.
        for wave in 0..3u32 {
            for j in 0..50u32 {
                queue.push(
                    1.0,
                    EventKind::JobArrival {
                        job: wave * 100 + j,
                    },
                );
                queue.push(
                    2.0,
                    EventKind::JobFinish {
                        job: wave * 100 + j,
                        site: 0,
                    },
                );
            }
        }
        let mut last_seq_at = [None::<u64>, None::<u64>];
        let mut last_time = f64::NEG_INFINITY;
        while let Some(event) = queue.pop() {
            assert!(event.time >= last_time, "time order violated");
            last_time = event.time;
            let slot = if event.time == 1.0 { 0 } else { 1 };
            if let Some(prev) = last_seq_at[slot] {
                assert!(
                    event.sequence > prev,
                    "FIFO violated at t={}: sequence {} after {}",
                    event.time,
                    event.sequence,
                    prev
                );
            }
            last_seq_at[slot] = Some(event.sequence);
        }
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn non_finite_time_panics_on_the_heap() {
        let mut q = HeapQueue::new();
        q.push(f64::INFINITY, EventKind::JobArrival { job: 0 });
    }
}
