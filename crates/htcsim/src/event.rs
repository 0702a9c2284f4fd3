//! The time-ordered event queues driving the simulation.
//!
//! Two interchangeable schedulers implement [`EventScheduler`]:
//!
//! * [`HeapQueue`] — the seed binary-heap queue, preserved verbatim as the
//!   frozen oracle and perf baseline (`O(log n)` push/pop);
//! * [`CalendarQueue`] — a bucketed calendar queue (Brown 1988): events
//!   hash into a circular array of time buckets sized so the head bucket
//!   holds `O(1)` events, giving amortised constant-time operations at the
//!   tens-of-millions-of-events scale the planetary workloads need.
//!
//! Both pop in the identical total order — ascending `(time, sequence)`,
//! where `sequence` is the monotone insertion counter — so equal-timestamp
//! events drain in FIFO order and a simulation run is byte-identical under
//! either scheduler (pinned by the `queue_oracle` integration suite).

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

/// The scheduler contract shared by [`HeapQueue`] and [`CalendarQueue`]:
/// `pop` returns pending events in ascending `(time, sequence)` order.
pub trait EventScheduler: Default {
    /// Schedule an event at an absolute time (must be finite).
    fn push(&mut self, time: f64, kind: EventKind);
    /// Pop the earliest event (FIFO among equal timestamps).
    fn pop(&mut self) -> Option<Event>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Min-heap of events keyed by time (ties broken by insertion order) — the
/// seed scheduler, kept as the oracle the calendar queue is pinned against
/// and as the baseline of the `htcsim_throughput_queue_<N>` perf entry.
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
}

impl EventScheduler for HeapQueue {
    fn push(&mut self, time: f64, kind: EventKind) {
        assert!(time.is_finite(), "event time must be finite");
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.heap.push(Event {
            time,
            sequence,
            kind,
        });
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Smallest calendar size (a power of two, so bucket mapping is a mask).
const MIN_BUCKET_BITS: u32 = 6;

/// Largest calendar size. Past this point more buckets stop paying: each
/// bucket is a separately-allocated `Vec`, so a million-bucket calendar
/// turns every push into a cold random access, while a sorted bucket
/// absorbs tens of resident events at the cost of a short `memmove`.
/// Deep queues therefore grow occupancy, not bucket count.
const MAX_BUCKET_BITS: u32 = 16;

/// Descending `(time, sequence)` order, so the queue-minimum of a sorted
/// bucket sits at the back where `Vec::pop` removes it in `O(1)`.
#[inline]
fn descending(a: &Event, b: &Event) -> Ordering {
    b.time
        .partial_cmp(&a.time)
        .unwrap_or(Ordering::Equal)
        .then_with(|| b.sequence.cmp(&a.sequence))
}

/// One calendar day: its events, kept sorted descending by
/// `(time, sequence)` whenever `sorted` is set (resize redistributes raw
/// and re-sorts lazily on the cursor's first visit).
#[derive(Debug, Clone, Default)]
struct Bucket {
    events: Vec<Event>,
    sorted: bool,
}

impl Bucket {
    /// Insert preserving the descending invariant when it holds (a
    /// binary-search position plus a short memmove), or defer to the lazy
    /// re-sort when it does not.
    #[inline]
    fn insert(&mut self, event: Event) {
        if self.sorted {
            let at = self
                .events
                .partition_point(|e| descending(e, &event) == Ordering::Less);
            self.events.insert(at, event);
        } else {
            self.events.push(event);
        }
    }

    /// The bucket's `(time, sequence)`-minimum without assuming sortedness.
    fn min(&self) -> Option<&Event> {
        if self.sorted {
            self.events.last()
        } else {
            self.events.iter().min_by(|a, b| descending(b, a))
        }
    }
}

/// A bucketed calendar queue with amortised `O(1)` push/pop.
///
/// Events hash by `time / width` into a circular array of buckets (one
/// "day" each), each kept sorted descending so the day's earliest event is
/// an `O(1)` `Vec::pop` off the back; a pop scans forward from the current
/// day, so equal timestamps drain in insertion order exactly like
/// [`HeapQueue`]. The calendar resizes (doubling/halving, re-estimating
/// the bucket width from the live event population) to hold the average
/// occupancy near a cache-line's worth of events per bucket, and falls
/// back to a direct minimum search when a whole "year" of buckets turns up
/// empty — the sparse-queue escape hatch that keeps pops from spinning
/// over empty days.
#[derive(Debug)]
pub struct CalendarQueue {
    buckets: Vec<Bucket>,
    /// `buckets.len() - 1`; the length is a power of two.
    mask: usize,
    /// Hours spanned by one bucket.
    width: f64,
    /// Cursor: the bucket the virtual clock is currently in.
    current: usize,
    /// Upper time bound of the cursor bucket.
    bucket_top: f64,
    len: usize,
    next_sequence: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::with_bits(MIN_BUCKET_BITS, 1.0)
    }
}

impl CalendarQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_bits(bits: u32, width: f64) -> Self {
        let n = 1usize << bits;
        Self {
            buckets: vec![
                Bucket {
                    events: Vec::new(),
                    sorted: true,
                };
                n
            ],
            mask: n - 1,
            width,
            current: 0,
            bucket_top: width,
            len: 0,
            next_sequence: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, time: f64) -> usize {
        // Times are non-negative in the simulator; clamp defensively so a
        // (finite) negative time maps to day zero instead of wrapping.
        let day = (time.max(0.0) / self.width) as u64;
        (day as usize) & self.mask
    }

    /// Point the cursor at the day containing `time`.
    fn seek(&mut self, time: f64) {
        let day = (time.max(0.0) / self.width).floor();
        self.current = (day as u64 as usize) & self.mask;
        self.bucket_top = (day + 1.0) * self.width;
    }

    /// Rebuild the calendar with `bits` buckets, re-estimating the bucket
    /// width from the live events so average occupancy stays near one.
    fn resize(&mut self, bits: u32) {
        let mut events: Vec<Event> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            events.append(&mut bucket.events);
        }
        let width = Self::estimate_width(&events).unwrap_or(self.width);
        *self = Self::with_bits(bits, width);
        if let Some(first) = events.iter().min_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.sequence.cmp(&b.sequence))
        }) {
            self.seek(first.time);
        }
        // Preserve sequence numbers verbatim: FIFO ties survive resizes.
        self.next_sequence = events.iter().map(|e| e.sequence + 1).max().unwrap_or(0);
        self.len = events.len();
        for event in events {
            let b = self.bucket_of(event.time);
            // Raw append; the descending invariant is restored lazily when
            // the cursor first visits the bucket (one sort instead of n
            // binary inserts).
            self.buckets[b].events.push(event);
            self.buckets[b].sorted = false;
        }
    }

    /// Robust bucket width from the live population: a few mean gaps over
    /// the lower 90% of event times. Sizing off the full `(hi - lo)` span
    /// lets a small tail of far-future events (long WAN transfers) inflate
    /// the width by orders of magnitude, smearing the near-term mass into
    /// overfull buckets whose per-pop min-scan then dominates; cutting the
    /// top decile keeps head buckets at `O(1)` occupancy regardless of the
    /// tail. `None` when the population is too small or degenerate to
    /// estimate from (the caller keeps the previous width).
    fn estimate_width(events: &[Event]) -> Option<f64> {
        if events.len() < 2 {
            return None;
        }
        let mut times: Vec<f64> = events.iter().map(|e| e.time).collect();
        let cut = ((times.len() * 9) / 10).clamp(1, times.len() - 1);
        times.select_nth_unstable_by(cut, |a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        let p90 = times[cut];
        let lo = times[..cut].iter().copied().fold(p90, f64::min);
        if p90 > lo {
            return Some(((p90 - lo) / cut as f64 * 3.0).max(1e-9));
        }
        // Degenerate lower mass (all ties): fall back to the full span.
        let hi = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if hi > lo {
            Some(((hi - lo) / times.len() as f64 * 3.0).max(1e-9))
        } else {
            None
        }
    }

    /// Pop the `(time, sequence)`-minimum of the cursor bucket if it is due
    /// before `limit`, sorting the bucket first if a resize left it raw.
    fn pop_due(&mut self, limit: f64) -> Option<Event> {
        let bucket = &mut self.buckets[self.current];
        if bucket.events.is_empty() {
            return None;
        }
        if !bucket.sorted {
            bucket.events.sort_unstable_by(descending);
            bucket.sorted = true;
        }
        let head = *bucket.events.last().expect("bucket is non-empty");
        if head.time >= limit {
            return None;
        }
        bucket.events.pop();
        self.len -= 1;
        Some(head)
    }

    /// Bucket holding the global `(time, sequence)`-minimum — the sparse
    /// fallback after a fruitless full-year scan.
    fn direct_min_bucket(&self) -> Option<usize> {
        let mut best: Option<(usize, &Event)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            let Some(e) = bucket.min() else { continue };
            let better = match best {
                None => true,
                Some((_, cur)) => {
                    e.time < cur.time || (e.time == cur.time && e.sequence < cur.sequence)
                }
            };
            if better {
                best = Some((b, e));
            }
        }
        best.map(|(b, _)| b)
    }
}

impl EventScheduler for CalendarQueue {
    fn push(&mut self, time: f64, kind: EventKind) {
        assert!(time.is_finite(), "event time must be finite");
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        let event = Event {
            time,
            sequence,
            kind,
        };
        if self.len == 0 || time < self.bucket_top - self.width {
            // First event, or one scheduled before the cursor's day (the
            // simulator never does this, but the queue stays correct for
            // arbitrary streams): rewind the cursor so the pop scan starts
            // no later than this event.
            self.seek(time);
        }
        let b = self.bucket_of(time);
        self.buckets[b].insert(event);
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < (1 << MAX_BUCKET_BITS) {
            self.resize(self.buckets.len().trailing_zeros() + 1);
        }
    }

    fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        if self.buckets.len() > (1 << MIN_BUCKET_BITS) && self.len < self.buckets.len() / 4 {
            self.resize(self.buckets.len().trailing_zeros() - 1);
        }
        for _ in 0..=self.mask {
            let limit = self.bucket_top;
            if let Some(event) = self.pop_due(limit) {
                return Some(event);
            }
            self.current = (self.current + 1) & self.mask;
            self.bucket_top += self.width;
        }
        // A full year of empty days: jump straight to the global minimum.
        let b = self
            .direct_min_bucket()
            .expect("len > 0 but no event found in any bucket");
        let time = self.buckets[b]
            .min()
            .expect("direct-min bucket is non-empty")
            .time;
        self.seek(time);
        self.current = b;
        self.pop_due(f64::INFINITY)
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<Q: EventScheduler>(q: &mut Q) -> Vec<Event> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn events_pop_in_time_order() {
        fn check<Q: EventScheduler>() {
            let mut q = Q::default();
            q.push(5.0, EventKind::JobArrival { job: 0 });
            q.push(1.0, EventKind::JobArrival { job: 1 });
            q.push(3.0, EventKind::JobArrival { job: 2 });
            let order: Vec<f64> = drain(&mut q).iter().map(|e| e.time).collect();
            assert_eq!(order, vec![1.0, 3.0, 5.0]);
        }
        check::<HeapQueue>();
        check::<CalendarQueue>();
    }

    #[test]
    fn ties_break_by_insertion_order() {
        fn check<Q: EventScheduler>() {
            let mut q = Q::default();
            q.push(2.0, EventKind::JobArrival { job: 10 });
            q.push(2.0, EventKind::JobArrival { job: 20 });
            assert_eq!(q.pop().unwrap().kind, EventKind::JobArrival { job: 10 });
            assert_eq!(q.pop().unwrap().kind, EventKind::JobArrival { job: 20 });
        }
        check::<HeapQueue>();
        check::<CalendarQueue>();
    }

    #[test]
    fn len_and_empty_track_contents() {
        fn check<Q: EventScheduler>() {
            let mut q = Q::default();
            assert!(q.is_empty());
            q.push(1.0, EventKind::JobFinish { job: 0, site: 0 });
            assert_eq!(q.len(), 1);
            assert!(q.pop().is_some());
            assert!(q.is_empty());
            assert!(q.pop().is_none());
        }
        check::<HeapQueue>();
        check::<CalendarQueue>();
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        q.push(1.0, EventKind::JobFinish { job: 0, site: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn non_finite_time_panics_on_the_calendar() {
        let mut q = CalendarQueue::new();
        q.push(f64::NAN, EventKind::JobArrival { job: 0 });
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn non_finite_time_panics_on_the_heap() {
        let mut q = HeapQueue::new();
        q.push(f64::INFINITY, EventKind::JobArrival { job: 0 });
    }

    #[test]
    fn calendar_survives_growth_and_shrink_resizes() {
        let mut q = CalendarQueue::new();
        // Push far more events than the initial 64 buckets, with heavy
        // duplication to exercise FIFO ties across resizes.
        let n = 4096u32;
        for i in 0..n {
            let t = f64::from(i % 97) * 0.25;
            q.push(t, EventKind::JobArrival { job: i });
        }
        assert_eq!(q.len(), n as usize);
        let events = drain(&mut q);
        assert_eq!(events.len(), n as usize);
        for pair in events.windows(2) {
            assert!(
                pair[0].time < pair[1].time
                    || (pair[0].time == pair[1].time && pair[0].sequence < pair[1].sequence),
                "out of order: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn calendar_handles_sparse_far_future_events() {
        let mut q = CalendarQueue::new();
        q.push(0.5, EventKind::JobArrival { job: 0 });
        // Six orders of magnitude later: the direct-search fallback must
        // find it instead of spinning over empty days.
        q.push(500_000.0, EventKind::JobArrival { job: 1 });
        assert_eq!(q.pop().unwrap().kind, EventKind::JobArrival { job: 0 });
        assert_eq!(q.pop().unwrap().kind, EventKind::JobArrival { job: 1 });
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_accepts_pushes_behind_the_cursor() {
        let mut q = CalendarQueue::new();
        q.push(100.0, EventKind::JobArrival { job: 0 });
        assert_eq!(q.pop().unwrap().time, 100.0);
        // Not a legal DES schedule (time flows backwards), but the queue
        // still drains in global order.
        q.push(1.0, EventKind::JobArrival { job: 1 });
        q.push(50.0, EventKind::JobArrival { job: 2 });
        let order: Vec<f64> = drain(&mut q).iter().map(|e| e.time).collect();
        assert_eq!(order, vec![1.0, 50.0]);
    }
}
