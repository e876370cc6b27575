use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A deterministic future-event list.
///
/// Events fire in timestamp order; events with equal timestamps fire in the
/// order they were scheduled (FIFO), which makes simulation runs bit-for-bit
/// reproducible — an essential property for the experiment harness, whose
/// tables must regenerate identically from a master seed.
///
/// # Example
///
/// ```
/// use simnet::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ticks(5), "b");
/// q.schedule(SimTime::from_ticks(3), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_ticks(3), "a")));
/// assert_eq!(q.peek_time(), Some(SimTime::from_ticks(5)));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pops the next event only if it fires at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<T: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: T) {
        for (time, event) in iter {
            self.schedule(time, event);
        }
    }
}

/// A wakeup token: the proof a queued timeout event carries that it was
/// armed by generation `generation` of slot `id` in a [`WakeupSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wakeup {
    /// Slot this token was armed from.
    pub id: u32,
    /// Slot generation at arm time; stale once the slot is cancelled.
    pub generation: u32,
}

/// Generation-guarded cancellation for [`EventQueue`] wakeups.
///
/// The queue has no removal API — deleting from the middle of a binary
/// heap would cost a linear scan, and most simulated timeouts are
/// cancelled (the guarded operation usually completes first). Instead a
/// scheduler allocates a slot per guarded operation, embeds the
/// [`Wakeup`] token from [`arm`](WakeupSet::arm) in the queued event, and
/// cancels by bumping the slot's generation: the event still pops, but
/// [`fires`](WakeupSet::fires) reports it stale and the scheduler drops
/// it. Arming again after a cancel issues a fresh token, so a timeout
/// from a *previous* arming can never fire against a later one.
///
/// # Example
///
/// ```
/// use simnet::{EventQueue, SimTime, WakeupSet};
///
/// let mut wakeups = WakeupSet::new();
/// let mut q = EventQueue::new();
/// let slot = wakeups.alloc();
/// q.schedule(SimTime::from_ticks(10), wakeups.arm(slot));
/// wakeups.cancel(slot); // the operation completed at t=4
/// let (_, token) = q.pop().unwrap();
/// assert!(!wakeups.fires(token), "a cancelled wakeup must not fire");
/// ```
#[derive(Debug, Clone, Default)]
pub struct WakeupSet {
    generations: Vec<u32>,
}

impl WakeupSet {
    /// Creates an empty set.
    pub fn new() -> WakeupSet {
        WakeupSet::default()
    }

    /// Allocates a new slot (one per guarded operation); slots are never
    /// freed, so ids stay valid for the set's lifetime.
    pub fn alloc(&mut self) -> u32 {
        let id = u32::try_from(self.generations.len()).expect("wakeup slots exhausted");
        self.generations.push(0);
        id
    }

    /// Arms slot `id`, returning the token the queued event must carry.
    /// The token stays live until the slot's next [`cancel`](WakeupSet::cancel).
    pub fn arm(&self, id: u32) -> Wakeup {
        Wakeup {
            id,
            generation: self.generations[id as usize],
        }
    }

    /// Cancels slot `id`: every token armed before this call goes stale.
    pub fn cancel(&mut self, id: u32) {
        self.generations[id as usize] += 1;
    }

    /// Whether `token` is still live (its slot has not been cancelled
    /// since it was armed).
    pub fn fires(&self, token: Wakeup) -> bool {
        self.generations[token.id as usize] == token.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(7), i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "a");
        q.schedule(t(5), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(t(5), "c");
        // "b" was scheduled before "c".
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(t(9), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(9)));
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_due_respects_clock() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "x");
        assert_eq!(q.pop_due(t(9)), None);
        assert_eq!(q.pop_due(t(10)), Some((t(10), "x")));
        assert_eq!(q.pop_due(t(100)), None); // empty now
    }

    #[test]
    fn extend_schedules_all() {
        let mut q = EventQueue::new();
        q.extend([(t(2), "b"), (t(1), "a")]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "a");
    }
}
