//! The timed-event queue under both engines, [`crate::engine::Engine`]
//! and the `sim` crate's open-system DES: entries pop in `(time, rank,
//! seq)` order, `seq` being the queue's push counter; the payload never
//! orders anything.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Bits of the key's second word that hold `seq`; `rank` takes the rest.
const SEQ_BITS: u32 = 56;

/// A payload under its key `(time, rank << 56 | seq)`, ordered by the key
/// alone and reversed: the max-heap pops the least key, comparing two words.
struct Entry<T>((SimTime, u64), T);

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
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
        other.0.cmp(&self.0)
    }
}

/// A min-queue of timed payloads, ordered by `(time, rank, seq)`.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    pushed: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        let heap = BinaryHeap::new();
        EventQueue { heap, pushed: 0 }
    }
}

impl<T> EventQueue<T> {
    /// Queues `item` at `time`; at one instant, a lower `rank` pops first.
    pub fn push(&mut self, time: SimTime, rank: u8, item: T) {
        assert!(self.pushed < 1 << SEQ_BITS, "seq would reach the rank bits");
        let key = (time, u64::from(rank) << SEQ_BITS | self.pushed);
        self.heap.push(Entry(key, item));
        self.pushed += 1;
    }

    /// The next entry's time, rank and payload.
    pub fn peek(&self) -> Option<(SimTime, u8, &T)> {
        let Entry((time, word), item) = self.heap.peek()?;
        Some((*time, (word >> SEQ_BITS) as u8, item))
    }

    /// Removes the next entry; returns its time and payload.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Entry((time, _), item)| (time, item))
    }

    /// Every entry as `(time, rank << 56 | seq, payload)`; sorted on the key, that is pop order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &T)> {
        self.heap
            .iter()
            .map(|Entry((time, word), item)| (*time, *word, item))
    }

    /// Entries queued now.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Entries pushed so far: the `seq` the next push gets.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Makes room for `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, item)| item)
            .collect()
    }

    /// Two venues releasing at the same tick pop in insertion order:
    /// `seq` is the sole tiebreaker after `(time, rank)`, and the payload
    /// (here a venue id) never orders entries.
    #[test]
    fn same_tick_same_rank_pops_in_insertion_order() {
        let mut q = EventQueue::default();
        // Push venue 9 before venue 2: venue order would pop 2 first,
        // insertion order must pop 9 first.
        q.push(t(100), 0, 9u32);
        q.push(t(100), 0, 2u32);
        assert_eq!(
            drain(&mut q),
            vec![9, 2],
            "insertion order, not venue order"
        );
    }

    #[test]
    fn event_order_is_time_then_rank_then_seq() {
        let mut q = EventQueue::default();
        // Pushed in an order that agrees with none of the three keys alone.
        q.push(t(6), 0, "later time, lowest rank");
        q.push(t(5), 5, "highest rank");
        q.push(t(5), 3, "rank 3, pushed first");
        q.push(t(5), 1, "lower rank");
        q.push(t(5), 3, "rank 3, pushed second");
        let mut order = Vec::new();
        while let Some((time, rank, &peeked)) = q.peek() {
            let (popped_time, popped) = q.pop().unwrap();
            assert_eq!(
                (time, peeked),
                (popped_time, popped),
                "peek agrees with pop"
            );
            order.push((time.ticks(), rank, popped));
        }
        assert_eq!(
            order,
            vec![
                (5, 1, "lower rank"),
                (5, 3, "rank 3, pushed first"),
                (5, 3, "rank 3, pushed second"),
                (5, 5, "highest rank"),
                (6, 0, "later time, lowest rank"),
            ]
        );
        // The payload never orders: equal keys up to `seq`, any payload.
        let mut q = EventQueue::default();
        for payload in [3, 1, 2] {
            q.push(t(1), 2, payload);
        }
        assert_eq!(drain(&mut q), vec![3, 1, 2]);
    }

    #[test]
    fn iter_sorted_by_key_is_pop_order_and_seq_counts_pushes() {
        let mut q = EventQueue::default();
        for (time, rank) in [(4, 1), (2, 0), (4, 0), (2, 0)] {
            q.push(t(time), rank, (time, rank));
        }
        assert_eq!((q.len(), q.pushed()), (4, 4));
        let mut keyed: Vec<(SimTime, u64, (u64, u8))> = q
            .iter()
            .map(|(time, tie, &item)| (time, tie, item))
            .collect();
        keyed.sort_unstable();
        let sorted: Vec<(u64, u8)> = keyed.iter().map(|k| k.2).collect();
        assert_eq!(sorted, drain(&mut q));
        assert!(q.is_empty());
        assert_eq!(q.pushed(), 4, "popping leaves the push count");
    }
}
