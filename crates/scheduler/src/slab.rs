//! Dense vector-backed storage for per-request state, in two flavours.
//!
//! * [`SlotSlab`] hands out **replica-local handles** with free-list reuse.
//!   The replica scheduler keeps its live requests here, so its state — and
//!   every checkpoint the sharded engine clones of it — is sized by the peak
//!   number of requests live on the replica at once, not by trace length.
//!   Batch formation and completion index by handle (batch slices carry
//!   theirs), so the per-slice hot path neither hashes nor scans.
//! * [`IdSlab`] indexes directly by [`RequestId`]. It suits run-wide
//!   per-request tables that are O(trace) by nature — the metrics
//!   collector's per-request records, the reference scheduler oracle —
//!   whose drivers use dense trace indices as ids. A sparse caller pays
//!   empty-slot padding up to its largest id. The API mirrors the `HashMap`
//!   subset it replaces (`insert`/`get`/`get_mut`/`remove`/`len` plus
//!   `[&id]`).

use crate::request::RequestId;
use std::ops::{Index, IndexMut};

/// A replica-local request handle issued by [`SlotSlab::insert`].
pub type Slot = u32;

/// Sentinel for "no slot" (list ends, unstamped batch slices).
pub const NO_SLOT: Slot = Slot::MAX;

/// Handle-addressed storage with free-list reuse: a removed value's slot is
/// the next one [`insert`](SlotSlab::insert) hands out, so
/// [`capacity`](SlotSlab::capacity) never exceeds the peak number of values
/// held at once.
#[derive(Debug, Clone)]
pub struct SlotSlab<T> {
    slots: Vec<Option<T>>,
    /// Vacant slots, most recently freed last.
    free: Vec<Slot>,
    len: usize,
}

impl<T> Default for SlotSlab<T> {
    fn default() -> Self {
        SlotSlab::new()
    }
}

impl<T> SlotSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        SlotSlab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Stores `value` and returns its handle (a recycled one if any is
    /// vacant).
    pub fn insert(&mut self, value: T) -> Slot {
        self.len += 1;
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = Slot::try_from(self.slots.len()).expect("slot space exhausted");
                assert!(slot != NO_SLOT, "slot space exhausted");
                self.slots.push(Some(value));
                slot
            }
        }
    }

    /// Borrows the value in `slot`.
    pub fn get(&self, slot: Slot) -> Option<&T> {
        self.slots.get(slot as usize).and_then(Option::as_ref)
    }

    /// Mutably borrows the value in `slot`.
    pub fn get_mut(&mut self, slot: Slot) -> Option<&mut T> {
        self.slots.get_mut(slot as usize).and_then(Option::as_mut)
    }

    /// Removes and returns the value in `slot`, freeing the handle for
    /// reuse.
    pub fn remove(&mut self, slot: Slot) -> Option<T> {
        let removed = self.slots.get_mut(slot as usize).and_then(Option::take);
        if removed.is_some() {
            self.len -= 1;
            self.free.push(slot);
        }
        removed
    }

    /// The first occupied `(slot, value)` in slot order matching `pred` —
    /// a linear scan for cold paths that only know a value's contents.
    pub fn find(&self, mut pred: impl FnMut(&T) -> bool) -> Option<(Slot, &T)> {
        self.slots
            .iter()
            .enumerate()
            .find_map(|(i, v)| v.as_ref().filter(|v| pred(v)).map(|v| (i as Slot, v)))
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever materialized: the peak number of values held at once.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<T> Index<Slot> for SlotSlab<T> {
    type Output = T;

    fn index(&self, slot: Slot) -> &T {
        self.get(slot).expect("no value in slot")
    }
}

impl<T> IndexMut<Slot> for SlotSlab<T> {
    fn index_mut(&mut self, slot: Slot) -> &mut T {
        self.get_mut(slot).expect("no value in slot")
    }
}

/// A map from [`RequestId`] to `T` backed by a dense vector.
#[derive(Debug, Clone)]
pub struct IdSlab<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for IdSlab<T> {
    fn default() -> Self {
        IdSlab::new()
    }
}

impl<T> IdSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        IdSlab {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Inserts `value` under `id`, returning the previous value if any.
    pub fn insert(&mut self, id: RequestId, value: T) -> Option<T> {
        let idx = id as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Borrows the value under `id`.
    pub fn get(&self, id: &RequestId) -> Option<&T> {
        self.slots.get(*id as usize).and_then(Option::as_ref)
    }

    /// Mutably borrows the value under `id`.
    pub fn get_mut(&mut self, id: &RequestId) -> Option<&mut T> {
        self.slots.get_mut(*id as usize).and_then(Option::as_mut)
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: &RequestId) -> Option<T> {
        let removed = self.slots.get_mut(*id as usize).and_then(Option::take);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Iterates occupied values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Iterates `(id, value)` pairs in ascending id order.
    pub fn entries(&self) -> impl Iterator<Item = (RequestId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (i as RequestId, v)))
    }

    /// Drains the slab, yielding `(id, value)` pairs in ascending id order.
    pub fn drain_entries(&mut self) -> impl Iterator<Item = (RequestId, T)> + '_ {
        self.len = 0;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, v)| v.take().map(|v| (i as RequestId, v)))
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Index<&RequestId> for IdSlab<T> {
    type Output = T;

    fn index(&self, id: &RequestId) -> &T {
        self.get(id).expect("no entry for request id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: IdSlab<&str> = IdSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(5, "a"), None);
        assert_eq!(s.insert(0, "b"), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&5), Some(&"a"));
        assert_eq!(s[&0], "b");
        assert_eq!(s.insert(5, "c"), Some("a"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(&5), Some("c"));
        assert_eq!(s.remove(&5), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&99), None);
    }

    #[test]
    fn entries_and_drain_in_id_order() {
        let mut s: IdSlab<&str> = IdSlab::new();
        s.insert(4, "d");
        s.insert(1, "a");
        s.insert(2, "b");
        let pairs: Vec<_> = s.entries().collect();
        assert_eq!(pairs, vec![(1, &"a"), (2, &"b"), (4, &"d")]);
        let drained: Vec<_> = s.drain_entries().collect();
        assert_eq!(drained, vec![(1, "a"), (2, "b"), (4, "d")]);
        assert!(s.is_empty());
        assert_eq!(s.get(&1), None);
    }

    #[test]
    fn slots_recycle_and_capacity_tracks_the_peak() {
        let mut s: SlotSlab<u64> = SlotSlab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.remove(a), Some(10));
        assert_eq!(s.remove(a), None);
        assert_eq!(s.insert(30), a, "a freed slot is reused first");
        assert_eq!(s[b], 20);
        s[b] += 1;
        assert_eq!(s.find(|&v| v == 21), Some((b, &21)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.capacity(), 2);
        for v in 0..100 {
            let slot = s.insert(v);
            s.remove(slot);
        }
        assert_eq!(
            s.capacity(),
            3,
            "churn at one extra live value adds one slot"
        );
    }

    #[test]
    #[should_panic(expected = "no entry")]
    fn index_missing_panics() {
        let s: IdSlab<u32> = IdSlab::new();
        let _ = s[&3];
    }
}
