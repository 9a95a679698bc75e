//! # gm-cache — shared map primitives
//!
//! Two map primitives: the bounded LRU below, and the deterministic
//! multiplicative hasher ([`FxHasher`], [`FxMap`], [`FxSet`]) behind
//! the coverage collectors' per-cycle sets, the model checker's
//! structural AND cache and batch dedupe, and the refinement engine's
//! worklist dedupe.
//!
//! ## The bounded LRU
//!
//! The closure service's content-addressed design cache
//! (`gm_serve::DesignCache`) bounds its footprint with
//! least-recently-used eviction through [`BoundedLru`]: O(1) lookup,
//! insert and eviction (hash map into an intrusive doubly-linked
//! recency list over a slab).
//!
//! The helper deliberately owns *only* the recency/eviction mechanics:
//! hit/miss/eviction counters and byte accounting stay with the
//! callers, which is why mutating operations hand evicted entries back
//! instead of dropping them.

#![warn(missing_docs)]

mod fx;

pub use fx::{FxBuild, FxHasher, FxMap, FxSet};

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel index for "no slot".
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A map with O(1) insert/lookup/remove and O(1) least-recently-used
/// eviction. `get_mut`/`insert` refresh recency; `peek*` does not.
///
/// # Examples
///
/// ```
/// use gm_cache::BoundedLru;
///
/// let mut lru = BoundedLru::with_capacity(2);
/// lru.insert("a", 1);
/// lru.insert("b", 2);
/// lru.get_mut(&"a"); // refresh: "b" is now the LRU entry
/// lru.insert("c", 3);
/// let evicted = lru.pop_over_capacity().unwrap();
/// assert_eq!(evicted, ("b", 2));
/// assert!(lru.pop_over_capacity().is_none());
/// assert_eq!(lru.len(), 2);
/// ```
#[derive(Debug)]
pub struct BoundedLru<K, V> {
    map: HashMap<K, usize>,
    /// Slab of slots; `None` entries are on the free list.
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    capacity: usize,
}

impl<K: Clone + Eq + Hash, V> BoundedLru<K, V> {
    /// An LRU bounded to `capacity` entries (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        BoundedLru {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the LRU holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn slot(&self, i: usize) -> &Slot<K, V> {
        self.slots[i].as_ref().expect("linked slots are occupied")
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot<K, V> {
        self.slots[i].as_mut().expect("linked slots are occupied")
    }

    /// Unlinks a slot from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let s = self.slot(i);
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slot_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slot_mut(next).prev = prev;
        }
    }

    /// Links a slot at the most-recently-used end.
    fn link_front(&mut self, i: usize) {
        let head = self.head;
        {
            let s = self.slot_mut(i);
            s.prev = NIL;
            s.next = head;
        }
        if head != NIL {
            self.slot_mut(head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// Looks a key up mutably, refreshing its recency. Like
    /// [`HashMap::get_mut`], any borrowed form of the key works (`&str`
    /// for `String` keys).
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let i = *self.map.get(key)?;
        self.touch(i);
        Some(&mut self.slot_mut(i).value)
    }

    /// Looks a key up without touching recency.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.get(key).map(|&i| &self.slot(i).value)
    }

    /// Looks a key up mutably without touching recency.
    pub fn peek_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let i = *self.map.get(key)?;
        Some(&mut self.slot_mut(i).value)
    }

    /// Inserts (or replaces) an entry at the most-recently-used
    /// position, returning the replaced value for same-key inserts.
    /// Never evicts — drain [`BoundedLru::pop_over_capacity`] after
    /// inserting so the caller observes each eviction.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&i) = self.map.get(&key) {
            self.touch(i);
            return Some(std::mem::replace(&mut self.slot_mut(i).value, value));
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.link_front(i);
        None
    }

    /// Removes an entry by key.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let i = self.map.remove(key)?;
        self.unlink(i);
        self.free.push(i);
        self.slots[i].take().map(|s| s.value)
    }

    /// Pops the least-recently-used entry while over capacity; `None`
    /// once within bounds.
    pub fn pop_over_capacity(&mut self) -> Option<(K, V)> {
        if self.map.len() <= self.capacity {
            return None;
        }
        self.pop_lru()
    }

    /// Pops the least-recently-used entry unconditionally.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let i = self.tail;
        self.unlink(i);
        self.free.push(i);
        let slot = self.slots[i].take().expect("tail slot is occupied");
        self.map.remove(&slot.key);
        Some((slot.key, slot.value))
    }

    /// Iterates resident values in most-recently-used-first order.
    pub fn values(&self) -> Values<'_, K, V> {
        Values {
            lru: self,
            next: self.head,
        }
    }
}

/// Iterator over resident values, most recently used first.
#[derive(Debug)]
pub struct Values<'a, K, V> {
    lru: &'a BoundedLru<K, V>,
    next: usize,
}

impl<'a, K, V> Iterator for Values<'a, K, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<&'a V> {
        if self.next == NIL {
            return None;
        }
        let slot = self.lru.slots[self.next]
            .as_ref()
            .expect("linked slots are occupied");
        self.next = slot.next;
        Some(&slot.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_order_is_least_recently_used() {
        let mut lru = BoundedLru::with_capacity(3);
        for k in 0..3 {
            lru.insert(k, k * 10);
        }
        assert_eq!(lru.get_mut(&0), Some(&mut 0)); // order now 0, 2, 1
        lru.insert(3, 30);
        assert_eq!(lru.pop_over_capacity(), Some((1, 10)));
        assert_eq!(lru.pop_over_capacity(), None);
        lru.insert(4, 40);
        assert_eq!(lru.pop_over_capacity(), Some((2, 20)));
        let resident: Vec<i32> = lru.values().copied().collect();
        assert_eq!(resident, vec![40, 30, 0], "MRU-first order");
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut lru = BoundedLru::with_capacity(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.peek(&"a"), Some(&1));
        lru.insert("c", 3);
        // "a" was peeked, not touched: still the LRU victim.
        assert_eq!(lru.pop_over_capacity(), Some(("a", 1)));
    }

    #[test]
    fn same_key_insert_replaces_and_refreshes() {
        let mut lru = BoundedLru::with_capacity(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.insert("a", 9), Some(1));
        lru.insert("c", 3);
        assert_eq!(lru.pop_over_capacity(), Some(("b", 2)));
        assert_eq!(lru.peek(&"a"), Some(&9));
    }

    #[test]
    fn remove_and_slot_reuse() {
        let mut lru: BoundedLru<u32, String> = BoundedLru::with_capacity(10);
        for k in 0..10 {
            lru.insert(k, format!("v{k}"));
        }
        assert_eq!(lru.remove(&5), Some("v5".to_string()));
        assert_eq!(lru.remove(&5), None);
        lru.insert(99, "v99".to_string());
        assert_eq!(lru.len(), 10);
        assert_eq!(lru.slots.len(), 10, "freed slot was reused");
        assert!(lru.pop_over_capacity().is_none(), "within capacity");
    }
}
