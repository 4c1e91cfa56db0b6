//! A small, dependency-free LRU cache used by the cached mapping tables.

#![expect(
    clippy::disallowed_types,
    reason = "the hash map is a key->slot index with O(1) lookups on the CMT hot path; every ordered walk (recency, eviction, iter) follows the intrusive list through the entries Vec, so hash iteration order never reaches results"
)]

use std::collections::HashMap;
use std::hash::Hash;

/// An order-tracking LRU cache with O(1) amortised get/insert/evict.
///
/// The cache is intentionally minimal: it tracks recency and capacity; the
/// callers (CMT implementations) decide what eviction means (e.g. writing
/// back dirty mappings). Values are required to be `Clone` — `remove` and
/// `pop_lru` hand back a copy, which keeps the implementation free of
/// `unsafe` — so keep them small: every value cached here is a `Copy`
/// struct or an integer (the two-level CMT's nodes, which are not, live in
/// `PageNodeCmt`'s own slab).
///
/// ```
/// use ftl_base::LruCache;
/// let mut lru = LruCache::new(2);
/// lru.insert(1, "a");
/// lru.insert(2, "b");
/// lru.get(&1);                 // 1 is now the most recent
/// let evicted = lru.insert(3, "c").unwrap();
/// assert_eq!(evicted.0, 2);    // 2 was least recently used
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    entries: Vec<Entry<K, V>>,
    head: usize, // most recent
    tail: usize, // least recent
    free: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates an empty cache holding at most `capacity` entries.
    ///
    /// A capacity of zero is allowed and produces a cache that rejects every
    /// insert by immediately evicting it; this models a disabled CMT.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::new(),
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is cached, without touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Looks up `key` and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(&self.entries[idx].value)
    }

    /// Looks up `key` mutably and marks it most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(&mut self.entries[idx].value)
    }

    /// Looks up `key` without changing recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.entries[idx].value)
    }

    /// Looks up `key` mutably without changing recency.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        Some(&mut self.entries[idx].value)
    }

    /// Inserts or updates `key`. Returns the evicted `(key, value)` pair when
    /// the insert pushed the cache over capacity.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.entries[idx].value = value;
            self.touch(idx);
            return None;
        }
        self.insert_new(key, value).1
    }

    /// Makes `key` the most recently used entry, inserting it with `value`
    /// if it is not cached (a cached entry keeps the value it has). Returns
    /// the slot holding `key` — `None` only for a zero-capacity cache, which
    /// holds nothing — and what [`LruCache::insert`] would.
    ///
    /// A slot names the storage of one cached entry. It stays valid for
    /// [`LruCache::slot_mut`] until that entry is removed or evicted; the
    /// next insert may then recycle it. Callers that thread their own lists
    /// through the values (the CMT's dirty index) link entries by slot
    /// instead of hashing keys.
    pub fn touch_or_insert(&mut self, key: K, value: V) -> (Option<usize>, Option<(K, V)>) {
        if let Some(&idx) = self.map.get(&key) {
            self.touch(idx);
            return (Some(idx), None);
        }
        self.insert_new(key, value)
    }

    /// Inserts a key that is not cached, evicting for it if need be.
    fn insert_new(&mut self, key: K, value: V) -> (Option<usize>, Option<(K, V)>) {
        if self.capacity == 0 {
            return (None, Some((key, value)));
        }
        let evicted = if self.map.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let idx = if let Some(slot) = self.free.pop() {
            self.entries[slot] = Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            };
            slot
        } else {
            self.entries.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.entries.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        (Some(idx), evicted)
    }

    /// The slot holding `key`, without touching recency.
    pub fn slot_of(&self, key: &K) -> Option<usize> {
        self.map.get(key).copied()
    }

    /// The key and the value in `slot` (see [`LruCache::touch_or_insert`]).
    ///
    /// # Panics
    ///
    /// May panic if `slot` was never handed out; a stale slot yields whatever
    /// entry recycled it.
    pub fn slot_mut(&mut self, slot: usize) -> (&K, &mut V) {
        let entry = &mut self.entries[slot];
        (&entry.key, &mut entry.value)
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        Some(self.entries[idx].value.clone())
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        self.detach(idx);
        let key = self.entries[idx].key.clone();
        let value = self.entries[idx].value.clone();
        self.map.remove(&key);
        self.free.push(idx);
        Some((key, value))
    }

    /// The least-recently-used key, if any, without removing it.
    pub fn lru_key(&self) -> Option<&K> {
        if self.tail == NIL {
            None
        } else {
            Some(&self.entries[self.tail].key)
        }
    }

    /// Iterates over `(key, value)` pairs from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        LruIter {
            cache: self,
            cursor: self.head,
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.detach(idx);
        self.attach_front(idx);
    }

    fn attach_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.entries[idx].prev = NIL;
        self.entries[idx].next = NIL;
    }
}

struct LruIter<'a, K, V> {
    cache: &'a LruCache<K, V>,
    cursor: usize,
}

impl<'a, K: Eq + Hash + Clone, V: Clone> Iterator for LruIter<'a, K, V> {
    type Item = (&'a K, &'a V);
    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let entry = &self.cache.entries[self.cursor];
        self.cursor = entry.next;
        Some((&entry.key, &entry.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_and_eviction_order() {
        let mut lru = LruCache::new(3);
        assert!(lru.insert(1, 10).is_none());
        assert!(lru.insert(2, 20).is_none());
        assert!(lru.insert(3, 30).is_none());
        assert_eq!(lru.len(), 3);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(lru.get(&1), Some(&10));
        let evicted = lru.insert(4, 40).unwrap();
        assert_eq!(evicted, (2, 20));
        assert!(!lru.contains(&2));
        assert!(lru.contains(&1));
    }

    #[test]
    fn update_existing_key_does_not_evict() {
        let mut lru = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert!(lru.insert(1, 11).is_none());
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.peek(&1), Some(&11));
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut lru = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.remove(&1), Some(10));
        assert_eq!(lru.remove(&1), None);
        assert_eq!(lru.len(), 1);
        assert!(lru.insert(3, 30).is_none());
        assert_eq!(lru.len(), 2);
        assert!(lru.contains(&2));
        assert!(lru.contains(&3));
    }

    #[test]
    fn pop_lru_in_order() {
        let mut lru = LruCache::new(3);
        lru.insert(1, 1);
        lru.insert(2, 2);
        lru.insert(3, 3);
        assert_eq!(lru.lru_key(), Some(&1));
        assert_eq!(lru.pop_lru(), Some((1, 1)));
        assert_eq!(lru.pop_lru(), Some((2, 2)));
        assert_eq!(lru.pop_lru(), Some((3, 3)));
        assert_eq!(lru.pop_lru(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut lru = LruCache::new(0);
        assert_eq!(lru.insert(1, 10), Some((1, 10)));
        assert!(lru.is_empty());
    }

    #[test]
    fn iter_is_mru_to_lru() {
        let mut lru = LruCache::new(3);
        lru.insert(1, 1);
        lru.insert(2, 2);
        lru.insert(3, 3);
        lru.get(&1);
        let order: Vec<i32> = lru.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn get_mut_and_peek_mut_modify_in_place() {
        let mut lru = LruCache::new(2);
        lru.insert(1, 10);
        *lru.get_mut(&1).unwrap() += 5;
        assert_eq!(lru.peek(&1), Some(&15));
        *lru.peek_mut(&1).unwrap() += 5;
        assert_eq!(lru.peek(&1), Some(&20));
    }

    #[test]
    fn heavy_churn_stays_within_capacity() {
        let mut lru = LruCache::new(16);
        for i in 0..10_000u64 {
            lru.insert(i % 61, i);
            assert!(lru.len() <= 16);
        }
    }

    proptest! {
        /// The cache must behave like a reference model: same membership and
        /// never exceed capacity.
        #[test]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec((0u8..3, 0u64..40), 1..400),
            cap in 1usize..24,
        ) {
            let mut lru = LruCache::new(cap);
            let mut model: Vec<u64> = Vec::new(); // front = MRU
            for (op, key) in ops {
                match op {
                    0 => {
                        // insert
                        if let Some(pos) = model.iter().position(|&k| k == key) {
                            model.remove(pos);
                        } else if model.len() == cap {
                            model.pop();
                        }
                        model.insert(0, key);
                        lru.insert(key, key * 2);
                    }
                    1 => {
                        // get
                        let hit = lru.get(&key).is_some();
                        let model_hit = model.contains(&key);
                        prop_assert_eq!(hit, model_hit);
                        if let Some(pos) = model.iter().position(|&k| k == key) {
                            model.remove(pos);
                            model.insert(0, key);
                        }
                    }
                    _ => {
                        // remove
                        let removed = lru.remove(&key).is_some();
                        let model_removed = model.iter().position(|&k| k == key).map(|p| model.remove(p)).is_some();
                        prop_assert_eq!(removed, model_removed);
                    }
                }
                prop_assert!(lru.len() <= cap);
                prop_assert_eq!(lru.len(), model.len());
            }
            let order: Vec<u64> = lru.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(order, model);
        }
    }
}
