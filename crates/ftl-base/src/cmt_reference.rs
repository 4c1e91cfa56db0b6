//! Test-only reference models of the CMTs, kept verbatim from before their
//! rewrites so the differential property tests in `cmt.rs` can hold the new
//! implementations to the old ones' exact results and eviction order:
//!
//! * [`ReferenceNodeCmt`] for [`crate::PageNodeCmt`]: the original
//!   `BTreeMap`-per-node implementation over the hashed [`LruCache`];
//! * [`ReferenceEntryCmt`] for [`crate::EntryCmt`]: dirty bits with no index
//!   over them, so a range flush scans the whole cache.

use std::collections::BTreeMap;

use crate::cmt::CmtEntry;
use crate::lru::LruCache;
use crate::request::Lpn;
use ssd_sim::Ppn;

#[derive(Debug, Clone)]
pub(crate) struct ReferenceEntryCmt {
    cache: LruCache<Lpn, CmtEntry>,
}

impl ReferenceEntryCmt {
    pub(crate) fn new(capacity: usize) -> Self {
        ReferenceEntryCmt {
            cache: LruCache::new(capacity),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cache.len()
    }

    pub(crate) fn lookup(&mut self, lpn: Lpn) -> Option<Ppn> {
        self.cache.get(&lpn).map(|e| e.ppn)
    }

    pub(crate) fn insert_clean(&mut self, lpn: Lpn, ppn: Ppn) -> Option<(Lpn, CmtEntry)> {
        self.cache.insert(lpn, CmtEntry { ppn, dirty: false })
    }

    pub(crate) fn insert_dirty(&mut self, lpn: Lpn, ppn: Ppn) -> Option<(Lpn, CmtEntry)> {
        self.cache.insert(lpn, CmtEntry { ppn, dirty: true })
    }

    pub(crate) fn update_if_cached(&mut self, lpn: Lpn, ppn: Ppn) -> bool {
        if let Some(entry) = self.cache.peek_mut(&lpn) {
            entry.ppn = ppn;
            entry.dirty = true;
            true
        } else {
            false
        }
    }

    pub(crate) fn refresh_if_cached(&mut self, lpn: Lpn, ppn: Ppn) {
        if let Some(entry) = self.cache.peek_mut(&lpn) {
            entry.ppn = ppn;
        }
    }

    pub(crate) fn remove(&mut self, lpn: Lpn) -> Option<CmtEntry> {
        self.cache.remove(&lpn)
    }

    pub(crate) fn take_dirty_in_range(&mut self, start: Lpn, end: Lpn) -> Vec<(Lpn, Ppn)> {
        let lpns: Vec<Lpn> = self
            .cache
            .iter()
            .filter(|(lpn, e)| (start..end).contains(*lpn) && e.dirty)
            .map(|(lpn, _)| *lpn)
            .collect();
        let mut out = Vec::with_capacity(lpns.len());
        for lpn in lpns {
            if let Some(entry) = self.cache.peek_mut(&lpn) {
                entry.dirty = false;
                out.push((lpn, entry.ppn));
            }
        }
        out
    }

    /// Every cached mapping, most recently used first.
    pub(crate) fn entries(&self) -> Vec<(Lpn, CmtEntry)> {
        self.cache.iter().map(|(lpn, e)| (*lpn, *e)).collect()
    }
}

type TransNode = BTreeMap<u32, CmtEntry>;

#[derive(Debug, Clone)]
pub(crate) struct ReferenceNodeCmt {
    nodes: LruCache<usize, TransNode>,
    capacity_entries: usize,
    total_entries: usize,
}

impl ReferenceNodeCmt {
    pub(crate) fn new(capacity_entries: usize) -> Self {
        ReferenceNodeCmt {
            // Node count can never exceed the entry count, so the inner LRU
            // never evicts on its own; evictions are driven by entry budget.
            nodes: LruCache::new(capacity_entries.max(1)),
            capacity_entries,
            total_entries: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.total_entries
    }

    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn lookup(&mut self, tpn: usize, offset: u32) -> Option<Ppn> {
        self.nodes
            .get(&tpn)
            .and_then(|n| n.get(&offset))
            .map(|e| e.ppn)
    }

    pub(crate) fn contains(&self, tpn: usize, offset: u32) -> bool {
        self.nodes
            .peek(&tpn)
            .map(|n| n.contains_key(&offset))
            .unwrap_or(false)
    }

    /// The cached mapping for (`tpn`, `offset`) with its dirty bit, recency
    /// untouched: what evictions only show one node at a time.
    pub(crate) fn peek(&self, tpn: usize, offset: u32) -> Option<CmtEntry> {
        self.nodes.peek(&tpn)?.get(&offset).copied()
    }

    /// The original `insert_batch`, reduced to what its callers consumed:
    /// the tpns of the evicted (or trimmed) nodes that held dirty mappings.
    pub(crate) fn insert_batch(&mut self, tpn: usize, mappings: &[(u32, Ppn, bool)]) -> Vec<usize> {
        self.insert_batch_nodes(tpn, mappings)
            .into_iter()
            .filter(|(_, node)| node.values().any(|e| e.dirty))
            .map(|(tpn, _)| tpn)
            .collect()
    }

    fn insert_batch_nodes(
        &mut self,
        tpn: usize,
        mappings: &[(u32, Ppn, bool)],
    ) -> Vec<(usize, TransNode)> {
        if self.capacity_entries == 0 {
            return Vec::new();
        }
        if !self.nodes.contains(&tpn) {
            if let Some((etpn, enode)) = self.nodes.insert(tpn, TransNode::new()) {
                // The inner LRU is full of single-entry nodes: its eviction
                // is the first of this insert's evictions.
                self.total_entries -= enode.len();
                let mut evicted = vec![(etpn, enode)];
                evicted.extend(self.insert_into_existing(tpn, mappings));
                return evicted;
            }
        }
        self.insert_into_existing(tpn, mappings)
    }

    fn insert_into_existing(
        &mut self,
        tpn: usize,
        mappings: &[(u32, Ppn, bool)],
    ) -> Vec<(usize, TransNode)> {
        if let Some(node) = self.nodes.get_mut(&tpn) {
            for &(offset, ppn, dirty) in mappings {
                let previous = node.insert(offset, CmtEntry { ppn, dirty });
                if previous.is_none() {
                    self.total_entries += 1;
                }
            }
        }
        let mut evicted = Vec::new();
        while self.total_entries > self.capacity_entries {
            // Evict the least-recently-used node that is not the one we just
            // touched, unless it is the only node.
            let lru = match self.nodes.lru_key().copied() {
                Some(k) => k,
                None => break,
            };
            if lru == tpn && self.nodes.len() == 1 {
                // The active node alone exceeds capacity: trim it by dropping
                // clean entries before dirty ones, and stale entries before
                // the just-inserted batch within each class. Trimmed dirty
                // entries are returned as a partial eviction of this node so
                // the caller still writes their mappings back.
                if let Some(node) = self.nodes.peek_mut(&tpn) {
                    let excess = self.total_entries - self.capacity_entries;
                    let fresh: std::collections::BTreeSet<u32> =
                        mappings.iter().map(|&(offset, _, _)| offset).collect();
                    let mut victims: Vec<u32> = node.keys().copied().collect();
                    victims.sort_by_key(|k| {
                        let e = &node[k];
                        (e.dirty, fresh.contains(k), *k)
                    });
                    let mut removed = 0;
                    let mut trimmed = TransNode::new();
                    for key in victims {
                        if removed >= excess {
                            break;
                        }
                        if let Some(entry) = node.remove(&key) {
                            if entry.dirty {
                                trimmed.insert(key, entry);
                            }
                        }
                        removed += 1;
                    }
                    self.total_entries -= removed;
                    if !trimmed.is_empty() {
                        evicted.push((tpn, trimmed));
                    }
                }
                break;
            }
            let victim_key = if lru == tpn {
                // Skip the just-touched node: evict the next LRU instead by
                // temporarily touching it to the front.
                self.nodes.get(&tpn);
                match self.nodes.lru_key().copied() {
                    Some(k) => k,
                    None => break,
                }
            } else {
                lru
            };
            if let Some(node) = self.nodes.remove(&victim_key) {
                self.total_entries -= node.len();
                evicted.push((victim_key, node));
            }
        }
        evicted
    }

    pub(crate) fn update_if_cached(&mut self, tpn: usize, offset: u32, ppn: Ppn) -> bool {
        if let Some(node) = self.nodes.peek_mut(&tpn) {
            if let Some(entry) = node.get_mut(&offset) {
                entry.ppn = ppn;
                entry.dirty = true;
                return true;
            }
        }
        false
    }

    pub(crate) fn refresh_if_cached(&mut self, tpn: usize, offset: u32, ppn: Ppn) {
        if let Some(node) = self.nodes.peek_mut(&tpn) {
            if let Some(entry) = node.get_mut(&offset) {
                entry.ppn = ppn;
            }
        }
    }
}
