//! Cached Mapping Table (CMT) variants.
//!
//! * [`EntryCmt`] — the entry-granular LRU cache used by DFTL: each cached
//!   item is a single LPN→PPN mapping.
//! * [`PageNodeCmt`] — the two-level CMT used by TPFTL (and reused by
//!   LearnedFTL): mappings are grouped into per-translation-page nodes, the
//!   LRU order is maintained at node granularity, and evicting a node flushes
//!   all of its dirty mappings with a single translation-page write.

use crate::lru::LruCache;
use crate::mapping::pack_ppn;
use crate::request::Lpn;
use ssd_sim::Ppn;
use std::ops::Range;

/// One cached mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmtEntry {
    /// The cached physical location.
    pub ppn: Ppn,
    /// Whether the cached mapping is newer than the flash copy.
    pub dirty: bool,
}

/// "No slot": the end of a list threaded through a slab by `u32` indices.
const NIL: u32 = u32::MAX;

/// What [`EntryCmt`] keeps per cached mapping: the mapping and, while it is
/// dirty, its neighbours in the dirty list of its bucket. The dirty bit is
/// folded into the links so this stays the 16 bytes of a [`CmtEntry`].
#[derive(Debug, Clone, Copy)]
struct Cached {
    ppn: Ppn,
    /// Slot of the previous dirty mapping of the bucket ([`NIL`]: this is
    /// the first), or [`CLEAN`] for a mapping that is not dirty.
    dirty_prev: u32,
    /// Slot of the next dirty mapping of the bucket ([`NIL`]: last).
    dirty_next: u32,
}

/// [`Cached::dirty_prev`] of a clean mapping.
const CLEAN: u32 = NIL - 1;

impl Cached {
    fn is_dirty(&self) -> bool {
        self.dirty_prev != CLEAN
    }

    fn entry(&self) -> CmtEntry {
        CmtEntry {
            ppn: self.ppn,
            dirty: self.is_dirty(),
        }
    }
}

/// The dirty index groups LPNs in buckets of `1 << DIRTY_BUCKET_SHIFT`: the
/// 512 mappings of one 4 KiB translation page at 8 bytes each, so a flush of
/// a translation page's LPN range reads exactly one bucket. Other page sizes
/// stay correct — a flush walks every bucket its range overlaps and skips
/// the LPNs outside it — they just visit several buckets, or part of one.
const DIRTY_BUCKET_SHIFT: u32 = 9;

/// DFTL's entry-granular cached mapping table.
///
/// # Cost
///
/// Every operation is O(1) — one hash lookup, plus a second one when an
/// insert has to evict — except [`clean_dirty_in_range`], which is O(dirty
/// mappings of the translation page flushed): the dirty mappings of each
/// bucket of consecutive LPNs form a doubly linked list threaded through the
/// cache's own slots, kept exact by every operation that sets, clears or
/// drops a dirty bit, so a flush never looks at a clean or an unrelated
/// mapping. The index costs 8 bytes per cached mapping and 4 bytes per
/// bucket of the logical space.
///
/// [`clean_dirty_in_range`]: EntryCmt::clean_dirty_in_range
///
/// ```
/// use ftl_base::EntryCmt;
/// let mut cmt = EntryCmt::new(2);
/// cmt.insert_clean(1, 100);
/// assert_eq!(cmt.lookup(1), Some(100));
/// cmt.insert_dirty(2, 200);
/// let evicted = cmt.insert_clean(3, 300);          // evicts LPN 1 or 2
/// assert!(evicted.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct EntryCmt {
    cache: LruCache<Lpn, Cached>,
    /// Slot of the first dirty mapping of each bucket ([`NIL`]: none), grown
    /// on demand to the highest bucket that ever held one.
    dirty_heads: Vec<u32>,
}

impl EntryCmt {
    /// Creates a CMT holding at most `capacity` mappings.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` does not fit the 32-bit slot links.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < CLEAN as usize,
            "CMT capacity {capacity} outgrows its u32 slot links"
        );
        EntryCmt {
            cache: LruCache::new(capacity),
            dirty_heads: Vec::new(),
        }
    }

    /// Maximum number of cached mappings.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Current number of cached mappings.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the CMT is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Looks up a mapping, refreshing its recency.
    pub fn lookup(&mut self, lpn: Lpn) -> Option<Ppn> {
        self.cache.get(&lpn).map(|e| e.ppn)
    }

    /// Whether a mapping is cached, without touching recency.
    pub fn contains(&self, lpn: Lpn) -> bool {
        self.cache.contains(&lpn)
    }

    /// Inserts a clean mapping (loaded from a translation page); one already
    /// cached is overwritten and becomes clean. Returns the evicted entry,
    /// if any.
    pub fn insert_clean(&mut self, lpn: Lpn, ppn: Ppn) -> Option<(Lpn, CmtEntry)> {
        self.insert(lpn, ppn, false)
    }

    /// Inserts or updates a dirty mapping (produced by a host write). Returns
    /// the evicted entry, if any.
    pub fn insert_dirty(&mut self, lpn: Lpn, ppn: Ppn) -> Option<(Lpn, CmtEntry)> {
        self.insert(lpn, ppn, true)
    }

    fn insert(&mut self, lpn: Lpn, ppn: Ppn, dirty: bool) -> Option<(Lpn, CmtEntry)> {
        let fresh = Cached {
            ppn,
            dirty_prev: CLEAN,
            dirty_next: NIL,
        };
        let (Some(slot), evicted) = self.cache.touch_or_insert(lpn, fresh) else {
            // Zero capacity: the mapping is its own eviction.
            return Some((lpn, CmtEntry { ppn, dirty }));
        };
        // The evicted mapping leaves its dirty list before the new one joins
        // its own: the two may share a bucket, and a slot.
        let evicted = evicted.map(|(old_lpn, old)| {
            if old.is_dirty() {
                self.unlink_dirty(old_lpn, old.dirty_prev, old.dirty_next);
            }
            (old_lpn, old.entry())
        });
        self.cache.slot_mut(slot).1.ppn = ppn;
        self.set_dirty(slot, dirty);
        evicted
    }

    /// Updates the PPN of a cached mapping if present (marking it dirty),
    /// returning whether it was cached.
    pub fn update_if_cached(&mut self, lpn: Lpn, ppn: Ppn) -> bool {
        let Some(slot) = self.cache.slot_of(&lpn) else {
            return false;
        };
        self.cache.slot_mut(slot).1.ppn = ppn;
        self.set_dirty(slot, true);
        true
    }

    /// Overwrites the PPN of a cached mapping without changing its dirty bit
    /// (used when GC relocates a page: the flash copy is updated separately).
    pub fn refresh_if_cached(&mut self, lpn: Lpn, ppn: Ppn) {
        if let Some(entry) = self.cache.peek_mut(&lpn) {
            entry.ppn = ppn;
        }
    }

    /// Removes a mapping.
    pub fn remove(&mut self, lpn: Lpn) -> Option<CmtEntry> {
        let old = self.cache.remove(&lpn)?;
        if old.is_dirty() {
            self.unlink_dirty(lpn, old.dirty_prev, old.dirty_next);
        }
        Some(old.entry())
    }

    /// Cleans every dirty mapping in the half-open LPN range and returns how
    /// many there were. DFTL uses this to batch-flush all dirty mappings that
    /// share the evicted entry's translation page: the mappings themselves
    /// are in the authoritative table, so the flush only has to clear bits.
    pub fn clean_dirty_in_range(&mut self, start: Lpn, end: Lpn) -> usize {
        if start >= end {
            return 0;
        }
        let buckets = self.dirty_heads.len().min(bucket_of(end - 1) + 1);
        let mut cleaned = 0;
        for bucket in bucket_of(start)..buckets {
            let mut cursor = self.dirty_heads[bucket];
            while cursor != NIL {
                let (&lpn, entry) = self.cache.slot_mut(cursor as usize);
                let next = entry.dirty_next;
                if (start..end).contains(&lpn) {
                    self.set_dirty(cursor as usize, false);
                    cleaned += 1;
                }
                cursor = next;
            }
        }
        cleaned
    }

    /// Sets the dirty bit of the mapping in `slot`, moving it into or out of
    /// its bucket's dirty list if the bit changes.
    fn set_dirty(&mut self, slot: usize, dirty: bool) {
        let (&lpn, entry) = self.cache.slot_mut(slot);
        if entry.is_dirty() == dirty {
            return;
        }
        if !dirty {
            let (prev, next) = (entry.dirty_prev, entry.dirty_next);
            entry.dirty_prev = CLEAN;
            return self.unlink_dirty(lpn, prev, next);
        }
        let bucket = bucket_of(lpn);
        if bucket >= self.dirty_heads.len() {
            self.dirty_heads.resize(bucket + 1, NIL);
        }
        let head = std::mem::replace(&mut self.dirty_heads[bucket], slot as u32);
        entry.dirty_prev = NIL;
        entry.dirty_next = head;
        if head != NIL {
            self.cache.slot_mut(head as usize).1.dirty_prev = slot as u32;
        }
    }

    /// Closes the gap a dirty mapping of `lpn`'s bucket leaves between its
    /// list neighbours `prev` and `next`.
    fn unlink_dirty(&mut self, lpn: Lpn, prev: u32, next: u32) {
        match prev {
            NIL => self.dirty_heads[bucket_of(lpn)] = next,
            prev => self.cache.slot_mut(prev as usize).1.dirty_next = next,
        }
        if next != NIL {
            self.cache.slot_mut(next as usize).1.dirty_prev = prev;
        }
    }
}

/// The dirty-index bucket of `lpn`.
fn bucket_of(lpn: Lpn) -> usize {
    (lpn >> DIRTY_BUCKET_SHIFT) as usize
}

/// A per-translation-page node of the two-level CMT: a slab slot's links in
/// the node-granular LRU list and how many mappings it holds. The mappings
/// themselves sit in the CMT's flat slabs, at the slot's stride.
#[derive(Debug, Clone, Copy)]
struct Node {
    tpn: usize,
    /// Towards the most recently used node.
    prev: u32,
    /// Towards the least recently used node.
    next: u32,
    /// Mappings held: the population count of the slot's `present` words.
    held: u32,
}

/// Offsets a node can address: the mappings of a 512 KiB translation page.
/// Every slot reserves room up to the highest offset ever inserted, so an
/// offset from outside any real geometry is refused rather than allocated for.
const MAX_NODE_OFFSETS: usize = 1 << 16;

/// TPFTL's two-level cached mapping table.
///
/// Nodes are keyed by translation-page number (GTD entry index); the LRU
/// order is per node, and capacity is counted in *mappings*, so evicting one
/// node can free many mappings at once and its dirty mappings can be written
/// back with a single translation-page update (the batching that gives TPFTL
/// its low write overhead).
///
/// A node is two bitmaps and a 4-byte PPN per offset — bit `offset` of
/// `present` says the mapping is cached, the same bit of `dirty ⊆ present`
/// that it is newer than flash — held in flat slabs the CMT owns: the node in
/// slab slot `s` has its bitmap words at `s × stride / 64` and its PPNs at
/// `s × stride`, where `stride` is the smallest multiple of 64 above every
/// offset inserted so far. A cached translation page therefore costs
/// `4 × stride + 2 × stride / 8` bytes whatever it holds (2 176 bytes at 512
/// mappings per page), and there are never more slots than translation pages
/// or than mappings of capacity. Slots are found through a dense `tpn → slot`
/// table, the LRU list is threaded through them, and an evicted node's slot
/// is recycled by the next node.
///
/// # Cost
///
/// Nothing searches, sorts, merges or — once the slabs have grown to the
/// working set — allocates:
///
/// * [`lookup`], [`contains`], [`update_if_cached`], [`refresh_if_cached`]:
///   one table load, one bit test, one indexed load or store (`lookup` also
///   relinks the node as most recent);
/// * [`insert_batch`]: one store per mapping, plus one OR and one population
///   count each time the batch moves on to another 64-offset word (once per
///   word for an ascending run), in whatever order it comes;
/// * evicting a node: `stride / 64` words tested for a dirty bit and zeroed;
/// * trimming the only node: four passes over its `stride / 64` words;
/// * the first insert of an offset at or beyond `stride` lays the slabs out
///   again, O(slots × stride) — offsets are bounded by the mappings of a
///   translation page, so this happens a handful of times while a CMT warms.
///
/// Trimming walks offsets in ascending order, never in an order that depends
/// on insertion history or a hasher: the simulator must be bit-for-bit
/// reproducible across processes, and eviction order is simulated timing.
///
/// [`lookup`]: PageNodeCmt::lookup
/// [`contains`]: PageNodeCmt::contains
/// [`update_if_cached`]: PageNodeCmt::update_if_cached
/// [`refresh_if_cached`]: PageNodeCmt::refresh_if_cached
/// [`insert_batch`]: PageNodeCmt::insert_batch
///
/// ```
/// use ftl_base::PageNodeCmt;
/// let mut cmt = PageNodeCmt::new(3);
/// cmt.insert_batch(0, &[(4, 400, true), (5, 500, false)]);
/// assert_eq!(cmt.lookup(0, 5), Some(500));
/// // Two more mappings exceed the budget of three: node 0 goes, and because
/// // it held a dirty mapping its translation page must be written back.
/// assert_eq!(cmt.insert_batch(7, &[(0, 70, false), (1, 71, false)]), &[0]);
/// assert_eq!(cmt.lookup(0, 5), None);
/// ```
#[derive(Debug, Clone)]
pub struct PageNodeCmt {
    capacity_entries: usize,
    total_entries: usize,
    /// Slab slot of each cached translation page (`NIL` when not cached),
    /// grown on demand to the highest tpn seen.
    index: Vec<u32>,
    nodes: Vec<Node>,
    /// Offsets each slot has room for: a multiple of 64.
    stride: usize,
    /// `stride / 64` words per slot; bit `offset` set: the mapping is cached.
    present: Vec<u64>,
    /// Laid out like `present`, and a subset of it: the mapping is dirty.
    dirty: Vec<u64>,
    /// `stride` packed PPNs per slot, meaningful where `present` is set.
    ppns: Vec<u32>,
    /// Slab slots of evicted nodes, reused LIFO; their words are all zero.
    free: Vec<u32>,
    /// Most recently used node.
    head: u32,
    /// Least recently used node.
    tail: u32,
    /// Scratch of [`PageNodeCmt::trim_only_node`]: the batch as a bitmap.
    fresh: Vec<u64>,
    /// What the last [`PageNodeCmt::insert_batch`] returned.
    evicted_dirty: Vec<usize>,
}

impl PageNodeCmt {
    /// Creates a CMT holding at most `capacity_entries` mappings.
    pub fn new(capacity_entries: usize) -> Self {
        PageNodeCmt {
            capacity_entries,
            total_entries: 0,
            index: Vec::new(),
            nodes: Vec::new(),
            stride: 0,
            present: Vec::new(),
            dirty: Vec::new(),
            ppns: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            fresh: Vec::new(),
            evicted_dirty: Vec::new(),
        }
    }

    /// Maximum number of cached mappings.
    pub fn capacity(&self) -> usize {
        self.capacity_entries
    }

    /// Current number of cached mappings.
    pub fn len(&self) -> usize {
        self.total_entries
    }

    /// Whether the CMT is empty.
    pub fn is_empty(&self) -> bool {
        self.total_entries == 0
    }

    /// Number of cached translation-page nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn slot_of(&self, tpn: usize) -> Option<u32> {
        self.index.get(tpn).copied().filter(|&slot| slot != NIL)
    }

    /// Bitmap words per slot.
    fn words(&self) -> usize {
        self.stride / 64
    }

    /// Where the bitmap words of `slot` are in `present` and `dirty`.
    fn words_of(&self, slot: u32) -> Range<usize> {
        let words = self.words();
        slot as usize * words..(slot as usize + 1) * words
    }

    /// Where the node in `slot` keeps the mapping for `offset`, if it is
    /// cached: the index of its bitmap word, its bit in that word and the
    /// index of its PPN.
    fn cached(&self, slot: u32, offset: u32) -> Option<(usize, u64, usize)> {
        let (slot, offset) = (slot as usize, offset as usize);
        if offset >= self.stride {
            return None;
        }
        let (word, bit) = (slot * self.words() + offset / 64, 1 << (offset % 64));
        (self.present[word] & bit != 0).then_some((word, bit, slot * self.stride + offset))
    }

    /// Looks up the mapping for (`tpn`, `offset`), refreshing the node's
    /// recency (also when the node is cached but the offset is not).
    pub fn lookup(&mut self, tpn: usize, offset: u32) -> Option<Ppn> {
        let slot = self.slot_of(tpn)?;
        self.touch(slot);
        let (_, _, at) = self.cached(slot, offset)?;
        Some(Ppn::from(self.ppns[at]))
    }

    /// Whether the mapping for (`tpn`, `offset`) is cached.
    pub fn contains(&self, tpn: usize, offset: u32) -> bool {
        self.slot_of(tpn)
            .is_some_and(|slot| self.cached(slot, offset).is_some())
    }

    /// Inserts a batch of `(offset, ppn, dirty)` mappings into the node for
    /// `tpn`, making it the most recently used; a mapping already cached is
    /// overwritten, and within the batch a later duplicate wins. An empty
    /// batch is a no-op.
    ///
    /// Returns the translation pages that now need a write-back, in eviction
    /// order: the tpns of the least-recently-used nodes dropped to respect
    /// capacity that held at least one dirty mapping — or `tpn` itself when
    /// it is the only node, alone exceeds capacity and had dirty mappings
    /// trimmed. The slice is valid until the next call.
    ///
    /// # Panics
    ///
    /// Panics if a PPN does not fit a 4-byte entry (it has to be below
    /// [`crate::MappingTable::MAX_DEVICE_PAGES`]) or an offset is 65 536 or more,
    /// beyond any translation page's.
    pub fn insert_batch(&mut self, tpn: usize, mappings: &[(u32, Ppn, bool)]) -> &[usize] {
        self.evicted_dirty.clear();
        let Some(highest) = mappings.iter().map(|&(offset, _, _)| offset).max() else {
            return &self.evicted_dirty;
        };
        if self.capacity_entries == 0 {
            return &self.evicted_dirty;
        }
        if highest as usize >= self.stride {
            self.grow_stride(highest);
        }
        let slot = match self.slot_of(tpn) {
            Some(slot) => slot,
            None => self.attach_new_node(tpn),
        };
        self.touch(slot);

        let words = self.words_of(slot);
        let present = &mut self.present[words.clone()];
        let dirty = &mut self.dirty[words];
        let ppns = &mut self.ppns[slot as usize * self.stride..][..self.stride];
        // The batch's bits are gathered per bitmap word and merged into the
        // node when the batch moves on to another word: `set` the offsets to
        // cache, `set_dirty` those among them whose last mention was dirty.
        let (mut word, mut set, mut set_dirty) = (0, 0u64, 0u64);
        let mut added = 0;
        for &(offset, ppn, is_dirty) in mappings {
            let offset = offset as usize;
            if offset / 64 != word {
                added += merge_word(&mut present[word], &mut dirty[word], set, set_dirty);
                (word, set, set_dirty) = (offset / 64, 0, 0);
            }
            let bit = 1 << (offset % 64);
            set |= bit;
            set_dirty = set_dirty & !bit | u64::from(is_dirty) << (offset % 64);
            ppns[offset] = pack_ppn(ppn);
        }
        added += merge_word(&mut present[word], &mut dirty[word], set, set_dirty);
        self.nodes[slot as usize].held += added;
        self.total_entries += added as usize;

        while self.total_entries > self.capacity_entries {
            if self.tail == slot {
                self.trim_only_node(slot, mappings);
                break;
            }
            self.evict_lru();
        }
        &self.evicted_dirty
    }

    /// Updates the mapping for (`tpn`, `offset`) if cached, marking it dirty.
    /// Returns whether it was cached.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` does not fit a 4-byte entry (it has to be below
    /// [`crate::MappingTable::MAX_DEVICE_PAGES`]).
    pub fn update_if_cached(&mut self, tpn: usize, offset: u32, ppn: Ppn) -> bool {
        let entry = pack_ppn(ppn);
        let Some((word, bit, at)) = self.slot_of(tpn).and_then(|s| self.cached(s, offset)) else {
            return false;
        };
        self.ppns[at] = entry;
        self.dirty[word] |= bit;
        true
    }

    /// Overwrites the PPN for (`tpn`, `offset`) if cached without changing the
    /// dirty bit (GC relocation refresh).
    ///
    /// # Panics
    ///
    /// Panics if `ppn` does not fit a 4-byte entry (it has to be below
    /// [`crate::MappingTable::MAX_DEVICE_PAGES`]).
    pub fn refresh_if_cached(&mut self, tpn: usize, offset: u32, ppn: Ppn) {
        let entry = pack_ppn(ppn);
        if let Some((_, _, at)) = self.slot_of(tpn).and_then(|s| self.cached(s, offset)) {
            self.ppns[at] = entry;
        }
    }

    /// Lays the slabs out again with room for offset `highest` in every slot.
    fn grow_stride(&mut self, highest: u32) {
        assert!(
            (highest as usize) < MAX_NODE_OFFSETS,
            "offset {highest} is beyond any translation page's {MAX_NODE_OFFSETS} mappings"
        );
        let stride = (highest as usize + 1).next_multiple_of(64);
        let slots = self.nodes.len();
        self.present = respaced(&self.present, self.words(), stride / 64, slots);
        self.dirty = respaced(&self.dirty, self.words(), stride / 64, slots);
        self.ppns = respaced(&self.ppns, self.stride, stride, slots);
        self.stride = stride;
    }

    /// Takes a slab slot for a node of `tpn` (recycling an evicted node's
    /// when there is one) and links it in as most recent.
    fn attach_new_node(&mut self, tpn: usize) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize].tpn = tpn;
                slot
            }
            None => {
                assert!(
                    self.nodes.len() < NIL as usize,
                    "node slab outgrew its u32 slot index"
                );
                let slot = self.nodes.len() as u32;
                self.nodes.push(Node {
                    tpn,
                    prev: NIL,
                    next: NIL,
                    held: 0,
                });
                self.present.resize(self.nodes.len() * self.words(), 0);
                self.dirty.resize(self.nodes.len() * self.words(), 0);
                self.ppns.resize(self.nodes.len() * self.stride, 0);
                slot
            }
        };
        if tpn >= self.index.len() {
            self.index.resize(tpn + 1, NIL);
        }
        self.index[tpn] = slot;
        self.link_front(slot);
        slot
    }

    /// Drops the least-recently-used node, reporting it if it held a dirty
    /// mapping.
    fn evict_lru(&mut self) {
        let slot = self.tail;
        self.unlink(slot);
        let words = self.words_of(slot);
        let dirty = &mut self.dirty[words.clone()];
        let node = &mut self.nodes[slot as usize];
        if dirty.iter().any(|&word| word != 0) {
            self.evicted_dirty.push(node.tpn);
        }
        dirty.fill(0);
        self.present[words].fill(0);
        self.total_entries -= node.held as usize;
        node.held = 0;
        self.index[node.tpn] = NIL;
        self.free.push(slot);
    }

    /// The only node alone exceeds capacity: trims it by dropping clean
    /// mappings before dirty ones, mappings that were already cached before
    /// the ones `batch` just inserted within each class, and lower offsets
    /// first. If a dirty mapping had to go the node is reported like an
    /// eviction, so the caller still writes its translation page back.
    fn trim_only_node(&mut self, slot: u32, batch: &[(u32, Ppn, bool)]) {
        let words = self.words_of(slot);
        self.fresh.clear();
        self.fresh.resize(words.len(), 0);
        for &(offset, _, _) in batch {
            self.fresh[offset as usize / 64] |= 1 << (offset % 64);
        }
        let present = &mut self.present[words.clone()];
        let dirty = &mut self.dirty[words];
        let node = &mut self.nodes[slot as usize];
        let mut excess = (self.total_entries - self.capacity_entries) as u32;
        self.total_entries -= excess as usize;
        node.held -= excess;
        let mut dirty_trimmed = false;
        for (trim_dirty, trim_fresh) in [(false, false), (false, true), (true, false), (true, true)]
        {
            if excess == 0 {
                break;
            }
            for ((present, dirty), &fresh) in
                present.iter_mut().zip(dirty.iter_mut()).zip(&self.fresh)
            {
                let of_dirtiness = if trim_dirty { *dirty } else { !*dirty };
                let of_age = if trim_fresh { fresh } else { !fresh };
                let victims = lowest_bits(*present & of_dirtiness & of_age, excess);
                *present &= !victims;
                *dirty &= !victims;
                excess -= victims.count_ones();
                dirty_trimmed |= trim_dirty && victims != 0;
            }
        }
        if dirty_trimmed {
            self.evicted_dirty.push(node.tpn);
        }
    }

    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    fn link_front(&mut self, slot: u32) {
        self.nodes[slot as usize].prev = NIL;
        self.nodes[slot as usize].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            head => self.nodes[head as usize].prev = slot,
        }
        self.head = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.nodes[next as usize].prev = prev,
        }
    }
}

/// Caches the offsets `set` of one bitmap word of a node, leaving dirty those
/// of them in `set_dirty` and clean the others. Returns how many of them were
/// not cached before.
fn merge_word(present: &mut u64, dirty: &mut u64, set: u64, set_dirty: u64) -> u32 {
    let added = (set & !*present).count_ones();
    *present |= set;
    *dirty = *dirty & !set | set_dirty;
    added
}

/// The `n` lowest set bits of `mask` (all of them if it has no more).
fn lowest_bits(mask: u64, n: u32) -> u64 {
    if mask.count_ones() <= n {
        return mask;
    }
    let mut rest = mask;
    for _ in 0..n {
        rest &= rest - 1;
    }
    mask & !rest
}

/// `old` — `slots` runs of `from` items — as runs of `to >= from` items, each
/// old run at the start of its new one and default items after it.
fn respaced<T: Copy + Default>(old: &[T], from: usize, to: usize, slots: usize) -> Vec<T> {
    let mut new = vec![T::default(); slots * to];
    for slot in 0..slots {
        new[slot * to..][..from].copy_from_slice(&old[slot * from..][..from]);
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmt_reference::{ReferenceEntryCmt, ReferenceNodeCmt};
    use proptest::prelude::*;

    impl EntryCmt {
        /// Every cached mapping, most recently used first.
        fn entries(&self) -> Vec<(Lpn, CmtEntry)> {
            self.cache
                .iter()
                .map(|(lpn, e)| (*lpn, e.entry()))
                .collect()
        }

        /// The LPNs the dirty index holds, walking every bucket's list and
        /// checking its back links and bucket membership on the way.
        fn indexed_dirty(&mut self) -> Vec<Lpn> {
            let mut lpns = Vec::new();
            for bucket in 0..self.dirty_heads.len() {
                let (mut prev, mut cursor) = (NIL, self.dirty_heads[bucket]);
                while cursor != NIL {
                    let (&lpn, entry) = self.cache.slot_mut(cursor as usize);
                    assert!(entry.is_dirty(), "clean mapping {lpn} in the dirty index");
                    assert_eq!(entry.dirty_prev, prev, "back link of {lpn}");
                    assert_eq!(bucket_of(lpn), bucket, "{lpn} in a foreign bucket");
                    lpns.push(lpn);
                    (prev, cursor) = (cursor, entry.dirty_next);
                }
            }
            lpns.sort_unstable();
            lpns
        }
    }

    impl PageNodeCmt {
        /// The cached mapping for (`tpn`, `offset`) with its dirty bit.
        fn peek(&self, tpn: usize, offset: u32) -> Option<CmtEntry> {
            let (word, bit, at) = self.cached(self.slot_of(tpn)?, offset)?;
            Some(CmtEntry {
                ppn: Ppn::from(self.ppns[at]),
                dirty: self.dirty[word] & bit != 0,
            })
        }

        /// What every operation must leave true of the slabs, the LRU list
        /// and the `tpn → slot` table.
        fn check_invariants(&self) {
            let (words, slots) = (self.words(), self.nodes.len());
            assert_eq!(self.stride % 64, 0);
            assert_eq!(self.present.len(), slots * words);
            assert_eq!(self.dirty.len(), slots * words);
            assert_eq!(self.ppns.len(), slots * self.stride);
            let cached: u32 = self.present.iter().map(|word| word.count_ones()).sum();
            assert_eq!(
                self.len(),
                cached as usize,
                "len() against the present bits"
            );
            for (present, dirty) in self.present.iter().zip(&self.dirty) {
                assert_eq!(dirty & !present, 0, "a dirty bit without its present bit");
            }
            // The list visits every cached node once, with matching back
            // links, and each of them is the slot the table has for its tpn.
            let mut listed = vec![false; slots];
            let (mut prev, mut cursor) = (NIL, self.head);
            while cursor != NIL {
                let node = &self.nodes[cursor as usize];
                assert!(!std::mem::replace(&mut listed[cursor as usize], true));
                assert_eq!(node.prev, prev, "back link of slot {cursor}");
                assert_eq!(self.index[node.tpn], cursor, "slot of tpn {}", node.tpn);
                let held = &self.present[self.words_of(cursor)];
                let held: u32 = held.iter().map(|word| word.count_ones()).sum();
                assert_eq!(node.held, held, "held count of tpn {}", node.tpn);
                assert!(held > 0, "an empty node stays cached");
                (prev, cursor) = (cursor, node.next);
            }
            assert_eq!(self.tail, prev);
            let listed_slots = listed.iter().filter(|&&l| l).count();
            assert_eq!(listed_slots, self.node_count());
            let indexed = self.index.iter().filter(|&&slot| slot != NIL).count();
            assert_eq!(indexed, self.node_count(), "tpns against cached slots");
            // Every other slot is free, once, and all zero.
            for &slot in &self.free {
                assert!(!std::mem::replace(&mut listed[slot as usize], true));
                assert_eq!(self.nodes[slot as usize].held, 0);
                let words = self.words_of(slot);
                assert!(self.present[words.clone()].iter().all(|&word| word == 0));
                assert!(self.dirty[words].iter().all(|&word| word == 0));
            }
            assert!(listed.iter().all(|&l| l), "a slot neither cached nor free");
        }
    }

    #[test]
    fn entry_cmt_basic_flow() {
        let mut cmt = EntryCmt::new(3);
        cmt.insert_clean(10, 100);
        cmt.insert_dirty(11, 110);
        assert_eq!(cmt.lookup(10), Some(100));
        assert_eq!(cmt.lookup(99), None);
        assert!(cmt.update_if_cached(10, 101));
        assert!(!cmt.update_if_cached(99, 0));
        assert_eq!(cmt.lookup(10), Some(101));
        assert_eq!(cmt.len(), 2);
    }

    #[test]
    fn entry_cmt_dirty_batch_flush() {
        let mut cmt = EntryCmt::new(10);
        cmt.insert_dirty(0, 5);
        cmt.insert_dirty(1, 6);
        cmt.insert_clean(2, 7);
        cmt.insert_dirty(600, 8);
        assert_eq!(cmt.clean_dirty_in_range(0, 512), 2);
        // A second flush finds nothing dirty in that range.
        assert_eq!(cmt.clean_dirty_in_range(0, 512), 0);
        // The out-of-range dirty entry is untouched, and a range that cuts
        // through its bucket only cleans what it covers.
        assert_eq!(cmt.clean_dirty_in_range(512, 600), 0);
        assert_eq!(cmt.clean_dirty_in_range(600, 601), 1);
        // Cleaned mappings stay cached; evicting them reports them clean.
        assert_eq!(cmt.lookup(1), Some(6));
        assert_eq!(
            cmt.remove(0),
            Some(CmtEntry {
                ppn: 5,
                dirty: false
            })
        );
    }

    /// One step of the `EntryCmt` differential test.
    #[derive(Debug, Clone)]
    enum EntryOp {
        Lookup(Lpn),
        InsertClean(Lpn, Ppn),
        InsertDirty(Lpn, Ppn),
        Update(Lpn, Ppn),
        Refresh(Lpn, Ppn),
        Remove(Lpn),
        Clean(Lpn, Lpn),
    }

    /// LPNs span four buckets of the dirty index and capacities go down to
    /// one, so lists form, split, empty out, and slots are recycled under
    /// them; flush ranges cut through buckets as often as they align.
    fn entry_op() -> impl Strategy<Value = EntryOp> {
        let lpn = || 0u64..2048;
        let ppn = || 0u64..1_000_000;
        let aligned = (0u64..4, 1u64..3).prop_map(|(b, n)| EntryOp::Clean(b * 512, (b + n) * 512));
        let ragged = (lpn(), 0u64..700).prop_map(|(from, len)| EntryOp::Clean(from, from + len));
        prop_oneof![
            lpn().prop_map(EntryOp::Lookup),
            (lpn(), ppn()).prop_map(|(l, p)| EntryOp::InsertClean(l, p)),
            (lpn(), ppn()).prop_map(|(l, p)| EntryOp::InsertDirty(l, p)),
            (lpn(), ppn()).prop_map(|(l, p)| EntryOp::InsertDirty(l, p)),
            (lpn(), ppn()).prop_map(|(l, p)| EntryOp::Update(l, p)),
            (lpn(), ppn()).prop_map(|(l, p)| EntryOp::Refresh(l, p)),
            lpn().prop_map(EntryOp::Remove),
            aligned,
            ragged,
        ]
    }

    proptest! {
        /// The indexed CMT must be indistinguishable from the one that
        /// scanned the whole cache per flush: same results and evictions
        /// (hence the same recency order), the same set cleaned by every
        /// flush, the same dirty bits afterwards — and the index holds
        /// exactly the cached dirty mappings after every step.
        #[test]
        fn entry_cmt_matches_scanning_reference(
            ops in collection::vec(entry_op(), 1..400),
            capacity in prop_oneof![Just(0usize), Just(1), Just(3), Just(40), Just(4096)],
        ) {
            let mut cmt = EntryCmt::new(capacity);
            let mut model = ReferenceEntryCmt::new(capacity);
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    EntryOp::Lookup(l) => {
                        prop_assert_eq!(cmt.lookup(l), model.lookup(l), "step {}", step);
                    }
                    EntryOp::InsertClean(l, p) => {
                        prop_assert_eq!(
                            cmt.insert_clean(l, p), model.insert_clean(l, p), "step {}", step
                        );
                    }
                    EntryOp::InsertDirty(l, p) => {
                        prop_assert_eq!(
                            cmt.insert_dirty(l, p), model.insert_dirty(l, p), "step {}", step
                        );
                    }
                    EntryOp::Update(l, p) => {
                        prop_assert_eq!(
                            cmt.update_if_cached(l, p), model.update_if_cached(l, p),
                            "step {}", step
                        );
                    }
                    EntryOp::Refresh(l, p) => {
                        cmt.refresh_if_cached(l, p);
                        model.refresh_if_cached(l, p);
                    }
                    EntryOp::Remove(l) => {
                        prop_assert_eq!(cmt.remove(l), model.remove(l), "step {}", step);
                    }
                    EntryOp::Clean(start, end) => {
                        let cleaned = cmt.clean_dirty_in_range(start, end);
                        let taken = model.take_dirty_in_range(start, end);
                        prop_assert_eq!(cleaned, taken.len(), "step {}: {}..{}", step, start, end);
                    }
                }
                // Equal entries in equal order: the cleaned set and the
                // surviving dirty bits agree, not just their counts.
                let entries = cmt.entries();
                prop_assert_eq!(&entries, &model.entries(), "step {}", step);
                prop_assert_eq!(cmt.len(), model.len());
                let mut dirty: Vec<Lpn> =
                    entries.iter().filter(|(_, e)| e.dirty).map(|(l, _)| *l).collect();
                dirty.sort_unstable();
                prop_assert_eq!(cmt.indexed_dirty(), dirty, "step {}", step);
            }
        }
    }

    /// The paper's CMT (3 % of a 32 GiB device's mappings), dirty across 512
    /// translation pages, through 100 000 evict-and-flush rounds: 2.6 × 10¹⁰
    /// entry visits when a flush walked the cache, one per cleaned mapping
    /// with the index. No timing assertion — it has to return.
    #[test]
    fn entry_cmt_flushes_at_paper_scale() {
        const CAPACITY: u64 = 262_144;
        const PAGES: u64 = 512;
        const ROUNDS: u64 = 100_000;
        let mut cmt = EntryCmt::new(CAPACITY as usize);
        // Filled round-robin over the pages, so the oldest mappings are the
        // pages' first offsets and the first eviction of a page finds its
        // other 511 mappings cached and dirty.
        for i in 0..CAPACITY {
            let lpn = (i % PAGES) * 512 + i / PAGES;
            assert!(cmt.insert_dirty(lpn, i).is_none());
        }
        let mut cleaned = 0;
        for round in 0..ROUNDS {
            // A dirty mapping of a page beyond the 512 evicts the oldest;
            // DFTL then flushes the evicted mapping's translation page.
            let fresh = (PAGES + round % PAGES) * 512 + round / PAGES;
            let (lpn, _) = cmt.insert_dirty(fresh, round).expect("the CMT is full");
            let start = lpn / 512 * 512;
            cleaned += cmt.clean_dirty_in_range(start, start + 512);
            // Leave the page one dirty mapping for its next flush to find.
            assert!(cmt.update_if_cached(start + 511, round));
        }
        assert_eq!(cleaned as u64, PAGES * 511 + (ROUNDS - PAGES));
        assert_eq!(cmt.len(), CAPACITY as usize);
    }

    #[test]
    fn entry_cmt_eviction_when_full() {
        let mut cmt = EntryCmt::new(2);
        cmt.insert_clean(1, 10);
        cmt.insert_clean(2, 20);
        cmt.lookup(1);
        let evicted = cmt.insert_clean(3, 30).unwrap();
        assert_eq!(evicted.0, 2);
        assert_eq!(cmt.len(), 2);
    }

    #[test]
    fn page_node_cmt_groups_by_translation_page() {
        let mut cmt = PageNodeCmt::new(100);
        cmt.insert_batch(0, &[(0, 100, false), (1, 101, false)]);
        cmt.insert_batch(3, &[(9, 900, true)]);
        assert_eq!(cmt.lookup(0, 1), Some(101));
        assert_eq!(cmt.lookup(3, 9), Some(900));
        assert_eq!(cmt.lookup(3, 10), None);
        assert!(cmt.contains(3, 9) && !cmt.contains(3, 10) && !cmt.contains(4, 9));
        assert_eq!(cmt.node_count(), 2);
        assert_eq!(cmt.len(), 3);
    }

    #[test]
    fn page_node_cmt_evicts_whole_nodes() {
        let mut cmt = PageNodeCmt::new(4);
        cmt.insert_batch(0, &[(0, 1, false), (1, 2, false), (2, 3, false)]);
        // Touch node 0 so it is MRU, then overflow with node 1.
        cmt.lookup(0, 0);
        let evicted = cmt.insert_batch(1, &[(0, 10, true), (1, 11, false)]);
        assert!(evicted.is_empty(), "node 0 had no dirty mappings");
        assert_eq!(cmt.node_count(), 1, "the older node must be evicted");
        assert!(cmt.len() <= 4);
        assert_eq!(cmt.lookup(1, 0), Some(10));
        assert_eq!(cmt.lookup(0, 0), None);
        // Node 1 holds a dirty mapping, so its eviction asks for a write-back.
        let evicted = cmt.insert_batch(2, &[(0, 20, false), (1, 21, false), (2, 22, false)]);
        assert_eq!(evicted, &[1]);
    }

    #[test]
    fn page_node_cmt_single_huge_node_is_trimmed() {
        let mut cmt = PageNodeCmt::new(4);
        let mappings: Vec<(u32, Ppn, bool)> = (0..10).map(|i| (i, u64::from(i), false)).collect();
        let evicted = cmt.insert_batch(0, &mappings);
        assert!(evicted.is_empty());
        assert_eq!(cmt.len(), 4, "node must be trimmed to capacity");
        // Equal class throughout, so the lowest offsets went first.
        assert_eq!(cmt.lookup(0, 5), None);
        assert_eq!(cmt.lookup(0, 6), Some(6));
    }

    #[test]
    fn page_node_cmt_trim_drops_clean_then_stale_and_reports_dirty() {
        let mut cmt = PageNodeCmt::new(3);
        cmt.insert_batch(0, &[(0, 1, true), (1, 2, false), (9, 3, false)]);
        // Two over: stale clean 1 and 9 go before the fresh clean 2 and 3.
        assert!(cmt
            .insert_batch(0, &[(2, 4, false), (3, 5, false)])
            .is_empty());
        assert_eq!(cmt.lookup(0, 1), None);
        assert_eq!(cmt.lookup(0, 9), None);
        // One over with nothing clean and stale: the fresh clean entry goes.
        // Then a dirty one has to, which asks for a write-back of the node.
        assert!(cmt.insert_batch(0, &[(4, 6, false)]).is_empty());
        assert!(cmt.contains(0, 0) && !cmt.contains(0, 2) && cmt.contains(0, 4));
        assert_eq!(
            cmt.insert_batch(0, &[(3, 7, true), (4, 8, true), (5, 9, true)]),
            &[0]
        );
        assert_eq!(cmt.len(), 3);
        assert!(
            !cmt.contains(0, 0),
            "the stale dirty entry is trimmed first"
        );
    }

    #[test]
    fn page_node_cmt_merges_overlapping_and_unsorted_batches() {
        let mut cmt = PageNodeCmt::new(100);
        cmt.insert_batch(0, &[(4, 40, false), (6, 60, true), (8, 80, false)]);
        // Overlapping ascending run: overwrites 6 (now clean), adds 5 and 7.
        cmt.insert_batch(0, &[(5, 51, false), (6, 61, false), (7, 71, false)]);
        assert_eq!(cmt.len(), 5);
        // Unsorted with a duplicate: the later duplicate wins.
        cmt.insert_batch(0, &[(9, 90, false), (2, 20, false), (9, 91, true)]);
        assert_eq!(cmt.len(), 7);
        let got: Vec<Option<Ppn>> = (2..10).map(|o| cmt.lookup(0, o)).collect();
        let want = [
            Some(20),
            None,
            Some(40),
            Some(51),
            Some(61),
            Some(71),
            Some(80),
            Some(91),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn page_node_cmt_recycles_slots_and_buffers() {
        let mut cmt = PageNodeCmt::new(8);
        let batch: Vec<(u32, Ppn, bool)> = (0..8).map(|i| (i, u64::from(i), false)).collect();
        for tpn in 0..1000 {
            cmt.insert_batch(tpn, &batch);
            assert_eq!(cmt.node_count(), 1);
            assert_eq!(cmt.lookup(tpn, 7), Some(7));
        }
        assert!(cmt.nodes.len() <= 2, "evicted slots must be reused");
        assert!(cmt.ppns.len() <= 2 * 64 && cmt.present.len() <= 2);
        cmt.check_invariants();
    }

    #[test]
    fn page_node_cmt_lays_its_slabs_out_again_for_a_higher_offset() {
        let mut cmt = PageNodeCmt::new(100);
        cmt.insert_batch(0, &[(3, 30, true), (63, 630, false)]);
        cmt.insert_batch(1, &[(0, 10, false)]);
        assert_eq!(cmt.stride, 64);
        assert_eq!(cmt.lookup(0, 64), None, "beyond the stride is not cached");
        assert!(!cmt.update_if_cached(1, 511, 1));
        // Offset 511 needs eight words a slot; both nodes move and keep
        // their mappings and dirty bits.
        cmt.insert_batch(1, &[(511, 5110, true)]);
        assert_eq!(cmt.stride, 512);
        cmt.check_invariants();
        assert_eq!(cmt.lookup(0, 3), Some(30));
        assert_eq!(cmt.lookup(0, 63), Some(630));
        assert_eq!(cmt.lookup(1, 0), Some(10));
        assert_eq!(cmt.lookup(1, 511), Some(5110));
        assert_eq!(cmt.len(), 4);
        let full: Vec<(u32, Ppn, bool)> = (0..100).map(|i| (i, 1, false)).collect();
        assert_eq!(cmt.insert_batch(2, &full), &[0, 1], "both were dirty");
    }

    #[test]
    #[should_panic(expected = "beyond any translation page's 65536 mappings")]
    fn page_node_cmt_refuses_an_offset_no_translation_page_has() {
        PageNodeCmt::new(8).insert_batch(0, &[(1 << 16, 1, false)]);
    }

    /// The highest PPN a 4-byte entry holds, and the first it cannot.
    const MAX_PPN: Ppn = u32::MAX as Ppn - 1;
    const TOO_BIG: Ppn = MAX_PPN + 1;

    #[test]
    fn page_node_cmt_holds_the_highest_ppn_of_the_largest_device() {
        let mut cmt = PageNodeCmt::new(8);
        cmt.insert_batch(0, &[(0, MAX_PPN, false)]);
        assert_eq!(cmt.lookup(0, 0), Some(MAX_PPN));
    }

    #[test]
    #[should_panic(expected = "PPN beyond the 32-bit entries")]
    fn page_node_cmt_insert_refuses_a_ppn_beyond_its_entries() {
        PageNodeCmt::new(8).insert_batch(0, &[(0, 1, false), (1, TOO_BIG, false)]);
    }

    #[test]
    #[should_panic(expected = "PPN beyond the 32-bit entries")]
    fn page_node_cmt_update_refuses_a_ppn_beyond_its_entries() {
        let mut cmt = PageNodeCmt::new(8);
        cmt.insert_batch(0, &[(0, 1, false)]);
        cmt.update_if_cached(0, 0, TOO_BIG + 7);
    }

    #[test]
    #[should_panic(expected = "PPN beyond the 32-bit entries")]
    fn page_node_cmt_refresh_refuses_a_ppn_beyond_its_entries() {
        let mut cmt = PageNodeCmt::new(8);
        cmt.insert_batch(0, &[(0, 1, false)]);
        cmt.refresh_if_cached(0, 0, 1 << 40);
    }

    #[test]
    fn page_node_cmt_update_and_refresh() {
        let mut cmt = PageNodeCmt::new(10);
        cmt.insert_batch(2, &[(5, 55, false)]);
        assert!(cmt.update_if_cached(2, 5, 56));
        assert!(!cmt.update_if_cached(2, 6, 57));
        assert!(!cmt.update_if_cached(3, 5, 57));
        assert_eq!(cmt.lookup(2, 5), Some(56));
        cmt.refresh_if_cached(2, 5, 60);
        assert_eq!(cmt.lookup(2, 5), Some(60));
        // The update dirtied the mapping; the refresh left that alone.
        let full: Vec<(u32, Ppn, bool)> = (0..10).map(|i| (i, 1, false)).collect();
        assert_eq!(cmt.insert_batch(5, &full), &[2]);
    }

    #[test]
    fn zero_capacity_and_empty_batches_cache_nothing() {
        let mut cmt = PageNodeCmt::new(0);
        assert!(cmt.insert_batch(0, &[(0, 1, false)]).is_empty());
        assert_eq!(cmt.len(), 0);
        assert_eq!(cmt.lookup(0, 0), None);
        let mut cmt = PageNodeCmt::new(4);
        assert!(cmt.insert_batch(0, &[]).is_empty());
        assert_eq!((cmt.len(), cmt.node_count()), (0, 0));
    }

    /// One step of the differential test below.
    #[derive(Debug, Clone)]
    enum Op {
        Lookup(usize, u32),
        Insert(usize, Vec<(u32, Ppn, bool)>),
        Update(usize, u32, Ppn),
        Refresh(usize, u32, Ppn),
    }

    /// Translation pages are drawn from a small range so nodes collide,
    /// overlap and get re-created after eviction. Offsets come half from the
    /// first word and a half (dense: most operations meet a cached mapping),
    /// half from sixteen words (the slabs are laid out again several times
    /// per case, with nodes in them); PPNs go up to the highest an entry
    /// holds.
    fn op() -> impl Strategy<Value = Op> {
        let tpn = || 0usize..12;
        let offset = || prop_oneof![0u32..96, 0u32..1024];
        let ppn = || 0..MAX_PPN + 1;
        // A prefetch-like clean run of consecutive offsets (ascending, so it
        // overlaps whatever earlier runs left in the node), more often than
        // not starting in one bitmap word and ending in another.
        let run = (tpn(), offset(), 1u32..70, ppn()).prop_map(|(t, from, len, ppn)| {
            let batch = (from..from + len)
                .map(|o| (o, (ppn + Ppn::from(o)).min(MAX_PPN), false))
                .collect();
            Op::Insert(t, batch)
        });
        // The host write path's single dirty mapping.
        let write =
            (tpn(), offset(), ppn()).prop_map(|(t, o, p)| Op::Insert(t, vec![(o, p, true)]));
        // Anything goes: unsorted, duplicate offsets, mixed dirty bits.
        let scattered = (
            tpn(),
            collection::vec((offset(), ppn(), any::<bool>()), 1..12),
        )
            .prop_map(|(t, batch)| Op::Insert(t, batch));
        prop_oneof![
            (tpn(), offset()).prop_map(|(t, o)| Op::Lookup(t, o)),
            (tpn(), offset()).prop_map(|(t, o)| Op::Lookup(t, o)),
            run,
            write,
            scattered,
            (tpn(), offset(), ppn()).prop_map(|(t, o, p)| Op::Update(t, o, p)),
            (tpn(), offset(), ppn()).prop_map(|(t, o, p)| Op::Refresh(t, o, p)),
        ]
    }

    proptest! {
        /// The bitmap CMT must be indistinguishable from the original
        /// `BTreeMap`-per-node implementation: same lookup results (hence
        /// same recency updates), same sizes, and the same translation pages
        /// written back in the same order — including the oversized-only-node
        /// trim (capacities 1, 4 and 7 against runs of up to 69) and slot
        /// reuse — with its own structure intact after every step.
        #[test]
        fn page_node_cmt_matches_reference_model(
            ops in collection::vec(op(), 1..300),
            capacity in prop_oneof![
                Just(0usize), Just(1), Just(4), Just(7), Just(64), Just(513), Just(4096)
            ],
        ) {
            let mut cmt = PageNodeCmt::new(capacity);
            let mut model = ReferenceNodeCmt::new(capacity);
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Lookup(tpn, offset) => {
                        prop_assert_eq!(
                            cmt.contains(tpn, offset),
                            model.contains(tpn, offset),
                            "step {}", step
                        );
                        prop_assert_eq!(
                            cmt.lookup(tpn, offset),
                            model.lookup(tpn, offset),
                            "step {}", step
                        );
                    }
                    Op::Insert(tpn, batch) => {
                        let evicted = cmt.insert_batch(tpn, &batch).to_vec();
                        prop_assert_eq!(
                            evicted,
                            model.insert_batch(tpn, &batch),
                            "step {}: insert {:?} into {}", step, batch, tpn
                        );
                        for &(offset, _, _) in &batch {
                            prop_assert_eq!(
                                cmt.peek(tpn, offset), model.peek(tpn, offset),
                                "step {}: offset {} of {:?}", step, offset, batch
                            );
                        }
                    }
                    Op::Update(tpn, offset, ppn) => {
                        prop_assert_eq!(
                            cmt.update_if_cached(tpn, offset, ppn),
                            model.update_if_cached(tpn, offset, ppn),
                            "step {}", step
                        );
                    }
                    Op::Refresh(tpn, offset, ppn) => {
                        cmt.refresh_if_cached(tpn, offset, ppn);
                        model.refresh_if_cached(tpn, offset, ppn);
                    }
                }
                prop_assert_eq!(cmt.len(), model.len(), "step {}", step);
                prop_assert_eq!(cmt.node_count(), model.node_count(), "step {}", step);
                prop_assert!(cmt.len() <= capacity);
                cmt.check_invariants();
            }
            // Whatever survived must agree mapping for mapping, dirty bits
            // included.
            for tpn in 0..12 {
                for offset in 0..1100 {
                    prop_assert_eq!(cmt.peek(tpn, offset), model.peek(tpn, offset));
                }
            }
        }
    }
}
