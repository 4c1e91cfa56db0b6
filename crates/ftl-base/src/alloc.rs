//! Data-page allocation: the dynamic (least-busy chip) allocation strategy
//! used by DFTL, TPFTL and LeaFTL — now plane-striped so consecutive writes
//! to one chip land on its planes in turn and form multi-plane program
//! groups — plus greedy victim selection for GC.

use std::cmp::Reverse;
use std::collections::VecDeque;

use crate::partition::BlockPartition;
use ssd_sim::{FlashDevice, Ppn};

/// The active block stripe of one chip: one open block per participating
/// plane (all with the same in-plane block index when the free lists allow
/// it), filled page-row by page-row — (page 0, plane 0), (page 0, plane 1),
/// …, (page 1, plane 0), … — so consecutive allocations on the chip are
/// plane-aligned at the same (block, page) offset and can program as one
/// multi-plane group.
#[derive(Debug, Clone)]
struct Stripe {
    /// `(plane, flat block)` per participating plane, ascending planes.
    blocks: Vec<(u32, u64)>,
    /// Next page offset to hand out.
    page: u32,
    /// Next entry of `blocks` to hand out at the current page offset.
    cursor: usize,
}

/// Per-chip state of the dynamic data-page allocator.
#[derive(Debug, Clone)]
struct ChipState {
    /// Erased data blocks available per plane (flat block indices, FIFO).
    free: Vec<VecDeque<u64>>,
    /// The block stripe currently being filled.
    stripe: Option<Stripe>,
    /// Blocks that have been fully programmed (may contain invalid pages).
    used: Vec<u64>,
    /// Allocatable pages: those of the erased blocks plus the unfilled rest
    /// of the stripe.
    free_pages: u64,
}

/// The dynamic allocation strategy: each write is steered to the least-busy
/// chip (ties broken by free space), which maximises parallelism but scatters
/// consecutive LPNs across the device — exactly the behaviour that makes
/// learned-index training hard (paper Challenge #2) and that the paper's
/// group-based allocation replaces for LearnedFTL. Within a chip, allocations
/// stripe across planes so multi-plane geometries expose their intra-chip
/// parallelism; with one plane per chip the pool behaves exactly like the
/// historical single-timeline allocator.
///
/// # Cost
///
/// Everything a write or a collection asks per page is a counter the pool
/// keeps up to date as pages are handed out and blocks come back, so no
/// query recounts free lists or stripes:
///
/// * [`needs_gc`](Self::needs_gc), [`free_block_count`](Self::free_block_count),
///   [`free_page_count`](Self::free_page_count): O(1).
/// * [`allocate`](Self::allocate), [`allocate_stripe`](Self::allocate_stripe):
///   one pass over the chips (a plane-timeline read and a compare each) and
///   O(1) per page handed out, with no heap allocation. Opening a stripe —
///   once per block — searches the chip's free lists for a plane-aligned
///   block set and does allocate.
/// * [`pick_victim`](Self::pick_victim): one valid-page count per used block.
/// * [`release_block`](Self::release_block): a search of the used list of
///   the block's own chip only.
#[derive(Debug, Clone)]
pub struct DynamicDataPool {
    chips: Vec<ChipState>,
    pages_per_block: u32,
    planes_per_chip: u32,
    blocks_per_plane: u64,
    blocks_per_chip: u64,
    gc_low_watermark: usize,
    /// Erased blocks over all chips (the sum of the `free` list lengths).
    free_blocks: usize,
    /// Allocatable pages over all chips (the sum of `ChipState::free_pages`).
    free_pages: u64,
    /// The group [`DynamicDataPool::allocate_stripe`] last handed out.
    granted: Vec<Ppn>,
}

/// A single page relocation performed by garbage collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcMove {
    /// The logical page that was moved.
    pub lpn: u64,
    /// Its previous physical location.
    pub old_ppn: Ppn,
    /// Its new physical location.
    pub new_ppn: Ppn,
}

impl DynamicDataPool {
    /// Creates the pool over the data region of `partition`.
    ///
    /// `gc_low_watermark` is the number of erased data blocks below which
    /// [`DynamicDataPool::needs_gc`] reports true; the paper's baselines use
    /// a small fixed headroom.
    pub fn new(partition: &BlockPartition, pages_per_block: u32, gc_low_watermark: usize) -> Self {
        let planes = partition.planes_per_chip() as u32;
        let chips: Vec<ChipState> = (0..partition.total_chips())
            .map(|chip| {
                let free: Vec<VecDeque<u64>> = (0..u64::from(planes))
                    .map(|plane| partition.data_blocks_on_plane(chip, plane).collect())
                    .collect();
                let blocks: usize = free.iter().map(VecDeque::len).sum();
                ChipState {
                    free,
                    stripe: None,
                    used: Vec::new(),
                    free_pages: blocks as u64 * u64::from(pages_per_block),
                }
            })
            .collect();
        let free_blocks: usize = chips
            .iter()
            .map(|c| c.free.iter().map(VecDeque::len).sum::<usize>())
            .sum();
        DynamicDataPool {
            free_blocks,
            free_pages: free_blocks as u64 * u64::from(pages_per_block),
            chips,
            pages_per_block,
            planes_per_chip: planes,
            blocks_per_plane: partition.data_blocks_per_plane()
                + partition.translation_blocks_per_plane(),
            blocks_per_chip: (partition.data_blocks_per_plane()
                + partition.translation_blocks_per_plane())
                * partition.planes_per_chip(),
            gc_low_watermark,
            granted: Vec::new(),
        }
    }

    /// Total number of erased data blocks across all chips.
    pub fn free_block_count(&self) -> usize {
        self.free_blocks
    }

    /// Total free (allocatable) pages, counting partially filled stripes.
    pub fn free_page_count(&self) -> u64 {
        self.free_pages
    }

    /// Whether garbage collection should run before accepting more writes.
    pub fn needs_gc(&self) -> bool {
        self.free_blocks <= self.gc_low_watermark
    }

    /// The chip the dynamic strategy dispatches to next: of the chips that
    /// still have an allocatable page, the one whose earliest plane frees
    /// first, then the one with the most free pages, then the lowest index.
    fn pick_chip(&self, dev: &FlashDevice) -> Option<usize> {
        let mut best = None;
        for (chip, state) in self.chips.iter().enumerate() {
            if state.free_pages == 0 {
                continue;
            }
            let key = (dev.busy_until_of_chip(chip), Reverse(state.free_pages));
            if best.is_none_or(|(least, _)| key < least) {
                best = Some((key, chip));
            }
        }
        best.map(|(_, chip)| chip)
    }

    /// Allocates the next data page, steering to the least-busy chip.
    /// Returns `None` when every chip is out of space (the caller must GC).
    pub fn allocate(&mut self, dev: &FlashDevice) -> Option<Ppn> {
        let chip = self.pick_chip(dev)?;
        self.allocate_on_chip(chip, dev)
    }

    /// Allocates up to `want` pages as one **plane-aligned stripe** on the
    /// least-busy chip that has space: every returned page shares the chip
    /// and the (block, page) offset and the planes ascend, so the group can
    /// program as a single multi-plane command. The group never crosses a
    /// block boundary: it is cut at the end of the current page row. With one
    /// plane per chip (or `want == 1`) this is exactly [`Self::allocate`].
    ///
    /// Returns `None` when every chip is out of space. The slice is valid
    /// until the next call.
    pub fn allocate_stripe(&mut self, dev: &FlashDevice, want: usize) -> Option<&[Ppn]> {
        let want = want.max(1);
        let chip = self.pick_chip(dev)?;
        self.granted.clear();
        while self.granted.len() < want {
            let Some((ppn, row_ended)) = self.take_page(chip, dev, want) else {
                break;
            };
            self.granted.push(ppn);
            // Never extend a group past the end of its page row: the next
            // page would break the shared (block, page) offset.
            if row_ended {
                break;
            }
        }
        debug_assert!(!self.granted.is_empty(), "a picked chip has a page");
        Some(&self.granted)
    }

    /// Allocates the next data page on a specific chip (used by tests).
    /// Returns `None` if the chip is out of space.
    pub fn allocate_on_chip(&mut self, chip: usize, dev: &FlashDevice) -> Option<Ppn> {
        self.take_page(chip, dev, 1).map(|(ppn, _)| ppn)
    }

    /// Takes the next page of the chip's stripe — opening one for a
    /// `want`-page request if none is open — and says whether that page
    /// ended its page row. `None` if the chip is out of space.
    fn take_page(&mut self, chip: usize, dev: &FlashDevice, want: usize) -> Option<(Ppn, bool)> {
        if self.chips[chip].stripe.is_none() && !self.open_stripe(chip, want) {
            return None;
        }
        let state = &mut self.chips[chip];
        let stripe = state.stripe.as_mut().expect("opened above");
        let (_, block) = stripe.blocks[stripe.cursor];
        let ppn = dev.first_ppn_of_flat_block(block) + u64::from(stripe.page);
        stripe.cursor += 1;
        let row_ended = stripe.cursor == stripe.blocks.len();
        if row_ended {
            stripe.cursor = 0;
            stripe.page += 1;
            if stripe.page == self.pages_per_block {
                let stripe = state.stripe.take().expect("still open");
                state.used.extend(stripe.blocks.iter().map(|&(_, b)| b));
            }
        }
        state.free_pages -= 1;
        self.free_pages -= 1;
        Some((ppn, row_ended))
    }

    /// Opens a fresh stripe on `chip`: preferably one block per plane with a
    /// common in-plane index (full multi-plane alignment), otherwise the
    /// front block of the single plane with the most free blocks (degenerate
    /// stripe — allocation continues without fusion).
    ///
    /// A single-page request under GC pressure (`want == 1` while the pool
    /// sits at its low watermark — exactly a collection's relocation
    /// allocations) always opens a single block: grabbing a whole aligned
    /// block set for one relocated page would let a collection *consume*
    /// more erased blocks than it frees, and the greedy-GC headroom loop
    /// would never converge. Away from the watermark, even one-page requests
    /// open an aligned stripe — later multi-page requests then continue it
    /// as fused rows instead of inheriting an unfusable single-plane block.
    /// Returns whether a stripe was opened.
    fn open_stripe(&mut self, chip: usize, want: usize) -> bool {
        let planes = self.planes_per_chip;
        let aligned_allowed = want > 1 || !self.needs_gc();
        let state = &mut self.chips[chip];
        debug_assert!(state.stripe.is_none());
        if aligned_allowed && planes > 1 && state.free.iter().all(|f| !f.is_empty()) {
            // Take the front-most in-plane index of plane 0's FIFO that every
            // other plane also has free. Intersecting per-plane index sets
            // keeps the search O(blocks × planes) instead of re-scanning
            // every plane per plane-0 entry.
            let in_plane_of = |b: u64, bpc: u64, bpp: u64| (b % bpc) % bpp;
            let (bpc, bpp) = (self.blocks_per_chip, self.blocks_per_plane);
            let mut common: std::collections::BTreeSet<u64> = state.free[0]
                .iter()
                .map(|&b| in_plane_of(b, bpc, bpp))
                .collect();
            for f in &state.free[1..] {
                let indices: std::collections::BTreeSet<u64> =
                    f.iter().map(|&b| in_plane_of(b, bpc, bpp)).collect();
                common.retain(|idx| indices.contains(idx));
                if common.is_empty() {
                    break;
                }
            }
            let candidate = state.free[0]
                .iter()
                .map(|&b| in_plane_of(b, bpc, bpp))
                .find(|idx| common.contains(idx));
            if let Some(idx) = candidate {
                let blocks: Vec<(u32, u64)> = state
                    .free
                    .iter_mut()
                    .enumerate()
                    .map(|(plane, f)| {
                        let pos = f
                            .iter()
                            .position(|&b| in_plane_of(b, bpc, bpp) == idx)
                            .expect("candidate exists on every plane");
                        (plane as u32, f.remove(pos).expect("position is valid"))
                    })
                    .collect();
                self.free_blocks -= blocks.len();
                state.stripe = Some(Stripe {
                    blocks,
                    page: 0,
                    cursor: 0,
                });
                return true;
            }
        }
        // Degenerate stripe: the plane with the most free blocks (ties to the
        // lowest plane — with one plane per chip this is the historical
        // pop-front behaviour).
        let plane = (0..planes as usize)
            .max_by_key(|&p| (state.free[p].len(), usize::MAX - p))
            .expect("at least one plane");
        match state.free[plane].pop_front() {
            Some(block) => {
                self.free_blocks -= 1;
                state.stripe = Some(Stripe {
                    blocks: vec![(plane as u32, block)],
                    page: 0,
                    cursor: 0,
                });
                true
            }
            None => false,
        }
    }

    /// Number of chips managed by the pool.
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// Number of planes per chip.
    pub fn planes_per_chip(&self) -> u32 {
        self.planes_per_chip
    }

    /// Picks the GC victim: the fully used data block with the fewest valid
    /// pages. Returns `None` if there is no used block yet.
    pub fn pick_victim(&self, dev: &FlashDevice) -> Option<u64> {
        self.chips
            .iter()
            .flat_map(|c| c.used.iter().copied())
            .min_by_key(|&blk| {
                dev.block_info(blk)
                    .map(|b| b.valid_pages())
                    .unwrap_or(u32::MAX)
            })
    }

    /// Removes `block` from the used list and returns it to its plane's free
    /// list (call after erasing it).
    ///
    /// # Panics
    ///
    /// Panics if the block is not currently tracked as used.
    pub fn release_block(&mut self, block: u64) {
        let chip = (block / self.blocks_per_chip) as usize;
        let plane = ((block % self.blocks_per_chip) / self.blocks_per_plane) as usize;
        let tracked = self.chips.get_mut(chip).and_then(|state| {
            let pos = state.used.iter().position(|&b| b == block)?;
            Some((state, pos))
        });
        let Some((state, pos)) = tracked else {
            panic!("release_block: block {block} was not in the used list");
        };
        state.used.swap_remove(pos);
        state.free[plane].push_back(block);
        state.free_pages += u64::from(self.pages_per_block);
        self.free_pages += u64::from(self.pages_per_block);
        self.free_blocks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::{OobData, PhysAddr, SimTime, SsdConfig};

    fn setup() -> (FlashDevice, DynamicDataPool) {
        let cfg = SsdConfig::tiny();
        let dev = FlashDevice::new(cfg);
        let part = BlockPartition::for_config(&cfg, 512);
        let pool = DynamicDataPool::new(&part, cfg.geometry.pages_per_block, 2);
        (dev, pool)
    }

    fn setup_planes(planes: u32) -> (FlashDevice, DynamicDataPool) {
        let cfg = SsdConfig::tiny().with_planes(planes);
        let dev = FlashDevice::new(cfg);
        let part = BlockPartition::for_config(&cfg, 512);
        let pool = DynamicDataPool::new(&part, cfg.geometry.pages_per_block, 2);
        (dev, pool)
    }

    #[test]
    fn allocation_spreads_across_chips_when_idle() {
        let (dev, mut pool) = setup();
        // With all chips idle, consecutive allocations should not all land on
        // one chip (ties are broken by free space, which decreases as a chip
        // is used).
        let mut chips_hit = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let ppn = pool.allocate(&dev).unwrap();
            let g = *dev.geometry();
            chips_hit.insert(ssd_sim::PhysAddr::from_ppn(ppn, &g).chip_index(&g));
        }
        assert!(chips_hit.len() > 1, "allocations must use multiple chips");
    }

    #[test]
    fn allocate_walks_block_in_order() {
        let (mut dev, mut pool) = setup();
        // Pin allocation to chip 0 and check PPNs are the in-order pages of a
        // data block.
        let first = pool.allocate_on_chip(0, &dev).unwrap();
        let second = pool.allocate_on_chip(0, &dev).unwrap();
        assert_eq!(second, first + 1);
        // The device accepts programming them in that order.
        dev.program_page(first, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        dev.program_page(second, OobData::mapped(2), SimTime::ZERO)
            .unwrap();
    }

    #[test]
    fn pool_exhaustion_returns_none_and_needs_gc() {
        let cfg = SsdConfig::tiny();
        let dev = FlashDevice::new(cfg);
        let part = BlockPartition::for_config(&cfg, 512);
        let mut pool = DynamicDataPool::new(&part, cfg.geometry.pages_per_block, 2);
        let capacity = part.data_page_count();
        for i in 0..capacity {
            assert!(pool.allocate(&dev).is_some(), "allocation {i} failed early");
        }
        assert!(pool.allocate(&dev).is_none());
        assert!(pool.needs_gc());
        assert_eq!(pool.free_page_count(), 0);
    }

    #[test]
    fn multi_plane_pool_exhausts_exactly_like_single_plane() {
        let cfg = SsdConfig::tiny().with_planes(2);
        let dev = FlashDevice::new(cfg);
        let part = BlockPartition::for_config(&cfg, 512);
        let mut pool = DynamicDataPool::new(&part, cfg.geometry.pages_per_block, 2);
        let capacity = part.data_page_count();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..capacity {
            let got = pool
                .allocate_stripe(&dev, 2)
                .unwrap_or_else(|| panic!("allocation {i} failed early"));
            for &ppn in got {
                assert!(seen.insert(ppn), "ppn {ppn} handed out twice");
            }
            if seen.len() as u64 >= capacity {
                break;
            }
        }
        assert_eq!(seen.len() as u64, capacity);
        assert!(pool.allocate_stripe(&dev, 2).is_none());
        assert_eq!(pool.free_page_count(), 0);
    }

    #[test]
    fn stripes_are_plane_aligned_and_programmable() {
        let (mut dev, mut pool) = setup_planes(2);
        let g = *dev.geometry();
        let stripe = pool.allocate_stripe(&dev, 2).unwrap().to_vec();
        assert_eq!(stripe.len(), 2, "two free planes give a full pair");
        let a = PhysAddr::from_ppn(stripe[0], &g);
        let b = PhysAddr::from_ppn(stripe[1], &g);
        assert_eq!(a.chip_index(&g), b.chip_index(&g));
        assert_eq!((a.block, a.page), (b.block, b.page));
        assert_eq!(b.plane, a.plane + 1);
        // The device accepts the group as one multi-plane program.
        let writes: Vec<(Ppn, OobData)> = stripe
            .iter()
            .enumerate()
            .map(|(i, &ppn)| (ppn, OobData::mapped(i as u64)))
            .collect();
        dev.program_pages(&writes, SimTime::ZERO).unwrap();
    }

    #[test]
    fn victim_selection_prefers_most_invalid() {
        let (mut dev, mut pool) = setup();
        let ppb = dev.geometry().pages_per_block;
        // Fill two blocks worth of pages on chip 0.
        let mut ppns = Vec::new();
        for _ in 0..(2 * ppb) {
            let ppn = pool.allocate_on_chip(0, &dev).unwrap();
            dev.program_page(ppn, OobData::mapped(ppn), SimTime::ZERO)
                .unwrap();
            ppns.push(ppn);
        }
        // Invalidate most of the first block.
        for &ppn in ppns.iter().take(ppb as usize - 2) {
            dev.invalidate_page(ppn).unwrap();
        }
        let victim = pool.pick_victim(&dev).unwrap();
        assert_eq!(victim, dev.flat_block_of_ppn(ppns[0]));
        // Releasing after erase puts it back on the free list.
        for &ppn in ppns.iter().take(ppb as usize) {
            dev.invalidate_page(ppn).ok();
        }
        dev.erase_block(victim, SimTime::ZERO).unwrap();
        let before = pool.free_block_count();
        pool.release_block(victim);
        assert_eq!(pool.free_block_count(), before + 1);
    }

    #[test]
    #[should_panic(expected = "not in the used list")]
    fn releasing_unknown_block_panics() {
        let (_dev, mut pool) = setup();
        pool.release_block(0);
    }

    /// The free pages of one chip, recounted from its free lists and its
    /// stripe (what `ChipState::free_pages` keeps up to date).
    fn recount_chip_free_pages(pool: &DynamicDataPool, chip: usize) -> u64 {
        let c = &pool.chips[chip];
        let free_blocks: u64 = c.free.iter().map(|f| f.len() as u64).sum();
        let stripe_free = c.stripe.as_ref().map_or(0, |s| {
            let total = u64::from(pool.pages_per_block) * s.blocks.len() as u64;
            let taken = u64::from(s.page) * s.blocks.len() as u64 + s.cursor as u64;
            total - taken
        });
        free_blocks * u64::from(pool.pages_per_block) + stripe_free
    }

    /// The dispatch order as it was computed before the one-pass pick: every
    /// chip, stable-sorted by (earliest-free plane, most free pages), for the
    /// caller to try in turn. Kept as the reference `pick_chip` must agree
    /// with.
    fn chip_order(pool: &DynamicDataPool, dev: &FlashDevice) -> Vec<usize> {
        let busy = dev.busy_until_per_chip();
        let mut order: Vec<usize> = (0..pool.chips.len()).collect();
        order.sort_by_key(|&i| (busy[i], u64::MAX - recount_chip_free_pages(pool, i)));
        order
    }

    mod pick_properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum PoolOp {
            /// `allocate`.
            Page,
            /// `allocate_stripe` of this many pages.
            Stripe(usize),
            /// This many `allocate_on_chip` calls: fills stripes part-way,
            /// or the whole chip.
            Burst(usize, usize),
            /// Returns the chip's oldest used block, if it has one.
            Release(usize),
            /// Keeps one plane busy for an erase issued at this microsecond.
            Busy(usize, u32, u64),
        }

        fn pool_op() -> impl Strategy<Value = PoolOp> {
            prop_oneof![
                Just(PoolOp::Page),
                Just(PoolOp::Page),
                (1usize..5).prop_map(PoolOp::Stripe),
                (0usize..4, 1usize..300).prop_map(|(c, n)| PoolOp::Burst(c, n)),
                (0usize..4).prop_map(|c| PoolOp::Burst(c, 2048)),
                (0usize..4).prop_map(PoolOp::Release),
                (0usize..4, 0u32..2, 0u64..3000).prop_map(|(c, p, at)| PoolOp::Busy(c, p, at)),
                (0usize..4, 0u32..2, 0u64..3000).prop_map(|(c, p, at)| PoolOp::Busy(c, p, at)),
            ]
        }

        /// The chip the sort-based dispatch ended up on: the first of the
        /// order that could allocate.
        fn reference_pick(pool: &DynamicDataPool, dev: &FlashDevice) -> Option<usize> {
            chip_order(pool, dev)
                .into_iter()
                .find(|&chip| pool.clone().allocate_on_chip(chip, dev).is_some())
        }

        proptest! {
            // The one-pass pick is the head of the sorted order, and the
            // counters it reads never drift from a recount — over pools with
            // full chips, part-filled stripes, released blocks, busy planes,
            // and watermarks the pool sits above, at and below.
            #[test]
            fn prop_pick_matches_sorted_order_and_counters_match_a_recount(
                planes in prop_oneof![Just(1u32), Just(2)],
                watermark in prop_oneof![Just(0usize), Just(2), Just(30), Just(10_000)],
                ops in proptest::collection::vec(pool_op(), 1..80),
            ) {
                let (mut dev, mut pool) = setup_planes(planes);
                pool.gc_low_watermark = watermark;
                let g = *dev.geometry();
                let chip_of = |ppn: Ppn| PhysAddr::from_ppn(ppn, &g).chip_index(&g) as usize;
                for (step, op) in ops.into_iter().enumerate() {
                    let want = reference_pick(&pool, &dev);
                    prop_assert_eq!(pool.pick_chip(&dev), want, "step {}", step);
                    match op {
                        PoolOp::Page => {
                            let got = pool.allocate(&dev);
                            prop_assert_eq!(got.map(chip_of), want, "step {}", step);
                        }
                        PoolOp::Stripe(pages) => {
                            let got = pool.allocate_stripe(&dev, pages).map(|group| {
                                assert!(!group.is_empty() && group.len() <= pages);
                                chip_of(group[0])
                            });
                            prop_assert_eq!(got, want, "step {}", step);
                        }
                        PoolOp::Burst(chip, pages) => {
                            for _ in 0..pages {
                                if pool.allocate_on_chip(chip, &dev).is_none() {
                                    prop_assert_eq!(pool.chips[chip].free_pages, 0);
                                    break;
                                }
                            }
                        }
                        PoolOp::Release(chip) => {
                            if let Some(&block) = pool.chips[chip].used.first() {
                                pool.release_block(block);
                            }
                        }
                        PoolOp::Busy(chip, plane, at_us) => {
                            let block = (chip as u64 * u64::from(g.planes_per_chip)
                                + u64::from(plane % planes))
                                * u64::from(g.blocks_per_plane);
                            dev.erase_block(block, SimTime::from_micros(at_us)).unwrap();
                        }
                    }
                    let per_chip: Vec<u64> = (0..pool.chips.len())
                        .map(|c| recount_chip_free_pages(&pool, c))
                        .collect();
                    let kept: Vec<u64> = pool.chips.iter().map(|c| c.free_pages).collect();
                    prop_assert_eq!(&kept, &per_chip, "step {}", step);
                    prop_assert_eq!(pool.free_page_count(), per_chip.iter().sum::<u64>());
                    let free_blocks: usize = pool
                        .chips
                        .iter()
                        .map(|c| c.free.iter().map(VecDeque::len).sum::<usize>())
                        .sum();
                    prop_assert_eq!(pool.free_block_count(), free_blocks, "step {}", step);
                    prop_assert_eq!(pool.needs_gc(), free_blocks <= watermark);
                }
            }
        }
    }

    mod stripe_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Satellite regression: under sequential writes the pool emits
            // plane-aligned program groups — same chip, same (block, page)
            // offset, ascending planes — and a group never crosses a block
            // boundary mid-pair (every page of a group shares its page row).
            #[test]
            fn prop_sequential_stripes_stay_plane_aligned(
                planes in prop_oneof![Just(1u32), Just(2), Just(4)],
                want in 1usize..6,
                rounds in 1usize..120,
            ) {
                let cfg = SsdConfig::tiny().with_planes(planes);
                let dev = FlashDevice::new(cfg);
                let g = cfg.geometry;
                let part = BlockPartition::for_config(&cfg, 512);
                let mut pool = DynamicDataPool::new(&part, g.pages_per_block, 2);
                for _ in 0..rounds {
                    let Some(group) = pool.allocate_stripe(&dev, want) else {
                        break;
                    };
                    prop_assert!(!group.is_empty());
                    prop_assert!(group.len() <= planes as usize);
                    prop_assert!(group.len() <= want.max(1));
                    let addrs: Vec<PhysAddr> =
                        group.iter().map(|&p| PhysAddr::from_ppn(p, &g)).collect();
                    let first = addrs[0];
                    for pair in addrs.windows(2) {
                        // Same chip, same (block, page) offset: the group
                        // cannot straddle a block (or page-row) boundary.
                        prop_assert_eq!(pair[1].chip_index(&g), first.chip_index(&g));
                        prop_assert_eq!(pair[1].block, first.block);
                        prop_assert_eq!(pair[1].page, first.page);
                        prop_assert!(pair[1].plane > pair[0].plane, "planes ascend");
                    }
                    // Never a translation block.
                    for a in &addrs {
                        prop_assert!(!part.is_translation_block(a.flat_block(&g)));
                    }
                }
            }

            // At planes=1 the stripe API degenerates to the single-page
            // allocator: same PPN sequence regardless of `want`.
            #[test]
            fn prop_single_plane_stripe_equals_single_page_sequence(
                want in 1usize..6,
                count in 1usize..200,
            ) {
                let cfg = SsdConfig::tiny();
                let dev_a = FlashDevice::new(cfg);
                let dev_b = FlashDevice::new(cfg);
                let part = BlockPartition::for_config(&cfg, 512);
                let mut a = DynamicDataPool::new(&part, cfg.geometry.pages_per_block, 2);
                let mut b = DynamicDataPool::new(&part, cfg.geometry.pages_per_block, 2);
                let mut from_stripes: Vec<Ppn> = Vec::new();
                while from_stripes.len() < count {
                    match a.allocate_stripe(&dev_a, want) {
                        Some(group) => {
                            prop_assert_eq!(group.len(), 1, "one plane: singleton groups");
                            from_stripes.extend(group);
                        }
                        None => break,
                    }
                }
                let mut from_singles = Vec::new();
                for _ in 0..from_stripes.len() {
                    from_singles.push(b.allocate(&dev_b).expect("same capacity"));
                }
                prop_assert_eq!(from_stripes, from_singles);
            }
        }
    }
}
