//! Group-based allocation with opportunistic cross-group borrowing (§ III-D).

use std::collections::VecDeque;

use ftl_base::BlockPartition;
use ssd_sim::{AddrCodec, FlashDevice, Geometry, PageState, Ppn, Vppn};

/// One block *row*: the set of blocks with the same in-plane block index on
/// every plane of every chip. A row is exactly one group allocation unit —
/// "64 flash blocks at a time, one for each of the 64 translation pages" in
/// the paper's one-plane geometry — and its pages form a contiguous VPPN
/// range, which is what makes the trained models linear. On multi-plane
/// geometries a row spans `chips × planes` blocks and the VPPN order stripes
/// channel-fastest, then chip, then plane, so consecutive allocations cover
/// every plane of a chip at the same (block, page) offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowAlloc {
    row: u32,
    cursor: u64,
}

/// A page allocation handed out by the group allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSlot {
    /// The physical page to program.
    pub ppn: Ppn,
    /// Its virtual PPN (allocation-order index).
    pub vppn: Vppn,
    /// If the slot was borrowed from another group's row (opportunistic
    /// cross-group allocation), the lender's group id.
    pub donor: Option<usize>,
}

/// Why the allocator could not hand out a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcRequest {
    /// The requesting group owns too many rows (or borrowed too much); GC
    /// should collect *this* group.
    CollectGroup(usize),
    /// The device is out of free rows; GC should collect the group with the
    /// most invalid pages.
    CollectMostInvalid,
}

/// State of one GTD-entry group.
#[derive(Debug, Clone)]
struct GroupState {
    rows: Vec<RowAlloc>,
    borrowed_pages: u64,
}

/// The group-based allocator.
///
/// GTD entries are statically partitioned into groups of
/// `entries_per_group`; each group is granted whole block rows and fills them
/// in VPPN order (channel-fastest striping, so writes stay parallel while the
/// VPPNs stay consecutive). When the device runs out of free rows a hot group
/// may *borrow* free slots from a cold group's open row instead of forcing an
/// immediate GC.
#[derive(Debug, Clone)]
pub struct GroupAllocator {
    geometry: Geometry,
    /// The geometry's VPPN decode, precomputed: every slot handed out decodes.
    codec: AddrCodec,
    pages_per_row: u64,
    entries_per_group: usize,
    mappings_per_page: u32,
    groups: Vec<GroupState>,
    free_rows: VecDeque<u32>,
    reserve_rows: usize,
    max_rows_per_group: usize,
    borrow_limit: u64,
}

impl GroupAllocator {
    /// Creates the allocator over the data region of `partition`. A block
    /// row spans every plane of every chip (the per-plane block index is the
    /// row id), so the construction works for any plane count; with one
    /// plane per chip it is exactly the historical per-chip row.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        partition: &BlockPartition,
        geometry: Geometry,
        gtd_entries: usize,
        entries_per_group: usize,
        mappings_per_page: u32,
        reserve_rows: usize,
        max_rows_per_group: usize,
        borrow_fraction: f64,
    ) -> Self {
        let pages_per_row = geometry.total_planes() * u64::from(geometry.pages_per_block);
        let data_rows = partition.data_blocks_per_plane() as u32;
        let group_count = gtd_entries.div_ceil(entries_per_group).max(1);
        GroupAllocator {
            geometry,
            codec: AddrCodec::new(&geometry),
            pages_per_row,
            entries_per_group,
            mappings_per_page,
            groups: vec![
                GroupState {
                    rows: Vec::new(),
                    borrowed_pages: 0,
                };
                group_count
            ],
            free_rows: (0..data_rows).collect(),
            reserve_rows,
            max_rows_per_group: max_rows_per_group.max(1),
            borrow_limit: ((pages_per_row as f64) * borrow_fraction).max(1.0) as u64,
        }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of GTD entries per group.
    pub fn entries_per_group(&self) -> usize {
        self.entries_per_group
    }

    /// Pages in one block row (one allocation unit).
    pub fn pages_per_row(&self) -> u64 {
        self.pages_per_row
    }

    /// Number of block rows not currently owned by any group.
    pub fn free_row_count(&self) -> usize {
        self.free_rows.len()
    }

    /// The group responsible for a GTD entry.
    pub fn group_of_entry(&self, entry: usize) -> usize {
        entry / self.entries_per_group
    }

    /// The group responsible for an LPN.
    pub fn group_of_lpn(&self, lpn: u64) -> usize {
        self.group_of_entry((lpn / u64::from(self.mappings_per_page)) as usize)
    }

    /// The GTD entries `[start, end)` belonging to a group.
    pub fn entries_of_group(&self, group: usize, gtd_entries: usize) -> (usize, usize) {
        let start = group * self.entries_per_group;
        let end = ((group + 1) * self.entries_per_group).min(gtd_entries);
        (start, end)
    }

    /// The flat block indices making up a row: the block with in-plane index
    /// `row` on every plane of every chip.
    pub fn row_blocks(&self, row: u32) -> impl Iterator<Item = u64> {
        let blocks_per_chip = self.geometry.blocks_per_chip();
        let blocks_per_plane = u64::from(self.geometry.blocks_per_plane);
        let planes_per_chip = u64::from(self.geometry.planes_per_chip);
        (0..self.geometry.total_chips()).flat_map(move |chip| {
            (0..planes_per_chip).map(move |plane| {
                chip * blocks_per_chip + plane * blocks_per_plane + u64::from(row)
            })
        })
    }

    /// The rows currently owned by a group.
    pub fn rows_of_group(&self, group: usize) -> Vec<u32> {
        self.groups[group].rows.iter().map(|r| r.row).collect()
    }

    /// Allocates the next page for `group`, preferring the group's own open
    /// row, then a fresh row, then a borrowed slot from a cold group.
    pub fn allocate(&mut self, group: usize) -> Result<GroupSlot, GcRequest> {
        // 1. Own open row.
        if let Some(slot) = self.take_slot(group) {
            return Ok(GroupSlot {
                ppn: slot.0,
                vppn: slot.1,
                donor: None,
            });
        }
        // The group's rows are full. Too many rows already? GC this group.
        if self.groups[group].rows.len() >= self.max_rows_per_group
            || self.groups[group].borrowed_pages >= self.borrow_limit
        {
            return Err(GcRequest::CollectGroup(group));
        }
        // 2. A fresh row, if the reserve allows it.
        if self.free_rows.len() > self.reserve_rows {
            let row = self.free_rows.pop_front().expect("free row available");
            self.groups[group].rows.push(RowAlloc { row, cursor: 0 });
            let slot = self.take_slot(group).expect("fresh row has space");
            return Ok(GroupSlot {
                ppn: slot.0,
                vppn: slot.1,
                donor: None,
            });
        }
        // 3. Opportunistic cross-group borrowing: steal a slot from the group
        //    with the most free space in its open row.
        let donor = (0..self.groups.len())
            .filter(|&g| g != group)
            .max_by_key(|&g| self.open_slots(g))
            .filter(|&g| self.open_slots(g) > 0);
        if let Some(donor) = donor {
            let slot = self.take_slot(donor).expect("donor has an open slot");
            self.groups[group].borrowed_pages += 1;
            return Ok(GroupSlot {
                ppn: slot.0,
                vppn: slot.1,
                donor: Some(donor),
            });
        }
        // 4. Nothing left: GC the group with the most invalid pages.
        Err(GcRequest::CollectMostInvalid)
    }

    /// Allocates a page for GC relocation into `group`, allowed to dig into
    /// the reserve rows (garbage collection must always be able to proceed).
    pub fn allocate_for_gc(&mut self, group: usize) -> Option<GroupSlot> {
        if let Some(slot) = self.take_slot(group) {
            return Some(GroupSlot {
                ppn: slot.0,
                vppn: slot.1,
                donor: None,
            });
        }
        let row = self.free_rows.pop_front()?;
        self.groups[group].rows.push(RowAlloc { row, cursor: 0 });
        let slot = self.take_slot(group).expect("fresh row has space");
        Some(GroupSlot {
            ppn: slot.0,
            vppn: slot.1,
            donor: None,
        })
    }

    /// Detaches every row currently owned by `group` (in preparation for GC:
    /// the caller relocates valid pages, erases the blocks and then calls
    /// [`GroupAllocator::return_rows`]). Also resets the group's borrow count.
    pub fn detach_rows(&mut self, group: usize) -> Vec<u32> {
        self.groups[group].borrowed_pages = 0;
        self.groups[group].rows.drain(..).map(|r| r.row).collect()
    }

    /// Returns erased rows to the free pool.
    pub fn return_rows(&mut self, rows: impl IntoIterator<Item = u32>) {
        for row in rows {
            self.free_rows.push_back(row);
        }
    }

    /// Picks the group with the most invalid pages across the rows it owns.
    /// Returns `None` when no group owns any row.
    pub fn most_invalid_group(&self, dev: &FlashDevice) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for (gid, group) in self.groups.iter().enumerate() {
            if group.rows.is_empty() {
                continue;
            }
            let mut invalid = 0u64;
            for alloc in &group.rows {
                for block in self.row_blocks(alloc.row) {
                    if let Ok(info) = dev.block_info(block) {
                        invalid += u64::from(info.invalid_pages());
                    }
                }
            }
            if best.map(|(_, b)| invalid > b).unwrap_or(true) {
                best = Some((gid, invalid));
            }
        }
        best.map(|(gid, _)| gid)
    }

    /// The block row a physical page belongs to.
    pub fn row_of_ppn(&self, ppn: Ppn) -> u32 {
        let block = ppn / u64::from(self.geometry.pages_per_block);
        (block % u64::from(self.geometry.blocks_per_plane)) as u32
    }

    /// Appends the valid `(lpn, ppn)` pairs stored in the given rows to `out`.
    pub fn valid_pages_in_rows(&self, dev: &FlashDevice, rows: &[u32], out: &mut Vec<(u64, Ppn)>) {
        for &row in rows {
            for block in self.row_blocks(row) {
                let Ok(info) = dev.block_info(block) else {
                    continue;
                };
                if info.valid_pages() == 0 {
                    continue;
                }
                let first = dev.first_ppn_of_flat_block(block);
                for page in 0..self.geometry.pages_per_block {
                    if info.page_state(page) == PageState::Valid {
                        let ppn = first + u64::from(page);
                        if let Some(lpn) = dev.oob(ppn).ok().and_then(|oob| oob.lpn) {
                            out.push((lpn, ppn));
                        }
                    }
                }
            }
        }
    }

    fn open_slots(&self, group: usize) -> u64 {
        self.groups[group]
            .rows
            .last()
            .map(|r| self.pages_per_row - r.cursor)
            .unwrap_or(0)
    }

    fn take_slot(&mut self, group: usize) -> Option<(Ppn, Vppn)> {
        let pages_per_row = self.pages_per_row;
        let alloc = self.groups[group].rows.last_mut()?;
        if alloc.cursor >= pages_per_row {
            return None;
        }
        let vppn = u64::from(alloc.row) * pages_per_row + alloc.cursor;
        alloc.cursor += 1;
        Some((self.codec.vppn_to_ppn(vppn), vppn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::SsdConfig;

    fn setup() -> (FlashDevice, GroupAllocator) {
        let cfg = SsdConfig::tiny();
        let dev = FlashDevice::new(cfg);
        let partition = BlockPartition::for_config(&cfg, 512);
        let gtd_entries = cfg.logical_pages().div_ceil(512) as usize;
        let alloc = GroupAllocator::new(&partition, cfg.geometry, gtd_entries, 1, 512, 1, 2, 0.5);
        (dev, alloc)
    }

    #[test]
    fn allocations_in_a_group_are_vppn_consecutive() {
        let (_dev, mut alloc) = setup();
        let mut prev: Option<u64> = None;
        for _ in 0..50 {
            let slot = alloc.allocate(0).expect("space available");
            if let Some(p) = prev {
                assert_eq!(
                    slot.vppn,
                    p + 1,
                    "group allocations must be VPPN-contiguous"
                );
            }
            prev = Some(slot.vppn);
        }
    }

    #[test]
    fn allocations_stripe_across_chips() {
        let (dev, mut alloc) = setup();
        let g = *dev.geometry();
        let chips: Vec<u64> = (0..g.total_chips())
            .map(|_| {
                let slot = alloc.allocate(0).unwrap();
                ssd_sim::PhysAddr::from_ppn(slot.ppn, &g).chip_index(&g)
            })
            .collect();
        let distinct: std::collections::BTreeSet<_> = chips.iter().collect();
        assert_eq!(
            distinct.len() as u64,
            g.total_chips(),
            "one row stripes one page per chip before reusing any chip"
        );
    }

    #[test]
    fn groups_get_disjoint_rows() {
        let (_dev, mut alloc) = setup();
        let a = alloc.allocate(0).unwrap();
        let b = alloc.allocate(1).unwrap();
        assert_ne!(
            a.vppn / alloc.pages_per_row(),
            b.vppn / alloc.pages_per_row(),
            "different groups use different rows"
        );
        assert!(alloc.rows_of_group(0) != alloc.rows_of_group(1));
    }

    #[test]
    fn exhausting_a_group_requests_gc_on_it() {
        let (_dev, mut alloc) = setup();
        // Group 0: fill max_rows_per_group rows completely.
        let per_row = alloc.pages_per_row();
        let mut last_err = None;
        for _ in 0..(per_row * 2 + 1) {
            match alloc.allocate(0) {
                Ok(_) => {}
                Err(e) => {
                    last_err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(last_err, Some(GcRequest::CollectGroup(0)));
    }

    #[test]
    fn borrowing_kicks_in_when_rows_run_out() {
        let cfg = SsdConfig::tiny();
        let dev = FlashDevice::new(cfg);
        let partition = BlockPartition::for_config(&cfg, 512);
        // Reserve nearly all rows so that after group 0 takes one row the
        // device is "low on rows" and group 1 must borrow.
        let data_rows = partition.data_blocks_per_chip() as usize;
        let mut alloc =
            GroupAllocator::new(&partition, cfg.geometry, 4, 1, 512, data_rows - 1, 4, 0.5);
        let first = alloc.allocate(0).unwrap();
        assert_eq!(first.donor, None);
        let borrowed = alloc.allocate(1).unwrap();
        assert_eq!(borrowed.donor, Some(0), "group 1 must borrow from group 0");
        let _ = dev;
    }

    #[test]
    fn detach_and_return_rows_roundtrip() {
        let (_dev, mut alloc) = setup();
        let _ = alloc.allocate(0).unwrap();
        let free_before = alloc.free_row_count();
        let rows = alloc.detach_rows(0);
        assert_eq!(rows.len(), 1);
        assert!(alloc.rows_of_group(0).is_empty());
        alloc.return_rows(rows);
        assert_eq!(alloc.free_row_count(), free_before + 1);
    }

    #[test]
    fn most_invalid_group_prefers_garbage() {
        let (mut dev, mut alloc) = setup();
        // Group 0 and 1 each get pages; invalidate group 1's.
        let a = alloc.allocate(0).unwrap();
        dev.program_page(a.ppn, ssd_sim::OobData::mapped(0), ssd_sim::SimTime::ZERO)
            .unwrap();
        let b = alloc.allocate(1).unwrap();
        dev.program_page(b.ppn, ssd_sim::OobData::mapped(600), ssd_sim::SimTime::ZERO)
            .unwrap();
        dev.invalidate_page(b.ppn).unwrap();
        assert_eq!(alloc.most_invalid_group(&dev), Some(1));
        let mut valid = Vec::new();
        alloc.valid_pages_in_rows(&dev, &alloc.rows_of_group(0), &mut valid);
        assert_eq!(valid, vec![(0, a.ppn)]);
    }

    #[test]
    fn every_block_of_a_row_maps_back_to_it_on_any_plane_count() {
        for planes in [1, 2] {
            let cfg = SsdConfig::tiny().with_planes(planes);
            let dev = FlashDevice::new(cfg);
            let partition = BlockPartition::for_config(&cfg, 512);
            let gtd_entries = cfg.logical_pages().div_ceil(512) as usize;
            let alloc =
                GroupAllocator::new(&partition, cfg.geometry, gtd_entries, 1, 512, 1, 2, 0.5);
            for row in [0, 3, cfg.geometry.blocks_per_plane - 1] {
                for block in alloc.row_blocks(row) {
                    let first = dev.first_ppn_of_flat_block(block);
                    let last = first + u64::from(cfg.geometry.pages_per_block) - 1;
                    assert_eq!(alloc.row_of_ppn(first), row, "planes={planes}");
                    assert_eq!(alloc.row_of_ppn(last), row, "planes={planes}");
                }
            }
        }
    }

    #[test]
    fn group_of_lpn_and_entry_math() {
        let (_dev, alloc) = setup();
        assert_eq!(alloc.group_of_entry(0), 0);
        assert_eq!(alloc.group_of_entry(3), 3);
        assert_eq!(alloc.group_of_lpn(0), 0);
        assert_eq!(alloc.group_of_lpn(512), 1);
        assert_eq!(alloc.entries_of_group(1, 4), (1, 2));
    }
}
