//! The on-flash translation-page store.
//!
//! Demand-based FTLs keep the full mapping table in flash, split into
//! *translation pages* of 512 mappings each. Reading a mapping that is not
//! cached costs one flash read of the translation page (the "double read"),
//! and updating mappings costs translation-page writes. This module owns the
//! flash blocks reserved for translation pages, charges every read/write to
//! the device, and cleans up stale translation-page versions when the region
//! runs out of space.

#[expect(
    clippy::disallowed_types,
    reason = "import for the keyed-only reverse map below"
)]
use std::collections::HashMap;
use std::collections::VecDeque;

use crate::gtd::Gtd;
use crate::partition::BlockPartition;
use crate::stats::FtlStats;
use ssd_sim::{FlashDevice, OobData, PageState, Ppn, SimTime};

/// Manages the flash blocks that hold translation pages.
///
/// Every logical translation page (GTD entry) has at most one *valid* copy in
/// flash; rewriting it programs a new flash page and invalidates the previous
/// copy. When the reserved region runs low on erased blocks the store cleans
/// the block with the fewest valid translation pages, relocating the valid
/// ones (this is the translation-page part of write amplification).
#[derive(Debug, Clone)]
pub struct TransPageStore {
    free: VecDeque<u64>,
    active: Option<u64>,
    used: Vec<u64>,
    #[expect(
        clippy::disallowed_types,
        reason = "ppn->tpn reverse map is keyed get/insert/remove only; cleaning scans the `used` Vec and block pages in address order, never this map"
    )]
    tpn_of_ppn: HashMap<Ppn, usize>,
}

impl TransPageStore {
    /// Creates a store owning the translation blocks of `partition`.
    #[expect(
        clippy::disallowed_types,
        reason = "see the field declaration: keyed access only"
    )]
    pub fn new(partition: &BlockPartition) -> Self {
        TransPageStore {
            free: partition.translation_blocks().collect(),
            active: None,
            used: Vec::new(),
            tpn_of_ppn: HashMap::new(),
        }
    }

    /// Reads the current flash copy of translation page `tpn`, charging the
    /// flash read. Returns the completion time. If the translation page has
    /// never been written the call is free (nothing to read).
    pub fn read_page(
        &self,
        tpn: usize,
        gtd: &Gtd,
        dev: &mut FlashDevice,
        stats: &mut FtlStats,
        now: SimTime,
    ) -> SimTime {
        match gtd.location(tpn) {
            Some(ppn) => {
                stats.translation_reads += 1;
                dev.read_page(ppn, now)
                    .expect("translation page location must be readable")
            }
            None => now,
        }
    }

    /// Writes a fresh copy of translation page `tpn`, charging the flash
    /// program (and any cleaning it triggers). Returns the completion time.
    pub fn write_page(
        &mut self,
        tpn: usize,
        gtd: &mut Gtd,
        dev: &mut FlashDevice,
        stats: &mut FtlStats,
        now: SimTime,
    ) -> SimTime {
        let (ppn, ready) = self.allocate_slot(gtd, dev, stats, now);
        let done = dev
            .program_page(ppn, OobData::translation(), ready)
            .expect("allocated translation slot must be programmable");
        if let Some(old) = gtd.location(tpn) {
            dev.invalidate_page(old)
                .expect("old translation page must exist");
            self.tpn_of_ppn.remove(&old);
        }
        gtd.set_location(tpn, ppn);
        self.tpn_of_ppn.insert(ppn, tpn);
        stats.translation_writes += 1;
        done
    }

    /// Number of erased blocks remaining in the translation region.
    pub fn free_block_count(&self) -> usize {
        self.free.len()
    }

    fn allocate_slot(
        &mut self,
        gtd: &mut Gtd,
        dev: &mut FlashDevice,
        stats: &mut FtlStats,
        mut now: SimTime,
    ) -> (Ppn, SimTime) {
        loop {
            if let Some(active) = self.active {
                match dev
                    .next_free_ppn_in_block(active)
                    .expect("active translation block must exist")
                {
                    Some(ppn) => return (ppn, now),
                    None => {
                        self.used.push(active);
                        self.active = None;
                    }
                }
            }
            if self.free.len() > 1 {
                self.active = self.free.pop_front();
            } else {
                now = self.clean(gtd, dev, stats, now);
            }
        }
    }

    /// Relocates the valid translation pages out of the fullest-of-garbage
    /// used block, erases it and returns the completion time.
    fn clean(
        &mut self,
        gtd: &mut Gtd,
        dev: &mut FlashDevice,
        stats: &mut FtlStats,
        now: SimTime,
    ) -> SimTime {
        let destination = self
            .free
            .pop_front()
            .expect("translation region must keep one spare block");
        self.active = Some(destination);

        let victim_pos = self
            .used
            .iter()
            .enumerate()
            .min_by_key(|(_, &blk)| {
                dev.block_info(blk)
                    .map(|b| b.valid_pages())
                    .unwrap_or(u32::MAX)
            })
            .map(|(i, _)| i)
            .expect("translation cleaning requires at least one used block");
        let victim = self.used.swap_remove(victim_pos);

        let mut t = now;
        let first = dev.first_ppn_of_flat_block(victim);
        let pages = u64::from(dev.geometry().pages_per_block);
        for ppn in first..first + pages {
            if dev.page_state(ppn).expect("ppn in range") != PageState::Valid {
                continue;
            }
            let tpn = *self
                .tpn_of_ppn
                .get(&ppn)
                .expect("valid translation page must be tracked");
            stats.translation_reads += 1;
            let read_done = dev.read_page(ppn, t).expect("valid page is readable");
            let (dst, ready) = self.allocate_slot(gtd, dev, stats, read_done);
            let write_done = dev
                .program_page(dst, OobData::translation(), ready)
                .expect("destination slot is programmable");
            dev.invalidate_page(ppn).expect("page exists");
            self.tpn_of_ppn.remove(&ppn);
            self.tpn_of_ppn.insert(dst, tpn);
            gtd.set_location(tpn, dst);
            stats.translation_writes += 1;
            t = write_done;
        }
        let erased = dev
            .erase_block(victim, t)
            .expect("victim has no valid pages left");
        stats.blocks_erased += 1;
        self.free.push_back(victim);
        erased
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::SsdConfig;

    fn setup() -> (FlashDevice, Gtd, TransPageStore, FtlStats) {
        let cfg = SsdConfig::tiny();
        let dev = FlashDevice::new(cfg);
        let gtd = Gtd::new(cfg.logical_pages(), 512);
        let partition = BlockPartition::for_config(&cfg, 512);
        let store = TransPageStore::new(&partition);
        (dev, gtd, store, FtlStats::new())
    }

    #[test]
    fn read_of_unwritten_page_is_free() {
        let (mut dev, gtd, store, mut stats) = setup();
        let t = store.read_page(0, &gtd, &mut dev, &mut stats, SimTime::ZERO);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(stats.translation_reads, 0);
        assert_eq!(dev.stats().reads, 0);
    }

    #[test]
    fn write_then_read_charges_flash_ops() {
        let (mut dev, mut gtd, mut store, mut stats) = setup();
        let t = store.write_page(0, &mut gtd, &mut dev, &mut stats, SimTime::ZERO);
        assert!(t > SimTime::ZERO);
        assert_eq!(stats.translation_writes, 1);
        assert!(gtd.location(0).is_some());
        let t2 = store.read_page(0, &gtd, &mut dev, &mut stats, t);
        assert!(t2 > t);
        assert_eq!(stats.translation_reads, 1);
        assert_eq!(dev.stats().translation_programs, 1);
        assert_eq!(dev.stats().translation_reads, 1);
    }

    #[test]
    fn rewrite_invalidates_previous_copy() {
        let (mut dev, mut gtd, mut store, mut stats) = setup();
        store.write_page(3, &mut gtd, &mut dev, &mut stats, SimTime::ZERO);
        let first = gtd.location(3).unwrap();
        store.write_page(3, &mut gtd, &mut dev, &mut stats, SimTime::ZERO);
        let second = gtd.location(3).unwrap();
        assert_ne!(first, second);
        assert_eq!(dev.page_state(first).unwrap(), PageState::Invalid);
        assert_eq!(dev.page_state(second).unwrap(), PageState::Valid);
    }

    #[test]
    fn heavy_rewrites_trigger_cleaning_without_leaks() {
        let (mut dev, mut gtd, mut store, mut stats) = setup();
        let entries = gtd.entries();
        // Rewrite the translation pages far more times than the region can
        // hold without cleaning.
        let mut t = SimTime::ZERO;
        for round in 0..400 {
            let tpn = round % entries;
            t = store.write_page(tpn, &mut gtd, &mut dev, &mut stats, t);
        }
        // Every entry that was written still has exactly one valid location.
        for tpn in 0..entries {
            if let Some(ppn) = gtd.location(tpn) {
                assert_eq!(dev.page_state(ppn).unwrap(), PageState::Valid);
            }
        }
        assert!(stats.blocks_erased > 0, "cleaning must have happened");
        assert!(store.free_block_count() >= 1);
        assert!(stats.translation_writes as usize >= 400);
    }
}
