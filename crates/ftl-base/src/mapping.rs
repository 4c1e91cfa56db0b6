//! The authoritative logical-to-physical mapping table.

use crate::request::Lpn;
use ssd_sim::Ppn;

/// The full LPN → PPN mapping table.
///
/// Conceptually this is the content of all translation pages stored in flash;
/// FTLs never read it "for free" on the host path — they must account for the
/// translation-page flash reads/writes — but GC, recovery and correctness
/// checks need an authoritative copy, exactly like a trace-driven FTL
/// simulator keeps one.
///
/// Every host request looks its LPNs up here at a random index, so an entry
/// is four bytes ([`UNMAPPED`] marks a hole) rather than a 16-byte
/// `Option<Ppn>`: the table of a gibibyte device then stays in the host's
/// second-level cache, and the time a lookup takes no longer follows whatever
/// else is using the machine's memory.
#[derive(Debug, Clone)]
pub struct MappingTable {
    map: Vec<u32>,
}

/// The entry of an LPN without a mapping; PPNs must stay below it (a device
/// of more than 2³² − 1 pages would not fit this simulator's per-page state
/// in memory either).
const UNMAPPED: u32 = u32::MAX;

fn mapped(entry: u32) -> Option<Ppn> {
    (entry != UNMAPPED).then_some(Ppn::from(entry))
}

/// `ppn` as the four bytes that hold a mapping here and in
/// [`crate::PageNodeCmt`]'s nodes.
///
/// # Panics
///
/// Panics if `ppn` is [`MappingTable::MAX_DEVICE_PAGES`] or more.
pub(crate) fn pack_ppn(ppn: Ppn) -> u32 {
    u32::try_from(ppn)
        .ok()
        .filter(|&entry| entry != UNMAPPED)
        .expect("PPN beyond the 32-bit entries that hold mappings")
}

impl MappingTable {
    /// The number of physical pages of the largest device whose every PPN
    /// fits an entry. [`crate::FtlCore`] refuses a larger geometry when it is
    /// built, so [`MappingTable::update`] never meets a PPN it cannot store.
    pub const MAX_DEVICE_PAGES: u64 = UNMAPPED as u64;

    /// Creates an empty table for `logical_pages` LPNs.
    pub fn new(logical_pages: u64) -> Self {
        MappingTable {
            map: vec![UNMAPPED; logical_pages as usize],
        }
    }

    /// Number of logical pages covered.
    pub fn logical_pages(&self) -> u64 {
        self.map.len() as u64
    }

    /// The current physical location of `lpn`, if it has ever been written.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn get(&self, lpn: Lpn) -> Option<Ppn> {
        mapped(self.map[lpn as usize])
    }

    /// Updates the mapping of `lpn`, returning the previous location.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range or `ppn` does not fit an entry.
    pub fn update(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        mapped(std::mem::replace(
            &mut self.map[lpn as usize],
            pack_ppn(ppn),
        ))
    }

    /// Removes the mapping of `lpn` (e.g. after a trim), returning it.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn remove(&mut self, lpn: Lpn) -> Option<Ppn> {
        mapped(std::mem::replace(&mut self.map[lpn as usize], UNMAPPED))
    }

    /// Number of LPNs that currently have a mapping.
    pub fn mapped_count(&self) -> u64 {
        self.map.iter().filter(|&&entry| entry != UNMAPPED).count() as u64
    }

    /// Iterates over `(lpn, ppn)` pairs in the half-open LPN range.
    pub fn range(&self, start: Lpn, end: Lpn) -> impl Iterator<Item = (Lpn, Ppn)> + '_ {
        let end = end.min(self.map.len() as u64);
        let entries = self
            .map
            .get(start as usize..end as usize)
            .unwrap_or_default();
        (start..end)
            .zip(entries)
            .filter_map(|(lpn, &entry)| mapped(entry).map(|ppn| (lpn, ppn)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_returns_previous() {
        let mut mt = MappingTable::new(100);
        assert_eq!(mt.get(5), None);
        assert_eq!(mt.update(5, 1000), None);
        assert_eq!(mt.update(5, 2000), Some(1000));
        assert_eq!(mt.get(5), Some(2000));
        assert_eq!(mt.mapped_count(), 1);
    }

    #[test]
    fn remove_clears_mapping() {
        let mut mt = MappingTable::new(10);
        mt.update(3, 30);
        assert_eq!(mt.remove(3), Some(30));
        assert_eq!(mt.get(3), None);
        assert_eq!(mt.remove(3), None);
    }

    #[test]
    fn range_iterates_only_mapped() {
        let mut mt = MappingTable::new(20);
        mt.update(2, 200);
        mt.update(5, 500);
        mt.update(15, 1500);
        let pairs: Vec<_> = mt.range(0, 10).collect();
        assert_eq!(pairs, vec![(2, 200), (5, 500)]);
        // Range end is clamped to the table size.
        let pairs: Vec<_> = mt.range(10, 100).collect();
        assert_eq!(pairs, vec![(15, 1500)]);
    }

    #[test]
    #[should_panic(expected = "32-bit entries")]
    fn ppn_beyond_an_entry_panics() {
        MappingTable::new(5).update(0, Ppn::from(u32::MAX));
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        MappingTable::new(5).get(5);
    }
}
