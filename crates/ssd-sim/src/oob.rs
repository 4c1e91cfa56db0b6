//! Out-of-band (OOB) page metadata.
//!
//! Real NAND pages carry a spare area alongside the 4 KiB data area. FTLs use
//! it to store the reverse mapping (which LPN this physical page holds) so
//! that garbage collection and power-failure recovery can rebuild mapping
//! state.

/// Metadata stored in the out-of-band area of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OobData {
    /// The logical page number stored in this physical page, if any.
    pub lpn: Option<u64>,
    /// Marks translation pages (pages holding mapping metadata rather than
    /// host data).
    pub is_translation: bool,
}

impl OobData {
    /// OOB contents for a freshly written host data page holding `lpn`.
    pub fn mapped(lpn: u64) -> Self {
        OobData {
            lpn: Some(lpn),
            is_translation: false,
        }
    }

    /// OOB contents for a translation (mapping metadata) page.
    pub fn translation() -> Self {
        OobData {
            lpn: None,
            is_translation: true,
        }
    }
}

/// The OOB areas of all pages of a device, one column per field.
///
/// Every page read asks whether the page is a translation page and garbage
/// collection asks for LPNs only, so a 24-byte [`OobData`] per page would
/// drag a cache line through the host's memory hierarchy for one bit of it:
/// the translation flags of a gibibyte device fit 32 KiB this way.
#[derive(Debug, Clone)]
pub(crate) struct OobTable {
    /// [`NO_LPN`] where the page stores none.
    lpn: Vec<u64>,
    /// One bit per page, 64 pages to a word.
    translation: Vec<u64>,
}

const NO_LPN: u64 = u64::MAX;

impl OobTable {
    /// The table of `pages` erased pages.
    pub(crate) fn new(pages: usize) -> Self {
        OobTable {
            lpn: vec![NO_LPN; pages],
            translation: vec![0; pages.div_ceil(64)],
        }
    }

    pub(crate) fn get(&self, page: usize) -> OobData {
        let lpn = self.lpn[page];
        OobData {
            lpn: (lpn != NO_LPN).then_some(lpn),
            is_translation: self.is_translation(page),
        }
    }

    pub(crate) fn is_translation(&self, page: usize) -> bool {
        self.translation[page / 64] >> (page % 64) & 1 == 1
    }

    pub(crate) fn set(&mut self, page: usize, oob: OobData) {
        debug_assert_ne!(oob.lpn, Some(NO_LPN), "LPN reserved for \"none\"");
        self.lpn[page] = oob.lpn.unwrap_or(NO_LPN);
        let bit = 1 << (page % 64);
        if oob.is_translation {
            self.translation[page / 64] |= bit;
        } else {
            self.translation[page / 64] &= !bit;
        }
    }

    /// Resets `count` pages from `first` to the erased state.
    pub(crate) fn erase(&mut self, first: usize, count: usize) {
        self.lpn[first..first + count].fill(NO_LPN);
        for page in first..first + count {
            self.translation[page / 64] &= !(1 << (page % 64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_fields() {
        let d = OobData::mapped(77);
        assert_eq!(d.lpn, Some(77));
        assert!(!d.is_translation);

        let t = OobData::translation();
        assert_eq!(t.lpn, None);
        assert!(t.is_translation);
    }

    #[test]
    fn table_round_trips_every_field_and_erases_ranges() {
        let mut table = OobTable::new(130);
        assert_eq!(table.get(129), OobData::default());
        let data = OobData::mapped(9);
        table.set(63, data);
        table.set(64, OobData::translation());
        table.set(129, OobData::mapped(0));
        assert_eq!(table.get(63), data);
        assert_eq!(table.get(64), OobData::translation());
        assert!(table.is_translation(64) && !table.is_translation(63));
        // Overwriting a translation page's slot clears its flag.
        table.set(64, data);
        assert_eq!(table.get(64), data);
        table.erase(63, 2);
        assert_eq!(table.get(63), OobData::default());
        assert_eq!(table.get(64), OobData::default());
        assert_eq!(table.get(129), OobData::mapped(0));
    }
}
