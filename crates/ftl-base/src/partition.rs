//! Splitting the device's blocks between host data and translation pages.

use ssd_sim::SsdConfig;

/// A static partition of the device's blocks into a data region and a
/// translation-page region.
///
/// Translation pages (the on-flash mapping table) live in a dedicated set of
/// blocks so their churn can be cleaned independently of host data. The
/// translation region is sized at roughly twice the number of translation
/// pages needed to map the logical space (so cleaning always finds a victim
/// with invalid pages) and is spread across all *planes*: the top `t`
/// in-plane block indices of every plane are reserved, the rest hold host
/// data. Reserving per plane (rather than per chip) keeps the data region
/// symmetric across planes, which is what lets allocators form plane-aligned
/// block stripes; with one plane per chip this is exactly the historical
/// per-chip split.
///
/// ```
/// use ftl_base::BlockPartition;
/// use ssd_sim::SsdConfig;
/// let part = BlockPartition::for_config(&SsdConfig::tiny(), 512);
/// assert!(part.data_block_count() > 0);
/// assert!(part.translation_block_count() >= 2);
/// assert_eq!(
///     part.data_block_count() + part.translation_block_count(),
///     SsdConfig::tiny().geometry.total_blocks()
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPartition {
    blocks_per_chip: u64,
    blocks_per_plane: u64,
    planes_per_chip: u64,
    trans_blocks_per_plane: u64,
    total_chips: u64,
    pages_per_block: u64,
}

impl BlockPartition {
    /// Computes the partition for a device configuration, given how many
    /// mappings fit in one translation page.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is too small to hold both regions.
    pub fn for_config(config: &SsdConfig, mappings_per_page: u32) -> Self {
        let g = config.geometry;
        let logical_pages = config.logical_pages();
        let translation_pages_needed = logical_pages.div_ceil(u64::from(mappings_per_page));
        // 2x over-provisioning for the translation region plus two spare
        // blocks so cleaning always has both a victim and a destination.
        let trans_pages_budget = translation_pages_needed * 2;
        let trans_blocks_total = trans_pages_budget.div_ceil(u64::from(g.pages_per_block)) + 2;
        let total_planes = g.total_planes();
        let trans_blocks_per_plane = trans_blocks_total.div_ceil(total_planes).max(1);
        let blocks_per_plane = u64::from(g.blocks_per_plane);
        assert!(
            trans_blocks_per_plane < blocks_per_plane,
            "geometry too small: {trans_blocks_per_plane} translation blocks per plane \
             requested but each plane only has {blocks_per_plane} blocks"
        );
        BlockPartition {
            blocks_per_chip: g.blocks_per_chip(),
            blocks_per_plane,
            planes_per_chip: u64::from(g.planes_per_chip),
            trans_blocks_per_plane,
            total_chips: g.total_chips(),
            pages_per_block: u64::from(g.pages_per_block),
        }
    }

    /// Number of chips in the device.
    pub fn total_chips(&self) -> u64 {
        self.total_chips
    }

    /// Number of planes per chip.
    pub fn planes_per_chip(&self) -> u64 {
        self.planes_per_chip
    }

    /// Number of data blocks available per plane. Every plane holds the same
    /// count, so this is also the number of plane-aligned data block *rows*
    /// per chip (and, across all chips, the row count of row-granular
    /// allocators).
    pub fn data_blocks_per_plane(&self) -> u64 {
        self.blocks_per_plane - self.trans_blocks_per_plane
    }

    /// Number of translation blocks reserved per plane.
    pub fn translation_blocks_per_plane(&self) -> u64 {
        self.trans_blocks_per_plane
    }

    /// Number of data blocks available per chip.
    pub fn data_blocks_per_chip(&self) -> u64 {
        self.data_blocks_per_plane() * self.planes_per_chip
    }

    /// Number of translation blocks reserved per chip.
    pub fn translation_blocks_per_chip(&self) -> u64 {
        self.trans_blocks_per_plane * self.planes_per_chip
    }

    /// Total number of data blocks in the device.
    pub fn data_block_count(&self) -> u64 {
        self.data_blocks_per_chip() * self.total_chips
    }

    /// Total number of translation blocks in the device.
    pub fn translation_block_count(&self) -> u64 {
        self.translation_blocks_per_chip() * self.total_chips
    }

    /// Total number of data pages in the device.
    pub fn data_page_count(&self) -> u64 {
        self.data_block_count() * self.pages_per_block
    }

    /// Whether the flat block index belongs to the translation region.
    pub fn is_translation_block(&self, flat_block: u64) -> bool {
        let in_plane = (flat_block % self.blocks_per_chip) % self.blocks_per_plane;
        in_plane >= self.data_blocks_per_plane()
    }

    /// The plane (chip-local index) that owns a flat block index.
    pub fn plane_of_block(&self, flat_block: u64) -> u64 {
        (flat_block % self.blocks_per_chip) / self.blocks_per_plane
    }

    /// Iterates over the flat indices of every data block on `chip`, plane by
    /// plane (ascending in-plane index within each plane).
    pub fn data_blocks_on_chip(&self, chip: u64) -> impl Iterator<Item = u64> + '_ {
        let chip_base = chip * self.blocks_per_chip;
        (0..self.planes_per_chip).flat_map(move |plane| {
            let base = chip_base + plane * self.blocks_per_plane;
            (0..self.data_blocks_per_plane()).map(move |i| base + i)
        })
    }

    /// Iterates over the flat indices of every data block on one plane of
    /// `chip` (ascending in-plane index).
    pub fn data_blocks_on_plane(&self, chip: u64, plane: u64) -> impl Iterator<Item = u64> + '_ {
        let base = chip * self.blocks_per_chip + plane * self.blocks_per_plane;
        (0..self.data_blocks_per_plane()).map(move |i| base + i)
    }

    /// Iterates over the flat indices of every translation block on `chip`.
    pub fn translation_blocks_on_chip(&self, chip: u64) -> impl Iterator<Item = u64> + '_ {
        let chip_base = chip * self.blocks_per_chip;
        (0..self.planes_per_chip).flat_map(move |plane| {
            let base = chip_base + plane * self.blocks_per_plane + self.data_blocks_per_plane();
            (0..self.trans_blocks_per_plane).map(move |i| base + i)
        })
    }

    /// Iterates over every translation block in the device.
    pub fn translation_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.total_chips).flat_map(move |chip| self.translation_blocks_on_chip(chip))
    }

    /// Iterates over every data block in the device.
    pub fn data_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.total_chips).flat_map(move |chip| self.data_blocks_on_chip(chip))
    }

    /// The chip (flat index) that owns a flat block index.
    pub fn chip_of_block(&self, flat_block: u64) -> u64 {
        flat_block / self.blocks_per_chip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::Geometry;

    #[test]
    fn regions_are_disjoint_and_cover_device() {
        let cfg = SsdConfig::tiny();
        let part = BlockPartition::for_config(&cfg, 512);
        let total = cfg.geometry.total_blocks();
        let data: std::collections::BTreeSet<u64> = part.data_blocks().collect();
        let trans: std::collections::BTreeSet<u64> = part.translation_blocks().collect();
        assert_eq!(data.len() as u64 + trans.len() as u64, total);
        assert!(data.is_disjoint(&trans));
        for b in 0..total {
            assert_eq!(part.is_translation_block(b), trans.contains(&b));
        }
    }

    #[test]
    fn regions_cover_multi_plane_devices_symmetrically() {
        let cfg = SsdConfig::tiny().with_planes(2);
        let part = BlockPartition::for_config(&cfg, 512);
        let g = cfg.geometry;
        let total = g.total_blocks();
        let data: std::collections::BTreeSet<u64> = part.data_blocks().collect();
        let trans: std::collections::BTreeSet<u64> = part.translation_blocks().collect();
        assert_eq!(data.len() as u64 + trans.len() as u64, total);
        assert!(data.is_disjoint(&trans));
        for b in 0..total {
            assert_eq!(part.is_translation_block(b), trans.contains(&b));
        }
        // Every plane reserves the same number of translation blocks, so the
        // data region is plane-symmetric (stripe formation relies on this).
        for chip in 0..g.total_chips() {
            for plane in 0..u64::from(g.planes_per_chip) {
                let count = trans
                    .iter()
                    .filter(|&&b| part.chip_of_block(b) == chip && part.plane_of_block(b) == plane)
                    .count() as u64;
                assert_eq!(count, part.translation_blocks_per_plane());
            }
        }
    }

    #[test]
    fn single_plane_split_matches_historical_per_chip_split() {
        // With one plane per chip the per-plane reservation must reproduce
        // the old per-chip numbers exactly.
        let cfg = SsdConfig::small();
        let part = BlockPartition::for_config(&cfg, 512);
        assert_eq!(part.data_blocks_per_chip(), part.data_blocks_per_plane());
        assert_eq!(
            part.translation_blocks_per_chip(),
            part.translation_blocks_per_plane()
        );
        let g = cfg.geometry;
        let logical = cfg.logical_pages();
        let needed = logical.div_ceil(512);
        let budget = needed * 2;
        let total = budget.div_ceil(u64::from(g.pages_per_block)) + 2;
        assert_eq!(
            part.translation_blocks_per_chip(),
            total.div_ceil(g.total_chips()).max(1)
        );
    }

    #[test]
    fn translation_region_fits_twice_the_mapping_table() {
        let cfg = SsdConfig::small();
        let part = BlockPartition::for_config(&cfg, 512);
        let needed = cfg.logical_pages().div_ceil(512);
        let capacity = part.translation_block_count() * u64::from(cfg.geometry.pages_per_block);
        assert!(capacity >= needed * 2, "capacity {capacity} < 2x {needed}");
    }

    #[test]
    fn translation_blocks_spread_across_chips() {
        let cfg = SsdConfig::small();
        let part = BlockPartition::for_config(&cfg, 512);
        let chips_with_trans: std::collections::BTreeSet<u64> = part
            .translation_blocks()
            .map(|b| part.chip_of_block(b))
            .collect();
        assert_eq!(chips_with_trans.len() as u64, cfg.geometry.total_chips());
    }

    #[test]
    fn chip_of_block_matches_geometry() {
        let cfg = SsdConfig::tiny();
        let part = BlockPartition::for_config(&cfg, 512);
        let g = cfg.geometry;
        for b in [0u64, 1, g.blocks_per_chip(), 3 * g.blocks_per_chip() - 1] {
            assert_eq!(part.chip_of_block(b), b / g.blocks_per_chip());
        }
    }

    #[test]
    fn plane_of_block_decodes_the_geometry() {
        let cfg = SsdConfig::tiny().with_geometry(Geometry::new(2, 2, 2, 8, 128, 4096));
        let part = BlockPartition::for_config(&cfg, 512);
        assert_eq!(part.plane_of_block(0), 0);
        assert_eq!(part.plane_of_block(8), 1);
        assert_eq!(part.plane_of_block(16), 0, "next chip starts at plane 0");
        assert_eq!(part.planes_per_chip(), 2);
    }
}
