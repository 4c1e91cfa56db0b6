//! SSD geometry: the hierarchical structure of parallel units.
//!
//! An SSD is organised as a tree: channels at the top, then chips (LUNs) per
//! channel, planes per chip, blocks per plane and pages per block. The
//! [`Geometry`] type captures the fan-out at every level and provides the
//! conversions that the physical-address codec ([`crate::PhysAddr`]) and the
//! virtual-PPN representation rely on.

/// The static shape of a simulated SSD.
///
/// The paper's device is `8 channels × 8 chips × 1 plane × 256 blocks × 512
/// pages × 4 KiB` (32 GiB raw). Use [`crate::SsdConfig::paper`] for that
/// configuration and [`crate::SsdConfig::small`] for a scaled version that
/// keeps every ratio but runs quickly.
///
/// ```
/// use ssd_sim::Geometry;
/// let g = Geometry::new(8, 8, 1, 256, 512, 4096);
/// assert_eq!(g.total_pages(), 8 * 8 * 256 * 512);
/// assert_eq!(g.raw_bytes(), 8 * 8 * 256 * 512 * 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of channels.
    pub channels: u32,
    /// Number of chips (LUNs) attached to each channel.
    pub chips_per_channel: u32,
    /// Number of planes inside each chip.
    pub planes_per_chip: u32,
    /// Number of blocks inside each plane.
    pub blocks_per_plane: u32,
    /// Number of pages inside each block.
    pub pages_per_block: u32,
    /// Page size in bytes (the paper uses 4 KiB).
    pub page_size: u32,
}

impl Geometry {
    /// Creates a new geometry description.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        channels: u32,
        chips_per_channel: u32,
        planes_per_chip: u32,
        blocks_per_plane: u32,
        pages_per_block: u32,
        page_size: u32,
    ) -> Self {
        assert!(channels > 0, "channels must be non-zero");
        assert!(chips_per_channel > 0, "chips_per_channel must be non-zero");
        assert!(planes_per_chip > 0, "planes_per_chip must be non-zero");
        assert!(
            planes_per_chip <= 32,
            "planes_per_chip must fit a 32-bit plane mask"
        );
        assert!(blocks_per_plane > 0, "blocks_per_plane must be non-zero");
        assert!(pages_per_block > 0, "pages_per_block must be non-zero");
        assert!(page_size > 0, "page_size must be non-zero");
        Geometry {
            channels,
            chips_per_channel,
            planes_per_chip,
            blocks_per_plane,
            pages_per_block,
            page_size,
        }
    }

    /// Total number of chips (parallel units that can execute one flash
    /// operation at a time).
    pub fn total_chips(&self) -> u64 {
        u64::from(self.channels) * u64::from(self.chips_per_channel)
    }

    /// Total number of planes in the device.
    pub fn total_planes(&self) -> u64 {
        self.total_chips() * u64::from(self.planes_per_chip)
    }

    /// Total number of physical blocks in the device.
    pub fn total_blocks(&self) -> u64 {
        self.total_planes() * u64::from(self.blocks_per_plane)
    }

    /// Total number of physical pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * u64::from(self.pages_per_block)
    }

    /// Raw capacity of the device in bytes (including over-provisioning).
    pub fn raw_bytes(&self) -> u64 {
        self.total_pages() * u64::from(self.page_size)
    }

    /// Number of pages that belong to a single plane.
    pub fn pages_per_plane(&self) -> u64 {
        u64::from(self.blocks_per_plane) * u64::from(self.pages_per_block)
    }

    /// Number of pages that belong to a single chip.
    pub fn pages_per_chip(&self) -> u64 {
        self.pages_per_plane() * u64::from(self.planes_per_chip)
    }

    /// Number of blocks that belong to a single chip.
    pub fn blocks_per_chip(&self) -> u64 {
        u64::from(self.blocks_per_plane) * u64::from(self.planes_per_chip)
    }

    /// Returns the flat chip index (0..total_chips) for a channel/chip pair.
    ///
    /// # Panics
    ///
    /// Panics if `channel` or `chip` is out of range.
    pub fn chip_index(&self, channel: u32, chip: u32) -> u64 {
        assert!(channel < self.channels, "channel out of range");
        assert!(chip < self.chips_per_channel, "chip out of range");
        u64::from(channel) * u64::from(self.chips_per_channel) + u64::from(chip)
    }

    /// Number of logical pages exposed to the host given an over-provisioning
    /// ratio in `[0, 1)`. The paper's device exposes 32 GiB of a 34 GiB raw
    /// device, i.e. roughly 6 % OP.
    pub fn logical_pages(&self, op_ratio: f64) -> u64 {
        assert!((0.0..1.0).contains(&op_ratio), "op_ratio must be in [0,1)");
        let total = self.total_pages() as f64;
        (total * (1.0 - op_ratio)).floor() as u64
    }
}

impl std::fmt::Display for Geometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}ch x {}chip x {}pl x {}blk x {}pg x {}B ({} MiB raw)",
            self.channels,
            self.chips_per_channel,
            self.planes_per_chip,
            self.blocks_per_plane,
            self.pages_per_block,
            self.page_size,
            self.raw_bytes() / (1024 * 1024)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> Geometry {
        Geometry::new(8, 8, 1, 256, 512, 4096)
    }

    #[test]
    fn paper_geometry_totals_match_paper() {
        let g = paper();
        // The paper states 8,388,608 physical pages (Fig. 11).
        assert_eq!(g.total_pages(), 8_388_608);
        assert_eq!(g.total_chips(), 64);
        assert_eq!(g.raw_bytes(), 32 * 1024 * 1024 * 1024);
    }

    #[test]
    fn per_chip_counts() {
        let g = paper();
        assert_eq!(g.pages_per_chip(), 256 * 512);
        assert_eq!(g.blocks_per_chip(), 256);
        assert_eq!(g.pages_per_plane(), 256 * 512);
    }

    #[test]
    fn chip_index_is_dense_and_unique() {
        let g = Geometry::new(2, 3, 1, 4, 8, 4096);
        let mut seen = std::collections::BTreeSet::new();
        for ch in 0..2 {
            for chip in 0..3 {
                let idx = g.chip_index(ch, chip);
                assert!(idx < g.total_chips());
                assert!(seen.insert(idx));
            }
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    #[should_panic(expected = "channel out of range")]
    fn chip_index_rejects_bad_channel() {
        paper().chip_index(8, 0);
    }

    #[test]
    fn logical_pages_respects_op() {
        let g = paper();
        let logical = g.logical_pages(0.0625);
        assert!(logical < g.total_pages());
        assert_eq!(logical, (8_388_608.0 * 0.9375) as u64);
    }

    #[test]
    #[should_panic(expected = "pages_per_block must be non-zero")]
    fn zero_dimension_rejected() {
        Geometry::new(1, 1, 1, 1, 0, 4096);
    }
}
