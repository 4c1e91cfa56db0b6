//! Device configuration presets.

use crate::geometry::Geometry;
use crate::latency::LatencyConfig;

/// Full configuration of a simulated SSD: geometry, latencies and the
/// over-provisioning ratio that determines how much of the raw capacity is
/// exposed to the host.
///
/// ```
/// use ssd_sim::SsdConfig;
/// let cfg = SsdConfig::paper();
/// assert_eq!(cfg.geometry.total_chips(), 64);
/// assert!(cfg.logical_pages() < cfg.geometry.total_pages());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdConfig {
    /// The geometry tree of the device.
    pub geometry: Geometry,
    /// NAND operation latencies.
    pub latency: LatencyConfig,
    /// Fraction of raw capacity reserved as over-provisioning space, in `[0, 1)`.
    pub op_ratio: f64,
}

impl SsdConfig {
    /// The paper's FEMU configuration: 32 GiB raw, 64 chips
    /// (8 channels × 8 ways), 256 blocks/chip, 512 pages/block, 4 KiB pages,
    /// roughly 6 % over-provisioning (32 GiB logical + 2 GiB OP).
    pub fn paper() -> Self {
        SsdConfig {
            geometry: Geometry::new(8, 8, 1, 256, 512, 4096),
            latency: LatencyConfig::femu_default(),
            op_ratio: 0.0625,
        }
    }

    /// A scaled-down configuration (4 channels × 4 chips × 96 blocks × 128
    /// pages ≈ 768 MiB raw) that keeps the paper's ratios — over-provisioning
    /// fraction, pages per translation page, chips ≫ 1 — while letting the
    /// full experiment suite run in minutes. This is the default used by the
    /// `repro` figures.
    pub fn small() -> Self {
        SsdConfig {
            geometry: Geometry::new(4, 4, 1, 96, 128, 4096),
            latency: LatencyConfig::femu_default(),
            op_ratio: 0.0625,
        }
    }

    /// A minimal configuration (2 channels × 2 chips × 16 blocks × 128 pages,
    /// 25 % over-provisioning) for unit tests. The generous over-provisioning
    /// keeps group-based allocation workable even at this scale.
    pub fn tiny() -> Self {
        SsdConfig {
            geometry: Geometry::new(2, 2, 1, 16, 128, 4096),
            latency: LatencyConfig::femu_default(),
            op_ratio: 0.25,
        }
    }

    /// Same as [`SsdConfig::tiny`] but with zero latencies, for functional
    /// tests that do not exercise timing.
    pub fn tiny_zero_latency() -> Self {
        SsdConfig {
            latency: LatencyConfig::zero(),
            ..Self::tiny()
        }
    }

    /// Returns a copy with a different over-provisioning ratio.
    ///
    /// # Panics
    ///
    /// Panics if `op_ratio` is not in `[0, 1)`.
    pub fn with_op_ratio(mut self, op_ratio: f64) -> Self {
        assert!((0.0..1.0).contains(&op_ratio), "op_ratio must be in [0,1)");
        self.op_ratio = op_ratio;
        self
    }

    /// Returns a copy with a different latency configuration.
    pub fn with_latency(mut self, latency: LatencyConfig) -> Self {
        self.latency = latency;
        self
    }

    /// Returns a copy with a different geometry.
    pub fn with_geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Returns a copy whose chips are split into `planes` planes while every
    /// other dimension — and therefore the raw capacity — stays the same: the
    /// per-chip block budget is redistributed as `blocks_per_chip / planes`
    /// blocks per plane. This is how the plane-scaling sweep compares
    /// geometries that differ only in intra-chip parallelism.
    ///
    /// ```
    /// use ssd_sim::SsdConfig;
    /// let base = SsdConfig::tiny();
    /// let split = base.with_planes(2);
    /// assert_eq!(split.geometry.planes_per_chip, 2);
    /// assert_eq!(split.geometry.total_pages(), base.geometry.total_pages());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `planes` is zero or does not divide the per-chip block count.
    pub fn with_planes(mut self, planes: u32) -> Self {
        let g = self.geometry;
        let blocks_per_chip = g.blocks_per_chip();
        assert!(planes > 0, "planes must be non-zero");
        assert!(
            blocks_per_chip.is_multiple_of(u64::from(planes)),
            "planes ({planes}) must divide the per-chip block count ({blocks_per_chip})"
        );
        self.geometry = Geometry::new(
            g.channels,
            g.chips_per_channel,
            planes,
            (blocks_per_chip / u64::from(planes)) as u32,
            g.pages_per_block,
            g.page_size,
        );
        self
    }

    /// Number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.geometry.logical_pages(self.op_ratio)
    }

    /// Logical capacity in bytes exposed to the host.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_pages() * u64::from(self.geometry.page_size)
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_paper() {
        let cfg = SsdConfig::paper();
        assert_eq!(cfg.geometry.total_pages(), 8_388_608);
        assert_eq!(cfg.geometry.total_chips(), 64);
        // 32 GiB raw, roughly 30 GiB logical with the stated OP split.
        assert!(cfg.logical_bytes() > 29 * 1024 * 1024 * 1024);
        assert!(cfg.logical_bytes() < 31 * 1024 * 1024 * 1024);
    }

    #[test]
    fn small_preset_keeps_parallelism() {
        let cfg = SsdConfig::small();
        assert!(cfg.geometry.total_chips() >= 8);
        assert!(cfg.logical_pages() > 50_000);
        assert!((cfg.op_ratio - SsdConfig::paper().op_ratio).abs() < 1e-9);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = SsdConfig::tiny().with_op_ratio(0.25);
        assert!((cfg.op_ratio - 0.25).abs() < 1e-9);
        let cfg = cfg.with_latency(LatencyConfig::zero());
        assert_eq!(cfg.latency, LatencyConfig::zero());
    }

    #[test]
    #[should_panic(expected = "op_ratio")]
    fn bad_op_ratio_rejected() {
        SsdConfig::tiny().with_op_ratio(1.5);
    }
}
