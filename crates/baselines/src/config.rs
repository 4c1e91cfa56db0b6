//! Shared configuration knobs for the baseline FTLs.

use ftl_base::GcMode;

/// Tunables shared by the baseline FTLs.
///
/// The defaults reproduce the paper's experimental setup (Section IV-A):
/// the CMT holds about 3 % of all page mappings, LeaFTL's model cache gets
/// the same byte budget and LeaFTL's data buffer holds 2048 pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    /// Fraction of all page mappings the CMT can hold (paper: 3 %).
    pub cmt_ratio: f64,
    /// Number of erased data blocks below which GC is triggered. `0` selects
    /// an automatic value (one block per chip).
    pub gc_watermark: usize,
    /// LeaFTL's write-buffer capacity in pages (paper: 2048).
    pub buffer_pages: usize,
    /// How garbage collection executes: blocking the triggering write (see
    /// [`GcMode::Blocking`]), or scheduled through the I/O scheduler's GC
    /// priority class so it contends with host traffic per chip.
    pub gc_mode: GcMode,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            cmt_ratio: 0.03,
            gc_watermark: 0,
            buffer_pages: 2048,
            gc_mode: GcMode::Blocking,
        }
    }
}

impl BaselineConfig {
    /// Returns a copy with a different CMT capacity ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not in `[0, 1]` (zero models a cache-less FTL).
    pub fn with_cmt_ratio(mut self, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "cmt_ratio must be in [0,1]");
        self.cmt_ratio = ratio;
        self
    }

    /// Returns a copy with a different GC watermark.
    pub fn with_gc_watermark(mut self, blocks: usize) -> Self {
        self.gc_watermark = blocks;
        self
    }

    /// Returns a copy with a different LeaFTL buffer size.
    pub fn with_buffer_pages(mut self, pages: usize) -> Self {
        self.buffer_pages = pages.max(1);
        self
    }

    /// Returns a copy with a different GC execution mode.
    pub fn with_gc_mode(mut self, mode: GcMode) -> Self {
        self.gc_mode = mode;
        self
    }

    /// The configuration for one shard of a frontend sharded `shards` ways.
    ///
    /// Fractional knobs (the CMT ratio) already scale with the shard's
    /// logical space, but `buffer_pages` is an absolute DRAM budget for the
    /// *whole device*: a sharded FTL instantiates one FTL (and so one LeaFTL
    /// write buffer) per shard, so each shard gets an equal slice — otherwise
    /// N shards would enjoy N× the paper's buffer and absorb whole write
    /// phases in RAM. With one shard this is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn for_shard(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.buffer_pages = (self.buffer_pages / shards).max(1);
        self
    }

    /// The CMT capacity in mapping entries for a device with `logical_pages`.
    pub fn cmt_entries(&self, logical_pages: u64) -> usize {
        ((logical_pages as f64) * self.cmt_ratio).round() as usize
    }

    /// The effective GC watermark for a device with `total_chips` chips.
    pub fn effective_gc_watermark(&self, total_chips: u64) -> usize {
        if self.gc_watermark == 0 {
            total_chips as usize
        } else {
            self.gc_watermark
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = BaselineConfig::default();
        assert!((c.cmt_ratio - 0.03).abs() < 1e-9);
        assert_eq!(c.buffer_pages, 2048);
    }

    #[test]
    fn cmt_entries_scale_with_logical_pages() {
        let c = BaselineConfig::default();
        assert_eq!(c.cmt_entries(100_000), 3000);
        assert_eq!(c.with_cmt_ratio(0.5).cmt_entries(100_000), 50_000);
    }

    #[test]
    fn watermark_auto_uses_chip_count() {
        let c = BaselineConfig::default();
        assert_eq!(c.effective_gc_watermark(16), 16);
        assert_eq!(c.with_gc_watermark(5).effective_gc_watermark(16), 5);
    }

    #[test]
    fn for_shard_splits_the_buffer_budget() {
        let c = BaselineConfig::default();
        assert_eq!(c.for_shard(1), c, "one shard is the identity");
        assert_eq!(c.for_shard(4).buffer_pages, 512);
        assert!((c.for_shard(4).cmt_ratio - c.cmt_ratio).abs() < 1e-12);
        // Degenerate split never zeroes the buffer.
        assert_eq!(c.with_buffer_pages(2).for_shard(8).buffer_pages, 1);
    }

    #[test]
    #[should_panic(expected = "cmt_ratio")]
    fn bad_cmt_ratio_rejected() {
        BaselineConfig::default().with_cmt_ratio(1.5);
    }
}
