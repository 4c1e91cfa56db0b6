//! The FTL designs under comparison.

use baselines::{BaselineConfig, Dftl, IdealFtl, LeaFtl, Tpftl};
use ftl_base::Ftl;
use ftl_shard::ShardedFtl;
use learnedftl::{LearnedFtl, LearnedFtlConfig};
use ssd_sim::SsdConfig;

/// The five FTL designs the paper evaluates (Fig. 14's legend: D, TP, LF, LD, I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtlKind {
    /// DFTL (Gupta et al., ASPLOS'09).
    Dftl,
    /// TPFTL (Zhou et al., EuroSys'15).
    Tpftl,
    /// LeaFTL (Sun et al., ASPLOS'23).
    LeaFtl,
    /// LearnedFTL — the paper's contribution.
    LearnedFtl,
    /// The ideal full-map FTL (upper bound).
    Ideal,
}

impl FtlKind {
    /// Every design, in the order the paper's figures list them.
    pub fn all() -> [FtlKind; 5] {
        [
            FtlKind::Dftl,
            FtlKind::Tpftl,
            FtlKind::LeaFtl,
            FtlKind::LearnedFtl,
            FtlKind::Ideal,
        ]
    }

    /// The designs used as baselines against LearnedFTL.
    pub fn baselines() -> [FtlKind; 3] {
        [FtlKind::Dftl, FtlKind::Tpftl, FtlKind::LeaFtl]
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            FtlKind::Dftl => "DFTL",
            FtlKind::Tpftl => "TPFTL",
            FtlKind::LeaFtl => "LeaFTL",
            FtlKind::LearnedFtl => "LearnedFTL",
            FtlKind::Ideal => "ideal",
        }
    }

    /// Builds the FTL with the paper's default parameters.
    pub fn build(self, device: SsdConfig) -> Box<dyn Ftl> {
        self.build_with(
            device,
            BaselineConfig::default(),
            LearnedFtlConfig::default(),
        )
    }

    /// Builds the FTL sharded across `shards` per-channel-group partitions:
    /// each shard is a complete instance of this design over its channel
    /// group's geometry, with the paper's default parameters scaled to the
    /// shard (fractional knobs follow the shard's logical space on their
    /// own; absolute DRAM budgets like LeaFTL's write buffer are split
    /// evenly — [`BaselineConfig::for_shard`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or does not divide the device's channel
    /// count.
    pub fn build_sharded(self, device: SsdConfig, shards: usize) -> ShardedFtl<Box<dyn Ftl>> {
        self.build_sharded_with(
            device,
            shards,
            BaselineConfig::default().for_shard(shards),
            LearnedFtlConfig::default(),
        )
    }

    /// Builds the FTL sharded across `shards` per-channel-group partitions
    /// with explicit per-shard parameters (`baseline` is used as given —
    /// apply [`BaselineConfig::for_shard`] yourself when splitting absolute
    /// budgets). This is how the GC-interference experiment builds frontends
    /// whose shards run scheduled instead of blocking garbage collection.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or does not divide the device's channel
    /// count.
    pub fn build_sharded_with(
        self,
        device: SsdConfig,
        shards: usize,
        baseline: BaselineConfig,
        learned: LearnedFtlConfig,
    ) -> ShardedFtl<Box<dyn Ftl>> {
        ShardedFtl::build_with(device, shards, |_, shard_cfg| {
            self.build_with(shard_cfg, baseline, learned)
        })
    }

    /// Builds the FTL with explicit baseline / LearnedFTL parameters.
    pub fn build_with(
        self,
        device: SsdConfig,
        baseline: BaselineConfig,
        learned: LearnedFtlConfig,
    ) -> Box<dyn Ftl> {
        match self {
            FtlKind::Dftl => Box::new(Dftl::new(device, baseline)),
            FtlKind::Tpftl => Box::new(Tpftl::new(device, baseline)),
            FtlKind::LeaFtl => Box::new(LeaFtl::new(device, baseline)),
            FtlKind::LearnedFtl => Box::new(LearnedFtl::new(device, learned)),
            FtlKind::Ideal => Box::new(IdealFtl::new(device, baseline)),
        }
    }
}

impl std::fmt::Display for FtlKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::SimTime;

    #[test]
    fn every_kind_builds_and_serves_io() {
        for kind in FtlKind::all() {
            let mut ftl = kind.build(SsdConfig::tiny());
            assert_eq!(ftl.name(), kind.label());
            let t = ftl.write(0, 4, SimTime::ZERO);
            let t = ftl.read(0, 4, t);
            // LeaFTL may absorb the write in its buffer (t may equal ZERO for
            // the write), but the pair of calls must never move time backward.
            assert!(t >= SimTime::ZERO);
            assert_eq!(ftl.stats().host_write_pages, 4);
            assert_eq!(ftl.stats().host_read_pages, 4);
        }
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(FtlKind::Dftl.label(), "DFTL");
        assert_eq!(FtlKind::LearnedFtl.to_string(), "LearnedFTL");
        assert_eq!(FtlKind::all().len(), 5);
        assert_eq!(FtlKind::baselines().len(), 3);
    }
}
