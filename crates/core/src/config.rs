//! LearnedFTL configuration.

use ftl_base::GcMode;

/// Shortest write run (pages within one GTD entry) sequential init covers.
pub(crate) const SEQ_INIT_MIN_RUN: usize = 4;

/// Tunables for [`crate::LearnedFtl`].
///
/// Defaults reproduce the paper's setup (Section IV-A): the CMT holds 1.5 %
/// of all page mappings (half of the baselines' 3 %, because the in-memory
/// models consume the other half of the DRAM budget), each in-place-update
/// model has at most 8 linear pieces, and GTD entries are grouped so that one
/// group's allocation unit spans one block on every chip
/// ([`LearnedFtlConfig::entries_per_group`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedFtlConfig {
    /// Fraction of all page mappings the CMT can hold (paper: 1.5 %).
    pub cmt_ratio: f64,
    /// Maximum number of linear pieces per in-place-update model (paper: 8).
    pub max_pieces: usize,
    /// Number of free block rows kept in reserve before GC triggers.
    pub reserve_rows: usize,
    /// Maximum block rows a group may own before GC is forced on it.
    pub max_rows_per_group: usize,
    /// Maximum pages a hot group may borrow from cold groups before GC is
    /// forced on it (opportunistic cross-group allocation threshold),
    /// expressed as a fraction of one block row.
    pub borrow_fraction: f64,
    /// Whether sequential write runs (four pages or more within one GTD
    /// entry) update its model in place; off in the ablation.
    pub sequential_init: bool,
    /// Whether blocking GC charges [`crate::TRAINING_CHARGE_PER_MODEL`] per
    /// trained model to the simulated timeline (Fig. 18a compares both).
    pub charge_training_time: bool,
    /// Whether predictions are bypassed and the in-memory mapping is used
    /// directly whenever the bitmap allows it ("ideal LearnedFTL", Fig. 18b).
    pub ideal_prediction: bool,
    /// How group GC executes: blocking the triggering write (one copy chain
    /// per source plane, see [`GcMode::Blocking`]), or scheduled through the
    /// I/O scheduler's GC priority class so a collection's flash traffic
    /// contends with host commands per chip.
    pub gc_mode: GcMode,
}

impl Default for LearnedFtlConfig {
    fn default() -> Self {
        LearnedFtlConfig {
            cmt_ratio: 0.015,
            max_pieces: 8,
            reserve_rows: 2,
            max_rows_per_group: 3,
            borrow_fraction: 0.5,
            sequential_init: true,
            charge_training_time: true,
            ideal_prediction: false,
            gc_mode: GcMode::Blocking,
        }
    }
}

impl LearnedFtlConfig {
    /// Returns a copy with a different CMT ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not in `[0, 1]`.
    pub fn with_cmt_ratio(mut self, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "cmt_ratio must be in [0,1]");
        self.cmt_ratio = ratio;
        self
    }

    /// Returns a copy with a different maximum piece count.
    ///
    /// # Panics
    ///
    /// Panics if `pieces` is zero.
    pub fn with_max_pieces(mut self, pieces: usize) -> Self {
        assert!(pieces > 0, "a model needs at least one piece");
        self.max_pieces = pieces;
        self
    }

    /// Returns a copy with training charged (or not) to the simulated
    /// timeline, at [`crate::TRAINING_CHARGE_PER_MODEL`] per model.
    pub fn with_charge_training_time(mut self, charge: bool) -> Self {
        self.charge_training_time = charge;
        self
    }

    /// Returns a copy configured as the "ideal LearnedFTL" of Fig. 18b.
    pub fn with_ideal_prediction(mut self, ideal: bool) -> Self {
        self.ideal_prediction = ideal;
        self
    }

    /// Returns a copy with a different GC execution mode.
    pub fn with_gc_mode(mut self, mode: GcMode) -> Self {
        self.gc_mode = mode;
        self
    }

    /// The CMT capacity in mapping entries for a device with `logical_pages`.
    pub fn cmt_entries(&self, logical_pages: u64) -> usize {
        ((logical_pages as f64) * self.cmt_ratio).round() as usize
    }

    /// The group size in GTD entries: the value that makes one group
    /// allocation span exactly one block on every *plane* of every chip (64
    /// for the paper's geometry). `parallel_units` is the device's total
    /// plane count ([`ssd_sim::Geometry::total_planes`]); with one plane per
    /// chip that equals the chip count, the paper's setup.
    pub fn entries_per_group(
        parallel_units: u64,
        pages_per_block: u32,
        mappings_per_page: u32,
    ) -> usize {
        let pages_per_row = parallel_units * u64::from(pages_per_block);
        (pages_per_row / u64::from(mappings_per_page)).max(1) as usize
    }

    /// Checks that a device (or one *shard* of a sharded frontend — any
    /// shard-local geometry a constructor might receive) is large enough for
    /// group-based allocation under this configuration: every group's
    /// steady-state block rows plus the GC reserve must fit in the data
    /// region.
    ///
    /// Returns the `(group_count, rows_needed, reserve_rows, data_rows)`
    /// accounting on success, or a human-readable explanation of the
    /// shortfall. `LearnedFtl::new` panics on the `Err`; sizing helpers
    /// (e.g. the shard-scaling bench device) can call this to validate a
    /// candidate geometry cheaply, without building the FTL.
    pub fn group_capacity_check(
        &self,
        device: &ssd_sim::SsdConfig,
    ) -> Result<(usize, usize, usize, usize), String> {
        let geometry = device.geometry;
        let mappings_per_page = geometry.page_size / ftl_base::MAPPING_ENTRY_BYTES;
        let partition = ftl_base::BlockPartition::for_config(device, mappings_per_page);
        let entries = device
            .logical_pages()
            .div_ceil(u64::from(mappings_per_page)) as usize;
        let entries_per_group = Self::entries_per_group(
            geometry.total_planes(),
            geometry.pages_per_block,
            mappings_per_page,
        );
        let pages_per_row = geometry.total_planes() * u64::from(geometry.pages_per_block);
        let group_span_pages = entries_per_group as u64 * u64::from(mappings_per_page);
        let rows_needed = group_span_pages.div_ceil(pages_per_row).max(1) as usize;
        let reserve_rows = self.reserve_rows.max(rows_needed + 1);
        let data_rows = partition.data_blocks_per_plane() as usize;
        let group_count = entries.div_ceil(entries_per_group);
        if group_count * rows_needed + reserve_rows <= data_rows {
            Ok((group_count, rows_needed, reserve_rows, data_rows))
        } else {
            Err(format!(
                "device too small for group-based allocation: {group_count} groups × \
                 {rows_needed} rows + {reserve_rows} reserve rows exceeds the {data_rows} \
                 data block rows; use a larger device or more over-provisioning"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LearnedFtlConfig::default();
        assert!((c.cmt_ratio - 0.015).abs() < 1e-9);
        assert_eq!(c.max_pieces, 8);
        assert!(c.charge_training_time);
    }

    #[test]
    fn paper_geometry_gives_64_entries_per_group() {
        // 64 chips, 512 pages/block, 512 mappings/translation page (paper).
        assert_eq!(LearnedFtlConfig::entries_per_group(64, 512, 512), 64);
        // Scaled-down config: 16 chips, 128 pages/block.
        assert_eq!(LearnedFtlConfig::entries_per_group(16, 128, 512), 4);
    }

    #[test]
    fn cmt_entries_half_of_baseline() {
        let c = LearnedFtlConfig::default();
        assert_eq!(c.cmt_entries(100_000), 1500);
    }

    #[test]
    fn group_capacity_check_accepts_shard_local_geometries() {
        use ssd_sim::{Geometry, SsdConfig};
        let c = LearnedFtlConfig::default();
        // The standard presets pass.
        assert!(c.group_capacity_check(&SsdConfig::tiny()).is_ok());
        assert!(c.group_capacity_check(&SsdConfig::small()).is_ok());
        // A 2-chip channel-group shard with 256-page blocks holds one full
        // translation-page span per row: fine.
        let shard = SsdConfig::tiny()
            .with_geometry(Geometry::new(1, 2, 1, 16, 256, 4096))
            .with_op_ratio(0.4);
        let (groups, rows_needed, reserve, data_rows) =
            c.group_capacity_check(&shard).expect("healthy shard");
        assert_eq!(rows_needed, 1, "group span fits one block row");
        assert!(groups + reserve <= data_rows);
        // The same shard with 64-page blocks cannot host a 512-mapping span
        // without multi-row groups, and runs out of rows.
        let starved = SsdConfig::tiny()
            .with_geometry(Geometry::new(1, 2, 1, 16, 64, 4096))
            .with_op_ratio(0.4);
        let err = c.group_capacity_check(&starved).unwrap_err();
        assert!(err.contains("too small"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one piece")]
    fn zero_pieces_rejected() {
        LearnedFtlConfig::default().with_max_pieces(0);
    }
}
