//! The LearnedFTL flash translation layer.

use std::collections::BTreeSet;

use ftl_base::{Ftl, FtlCore, FtlStats, GcMode, Lpn, PageNodeCmt, ReadClass};
use learned_index::Point;
use ssd_sim::wallclock::WallTimer;
use ssd_sim::{vppn_to_ppn, Duration, FlashDevice, SimTime, SsdConfig};

use crate::config::{LearnedFtlConfig, SEQ_INIT_MIN_RUN};
use crate::group::{GcRequest, GroupAllocator, GroupSlot};
use crate::model::InPlaceModel;

/// Simulated controller time to sort one GTD entry's LPNs and train its model
/// in group GC: the paper's ~50 µs per entry on an ARM Cortex-A72 (Fig. 15).
pub const TRAINING_CHARGE_PER_MODEL: Duration = Duration::from_micros(50);

/// What [`LearnedFtlConfig::charge_training_time`] adds for `models` models.
pub fn training_charge(models: u64) -> Duration {
    TRAINING_CHARGE_PER_MODEL.saturating_mul(models)
}

/// LearnedFTL (paper § III): TPFTL's demand-based mapping cache for
/// locality-heavy accesses, plus one in-place-update learned model per GTD
/// entry — all models resident in DRAM — for random accesses.
///
/// Read path per logical page:
///
/// 1. CMT hit → one flash read (the locality path).
/// 2. CMT miss, bitmap filter allows the model → predict the VPPN, translate
///    it back to a PPN, one flash read (the learned path; the bitmap filter
///    guarantees the prediction is exact, so there is never a miss penalty).
/// 3. Otherwise → the ordinary TPFTL double read (translation page + data).
///
/// Writes use group-based allocation so that garbage collection naturally
/// gathers each GTD entry group's pages into one VPPN-contiguous block row,
/// where models can be (re)trained cheaply; sequential writes additionally
/// update the models in place without any training.
#[derive(Debug, Clone)]
pub struct LearnedFtl {
    core: FtlCore,
    alloc: GroupAllocator,
    cmt: PageNodeCmt,
    models: Vec<InPlaceModel>,
    config: LearnedFtlConfig,
    /// Incremented by every group GC. The write path uses it to discard a
    /// pending sequential-initialisation run whose pages a GC has already
    /// relocated (their recorded VPPNs would be stale).
    gc_epoch: u64,
    gc_scratch: GcScratch,
}

/// The buffers of one group collection, kept (emptied) for the next one: a
/// collection relocates thousands of pages, and a random-write workload runs
/// one every few hundred requests.
#[derive(Debug, Clone, Default)]
struct GcScratch {
    /// The group's own valid `(lpn, ppn)` pairs, in LPN order.
    own_pairs: Vec<(Lpn, u64)>,
    /// Valid pages other groups borrowed into the detached rows.
    foreign_pairs: Vec<(Lpn, u64)>,
    /// Where each relocated page went.
    moved: Vec<(Lpn, u64)>,
    /// The training points of the group's own relocated pages.
    own_points: Vec<Point>,
    /// Detached rows not erased yet.
    pending_rows: Vec<u32>,
    /// The pending rows one pass of `erase_drained_rows` leaves behind.
    kept: Vec<u32>,
    /// The other groups' GTD entries whose pages the collection moved.
    foreign_entries: BTreeSet<usize>,
    /// Valid pages left in each block row, indexed by row id (only the
    /// detached rows' counts are ever read).
    remaining: Vec<u64>,
}

impl LearnedFtl {
    /// Creates a LearnedFTL instance over a fresh device.
    pub fn new(device: SsdConfig, config: LearnedFtlConfig) -> Self {
        let core = FtlCore::with_gc_mode(device, config.gc_mode);
        let entries = core.gtd.entries();
        let mappings_per_page = core.mappings_per_page();
        let entries_per_group = LearnedFtlConfig::entries_per_group(
            device.geometry.total_planes(),
            device.geometry.pages_per_block,
            mappings_per_page,
        );
        // Any geometry may land here — the full device or one channel-group
        // shard of a sharded frontend — so validate it carries the block
        // rows this configuration needs, and build the allocator from the
        // very numbers the check validated. A group whose LPN span needs
        // `rows_needed` rows must be allowed to own at least one more than
        // that (GC needs that much headroom to rewrite the group), so the
        // configured knob is clamped.
        let (_groups, rows_needed, reserve_rows, _data_rows) =
            match config.group_capacity_check(&device) {
                Ok(accounting) => accounting,
                Err(why) => panic!("{why}"),
            };
        let max_rows_per_group = config.max_rows_per_group.max(rows_needed + 1);
        let alloc = GroupAllocator::new(
            &core.partition,
            device.geometry,
            entries,
            entries_per_group,
            mappings_per_page,
            reserve_rows,
            max_rows_per_group,
            config.borrow_fraction,
        );
        let logical = core.logical_pages();
        let models = (0..entries)
            .map(|e| {
                let start = e as u64 * u64::from(mappings_per_page);
                let span = (logical - start).min(u64::from(mappings_per_page)) as u32;
                InPlaceModel::new(start, span, config.max_pieces)
            })
            .collect();
        let cmt = PageNodeCmt::new(config.cmt_entries(logical));
        LearnedFtl {
            core,
            alloc,
            cmt,
            models,
            config,
            gc_epoch: 0,
            gc_scratch: GcScratch::default(),
        }
    }

    /// The fraction of all LPNs whose model predictions are currently trusted
    /// (the paper reports 55.5 % after a random-write warm-up).
    pub fn model_coverage(&self) -> f64 {
        let total: usize = self.models.iter().map(|m| m.span() as usize).sum();
        if total == 0 {
            return 0.0;
        }
        let trusted: usize = self.models.iter().map(InPlaceModel::trusted_lpns).sum();
        trusted as f64 / total as f64
    }

    /// Total nominal DRAM consumed by the in-place-update models, in bytes.
    pub fn model_memory_bytes(&self) -> usize {
        self.models.iter().map(InPlaceModel::nominal_bytes).sum()
    }

    /// Number of GTD entry groups.
    pub fn group_count(&self) -> usize {
        self.alloc.group_count()
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &LearnedFtlConfig {
        &self.config
    }

    /// Allocates a slot for `lpn`, running group GC whenever the allocator
    /// asks for it. Returns the slot and the (possibly advanced) barrier time.
    fn allocate_slot(&mut self, lpn: Lpn, mut barrier: SimTime) -> (GroupSlot, SimTime) {
        let group = self.alloc.group_of_lpn(lpn);
        // A handful of GC rounds must always be enough: collecting the target
        // group compacts it, and collecting the most-invalid group frees rows.
        // The bound turns an allocation-policy bug into a loud failure instead
        // of an endless GC loop.
        for _attempt in 0..16 {
            match self.alloc.allocate(group) {
                Ok(slot) => return (slot, barrier),
                Err(GcRequest::CollectGroup(g)) => {
                    barrier = self.collect_group(g, barrier);
                }
                Err(GcRequest::CollectMostInvalid) => {
                    let victim = self
                        .alloc
                        .most_invalid_group(&self.core.dev)
                        .expect("a full device must have at least one group with rows");
                    barrier = self.collect_group(victim, barrier);
                }
            }
        }
        panic!(
            "group allocation for lpn {lpn} still failing after repeated GC; \
             the device is over-committed"
        );
    }

    /// Applies sequential initialisation over one contiguous run of
    /// `(lpn, vppn)` placements produced by a single write request.
    fn sequential_init(&mut self, run: &[Point]) {
        if !self.config.sequential_init || run.len() < SEQ_INIT_MIN_RUN {
            return;
        }
        let mappings_per_page = u64::from(self.core.mappings_per_page());
        let mut idx = 0;
        while idx < run.len() {
            let entry = (run[idx].key / mappings_per_page) as usize;
            let mut end = idx + 1;
            while end < run.len() && (run[end].key / mappings_per_page) as usize == entry {
                end += 1;
            }
            if end - idx >= SEQ_INIT_MIN_RUN {
                self.models[entry].sequential_init(&run[idx..end]);
            }
            idx = end;
        }
    }

    /// Runs one group collection in the configured GC mode: blocking GC
    /// charges the collection to the caller's barrier (one copy chain per
    /// source plane, see [`ftl_base::GcMode::Blocking`]), while scheduled GC
    /// commits the collection's outcome inside a staging window and replays
    /// its flash traffic as a background `Priority::Gc` job — the barrier
    /// stays put and sibling traffic contends with the collection chip by
    /// chip.
    fn collect_group(&mut self, group: usize, barrier: SimTime) -> SimTime {
        self.core.begin_background_gc();
        let done = self.gc_group(group, barrier);
        self.core.finish_background_gc(barrier, done)
    }

    /// Collects one GTD entry group: relocates its valid pages in sorted LPN
    /// order to fresh block rows, retrains every model of the group, rewrites
    /// the group's translation pages and erases the old rows (paper § III-E2).
    ///
    /// Timing: the translation reads form one chain from `now`; the copies
    /// then run one chain per source plane from where that chain ended, so a
    /// block row's planes copy side by side; the translation writes chain
    /// from the last copy; and the rows' blocks are erased together, each on
    /// its own plane. A row recycled mid-collection is erased at the latest
    /// completion so far.
    fn gc_group(&mut self, group: usize, now: SimTime) -> SimTime {
        let mut scratch = std::mem::take(&mut self.gc_scratch);
        let done = self.gc_group_with(group, now, &mut scratch);
        self.gc_scratch = scratch;
        done
    }

    fn gc_group_with(&mut self, group: usize, now: SimTime, scratch: &mut GcScratch) -> SimTime {
        let GcScratch {
            own_pairs,
            foreign_pairs,
            moved,
            own_points,
            pending_rows,
            kept,
            foreign_entries,
            remaining,
        } = scratch;
        self.gc_epoch += 1;
        self.core.stats.record_gc(now);
        let entries = self.core.gtd.entries();
        let (entry_start, entry_end) = self.alloc.entries_of_group(group, entries);
        let mut t = now;

        // ① Read the group's translation pages and regulate valid mappings.
        for e in entry_start..entry_end {
            t = self.core.read_translation(e, t);
        }
        let rows = self.alloc.detach_rows(group);
        // The group's own valid pages, wherever they currently live (the
        // authoritative mapping table is the logical content of the
        // translation pages read above), plus any *foreign* valid pages that
        // other groups borrowed into this group's rows — those must be moved
        // too or the rows could not be erased.
        let (lpn_start, lpn_end) = {
            let start = self.core.gtd.lpn_range(entry_start).0;
            let end = self.core.gtd.lpn_range(entry_end - 1).1;
            (start, end)
        };
        own_pairs.clear();
        own_pairs.extend(self.core.mapping.range(lpn_start, lpn_end));
        foreign_pairs.clear();
        self.alloc
            .valid_pages_in_rows(&self.core.dev, &rows, foreign_pairs);
        foreign_pairs.retain(|&(lpn, _)| lpn < lpn_start || lpn >= lpn_end);
        let sort_started = WallTimer::start();
        own_pairs.sort_unstable_by_key(|&(lpn, _)| lpn);
        self.core.stats.sort_wall_time += sort_started.elapsed();

        // Track how many valid pages remain in each detached row so rows can
        // be erased (and reused as GC destinations) as soon as they drain.
        remaining.clear();
        remaining.resize(self.core.dev.geometry().blocks_per_plane as usize, 0);
        for &(_, ppn) in own_pairs.iter().chain(foreign_pairs.iter()) {
            remaining[self.alloc.row_of_ppn(ppn) as usize] += 1;
        }
        pending_rows.clear();
        pending_rows.extend_from_slice(&rows);

        // ② Write the valid pages back in LPN order, obtaining contiguous
        //    VPPNs for this group's own pages. Foreign pages follow at the
        //    end; their models can no longer be trusted for those LPNs.
        own_points.clear();
        moved.clear();
        foreign_entries.clear();
        self.core.begin_gc_copies(t);
        for (is_own, &(lpn, old_ppn)) in own_pairs
            .iter()
            .map(|p| (true, p))
            .chain(foreign_pairs.iter().map(|p| (false, p)))
        {
            let slot = self.gc_destination(group, pending_rows, kept, remaining);
            self.core.relocate_data(lpn, old_ppn, slot.ppn);
            moved.push((lpn, slot.ppn));
            // The source row just lost a valid page.
            let left = &mut remaining[self.alloc.row_of_ppn(old_ppn) as usize];
            *left = left.saturating_sub(1);
            if is_own {
                own_points.push(Point::new(lpn, slot.vppn));
            } else {
                let entry = self.core.entry_of_lpn(lpn);
                self.models[entry].invalidate(lpn);
                foreign_entries.insert(entry);
            }
        }
        t = self.core.gc_latest_completion();

        // ③/④ Train every model in the group on the new placements and
        //       rebuild the bitmap filters.
        let train_started = WallTimer::start();
        let mappings_per_page = u64::from(self.core.mappings_per_page());
        let mut idx = 0;
        for e in entry_start..entry_end {
            let lo = idx;
            while idx < own_points.len() && (own_points[idx].key / mappings_per_page) as usize == e
            {
                idx += 1;
            }
            self.models[e].train(&own_points[lo..idx]);
            self.core.stats.models_trained += 1;
        }
        self.core.stats.train_wall_time += train_started.elapsed();

        // Persist the group's translation pages (one write per entry) plus the
        // foreign entries whose mappings moved.
        for e in entry_start..entry_end {
            t = self.core.write_translation(e, t);
        }
        for &e in foreign_entries.iter() {
            let read_done = self.core.read_translation(e, t);
            t = self.core.write_translation(e, read_done);
        }

        // Keep cached mappings coherent.
        for &(lpn, new_ppn) in moved.iter() {
            let tpn = self.core.entry_of_lpn(lpn);
            let offset = self.core.offset_of_lpn(lpn);
            self.cmt.refresh_if_cached(tpn, offset, new_ppn);
        }

        // Erase whatever detached rows are still pending and hand them back.
        t = self.erase_drained_rows(pending_rows, kept, remaining, t, true);

        self.core.stats.gc_flash_time += t - now;
        if self.config.charge_training_time && !self.core.gc_is_scheduled() {
            // A scheduled collection's cost is its flash charges alone.
            t += training_charge((entry_end - entry_start) as u64);
        }
        self.core.note_gc_unit_end(t);
        t
    }

    /// Picks the next GC destination slot for `group`, draining and recycling
    /// source rows on the fly if the free-row reserve runs dry. A recycled
    /// row is erased at the latest completion of the collection so far.
    fn gc_destination(
        &mut self,
        group: usize,
        pending_rows: &mut Vec<u32>,
        kept: &mut Vec<u32>,
        remaining: &[u64],
    ) -> GroupSlot {
        if let Some(slot) = self.alloc.allocate_for_gc(group) {
            return slot;
        }
        // No free rows left: erase any already-drained source row to recycle it.
        let now = self.core.gc_latest_completion();
        self.erase_drained_rows(pending_rows, kept, remaining, now, false);
        if let Some(slot) = self.alloc.allocate_for_gc(group) {
            return slot;
        }
        // Last resort: borrow a slot from another group's open row.
        match self.alloc.allocate(group) {
            Ok(slot) => slot,
            Err(_) => panic!(
                "group GC ran out of space: no free rows, no drained source rows \
                 and no borrowable slots"
            ),
        }
    }

    /// Erases detached rows that hold no more valid pages, every block at
    /// `now` on its own plane, and returns them to the allocator; `kept` is
    /// scratch for the rows left pending. When `erase_all` is set, every
    /// pending row is expected to be drained (end of GC). Returns the latest
    /// erase's completion (`now` if none).
    fn erase_drained_rows(
        &mut self,
        pending_rows: &mut Vec<u32>,
        kept: &mut Vec<u32>,
        remaining: &[u64],
        now: SimTime,
        erase_all: bool,
    ) -> SimTime {
        let mut t = now;
        kept.clear();
        for &row in pending_rows.iter() {
            let drained = remaining[row as usize] == 0;
            if !drained && !erase_all {
                kept.push(row);
                continue;
            }
            debug_assert!(drained, "end-of-GC rows must have been drained");
            for block in self.alloc.row_blocks(row) {
                t = t.max(self.core.erase_collected(block, now));
            }
            self.alloc.return_rows([row]);
        }
        std::mem::swap(pending_rows, kept);
        t
    }
}

impl Ftl for LearnedFtl {
    fn name(&self) -> &'static str {
        "LearnedFTL"
    }

    fn read(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.core.begin_host_batch();
        let mut done = now;
        for l in lpn..lpn + u64::from(pages) {
            if l >= self.core.logical_pages() {
                break;
            }
            self.core.stats.host_read_pages += 1;
            let tpn = self.core.entry_of_lpn(l);
            let offset = self.core.offset_of_lpn(l);

            // 1. The demand-based cache handles locality. (Only LPNs that
            //    were written are ever cached or trusted, so neither of the
            //    first two steps asks the mapping table whether `l` is
            //    mapped: like the FTL it models, the read path consults the
            //    table only where a translation page would be read.)
            if let Some(cached) = self.cmt.lookup(tpn, offset) {
                self.core.note_read_class(ReadClass::CmtHit, now);
                let t = self.core.read_data(cached, now);
                done = done.max(t);
                continue;
            }

            // 2. The learned model handles random accesses — but only when the
            //    bitmap filter vouches for the prediction.
            let predicted = if self.config.ideal_prediction {
                self.models[tpn]
                    .is_trusted(l)
                    .then(|| self.core.mapping.get(l))
                    .flatten()
            } else {
                self.models[tpn].predict(l).map(|vppn| {
                    self.core.stats.model_predictions += 1;
                    vppn_to_ppn(vppn, self.core.dev.geometry())
                })
            };
            if let Some(ppn) = predicted {
                debug_assert_eq!(
                    Some(ppn),
                    self.core.mapping.get(l),
                    "bitmap filter must guarantee exact predictions"
                );
                self.core.note_read_class(ReadClass::ModelHit, now);
                let t = self.core.read_data(ppn, now);
                done = done.max(t);
                continue;
            }

            // 3. Fall back to TPFTL's double read, unless the translation
            //    page has no mapping to offer.
            let Some(true_ppn) = self.core.mapping.get(l) else {
                self.core.stats.unmapped_reads += 1;
                continue;
            };
            self.core.note_read_class(ReadClass::DoubleRead, now);
            let ready = self.core.load_with_prefetch(&mut self.cmt, l, now);
            let t = self.core.read_data(true_ppn, ready);
            done = done.max(t);
        }
        self.core.finish_host_batch(done)
    }

    fn write(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.core.begin_host_batch();
        let mut barrier = now;
        let mut done = now;
        let mut run: Vec<Point> = Vec::new();
        let mut run_epoch = self.gc_epoch;
        for l in lpn..lpn + u64::from(pages) {
            if l >= self.core.logical_pages() {
                break;
            }
            self.core.stats.host_write_pages += 1;
            let (slot, new_barrier) = self.allocate_slot(l, barrier);
            barrier = new_barrier;
            // Consistency first: the model may no longer answer for this LPN.
            // Only after the slot is allocated, though — a group GC run by
            // the allocation retrains the model from the LPN's old copy,
            // which is still mapped, and would trust it again.
            let tpn = self.core.entry_of_lpn(l);
            self.models[tpn].invalidate(l);
            if self.gc_epoch != run_epoch {
                // A GC ran while this request was being served; any pages of
                // the pending run may have been relocated, so their recorded
                // VPPNs can no longer be trusted for sequential initialisation.
                run.clear();
                run_epoch = self.gc_epoch;
            }
            let t_write = self.core.program_data(l, slot.ppn, barrier);
            done = done.max(t_write);

            barrier = self
                .core
                .cache_written_mapping(&mut self.cmt, l, slot.ppn, barrier);
            done = done.max(barrier);

            // Track contiguous placements for sequential initialisation.
            let extends_run = slot.donor.is_none()
                && run
                    .last()
                    .map(|p| p.key + 1 == l && p.value + 1 == slot.vppn)
                    .unwrap_or(false);
            if extends_run {
                run.push(Point::new(l, slot.vppn));
            } else {
                if !run.is_empty() {
                    let finished = std::mem::take(&mut run);
                    self.sequential_init(&finished);
                }
                if slot.donor.is_none() {
                    run.push(Point::new(l, slot.vppn));
                }
            }
        }
        if !run.is_empty() {
            let finished = std::mem::take(&mut run);
            self.sequential_init(&finished);
        }
        self.core.finish_host_batch(done)
    }

    fn stats(&self) -> &FtlStats {
        &self.core.stats
    }

    fn reset_stats(&mut self) {
        self.core.stats = FtlStats::new();
    }

    fn logical_pages(&self) -> u64 {
        self.core.logical_pages()
    }

    fn device(&self) -> &FlashDevice {
        &self.core.dev
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.core.dev
    }

    fn gc_mode(&self) -> GcMode {
        self.core.gc_mode()
    }

    fn drain_gc(&mut self) -> SimTime {
        self.core.drain_gc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> LearnedFtl {
        LearnedFtl::new(SsdConfig::tiny(), LearnedFtlConfig::default())
    }

    #[test]
    fn sequential_write_then_read_hits_cmt_or_model() {
        let mut f = ftl();
        let t = f.write(0, 64, SimTime::ZERO);
        f.reset_stats();
        let mut t2 = t;
        for l in 0..64 {
            t2 = f.read(l, 1, t2);
        }
        let s = f.stats();
        assert_eq!(s.host_read_pages, 64);
        assert_eq!(
            s.double_reads + s.triple_reads,
            0,
            "no double reads expected"
        );
        assert_eq!(s.single_reads, 64);
        // Sequential initialisation must have trained the models for the run.
        assert!(f.model_coverage() > 0.0);
    }

    #[test]
    fn reading_a_never_written_lpn_costs_nothing_and_is_counted() {
        let mut f = ftl();
        // LPNs 0..64 are written; 64.. share their translation page, so its
        // CMT node and model exist when the unwritten LPNs are read.
        let t = f.write(0, 64, SimTime::ZERO);
        f.reset_stats();
        let flash_ops = f.device().stats().total_ops();
        assert_eq!(f.read(64, 4, t), t);
        let s = f.stats();
        assert_eq!((s.host_read_pages, s.unmapped_reads), (4, 4));
        assert_eq!(s.single_reads + s.double_reads + s.triple_reads, 0);
        assert_eq!(f.device().stats().total_ops(), flash_ops);
    }

    #[test]
    fn model_serves_reads_after_cmt_pressure() {
        // Use a zero-capacity CMT so every read must go through the model or
        // the double-read path.
        let mut f = LearnedFtl::new(
            SsdConfig::tiny(),
            LearnedFtlConfig::default().with_cmt_ratio(0.0),
        );
        let t = f.write(0, 128, SimTime::ZERO);
        f.reset_stats();
        let mut t2 = t;
        for l in 0..128 {
            t2 = f.read(l, 1, t2);
        }
        let s = f.stats();
        assert!(
            s.model_hits > 100,
            "sequentially initialised models must serve most reads, got {}",
            s.model_hits
        );
        assert_eq!(s.cmt_hits, 0);
    }

    #[test]
    fn single_page_overwrites_clear_trust_and_stay_correct() {
        let mut f = LearnedFtl::new(
            SsdConfig::tiny(),
            LearnedFtlConfig::default().with_cmt_ratio(0.0),
        );
        let t = f.write(0, 32, SimTime::ZERO);
        // Overwrite a few pages individually: their bits must clear, and reads
        // must fall back to the double-read path yet return correct data.
        let t = f.write(5, 1, t);
        let t = f.write(9, 1, t);
        f.reset_stats();
        let t = f.read(5, 1, t);
        let _ = f.read(6, 1, t);
        let s = f.stats();
        assert_eq!(s.double_reads, 1, "overwritten page must double-read");
        assert_eq!(s.model_hits, 1, "untouched page still served by the model");
    }

    #[test]
    fn random_write_churn_triggers_group_gc_and_trains_models() {
        let mut f = LearnedFtl::new(
            SsdConfig::tiny(),
            LearnedFtlConfig::default().with_cmt_ratio(0.0),
        );
        let span = f.logical_pages();
        // Randomly placed 64-page writes (a scaled version of the paper's
        // 512 KiB warm-up I/Os): sequential initialisation covers each run and
        // group GC retrains whole entries when rows fill up.
        let slots = span / 64;
        let mut t = SimTime::ZERO;
        let mut l = 1u64;
        for _ in 0..(span * 3 / 64) {
            l = (l
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % slots;
            t = f.write(l * 64, 64, t);
        }
        let s = f.stats();
        assert!(s.gc_count > 0, "churn must trigger group GC");
        assert!(s.models_trained > 0, "GC must train models");
        assert!(
            f.model_coverage() > 0.3,
            "GC training must cover a sizeable fraction, got {}",
            f.model_coverage()
        );
        // Consistency: every mapped LPN's page carries that LPN in its OOB.
        for lpn in (0..span).step_by(61) {
            if let Some(ppn) = f.core.mapping.get(lpn) {
                assert_eq!(f.core.dev.oob(ppn).unwrap().lpn, Some(lpn));
            }
        }
        // And every trusted model prediction matches the mapping table.
        for lpn in 0..span {
            let e = f.core.entry_of_lpn(lpn);
            if let Some(vppn) = f.models[e].predict(lpn) {
                let ppn = vppn_to_ppn(vppn, f.core.dev.geometry());
                assert_eq!(Some(ppn), f.core.mapping.get(lpn), "lpn {lpn}");
            }
        }
    }

    #[test]
    fn single_page_churn_keeps_trusted_predictions_exact() {
        // Single-page writes make allocate_slot run group GCs in the middle of
        // a write: the GC retrains the group's models from the LPN's *old*
        // copy (still mapped at that point) and trusts it again, after which
        // the write maps the LPN elsewhere. The write must withdraw the
        // model's trust after that GC, not before it.
        let mut f = LearnedFtl::new(
            SsdConfig::tiny(),
            LearnedFtlConfig::default().with_cmt_ratio(0.0),
        );
        let span = f.logical_pages();
        let mut t = SimTime::ZERO;
        let mut l = 1u64;
        for _ in 0..4 * span {
            l = (l
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % span;
            t = f.write(l, 1, t);
        }
        assert!(f.stats().gc_count > 0, "churn must trigger group GC");
        for lpn in 0..span {
            let e = f.core.entry_of_lpn(lpn);
            if let Some(vppn) = f.models[e].predict(lpn) {
                let ppn = vppn_to_ppn(vppn, f.core.dev.geometry());
                assert_eq!(Some(ppn), f.core.mapping.get(lpn), "lpn {lpn}");
            }
        }
    }

    #[test]
    fn two_plane_group_gc_never_erases_a_row_that_holds_valid_pages() {
        // A block row spans every plane of every chip. The collector counts
        // the valid pages left in each detached row and recycles a row in the
        // middle of a collection once it has drained; counting the blocks of
        // one plane only would let it erase a row whose other planes still
        // hold valid pages (the device rejects that erase, and the collector
        // treats the rejection as a bug).
        let device = SsdConfig::tiny()
            .with_geometry(ssd_sim::Geometry::new(4, 2, 1, 20, 256, 4096))
            .with_op_ratio(0.4)
            .with_planes(2);
        let mut f = LearnedFtl::new(device, LearnedFtlConfig::default());
        let span = f.logical_pages();
        let mut t = SimTime::ZERO;
        let mut l = 1u64;
        for _ in 0..3 * span {
            l = (l
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % span;
            t = f.write(l, 1, t);
        }
        assert!(f.stats().gc_count > 0, "churn must trigger group GC");
        for lpn in 0..span {
            if let Some(ppn) = f.core.mapping.get(lpn) {
                assert_eq!(f.core.dev.page_state(ppn), Ok(ssd_sim::PageState::Valid));
                assert_eq!(f.core.dev.oob(ppn).unwrap().lpn, Some(lpn));
            }
        }
    }

    #[test]
    fn random_reads_after_churn_mostly_hit_models() {
        let mut f = LearnedFtl::new(
            SsdConfig::tiny(),
            LearnedFtlConfig::default().with_cmt_ratio(0.0),
        );
        let span = f.logical_pages();
        let slots = span / 64;
        let mut t = SimTime::ZERO;
        let mut l = 1u64;
        for _ in 0..(span * 3 / 64) {
            l = (l
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % slots;
            t = f.write(l * 64, 64, t);
        }
        f.reset_stats();
        let mut probe = 7u64;
        for _ in 0..500 {
            probe = (probe
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % span;
            t = f.read(probe, 1, t);
        }
        let s = f.stats();
        assert!(
            s.model_hit_ratio() > 0.3,
            "models must absorb a sizeable share of random reads, got {}",
            s.model_hit_ratio()
        );
    }

    #[test]
    fn ideal_prediction_mode_matches_normal_classification() {
        let run = |ideal: bool| {
            let mut f = LearnedFtl::new(
                SsdConfig::tiny(),
                LearnedFtlConfig::default()
                    .with_cmt_ratio(0.0)
                    .with_ideal_prediction(ideal),
            );
            let t = f.write(0, 64, SimTime::ZERO);
            f.reset_stats();
            let mut t2 = t;
            for l in 0..64 {
                t2 = f.read(l, 1, t2);
            }
            f.stats().model_hits
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn write_amplification_stays_reasonable_under_sequential_writes() {
        let mut f = ftl();
        let span = f.logical_pages();
        let mut t = SimTime::ZERO;
        for _ in 0..2 {
            let mut l = 0;
            while l + 8 <= span {
                t = f.write(l, 8, t);
                l += 8;
            }
        }
        let wa = f.stats().write_amplification();
        assert!(
            (1.0..3.0).contains(&wa),
            "unexpected write amplification {wa}"
        );
    }

    #[test]
    fn blocking_gc_charges_a_fixed_cost_per_trained_model_outside_flash_time() {
        let churned = || {
            let uncharged = LearnedFtlConfig {
                charge_training_time: false,
                ..LearnedFtlConfig::default()
            };
            // Two planes per chip and 256-page blocks: four models per group.
            let device = SsdConfig::tiny()
                .with_geometry(ssd_sim::Geometry::new(2, 2, 2, 16, 256, 4096))
                .with_op_ratio(0.4);
            let mut f = LearnedFtl::new(device, uncharged);
            let span = f.logical_pages();
            let mut t = f.write(0, span as u32, SimTime::ZERO);
            let mut l = 7u64;
            for _ in 0..span / 2 {
                l = (l * 48271) % span;
                t = f.write(l, 1, t);
            }
            (f, t)
        };
        let (mut plain, now) = churned();
        let (mut charged, charged_now) = churned();
        assert_eq!(now, charged_now);
        charged.config.charge_training_time = true;
        let group = plain.alloc.most_invalid_group(&plain.core.dev).unwrap();

        let collect = |f: &mut LearnedFtl| {
            let (trained, flash) = (f.stats().models_trained, f.stats().gc_flash_time);
            let done = f.gc_group(group, now);
            let s = f.stats();
            (done, s.models_trained - trained, s.gc_flash_time - flash)
        };
        let (plain_done, plain_models, plain_flash) = collect(&mut plain);
        let (charged_done, charged_models, charged_flash) = collect(&mut charged);
        assert_eq!(charged_models, 4, "one model per GTD entry of the group");
        assert_eq!(plain_models, charged_models);
        assert_eq!(
            charged_done - plain_done,
            TRAINING_CHARGE_PER_MODEL.saturating_mul(charged_models)
        );
        assert_eq!(plain_flash, charged_flash, "compute is not flash time");
    }

    #[test]
    fn model_memory_matches_paper_budget() {
        let f = ftl();
        // 128 bytes per model (8 pieces * 6 B + 512-bit bitmap).
        let per_model = f.model_memory_bytes() / f.core.gtd.entries();
        assert!(per_model <= 128, "model must fit in 128 B, got {per_model}");
    }
}
