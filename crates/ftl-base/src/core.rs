//! The shared FTL engine: device + mapping table + GTD + translation store.

use std::collections::BTreeSet;

use crate::alloc::{DynamicDataPool, GcMove};
use crate::cmt::PageNodeCmt;
use crate::gc::{GcEngine, GcMode};
use crate::gtd::Gtd;
use crate::mapping::MappingTable;
use crate::partition::BlockPartition;
use crate::request::Lpn;
use crate::stats::FtlStats;
use crate::transpage::TransPageStore;
use ssd_sim::{FlashDevice, OobData, PageState, Ppn, SimTime, SsdConfig};

/// Number of bytes per mapping entry in a translation page (LPN→PPN, 8 B).
pub const MAPPING_ENTRY_BYTES: u32 = 8;

/// How many consecutive mappings [`FtlCore::load_with_prefetch`] caches on a
/// two-level CMT miss, the one that missed included: TPFTL's prefetch, which
/// LearnedFTL inherits.
pub const PREFETCH_LEN: u32 = 64;

/// The pieces every page-level FTL in this workspace shares: the simulated
/// device, the authoritative mapping table, the GTD, the on-flash translation
/// page store and the statistics counters.
///
/// Policy — which mappings are cached, how pages are allocated, when GC runs
/// and whether learned models are consulted — lives in the concrete FTL
/// implementations (`baselines` and `learnedftl` crates). `FtlCore` only
/// provides correct, accounted mechanisms.
#[derive(Debug, Clone)]
pub struct FtlCore {
    /// The simulated flash device.
    pub dev: FlashDevice,
    /// The authoritative LPN→PPN table (the logical content of all
    /// translation pages).
    pub mapping: MappingTable,
    /// The Global Translation Directory.
    pub gtd: Gtd,
    /// The on-flash translation page store.
    pub trans: TransPageStore,
    /// FTL-level statistics.
    pub stats: FtlStats,
    /// The data/translation block partition.
    pub partition: BlockPartition,
    logical_pages: u64,
    gc_mode: GcMode,
    /// The scheduled-GC engine (`Some` exactly in [`GcMode::Scheduled`]).
    engine: Option<GcEngine>,
    /// Collection-unit boundaries recorded while a GC staging window is open
    /// (indices into the staged-op list; see [`FtlCore::note_gc_unit_end`]).
    gc_unit_bounds: Vec<usize>,
    /// Whether a per-request host batch is open (scheduled mode only).
    host_batch_open: bool,
    /// The open host batch: command ids of the request's independent
    /// data-page charges, submitted immediately (so they occupy their chips
    /// concurrently, like the blocking path's barrier-issued fan-out) but
    /// awaited only at the end of the request.
    host_batch: Vec<ssd_sched::CmdId>,
    /// The batch [`FtlCore::load_with_prefetch`] hands to the CMT, reused
    /// across misses.
    prefetch: Vec<(u32, Ppn, bool)>,
    /// When the collection in progress last finished a copy off each plane,
    /// by flat plane index (see [`FtlCore::begin_gc_copies`]).
    gc_chain_ends: Vec<SimTime>,
    /// The latest completion of the collection's copies and erases so far.
    gc_latest: SimTime,
}

impl FtlCore {
    /// Creates the shared engine for a device configuration, with blocking
    /// garbage collection ([`GcMode::Blocking`]).
    pub fn new(config: SsdConfig) -> Self {
        Self::with_gc_mode(config, GcMode::Blocking)
    }

    /// Creates the shared engine with an explicit GC execution mode.
    ///
    /// Under [`GcMode::Scheduled`] the core owns an [`GcEngine`] over its
    /// device: GC flash traffic is planned eagerly (state committed, no time
    /// charged) and replayed as `Priority::Gc` commands, while every
    /// host-path flash operation is routed through the same scheduler at
    /// `Priority::Host` so the two classes contend per chip under the
    /// scheduler's starvation-bounded arbitration.
    ///
    /// # Panics
    ///
    /// Panics if the device has more pages than the mapping table's 4-byte
    /// entries can address ([`MappingTable::MAX_DEVICE_PAGES`]) — here, before
    /// any per-page state is allocated, rather than at the first write that
    /// lands beyond the limit.
    pub fn with_gc_mode(config: SsdConfig, gc_mode: GcMode) -> Self {
        let device_pages = config.geometry.total_pages();
        assert!(
            device_pages <= MappingTable::MAX_DEVICE_PAGES,
            "geometry {} has {device_pages} pages; the mapping table's 4-byte entries address at \
             most {}",
            config.geometry,
            MappingTable::MAX_DEVICE_PAGES,
        );
        let mappings_per_page = config.geometry.page_size / MAPPING_ENTRY_BYTES;
        let partition = BlockPartition::for_config(&config, mappings_per_page);
        let logical_pages = config.logical_pages();
        let engine = match gc_mode {
            GcMode::Blocking => None,
            GcMode::Scheduled => Some(GcEngine::new(
                config.geometry,
                ssd_sched::SchedConfig::default().gc_starvation_bound,
            )),
        };
        FtlCore {
            dev: FlashDevice::new(config),
            mapping: MappingTable::new(logical_pages),
            gtd: Gtd::new(logical_pages, mappings_per_page),
            trans: TransPageStore::new(&partition),
            stats: FtlStats::new(),
            partition,
            logical_pages,
            gc_mode,
            engine,
            gc_unit_bounds: Vec::new(),
            host_batch_open: false,
            host_batch: Vec::new(),
            prefetch: Vec::new(),
            gc_chain_ends: Vec::new(),
            gc_latest: SimTime::ZERO,
        }
    }

    /// The GC execution mode this core was built with.
    pub fn gc_mode(&self) -> GcMode {
        self.gc_mode
    }

    /// Whether GC flash traffic is scheduled rather than blocking.
    pub fn gc_is_scheduled(&self) -> bool {
        self.engine.is_some()
    }

    /// Whether host-path flash operations must be routed through the
    /// scheduler (scheduled mode, and not inside a GC staging window).
    fn scheduled_host(&self) -> bool {
        self.engine.is_some() && !self.dev.is_staging()
    }

    /// Ends the open host staging window and charges the recorded operations
    /// through the scheduler at host priority, returning the completion time
    /// of the batch.
    fn charge_host(&mut self, now: SimTime) -> SimTime {
        let ops = self.dev.end_staging();
        let engine = self
            .engine
            .as_mut()
            .expect("host charging requires the scheduled-GC engine");
        let done = engine.run_host_charges(&mut self.dev, &ops, now, &mut self.stats);
        self.dev.recycle_staged(ops);
        done
    }

    /// Ends the open host staging window, submits the recorded operations as
    /// host charges **without waiting** and records their ids in the
    /// request's batch; falls back to the synchronous charge when no batch
    /// is open. Only independent data-page operations take this path: in
    /// blocking mode they all issue at their barrier and overlap across
    /// chips (and with the request's later translation work), so
    /// submit-now/await-at-request-end is the faithful replay — and runs of
    /// same-chip host charges are what actually exercise the scheduler's GC
    /// starvation bound.
    fn charge_host_deferred(&mut self, now: SimTime) -> SimTime {
        if !self.host_batch_open {
            return self.charge_host(now);
        }
        let ops = self.dev.end_staging();
        let engine = self
            .engine
            .as_mut()
            .expect("a host batch only opens in scheduled mode");
        engine.submit_host_async(&ops, now, &mut self.host_batch);
        self.dev.recycle_staged(ops);
        now
    }

    /// Opens a per-request host batch in scheduled mode (no-op otherwise):
    /// until [`FtlCore::finish_host_batch`], independent data-page charges
    /// are submitted fire-and-forget and awaited together at the end of the
    /// request. Dependencies (translation-page reads/writes) still wait
    /// individually — the FTL chains on their completion times.
    pub fn begin_host_batch(&mut self) {
        if self.engine.is_some() && !self.dev.is_staging() {
            self.host_batch_open = true;
        }
    }

    /// Awaits every in-flight charge of the open host batch and closes it,
    /// returning the request's completion time (at least `done`, the latest
    /// time the request's waited operations reached).
    pub fn finish_host_batch(&mut self, done: SimTime) -> SimTime {
        if !std::mem::take(&mut self.host_batch_open) || self.host_batch.is_empty() {
            return done;
        }
        let engine = self
            .engine
            .as_mut()
            .expect("a host batch only opens in scheduled mode");
        let done = engine.await_host(&mut self.dev, &self.host_batch, done, &mut self.stats);
        self.host_batch.clear();
        done
    }

    /// Opens the GC staging window in scheduled mode (no-op when blocking):
    /// between this call and [`FtlCore::finish_background_gc`], every flash
    /// operation commits its state immediately and records its timing for
    /// later replay at GC priority.
    pub fn begin_background_gc(&mut self) {
        if self.engine.is_some() {
            self.dev.begin_staging();
            self.gc_unit_bounds.clear();
        }
    }

    /// Closes the GC staging window and submits the staged flash work as a
    /// background [`crate::GcJob`] (no-op when blocking). Returns the
    /// caller's new barrier time: `blocking_done` under blocking GC, `now`
    /// under scheduled GC — the collection no longer blocks the host.
    pub fn finish_background_gc(&mut self, now: SimTime, blocking_done: SimTime) -> SimTime {
        if self.engine.is_none() {
            return blocking_done;
        }
        let ops = self.dev.end_staging();
        let engine = self.engine.as_mut().expect("checked above");
        engine.submit_job(&mut self.dev, &ops, &self.gc_unit_bounds, now);
        self.dev.recycle_staged(ops);
        now
    }

    /// Records how one logical page read was resolved: the statistics
    /// counters always, plus a trace instant when tracing is enabled. FTL
    /// read paths call this instead of touching the stats directly so the
    /// translation-path taxonomy (CMT hit/miss, model hit, double/triple
    /// read) lands in the trace stream with its simulated timestamp.
    pub fn note_read_class(&mut self, class: crate::ReadClass, now: SimTime) {
        self.stats.record_read_class(class);
        self.dev.trace_read_class(now, class.into());
    }

    /// Records that one collection unit (a victim block or a group) finished
    /// at `done`: inside a GC staging window the boundary is attached to the
    /// staged command stream (the matching charge's completion becomes the
    /// event); otherwise the event is recorded directly.
    pub fn note_gc_unit_end(&mut self, done: SimTime) {
        if self.dev.is_staging() {
            self.gc_unit_bounds.push(self.dev.staged_len());
        } else {
            self.stats.gc_complete_events.push(done);
        }
    }

    /// Completes every outstanding background-GC flash command and returns
    /// the time the device quiesces.
    pub fn drain_gc(&mut self) -> SimTime {
        // A well-formed request always closed its batch; flush defensively so
        // a drain can never discard deferred host charges.
        let flushed = self.finish_host_batch(SimTime::ZERO);
        match &mut self.engine {
            None => flushed.max(self.dev.drain_time()),
            Some(engine) => {
                let t = engine.drain(&mut self.dev, &mut self.stats);
                t.max(flushed).max(self.dev.drain_time())
            }
        }
    }

    /// Number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Number of mappings per translation page.
    pub fn mappings_per_page(&self) -> u32 {
        self.gtd.mappings_per_page()
    }

    /// The GTD entry (translation page number) responsible for `lpn`.
    pub fn entry_of_lpn(&self, lpn: Lpn) -> usize {
        self.gtd.entry_of_lpn(lpn)
    }

    /// The offset of `lpn` within its translation page.
    pub fn offset_of_lpn(&self, lpn: Lpn) -> u32 {
        self.gtd.offset_of_lpn(lpn)
    }

    /// Reads the data page at `ppn`, charging the flash read. Returns the
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics if the page is not readable (free or out of range); callers
    /// only pass PPNs obtained from the mapping table.
    pub fn read_data(&mut self, ppn: Ppn, now: SimTime) -> SimTime {
        if self.scheduled_host() {
            self.dev.begin_staging();
            let _ = self
                .dev
                .read_page(ppn, now)
                .expect("mapped data page must be readable");
            return self.charge_host_deferred(now);
        }
        self.dev
            .read_page(ppn, now)
            .expect("mapped data page must be readable")
    }

    /// Reads the translation page covering GTD entry `tpn`. Returns the
    /// completion time (equal to `now` if the page was never written).
    pub fn read_translation(&mut self, tpn: usize, now: SimTime) -> SimTime {
        if self.scheduled_host() {
            // A translation read is a dependency for whatever follows it:
            // wait for it (any in-flight data charges keep their chips busy
            // meanwhile, exactly like the blocking path's overlap).
            self.dev.begin_staging();
            let _ = self
                .trans
                .read_page(tpn, &self.gtd, &mut self.dev, &mut self.stats, now);
            return self.charge_host(now);
        }
        self.trans
            .read_page(tpn, &self.gtd, &mut self.dev, &mut self.stats, now)
    }

    /// Writes a fresh copy of the translation page covering GTD entry `tpn`.
    /// Returns the completion time.
    pub fn write_translation(&mut self, tpn: usize, now: SimTime) -> SimTime {
        if self.scheduled_host() {
            // See read_translation: dependencies wait, in-flight data
            // charges overlap.
            self.dev.begin_staging();
            let _ = self
                .trans
                .write_page(tpn, &mut self.gtd, &mut self.dev, &mut self.stats, now);
            return self.charge_host(now);
        }
        self.trans
            .write_page(tpn, &mut self.gtd, &mut self.dev, &mut self.stats, now)
    }

    /// Performs a read-modify-write of every translation page in `entries`
    /// (one flash read plus one flash program each), as DFTL-style FTLs do
    /// when flushing dirty mappings or after GC. Returns the completion time.
    pub fn flush_translation_entries(
        &mut self,
        entries: &BTreeSet<usize>,
        now: SimTime,
    ) -> SimTime {
        let mut t = now;
        for &tpn in entries {
            let read_done = self.read_translation(tpn, t);
            t = self.write_translation(tpn, read_done);
        }
        t
    }

    /// Serves a miss in a two-level CMT (TPFTL's, which LearnedFTL keeps):
    /// reads the translation page of `lpn`, caches its mapping plus those of
    /// up to [`PREFETCH_LEN`]` − 1` following LPNs of the same translation
    /// page as clean entries, and writes back the nodes this evicted. Returns
    /// the time the mapping is available and the write-backs are done.
    pub fn load_with_prefetch(&mut self, cmt: &mut PageNodeCmt, lpn: Lpn, now: SimTime) -> SimTime {
        let tpn = self.entry_of_lpn(lpn);
        let t_trans = self.read_translation(tpn, now);
        let (range_start, range_end) = self.gtd.lpn_range(tpn);
        let end_lpn = (lpn + u64::from(PREFETCH_LEN)).min(range_end);
        self.prefetch.clear();
        let run = self.mapping.range(lpn, end_lpn);
        self.prefetch
            .extend(run.map(|(l, ppn)| ((l - range_start) as u32, ppn, false)));
        let evicted = cmt.insert_batch(tpn, &self.prefetch);
        self.write_back_nodes(evicted, t_trans)
    }

    /// Records that a host write placed `lpn` at `ppn` in a two-level CMT:
    /// dirties the cached mapping, or inserts a dirty one and writes back the
    /// nodes that evicted. Returns the time the write-backs are done (`now`
    /// if there were none).
    pub fn cache_written_mapping(
        &mut self,
        cmt: &mut PageNodeCmt,
        lpn: Lpn,
        ppn: Ppn,
        now: SimTime,
    ) -> SimTime {
        let (tpn, offset) = (self.entry_of_lpn(lpn), self.offset_of_lpn(lpn));
        if cmt.update_if_cached(tpn, offset, ppn) {
            return now;
        }
        let evicted = cmt.insert_batch(tpn, &[(offset, ppn, true)]);
        self.write_back_nodes(evicted, now)
    }

    /// Writes back evicted CMT nodes that held dirty mappings: one
    /// read-modify-write of each node's translation page, one after another.
    fn write_back_nodes(&mut self, tpns: &[usize], now: SimTime) -> SimTime {
        let mut t = now;
        for &tpn in tpns {
            let read_done = self.read_translation(tpn, t);
            t = self.write_translation(tpn, read_done);
        }
        t
    }

    /// Programs host data for `lpn` into the already-allocated page `ppn`,
    /// invalidating the previous location and updating the mapping table.
    /// Returns the completion time.
    ///
    /// The caller is responsible for having allocated `ppn` from a data block
    /// pool. Host-page accounting (`host_write_pages`) is also the caller's
    /// job; this method counts the physical program (`data_page_writes`).
    ///
    /// # Panics
    ///
    /// Panics if the page cannot be programmed (allocation bug).
    pub fn program_data(&mut self, lpn: Lpn, ppn: Ppn, now: SimTime) -> SimTime {
        let done = if self.scheduled_host() {
            self.dev.begin_staging();
            let _ = self
                .dev
                .program_page(ppn, OobData::mapped(lpn), now)
                .expect("allocated data page must be programmable");
            self.charge_host_deferred(now)
        } else {
            self.dev
                .program_page(ppn, OobData::mapped(lpn), now)
                .expect("allocated data page must be programmable")
        };
        if let Some(old) = self.mapping.update(lpn, ppn) {
            self.dev
                .invalidate_page(old)
                .expect("previous mapping must point to an existing page");
        }
        self.stats.data_page_writes += 1;
        done
    }

    /// Programs host data for several logical pages as one **multi-plane**
    /// group: the caller obtained the PPNs from a plane-aligned stripe
    /// (e.g. [`DynamicDataPool::allocate_stripe`]), so the device executes
    /// every page's NAND phase in a single slot. Mapping updates and
    /// invalidations are applied per page exactly as
    /// [`FtlCore::program_data`] would. Returns the completion time of the
    /// shared program slot.
    ///
    /// A single-element batch is exactly `program_data` — including its
    /// timing — so plane-unaware geometries are unaffected by callers
    /// switching to this entry point.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, if the group is not plane-aligned, or if
    /// any page cannot be programmed (allocation bug).
    pub fn program_data_multi(&mut self, writes: &[(Lpn, Ppn)], now: SimTime) -> SimTime {
        assert!(!writes.is_empty(), "program_data_multi needs pages");
        if writes.len() == 1 {
            let (lpn, ppn) = writes[0];
            return self.program_data(lpn, ppn, now);
        }
        let pairs: Vec<(Ppn, OobData)> = writes
            .iter()
            .map(|&(lpn, ppn)| (ppn, OobData::mapped(lpn)))
            .collect();
        let done = if self.scheduled_host() {
            self.dev.begin_staging();
            let _ = self
                .dev
                .program_pages(&pairs, now)
                .expect("allocated stripe must be programmable");
            self.charge_host_deferred(now)
        } else {
            self.dev
                .program_pages(&pairs, now)
                .expect("allocated stripe must be programmable")
        };
        for &(lpn, ppn) in writes {
            if let Some(old) = self.mapping.update(lpn, ppn) {
                self.dev
                    .invalidate_page(old)
                    .expect("previous mapping must point to an existing page");
            }
            self.stats.data_page_writes += 1;
        }
        done
    }

    /// Starts a collection's copy chains at `now`, one per source plane:
    /// until the next call, each [`FtlCore::relocate_data`] issues its read
    /// when the previous copy off the same plane has finished, and each
    /// [`FtlCore::erase_collected`] counts towards
    /// [`FtlCore::gc_latest_completion`].
    pub fn begin_gc_copies(&mut self, now: SimTime) {
        let planes = self.dev.geometry().total_planes() as usize;
        self.gc_chain_ends.clear();
        self.gc_chain_ends.resize(planes, now);
        self.gc_latest = now;
    }

    /// The latest completion of the current collection's copies and erases
    /// so far (its start time before any).
    pub fn gc_latest_completion(&self) -> SimTime {
        self.gc_latest
    }

    /// Relocates a valid data page during GC: reads it when the previous copy
    /// off its plane has finished, programs it at `new_ppn` once read,
    /// invalidates the old copy and updates the mapping table.
    ///
    /// # Panics
    ///
    /// Panics if this core never started a collection
    /// ([`FtlCore::begin_gc_copies`]).
    pub fn relocate_data(&mut self, lpn: Lpn, old_ppn: Ppn, new_ppn: Ppn) {
        let plane = self.dev.plane_of_ppn(old_ppn);
        let read_done = self
            .dev
            .read_page(old_ppn, self.gc_chain_ends[plane])
            .expect("valid page must be readable");
        self.stats.gc_page_reads += 1;
        let done = self
            .dev
            .program_page(new_ppn, OobData::mapped(lpn), read_done)
            .expect("GC destination page must be programmable");
        self.dev
            .invalidate_page(old_ppn)
            .expect("old page must exist");
        self.mapping.update(lpn, new_ppn);
        self.stats.gc_page_writes += 1;
        self.gc_chain_ends[plane] = done;
        self.gc_latest = self.gc_latest.max(done);
    }

    /// Erases a collected block at `issue`, counts it in `blocks_erased` and
    /// returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds a valid page.
    pub fn erase_collected(&mut self, block: u64, issue: SimTime) -> SimTime {
        let done = self
            .dev
            .erase_block(block, issue)
            .expect("a collected block holds no valid page");
        self.stats.blocks_erased += 1;
        self.gc_latest = self.gc_latest.max(done);
        done
    }
}

/// The result of collecting one victim block with the greedy GC policy.
#[derive(Debug, Clone)]
pub struct GcOutcome {
    /// Every page relocation performed.
    pub moves: Vec<GcMove>,
    /// The GTD entries whose mappings changed (the caller decides whether and
    /// when to flush them to translation pages).
    pub dirty_entries: BTreeSet<usize>,
    /// Simulated completion time of the whole collection.
    pub done: SimTime,
    /// The victim block that was erased.
    pub victim: u64,
}

/// Runs one round of greedy garbage collection over a [`DynamicDataPool`]:
/// picks the used block with the fewest valid pages, relocates its valid
/// pages to freshly allocated pages, erases it and returns it to the pool.
///
/// Returns `None` if there is no used block to collect.
pub fn run_greedy_gc(
    core: &mut FtlCore,
    pool: &mut DynamicDataPool,
    now: SimTime,
) -> Option<GcOutcome> {
    let victim = pool.pick_victim(&core.dev)?;
    let block = core
        .dev
        .block_info(victim)
        .expect("the pool only tracks blocks of its device");
    // Refuse to start a collection that could not finish: relocating the
    // victim's valid pages needs at least that many free page slots elsewhere.
    let victim_valid = block.valid_pages();
    if pool.free_page_count() < u64::from(victim_valid) + 1 {
        return None;
    }
    core.stats.record_gc(now);
    // The pages to move, read off the victim in one pass before any of them
    // moves: a relocation invalidates its own page and no other of the block.
    // Each move's destination is allocated when its turn comes, below.
    let first = core.dev.first_ppn_of_flat_block(victim);
    let mut moves = Vec::with_capacity(victim_valid as usize);
    for page in (0..block.page_count()).filter(|&p| block.page_state(p) == PageState::Valid) {
        let old_ppn = first + u64::from(page);
        let lpn = core
            .dev
            .oob(old_ppn)
            .expect("ppn in range")
            .lpn
            .expect("valid data page must carry its LPN in OOB");
        moves.push(GcMove {
            lpn,
            old_ppn,
            new_ppn: old_ppn,
        });
    }
    // The victim is one block on one plane, so its copies form one chain.
    let mut dirty_entries = BTreeSet::new();
    core.begin_gc_copies(now);
    for mv in &mut moves {
        mv.new_ppn = pool
            .allocate(&core.dev)
            .expect("GC must have headroom to relocate valid pages");
        core.relocate_data(mv.lpn, mv.old_ppn, mv.new_ppn);
        dirty_entries.insert(core.entry_of_lpn(mv.lpn));
    }
    let erased = core.erase_collected(victim, core.gc_latest_completion());
    pool.release_block(victim);
    core.stats.gc_flash_time += erased - now;
    Some(GcOutcome {
        moves,
        dirty_entries,
        done: erased,
        victim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_and_pool() -> (FtlCore, DynamicDataPool) {
        let cfg = SsdConfig::tiny();
        let core = FtlCore::new(cfg);
        let pool = DynamicDataPool::new(&core.partition, cfg.geometry.pages_per_block, 2);
        (core, pool)
    }

    #[test]
    #[should_panic(expected = "4-byte entries address at most 4294967295")]
    fn a_device_beyond_the_mapping_entries_is_refused_up_front() {
        // 2³² pages: one more than the entries address. Building it would
        // take tens of gigabytes of per-page state; the check comes first.
        let cfg = SsdConfig {
            geometry: ssd_sim::Geometry::new(64, 64, 1, 2048, 512, 4096),
            ..SsdConfig::tiny()
        };
        assert_eq!(cfg.geometry.total_pages(), 1 << 32);
        FtlCore::new(cfg);
    }

    #[test]
    fn program_data_updates_mapping_and_invalidates_old() {
        let (mut core, mut pool) = core_and_pool();
        let p1 = pool.allocate(&core.dev).unwrap();
        core.program_data(7, p1, SimTime::ZERO);
        assert_eq!(core.mapping.get(7), Some(p1));
        let p2 = pool.allocate(&core.dev).unwrap();
        core.program_data(7, p2, SimTime::ZERO);
        assert_eq!(core.mapping.get(7), Some(p2));
        assert_eq!(core.dev.page_state(p1).unwrap(), PageState::Invalid);
        assert_eq!(core.stats.data_page_writes, 2);
    }

    #[test]
    fn translation_round_trip_counts() {
        let (mut core, _) = core_and_pool();
        let t = core.write_translation(0, SimTime::ZERO);
        assert!(t > SimTime::ZERO);
        let t2 = core.read_translation(0, t);
        assert!(t2 > t);
        assert_eq!(core.stats.translation_writes, 1);
        assert_eq!(core.stats.translation_reads, 1);
    }

    #[test]
    fn flush_translation_entries_rmw_each_entry() {
        let (mut core, _) = core_and_pool();
        // Seed entries 0 and 1 so the flush has something to read.
        core.write_translation(0, SimTime::ZERO);
        core.write_translation(1, SimTime::ZERO);
        let before_reads = core.stats.translation_reads;
        let before_writes = core.stats.translation_writes;
        let entries: BTreeSet<usize> = [0usize, 1].into_iter().collect();
        core.flush_translation_entries(&entries, SimTime::ZERO);
        assert_eq!(core.stats.translation_reads - before_reads, 2);
        assert_eq!(core.stats.translation_writes - before_writes, 2);
    }

    #[test]
    fn greedy_gc_relocates_and_frees_a_block() {
        let (mut core, mut pool) = core_and_pool();
        let ppb = core.dev.geometry().pages_per_block as u64;
        // Write enough pages to fill several blocks, overwriting half the
        // LPNs so invalid pages accumulate.
        let lpns = ppb * 4;
        let mut t = SimTime::ZERO;
        for round in 0..3u64 {
            for lpn in 0..lpns {
                if round > 0 && lpn % 2 == 0 {
                    continue;
                }
                let ppn = pool.allocate(&core.dev).expect("space available");
                t = core.program_data(lpn, ppn, t);
            }
        }
        let free_before = pool.free_block_count();
        let outcome = run_greedy_gc(&mut core, &mut pool, t).expect("victim exists");
        assert!(
            pool.free_block_count() >= free_before,
            "block returned to pool"
        );
        assert_eq!(core.stats.gc_count, 1);
        assert!(core.stats.blocks_erased >= 1);
        // Every relocated LPN still maps to a valid page holding it.
        for mv in &outcome.moves {
            assert_eq!(core.mapping.get(mv.lpn), Some(mv.new_ppn));
            assert_eq!(core.dev.page_state(mv.new_ppn).unwrap(), PageState::Valid);
            assert_eq!(core.dev.oob(mv.new_ppn).unwrap().lpn, Some(mv.lpn));
        }
        // The victim block is erased.
        let first = core.dev.first_ppn_of_flat_block(outcome.victim);
        assert_eq!(core.dev.page_state(first).unwrap(), PageState::Free);
    }

    #[test]
    fn greedy_gc_without_used_blocks_is_none() {
        let (mut core, mut pool) = core_and_pool();
        assert!(run_greedy_gc(&mut core, &mut pool, SimTime::ZERO).is_none());
    }
}
