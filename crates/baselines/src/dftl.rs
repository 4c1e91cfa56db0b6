//! DFTL: demand-based page-level FTL with an entry-granular mapping cache.

use ftl_base::{DynamicDataPool, EntryCmt, Ftl, FtlCore, FtlStats, GcMode, Lpn, ReadClass};
use ssd_sim::{FlashDevice, SimTime, SsdConfig};

use crate::config::BaselineConfig;
use crate::util::gc_until_headroom;

/// DFTL (Gupta et al., ASPLOS'09).
///
/// The full mapping table lives in flash translation pages; a small LRU cache
/// (the CMT, 3 % of all mappings by default) holds the hot entries. A read
/// whose mapping misses the CMT first reads the translation page — the
/// *double read* the paper sets out to eliminate. Dirty mappings evicted from
/// the CMT are written back with a read-modify-write of their translation
/// page, batched with every other dirty mapping of the same page.
#[derive(Debug, Clone)]
pub struct Dftl {
    core: FtlCore,
    pool: DynamicDataPool,
    cmt: EntryCmt,
}

impl Dftl {
    /// Creates a DFTL instance over a fresh device.
    pub fn new(config: SsdConfig, baseline: BaselineConfig) -> Self {
        let core = FtlCore::with_gc_mode(config, baseline.gc_mode);
        let pool = DynamicDataPool::new(
            &core.partition,
            config.geometry.pages_per_block,
            baseline.effective_gc_watermark(config.geometry.total_chips()),
        );
        let cmt = EntryCmt::new(baseline.cmt_entries(core.logical_pages()));
        Dftl { core, pool, cmt }
    }

    /// Current number of cached mappings (exposed for tests and experiments).
    pub fn cached_mappings(&self) -> usize {
        self.cmt.len()
    }

    fn collect_garbage(&mut self, now: SimTime) -> SimTime {
        let cmt = &mut self.cmt;
        // Under scheduled GC the collection is planned inside a staging
        // window (state commits, flash time becomes a background GcJob) and
        // the host barrier stays at `now`; under blocking GC the window is a
        // no-op and the barrier advances to the collection's end.
        self.core.begin_background_gc();
        let done = gc_until_headroom(&mut self.core, &mut self.pool, now, |core, outcome, t| {
            // Keep cached copies of moved mappings coherent, then persist the
            // affected translation pages.
            for mv in &outcome.moves {
                cmt.refresh_if_cached(mv.lpn, mv.new_ppn);
            }
            core.flush_translation_entries(&outcome.dirty_entries, t)
        });
        self.core.finish_background_gc(now, done)
    }

    /// Handles an eviction from the CMT: if the evicted mapping is dirty, all
    /// dirty mappings of the same translation page are flushed together with
    /// one read-modify-write. Returns the time the write-back completes.
    fn handle_eviction(
        &mut self,
        evicted: Option<(Lpn, ftl_base::CmtEntry)>,
        now: SimTime,
    ) -> SimTime {
        let Some((lpn, entry)) = evicted else {
            return now;
        };
        if !entry.dirty {
            return now;
        }
        let tpn = self.core.entry_of_lpn(lpn);
        let (start, end) = self.core.gtd.lpn_range(tpn);
        // The evicted entry itself is already out of the cache; its mapping is
        // in the authoritative table. Flush the peers that are still cached.
        self.cmt.clean_dirty_in_range(start, end);
        let read_done = self.core.read_translation(tpn, now);
        self.core.write_translation(tpn, read_done)
    }
}

impl Ftl for Dftl {
    fn name(&self) -> &'static str {
        "DFTL"
    }

    fn read(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.core.begin_host_batch();
        let mut done = now;
        for l in lpn..lpn + u64::from(pages) {
            if l >= self.core.logical_pages() {
                break;
            }
            self.core.stats.host_read_pages += 1;
            let Some(ppn) = self.core.mapping.get(l) else {
                self.core.stats.unmapped_reads += 1;
                continue;
            };
            if let Some(cached) = self.cmt.lookup(l) {
                self.core.note_read_class(ReadClass::CmtHit, now);
                let t = self.core.read_data(cached, now);
                done = done.max(t);
                continue;
            }
            // Double read: fetch the translation page, then the data.
            self.core.note_read_class(ReadClass::DoubleRead, now);
            let tpn = self.core.entry_of_lpn(l);
            let t_trans = self.core.read_translation(tpn, now);
            let evicted = self.cmt.insert_clean(l, ppn);
            let t_evict = self.handle_eviction(evicted, t_trans);
            let t = self.core.read_data(ppn, t_evict);
            done = done.max(t);
        }
        self.core.finish_host_batch(done)
    }

    fn write(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.core.begin_host_batch();
        let mut barrier = now;
        let mut done = now;
        let end = (lpn + u64::from(pages)).min(self.core.logical_pages());
        let mut l = lpn;
        while l < end {
            barrier = self.collect_garbage(barrier);
            // One plane-aligned stripe per round: on multi-plane geometries
            // consecutive pages program as a single multi-plane group; with
            // one plane per chip the stripe is a single page and the loop is
            // the historical per-page path.
            let stripe = self
                .pool
                .allocate_stripe(&self.core.dev, (end - l) as usize)
                .expect("GC must leave allocatable space");
            let writes: Vec<(Lpn, ssd_sim::Ppn)> = stripe
                .iter()
                .enumerate()
                .map(|(i, &ppn)| (l + i as u64, ppn))
                .collect();
            self.core.stats.host_write_pages += writes.len() as u64;
            let t_write = self.core.program_data_multi(&writes, barrier);
            // Keep the cached mappings coherent; a miss inserts a dirty entry
            // (lazy write-back, charged at eviction time).
            for &(wl, ppn) in &writes {
                if !self.cmt.update_if_cached(wl, ppn) {
                    let evicted = self.cmt.insert_dirty(wl, ppn);
                    barrier = self.handle_eviction(evicted, barrier);
                }
            }
            done = done.max(t_write).max(barrier);
            l += writes.len() as u64;
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

    fn ftl() -> Dftl {
        Dftl::new(
            SsdConfig::tiny(),
            BaselineConfig::default().with_gc_watermark(2),
        )
    }

    #[test]
    fn cold_read_is_double_warm_read_is_single() {
        let mut f = ftl();
        let t = f.write(0, 1, SimTime::ZERO);
        // Drop the cached (dirty) mapping by filling the CMT is fiddly; read a
        // fresh instance instead: first read after the write hits the CMT
        // because the write inserted the mapping.
        let t = f.read(0, 1, t);
        assert_eq!(f.stats().cmt_hits, 1);

        // Now force a miss: write a second FTL, populate mapping through the
        // write path, then clear the CMT by creating a tiny-CMT FTL.
        let mut small = Dftl::new(
            SsdConfig::tiny(),
            BaselineConfig::default()
                .with_cmt_ratio(0.001)
                .with_gc_watermark(2),
        );
        let mut t2 = small.write(0, 1, SimTime::ZERO);
        // Overflow the small CMT so LPN 0 is evicted.
        for i in 1..64u64 {
            t2 = small.write(i * 17, 1, t2);
        }
        let _ = small.read(0, 1, t2);
        assert!(
            small.stats().double_reads >= 1,
            "evicted mapping must double-read"
        );
        let _ = t;
    }

    #[test]
    fn double_read_charges_translation_read() {
        let mut f = Dftl::new(
            SsdConfig::tiny(),
            BaselineConfig::default()
                .with_cmt_ratio(0.001)
                .with_gc_watermark(2),
        );
        let mut t = SimTime::ZERO;
        for l in 0..64 {
            t = f.write(l, 1, t);
        }
        let reads_before = f.stats().translation_reads;
        let _ = f.read(0, 1, t);
        assert!(f.stats().translation_reads > reads_before);
    }

    #[test]
    fn dirty_eviction_writes_translation_page() {
        let mut f = Dftl::new(
            SsdConfig::tiny(),
            BaselineConfig::default()
                .with_cmt_ratio(0.001)
                .with_gc_watermark(2),
        );
        let mut t = SimTime::ZERO;
        // Write far more distinct LPNs than the CMT can hold: dirty entries
        // get evicted and must be persisted.
        for l in 0..200 {
            t = f.write(l * 3, 1, t);
        }
        assert!(f.stats().translation_writes > 0);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_stay_consistent() {
        let mut f = ftl();
        let span = f.logical_pages() / 2;
        let mut t = SimTime::ZERO;
        for _round in 0..4 {
            let mut l = 0;
            while l < span {
                t = f.write(l, 4, t);
                l += 4;
            }
        }
        assert!(f.stats().gc_count > 0);
        // Every written LPN is still readable and maps to a valid page.
        for l in (0..span).step_by(97) {
            let ppn = f.core.mapping.get(l).expect("written lpn must be mapped");
            assert_eq!(
                f.core.dev.oob(ppn).unwrap().lpn,
                Some(l),
                "mapping must point at the page holding the LPN"
            );
        }
        assert!(f.stats().write_amplification() >= 1.0);
    }

    #[test]
    fn read_only_workload_never_writes_flash() {
        let mut f = ftl();
        let t = f.write(0, 16, SimTime::ZERO);
        let programs_before = f.device().stats().programs;
        let mut t2 = t;
        for _ in 0..10 {
            t2 = f.read(0, 16, t2);
        }
        // Reads may write translation pages only via dirty evictions, which
        // cannot happen in a read-only phase after the CMT settles.
        assert!(f.device().stats().programs <= programs_before + 1);
    }
}
