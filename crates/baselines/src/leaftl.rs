//! LeaFTL: a purely learned-index address mapping (Sun et al., ASPLOS'23).

use std::collections::BTreeSet;

use ftl_base::{DynamicDataPool, Ftl, FtlCore, FtlStats, GcMode, Lpn, LruCache, ReadClass};
use learned_index::{GreedyPlr, LogStructuredSegments, Point};
use ssd_sim::{ppn_to_vppn, vppn_to_ppn, FlashDevice, PageState, SimTime, SsdConfig};

use crate::config::BaselineConfig;
use crate::util::gc_until_headroom;

/// The error bound γ of LeaFTL's learned segments (paper setup, Section
/// IV-A).
const GAMMA: f64 = 4.0;

/// The LeaFTL baseline.
///
/// LeaFTL replaces the mapping cache with learned segments:
///
/// * host writes are absorbed by a **data buffer** (2048 pages by default);
///   when it fills, the buffered pages are sorted by LPN and written out,
/// * the resulting LPN→VPPN mappings are fitted with γ-bounded piecewise
///   linear segments, grouped per translation page, and appended to a
///   **log-structured segment table** stored in the translation pages,
/// * a **model cache** holds the segment groups of recently used translation
///   pages; a miss costs a translation read,
/// * because segments are approximate, a prediction can point at the wrong
///   physical page; the error is detected from the page's OOB area and fixed
///   with one more flash read.
///
/// The combination produces the double- and triple-read behaviour the
/// LearnedFTL paper analyses in its Section II-D (Fig. 5 and Fig. 6).
#[derive(Debug, Clone)]
pub struct LeaFtl {
    core: FtlCore,
    pool: DynamicDataPool,
    /// Buffered (not yet flushed) logical pages, in LPN order.
    buffer: BTreeSet<Lpn>,
    buffer_capacity: usize,
    /// Authoritative learned segments per translation page (flash content).
    segments: Vec<LogStructuredSegments>,
    /// Which translation pages' segment groups are currently cached in DRAM,
    /// and how many segments each group cost when it was loaded.
    model_cache: LruCache<usize, usize>,
    cache_budget_segments: usize,
    cached_cost: usize,
}

impl LeaFtl {
    /// Creates a LeaFTL instance over a fresh device.
    pub fn new(config: SsdConfig, baseline: BaselineConfig) -> Self {
        let core = FtlCore::with_gc_mode(config, baseline.gc_mode);
        let pool = DynamicDataPool::new(
            &core.partition,
            config.geometry.pages_per_block,
            baseline.effective_gc_watermark(config.geometry.total_chips()),
        );
        let entries = core.gtd.entries();
        let cache_budget = baseline.cmt_entries(core.logical_pages()).max(1);
        // Keep the buffer well below the device size so tiny test devices work.
        let buffer_capacity = baseline
            .buffer_pages
            .min((core.logical_pages() / 16).max(1) as usize)
            .max(1);
        LeaFtl {
            core,
            pool,
            buffer: BTreeSet::new(),
            buffer_capacity,
            segments: vec![LogStructuredSegments::new(); entries],
            model_cache: LruCache::new(entries.max(1)),
            cache_budget_segments: cache_budget,
            cached_cost: 0,
        }
    }

    /// Number of learned segments currently stored across all translation
    /// pages (the paper's space-amplification indicator).
    pub fn total_segments(&self) -> usize {
        self.segments
            .iter()
            .map(LogStructuredSegments::segment_count)
            .sum()
    }

    /// Number of pages currently sitting in the data buffer.
    pub fn buffered_pages(&self) -> usize {
        self.buffer.len()
    }

    fn ensure_cached(&mut self, tpn: usize, now: SimTime) -> (bool, SimTime) {
        if self.model_cache.get(&tpn).is_some() {
            return (true, now);
        }
        let t = self.core.read_translation(tpn, now);
        let cost = self.segments[tpn].segment_count().max(1);
        if let Some((_old_tpn, old_cost)) = self.model_cache.insert(tpn, cost) {
            self.cached_cost -= old_cost;
        }
        self.cached_cost += cost;
        while self.cached_cost > self.cache_budget_segments {
            match self.model_cache.pop_lru() {
                Some((victim, victim_cost)) if victim != tpn => self.cached_cost -= victim_cost,
                Some((victim, victim_cost)) => {
                    // The group we just loaded alone exceeds the budget; keep
                    // it (it is in use right now) and stop evicting.
                    self.model_cache.insert(victim, victim_cost);
                    break;
                }
                None => break,
            }
        }
        (false, t)
    }

    fn flush_buffer(&mut self, now: SimTime) -> SimTime {
        if self.buffer.is_empty() {
            return now;
        }
        let mut lpns: Vec<Lpn> = std::mem::take(&mut self.buffer).into_iter().collect();

        // Make room first.
        let mut barrier = self.collect_garbage(now);
        while self.pool.free_page_count() < lpns.len() as u64 {
            let before = self.pool.free_page_count();
            barrier = self.collect_garbage_forced(barrier);
            if self.pool.free_page_count() <= before {
                break;
            }
        }
        // If the pool still cannot absorb the whole buffer (a nearly full
        // device), flush only what fits — while keeping a small reserve so
        // the next GC round can relocate pages — and keep the rest buffered.
        let reserve = u64::from(self.core.dev.geometry().pages_per_block);
        let capacity = self.pool.free_page_count().saturating_sub(reserve) as usize;
        if capacity < lpns.len() {
            for &lpn in &lpns[capacity..] {
                self.buffer.insert(lpn);
            }
            lpns.truncate(capacity);
            if lpns.is_empty() {
                return barrier;
            }
        }

        // Write the sorted pages out; the dynamic allocator stripes them
        // across chips (and across planes, forming multi-plane program
        // groups), and the VPPN representation makes the resulting placements
        // near-contiguous for model training.
        let mut placements: Vec<(Lpn, u64)> = Vec::with_capacity(lpns.len());
        let mut write_done = barrier;
        let mut idx = 0;
        while idx < lpns.len() {
            let stripe = self
                .pool
                .allocate_stripe(&self.core.dev, lpns.len() - idx)
                .expect("buffer flush must have allocatable space");
            let writes: Vec<(Lpn, u64)> = stripe
                .iter()
                .enumerate()
                .map(|(i, &ppn)| (lpns[idx + i], ppn))
                .collect();
            let t = self.core.program_data_multi(&writes, barrier);
            write_done = write_done.max(t);
            for &(lpn, ppn) in &writes {
                let vppn = ppn_to_vppn(ppn, self.core.dev.geometry());
                placements.push((lpn, vppn));
            }
            idx += writes.len();
        }

        // Train one batch of segments per affected translation page and
        // persist them (one translation-page write per group).
        let mut t = write_done;
        let mut idx = 0;
        while idx < placements.len() {
            let tpn = self.core.entry_of_lpn(placements[idx].0);
            let mut end = idx + 1;
            while end < placements.len() && self.core.entry_of_lpn(placements[end].0) == tpn {
                end += 1;
            }
            let points: Vec<Point> = placements[idx..end]
                .iter()
                .map(|&(lpn, vppn)| Point::new(lpn, vppn))
                .collect();
            let trained = GreedyPlr::new(GAMMA).fit(&points);
            for seg in trained {
                self.segments[tpn].insert(seg);
            }
            if let Some(cost) = self.model_cache.peek_mut(&tpn) {
                let new_cost = self.segments[tpn].segment_count().max(1);
                self.cached_cost = self.cached_cost - *cost + new_cost;
                *cost = new_cost;
            }
            t = self.core.write_translation(tpn, t);
            idx = end;
        }
        t
    }

    fn collect_garbage(&mut self, now: SimTime) -> SimTime {
        if !self.pool.needs_gc() {
            return now;
        }
        self.collect_garbage_forced(now)
    }

    fn collect_garbage_forced(&mut self, now: SimTime) -> SimTime {
        let segments = &mut self.segments;
        let model_cache = &mut self.model_cache;
        let cached_cost = &mut self.cached_cost;
        // See Dftl::collect_garbage: staging window + background job under
        // scheduled GC, plain blocking detour otherwise.
        self.core.begin_background_gc();
        let done = gc_until_headroom(&mut self.core, &mut self.pool, now, |core, outcome, t| {
            // Moved pages invalidate the affected groups' segments: retrain
            // each group from the authoritative mapping table and drop it from
            // the model cache (it must be re-read from flash on next use).
            for &tpn in &outcome.dirty_entries {
                let (start, end) = core.gtd.lpn_range(tpn);
                let geometry = *core.dev.geometry();
                let points: Vec<Point> = core
                    .mapping
                    .range(start, end)
                    .map(|(lpn, ppn)| Point::new(lpn, ppn_to_vppn(ppn, &geometry)))
                    .collect();
                let table = &mut segments[tpn];
                table.clear();
                for seg in GreedyPlr::new(GAMMA).fit(&points) {
                    table.insert(seg);
                }
                if let Some(cost) = model_cache.remove(&tpn) {
                    *cached_cost -= cost;
                }
            }
            core.flush_translation_entries(&outcome.dirty_entries, t)
        });
        self.core.finish_background_gc(now, done)
    }
}

impl Ftl for LeaFtl {
    fn name(&self) -> &'static str {
        "LeaFTL"
    }

    fn read(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.core.begin_host_batch();
        let mut done = now;
        for l in lpn..lpn + u64::from(pages) {
            if l >= self.core.logical_pages() {
                break;
            }
            self.core.stats.host_read_pages += 1;
            if self.buffer.contains(&l) {
                self.core.note_read_class(ReadClass::BufferHit, now);
                continue;
            }
            let Some(true_ppn) = self.core.mapping.get(l) else {
                self.core.stats.unmapped_reads += 1;
                continue;
            };
            let tpn = self.core.entry_of_lpn(l);
            let (was_cached, mut t) = self.ensure_cached(tpn, now);
            let mut extra_reads = u32::from(!was_cached);

            let lookup = self.segments[tpn].lookup(l);
            match lookup {
                Some(hit) => {
                    self.core.stats.model_predictions += 1;
                    let geometry = *self.core.dev.geometry();
                    let clamped = hit.predicted.min(geometry.total_pages() - 1);
                    let predicted_ppn = vppn_to_ppn(clamped, &geometry);
                    if predicted_ppn == true_ppn {
                        // Accurate prediction: go straight to the data.
                        t = self.core.read_data(true_ppn, t);
                    } else {
                        // Misprediction: read the predicted page, discover the
                        // error interval in its OOB, then read the right page.
                        if self.core.dev.page_state(predicted_ppn).ok() == Some(PageState::Valid)
                            || self.core.dev.page_state(predicted_ppn).ok()
                                == Some(PageState::Invalid)
                        {
                            t = self.core.read_data(predicted_ppn, t);
                            extra_reads += 1;
                        }
                        t = self.core.read_data(true_ppn, t);
                    }
                }
                None => {
                    // No segment covers this LPN: fall back to the raw mapping
                    // stored in the translation page.
                    if was_cached {
                        t = self.core.read_translation(tpn, t);
                        extra_reads += 1;
                    }
                    t = self.core.read_data(true_ppn, t);
                }
            }
            let class = match extra_reads {
                0 => ReadClass::ModelHit,
                1 => ReadClass::DoubleRead,
                _ => ReadClass::TripleRead,
            };
            self.core.note_read_class(class, now);
            done = done.max(t);
        }
        self.core.finish_host_batch(done)
    }

    fn write(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.core.begin_host_batch();
        let mut done = now;
        for l in lpn..lpn + u64::from(pages) {
            if l >= self.core.logical_pages() {
                break;
            }
            self.core.stats.host_write_pages += 1;
            self.buffer.insert(l);
            if self.buffer.len() >= self.buffer_capacity {
                done = done.max(self.flush_buffer(now));
            }
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

    fn config() -> BaselineConfig {
        BaselineConfig::default()
            .with_buffer_pages(64)
            .with_gc_watermark(2)
    }

    fn ftl() -> LeaFtl {
        LeaFtl::new(SsdConfig::tiny(), config())
    }

    #[test]
    fn buffered_writes_do_not_touch_flash_until_flush() {
        let mut f = ftl();
        let t = f.write(0, 16, SimTime::ZERO);
        assert_eq!(t, SimTime::ZERO, "buffered writes are absorbed");
        assert_eq!(f.device().stats().programs, 0);
        assert_eq!(f.buffered_pages(), 16);
        // Reads of buffered pages are buffer hits.
        let t = f.read(0, 4, t);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(f.stats().buffer_hits, 4);
    }

    #[test]
    fn flush_trains_segments_and_writes_translation_pages() {
        let mut f = ftl();
        // 64 sequential pages exactly fill the buffer and trigger a flush.
        let t = f.write(0, 64, SimTime::ZERO);
        assert!(t > SimTime::ZERO, "flush must take simulated time");
        assert_eq!(f.buffered_pages(), 0);
        assert!(f.total_segments() >= 1);
        assert!(f.stats().translation_writes >= 1);
        assert!(f.device().stats().programs as usize >= 64);
    }

    #[test]
    fn sequential_data_reads_mostly_hit_the_model() {
        let mut f = ftl();
        let t = f.write(0, 64, SimTime::ZERO);
        f.reset_stats();
        let mut t2 = t;
        for l in 0..64 {
            t2 = f.read(l, 1, t2);
        }
        let s = f.stats();
        // After the first translation read loads the group, sequential
        // predictions over a linear flush are largely accurate.
        assert!(
            s.single_read_ratio() > 0.5,
            "expected mostly single reads, got {}",
            s.single_read_ratio()
        );
        assert_eq!(s.host_read_pages, 64);
    }

    #[test]
    fn scattered_writes_produce_mispredictions_or_worse() {
        let mut f = LeaFtl::new(
            SsdConfig::tiny(),
            config().with_cmt_ratio(0.002), // small model cache
        );
        let span = f.logical_pages();
        // Write scattered single pages (stride defeats linear fitting across
        // flush batches) until several flushes happen.
        let mut t = SimTime::ZERO;
        let mut l = 1u64;
        for _ in 0..512 {
            l = (l
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % span;
            t = f.write(l, 1, t);
        }
        // Flush whatever remains so reads do not hit the buffer.
        t = t.max(f.flush_buffer(t));
        f.reset_stats();
        let mut reads = 0;
        let mut probe = 1u64;
        let mut attempts = 0;
        while reads < 200 && attempts < 100_000 {
            attempts += 1;
            probe = (probe
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % span;
            if f.core.mapping.get(probe).is_some() {
                t = f.read(probe, 1, t);
                reads += 1;
            }
        }
        let s = f.stats();
        assert!(
            s.double_read_ratio() + s.triple_read_ratio() > 0.2,
            "random access must produce double/triple reads, got {} / {}",
            s.double_read_ratio(),
            s.triple_read_ratio()
        );
    }

    #[test]
    fn overwrite_churn_with_gc_stays_consistent() {
        let mut f = ftl();
        let span = f.logical_pages() / 2;
        let mut t = SimTime::ZERO;
        for _ in 0..4 {
            let mut l = 0;
            while l < span {
                t = f.write(l, 8, t);
                l += 8;
            }
        }
        t = t.max(f.flush_buffer(t));
        // Every mapped LPN points at a page whose OOB carries that LPN.
        for l in (0..span).step_by(71) {
            if let Some(ppn) = f.core.mapping.get(l) {
                assert_eq!(f.core.dev.oob(ppn).unwrap().lpn, Some(l));
            }
        }
        assert!(f.stats().write_amplification() >= 1.0);
        let _ = t;
    }

    #[test]
    fn model_cache_miss_costs_a_translation_read() {
        let mut f = ftl();
        let t = f.write(0, 64, SimTime::ZERO);
        f.reset_stats();
        let _ = f.read(0, 1, t);
        assert_eq!(f.stats().translation_reads, 1, "first read loads the group");
        let _ = f.read(1, 1, t);
        assert_eq!(
            f.stats().translation_reads,
            1,
            "second read reuses the cache"
        );
    }
}
