//! FTL-level statistics: hit ratios, multi-read breakdown, GC and WA accounting.

use crate::request::ReadClass;
use ssd_sim::{Duration, SimTime};

/// Counters maintained by every FTL implementation.
///
/// These feed directly into the paper's figures: the CMT/model hit ratios
/// (Fig. 14b, 19b), the single/double/triple read breakdown (Fig. 6b), write
/// amplification (Fig. 14c), GC frequency (Fig. 16) and the training/sorting
/// overhead (Fig. 15, 17, 18).
#[derive(Debug, Clone, Default)]
pub struct FtlStats {
    /// Logical pages read by the host.
    pub host_read_pages: u64,
    /// Logical pages written by the host.
    pub host_write_pages: u64,
    /// Host read pages whose mapping was found in the CMT.
    pub cmt_hits: u64,
    /// Host read pages whose mapping was *not* found in the CMT.
    pub cmt_misses: u64,
    /// Host read pages served by a learned-model prediction (single read).
    pub model_hits: u64,
    /// Host read pages served from an in-memory write buffer.
    pub buffer_hits: u64,
    /// Host read pages that targeted a never-written LPN (served without any
    /// flash access; the device returns an unwritten-pattern page).
    pub unmapped_reads: u64,
    /// Host read pages served with exactly one flash read.
    pub single_reads: u64,
    /// Host read pages that needed two flash reads.
    pub double_reads: u64,
    /// Host read pages that needed three flash reads.
    pub triple_reads: u64,
    /// Data pages programmed on behalf of the host.
    pub data_page_writes: u64,
    /// Data pages programmed by garbage collection (relocations).
    pub gc_page_writes: u64,
    /// Data pages read by garbage collection.
    pub gc_page_reads: u64,
    /// Translation pages programmed.
    pub translation_writes: u64,
    /// Translation pages read.
    pub translation_reads: u64,
    /// Number of garbage-collection invocations.
    pub gc_count: u64,
    /// Blocks erased.
    pub blocks_erased: u64,
    /// Simulated times at which each GC was triggered (for Fig. 16).
    pub gc_events: Vec<SimTime>,
    /// Simulated times at which each collection unit's flash work finished:
    /// the erase's completion as observed by the I/O scheduler under
    /// scheduled GC, or the end of the blocking detour otherwise. Together
    /// with [`FtlStats::gc_events`] this bounds how long collections stay in
    /// flight (`metrics::GcTimeline` buckets either series).
    pub gc_complete_events: Vec<SimTime>,
    /// Times the collector gave up with the pool still below its watermark
    /// (several consecutive rounds freed no space — victims with no garbage).
    /// A non-zero value flags an over-committed or mis-watermarked device.
    pub gc_stalled_exits: u64,
    /// Times a scheduled GC command was bypassed by a host command on the
    /// same chip (zero under blocking GC).
    pub gc_yields: u64,
    /// Times a scheduled GC command was forced through by the scheduler's
    /// starvation bound (zero under blocking GC).
    pub gc_forced: u64,
    /// Simulated time spent inside GC (flash operations only).
    pub gc_flash_time: Duration,
    /// Host wall-clock time spent sorting LPNs during GC (not simulated).
    pub sort_wall_time: std::time::Duration,
    /// Host wall-clock time spent fitting learned models (not simulated).
    pub train_wall_time: std::time::Duration,
    /// Number of model training invocations (per GTD entry).
    pub models_trained: u64,
    /// Number of model predictions made on the read path.
    pub model_predictions: u64,
}

impl FtlStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records how one logical page read was classified.
    pub fn record_read_class(&mut self, class: ReadClass) {
        match class {
            ReadClass::CmtHit => {
                self.cmt_hits += 1;
                self.single_reads += 1;
            }
            ReadClass::ModelHit => {
                self.cmt_misses += 1;
                self.model_hits += 1;
                self.single_reads += 1;
            }
            ReadClass::BufferHit => {
                self.buffer_hits += 1;
            }
            ReadClass::DoubleRead => {
                self.cmt_misses += 1;
                self.double_reads += 1;
            }
            ReadClass::TripleRead => {
                self.cmt_misses += 1;
                self.triple_reads += 1;
            }
        }
    }

    /// Fraction of host reads that hit the CMT.
    pub fn cmt_hit_ratio(&self) -> f64 {
        ratio(self.cmt_hits, self.host_read_pages)
    }

    /// Fraction of host reads served by an accurate model prediction.
    pub fn model_hit_ratio(&self) -> f64 {
        ratio(self.model_hits, self.host_read_pages)
    }

    /// Fraction of host reads served with at most one flash read
    /// (CMT hit, model hit or buffer hit).
    pub fn single_read_ratio(&self) -> f64 {
        ratio(self.single_reads + self.buffer_hits, self.host_read_pages)
    }

    /// Fraction of host reads that became double reads.
    pub fn double_read_ratio(&self) -> f64 {
        ratio(self.double_reads, self.host_read_pages)
    }

    /// Fraction of host reads that became triple reads.
    pub fn triple_read_ratio(&self) -> f64 {
        ratio(self.triple_reads, self.host_read_pages)
    }

    /// Write amplification: all pages programmed (host + GC relocation +
    /// translation) divided by host-written pages.
    pub fn write_amplification(&self) -> f64 {
        if self.host_write_pages == 0 {
            return 0.0;
        }
        let total = self.data_page_writes + self.gc_page_writes + self.translation_writes;
        total as f64 / self.host_write_pages as f64
    }

    /// Records one GC invocation at simulated time `at`.
    pub fn record_gc(&mut self, at: SimTime) {
        self.gc_count += 1;
        self.gc_events.push(at);
    }

    /// Takes a cheap, scalar-only snapshot of the current counters.
    ///
    /// Unlike cloning, this never copies the GC event history — it just
    /// remembers how long it was — so a frontend that needs per-request
    /// deltas (e.g. a sharded FTL merging shard counters into one aggregate
    /// after every dispatch) stays O(1) per request instead of O(events).
    pub fn snapshot(&self) -> FtlStatsSnapshot {
        FtlStatsSnapshot {
            host_read_pages: self.host_read_pages,
            host_write_pages: self.host_write_pages,
            cmt_hits: self.cmt_hits,
            cmt_misses: self.cmt_misses,
            model_hits: self.model_hits,
            buffer_hits: self.buffer_hits,
            unmapped_reads: self.unmapped_reads,
            single_reads: self.single_reads,
            double_reads: self.double_reads,
            triple_reads: self.triple_reads,
            data_page_writes: self.data_page_writes,
            gc_page_writes: self.gc_page_writes,
            gc_page_reads: self.gc_page_reads,
            translation_writes: self.translation_writes,
            translation_reads: self.translation_reads,
            gc_count: self.gc_count,
            blocks_erased: self.blocks_erased,
            gc_events_len: self.gc_events.len(),
            gc_complete_events_len: self.gc_complete_events.len(),
            gc_stalled_exits: self.gc_stalled_exits,
            gc_yields: self.gc_yields,
            gc_forced: self.gc_forced,
            gc_flash_time: self.gc_flash_time,
            sort_wall_time: self.sort_wall_time,
            train_wall_time: self.train_wall_time,
            models_trained: self.models_trained,
            model_predictions: self.model_predictions,
        }
    }

    /// Adds the growth of `current` since `snap` was taken into `self`.
    ///
    /// `snap` must be a snapshot of the *same* statistics object that
    /// `current` refers to, taken earlier (counters are monotonic between
    /// resets, so each field of `current` is `>=` the snapshot's).
    ///
    /// # Panics
    ///
    /// Debug-asserts that no counter moved backwards (which would indicate a
    /// reset between snapshot and delta).
    pub fn merge_delta(&mut self, snap: &FtlStatsSnapshot, current: &FtlStats) {
        debug_assert!(
            current.gc_events.len() >= snap.gc_events_len,
            "stats were reset between snapshot and merge_delta"
        );
        self.host_read_pages += current.host_read_pages - snap.host_read_pages;
        self.host_write_pages += current.host_write_pages - snap.host_write_pages;
        self.cmt_hits += current.cmt_hits - snap.cmt_hits;
        self.cmt_misses += current.cmt_misses - snap.cmt_misses;
        self.model_hits += current.model_hits - snap.model_hits;
        self.buffer_hits += current.buffer_hits - snap.buffer_hits;
        self.unmapped_reads += current.unmapped_reads - snap.unmapped_reads;
        self.single_reads += current.single_reads - snap.single_reads;
        self.double_reads += current.double_reads - snap.double_reads;
        self.triple_reads += current.triple_reads - snap.triple_reads;
        self.data_page_writes += current.data_page_writes - snap.data_page_writes;
        self.gc_page_writes += current.gc_page_writes - snap.gc_page_writes;
        self.gc_page_reads += current.gc_page_reads - snap.gc_page_reads;
        self.translation_writes += current.translation_writes - snap.translation_writes;
        self.translation_reads += current.translation_reads - snap.translation_reads;
        self.gc_count += current.gc_count - snap.gc_count;
        self.blocks_erased += current.blocks_erased - snap.blocks_erased;
        self.gc_events
            .extend_from_slice(&current.gc_events[snap.gc_events_len..]);
        self.gc_complete_events
            .extend_from_slice(&current.gc_complete_events[snap.gc_complete_events_len..]);
        self.gc_stalled_exits += current.gc_stalled_exits - snap.gc_stalled_exits;
        self.gc_yields += current.gc_yields - snap.gc_yields;
        self.gc_forced += current.gc_forced - snap.gc_forced;
        self.gc_flash_time += current.gc_flash_time - snap.gc_flash_time;
        self.sort_wall_time += current.sort_wall_time - snap.sort_wall_time;
        self.train_wall_time += current.train_wall_time - snap.train_wall_time;
        self.models_trained += current.models_trained - snap.models_trained;
        self.model_predictions += current.model_predictions - snap.model_predictions;
    }

    /// Merges another statistics object into this one (used when an
    /// experiment aggregates phases).
    pub fn merge(&mut self, other: &FtlStats) {
        self.host_read_pages += other.host_read_pages;
        self.host_write_pages += other.host_write_pages;
        self.cmt_hits += other.cmt_hits;
        self.cmt_misses += other.cmt_misses;
        self.model_hits += other.model_hits;
        self.buffer_hits += other.buffer_hits;
        self.unmapped_reads += other.unmapped_reads;
        self.single_reads += other.single_reads;
        self.double_reads += other.double_reads;
        self.triple_reads += other.triple_reads;
        self.data_page_writes += other.data_page_writes;
        self.gc_page_writes += other.gc_page_writes;
        self.gc_page_reads += other.gc_page_reads;
        self.translation_writes += other.translation_writes;
        self.translation_reads += other.translation_reads;
        self.gc_count += other.gc_count;
        self.blocks_erased += other.blocks_erased;
        self.gc_events.extend_from_slice(&other.gc_events);
        self.gc_complete_events
            .extend_from_slice(&other.gc_complete_events);
        self.gc_stalled_exits += other.gc_stalled_exits;
        self.gc_yields += other.gc_yields;
        self.gc_forced += other.gc_forced;
        self.gc_flash_time += other.gc_flash_time;
        self.sort_wall_time += other.sort_wall_time;
        self.train_wall_time += other.train_wall_time;
        self.models_trained += other.models_trained;
        self.model_predictions += other.model_predictions;
    }
}

/// A scalar-only snapshot of an [`FtlStats`], taken with
/// [`FtlStats::snapshot`] and consumed by [`FtlStats::merge_delta`].
///
/// Holds every counter by value plus the *length* of the GC event history
/// (not the events themselves), so taking one is allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct FtlStatsSnapshot {
    host_read_pages: u64,
    host_write_pages: u64,
    cmt_hits: u64,
    cmt_misses: u64,
    model_hits: u64,
    buffer_hits: u64,
    unmapped_reads: u64,
    single_reads: u64,
    double_reads: u64,
    triple_reads: u64,
    data_page_writes: u64,
    gc_page_writes: u64,
    gc_page_reads: u64,
    translation_writes: u64,
    translation_reads: u64,
    gc_count: u64,
    blocks_erased: u64,
    gc_events_len: usize,
    gc_complete_events_len: usize,
    gc_stalled_exits: u64,
    gc_yields: u64,
    gc_forced: u64,
    gc_flash_time: Duration,
    sort_wall_time: std::time::Duration,
    train_wall_time: std::time::Duration,
    models_trained: u64,
    model_predictions: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_class_accounting() {
        let mut s = FtlStats::new();
        s.host_read_pages = 10;
        for _ in 0..4 {
            s.record_read_class(ReadClass::CmtHit);
        }
        for _ in 0..2 {
            s.record_read_class(ReadClass::ModelHit);
        }
        for _ in 0..3 {
            s.record_read_class(ReadClass::DoubleRead);
        }
        s.record_read_class(ReadClass::TripleRead);
        assert_eq!(s.cmt_hits, 4);
        assert_eq!(s.model_hits, 2);
        assert_eq!(s.single_reads, 6);
        assert_eq!(s.double_reads, 3);
        assert_eq!(s.triple_reads, 1);
        assert!((s.cmt_hit_ratio() - 0.4).abs() < 1e-9);
        assert!((s.model_hit_ratio() - 0.2).abs() < 1e-9);
        assert!((s.single_read_ratio() - 0.6).abs() < 1e-9);
        assert!((s.double_read_ratio() - 0.3).abs() < 1e-9);
        assert!((s.triple_read_ratio() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn write_amplification_counts_all_programs() {
        let mut s = FtlStats::new();
        s.host_write_pages = 100;
        s.data_page_writes = 100;
        s.gc_page_writes = 30;
        s.translation_writes = 20;
        assert!((s.write_amplification() - 1.5).abs() < 1e-9);
        let empty = FtlStats::new();
        assert_eq!(empty.write_amplification(), 0.0);
    }

    #[test]
    fn ratios_handle_zero_denominator() {
        let s = FtlStats::new();
        assert_eq!(s.cmt_hit_ratio(), 0.0);
        assert_eq!(s.single_read_ratio(), 0.0);
    }

    #[test]
    fn snapshot_delta_matches_full_merge() {
        let mut live = FtlStats::new();
        live.host_read_pages = 3;
        live.record_gc(SimTime::from_micros(1));
        let mut merged = FtlStats::new();
        merged.host_read_pages = 100;

        let snap = live.snapshot();
        live.host_read_pages += 4;
        live.cmt_hits += 2;
        live.record_gc(SimTime::from_micros(9));
        live.gc_flash_time += Duration::from_micros(5);

        merged.merge_delta(&snap, &live);
        assert_eq!(merged.host_read_pages, 104, "only the delta is added");
        assert_eq!(merged.cmt_hits, 2);
        assert_eq!(merged.gc_count, 1);
        assert_eq!(merged.gc_events, vec![SimTime::from_micros(9)]);
        assert_eq!(merged.gc_flash_time, Duration::from_micros(5));
    }

    #[test]
    fn snapshot_delta_of_unchanged_stats_is_noop() {
        let mut live = FtlStats::new();
        live.host_write_pages = 7;
        let snap = live.snapshot();
        let mut merged = FtlStats::new();
        merged.merge_delta(&snap, &live);
        assert_eq!(merged.host_write_pages, 0);
        assert!(merged.gc_events.is_empty());
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = FtlStats::new();
        a.host_read_pages = 5;
        a.record_gc(SimTime::from_micros(1));
        let mut b = FtlStats::new();
        b.host_read_pages = 7;
        b.record_gc(SimTime::from_micros(2));
        a.merge(&b);
        assert_eq!(a.host_read_pages, 12);
        assert_eq!(a.gc_count, 2);
        assert_eq!(a.gc_events.len(), 2);
    }
}
