//! # ftl-base
//!
//! Shared machinery for page-level flash translation layers (FTLs).
//!
//! The LearnedFTL paper compares five FTL designs (DFTL, TPFTL, LeaFTL,
//! LearnedFTL and an ideal full-map FTL). They all share the same mechanisms —
//! a cached mapping table, a global translation directory, on-flash
//! translation pages, data-page allocation, greedy garbage collection and
//! double-read accounting — and differ only in policy. This crate provides
//! those mechanisms:
//!
//! * [`Ftl`] — the trait every FTL implements; the experiment harness drives
//!   FTLs exclusively through it,
//! * [`FtlCore`] — device + mapping table + GTD + translation-page store,
//! * [`EntryCmt`] / [`PageNodeCmt`] — the DFTL-style and TPFTL-style cached
//!   mapping tables,
//! * [`DynamicDataPool`] + [`run_greedy_gc`] — dynamic (least-busy-chip) page
//!   allocation and greedy victim collection,
//! * [`FtlStats`] — hit ratios, single/double/triple read counts, write
//!   amplification and GC accounting,
//! * [`LruCache`] — the recency structure under [`EntryCmt`] and LeaFTL's
//!   model cache.
//!
//! ```
//! use ftl_base::{Ftl, HostRequest};
//! use ssd_sim::SimTime;
//!
//! fn run_one<F: Ftl>(ftl: &mut F) {
//!     let done = ftl.submit(HostRequest::write(0, 1), SimTime::ZERO);
//!     let done = ftl.submit(HostRequest::read(0, 1), done);
//!     assert!(done > SimTime::ZERO);
//! }
//! ```

mod alloc;
mod cmt;
#[cfg(test)]
mod cmt_reference;
mod core;
mod gc;
mod gtd;
mod lru;
mod mapping;
mod partition;
mod request;
mod stats;
mod transpage;

pub use crate::core::{run_greedy_gc, FtlCore, GcOutcome, MAPPING_ENTRY_BYTES, PREFETCH_LEN};
pub use alloc::{DynamicDataPool, GcMove};
pub use cmt::{CmtEntry, EntryCmt, PageNodeCmt};
pub use gc::{GcEngine, GcJob, GcMode};
pub use gtd::Gtd;
pub use lru::LruCache;
pub use mapping::MappingTable;
pub use partition::BlockPartition;
pub use request::{HostOp, HostRequest, Lpn, ReadClass};
pub use stats::{FtlStats, FtlStatsSnapshot};
pub use transpage::TransPageStore;

use ssd_sim::{DeviceStats, FlashDevice, SimTime, TraceEvent};

/// The interface every flash translation layer exposes to the experiment
/// harness.
///
/// An FTL owns its simulated device. The harness submits host requests with
/// an issue time and receives the simulated completion time back; everything
/// else (latency percentiles, throughput, hit ratios) is derived from those
/// two timestamps plus [`Ftl::stats`] and the device counters.
///
/// `Send` is a supertrait: the thread-parallel execution backend
/// (`ftl-shard`'s `run_threaded`) moves exclusive references to shard FTLs
/// onto worker threads, so every FTL — including `Box<dyn Ftl>` trait
/// objects — must be transferable across threads. FTLs are plain owned data
/// (maps, pools, RNG state), so implementations get this for free; the bound
/// exists to keep it that way.
pub trait Ftl: Send {
    /// A short, human-readable name ("DFTL", "LearnedFTL", ...).
    fn name(&self) -> &'static str;

    /// Handles a host read of consecutive logical pages issued at `now`.
    /// Returns the simulated completion time.
    fn read(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime;

    /// Handles a host write of consecutive logical pages issued at `now`.
    /// Returns the simulated completion time.
    fn write(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime;

    /// Submits a request, dispatching on its operation kind.
    fn submit(&mut self, req: HostRequest, now: SimTime) -> SimTime {
        match req.op {
            HostOp::Read => self.read(req.lpn, req.pages, now),
            HostOp::Write => self.write(req.lpn, req.pages, now),
        }
    }

    /// FTL-level statistics accumulated so far.
    fn stats(&self) -> &FtlStats;

    /// Resets the FTL-level statistics (device counters are reset separately
    /// via [`Ftl::device_mut`]).
    fn reset_stats(&mut self);

    /// The number of logical pages this FTL exposes.
    fn logical_pages(&self) -> u64;

    /// Shared access to the simulated device.
    fn device(&self) -> &FlashDevice;

    /// Mutable access to the simulated device (used by the harness to reset
    /// device statistics between experiment phases).
    fn device_mut(&mut self) -> &mut FlashDevice;

    /// Completion time of the latest in-flight flash operation across every
    /// device this FTL owns. Monolithic FTLs own exactly one device; sharded
    /// frontends override this to take the maximum across their shards.
    fn drain_time(&self) -> SimTime {
        self.device().drain_time()
    }

    /// Aggregate device statistics across every device this FTL owns (the
    /// single device's counters by default; the field-wise sum for sharded
    /// frontends).
    fn device_stats(&self) -> DeviceStats {
        *self.device().stats()
    }

    /// Resets the statistics of every device this FTL owns.
    fn reset_device_stats(&mut self) {
        self.device_mut().reset_stats();
    }

    /// The garbage-collection execution mode this FTL runs under. The default
    /// is the legacy blocking mode; FTLs built over [`FtlCore`] report their
    /// configured mode.
    fn gc_mode(&self) -> GcMode {
        GcMode::Blocking
    }

    /// Completes every outstanding background (scheduled-GC) flash command
    /// and returns the time this FTL's devices quiesce. Blocking-GC FTLs
    /// have no background work, so the default just reports the drain time.
    /// Experiments call this between phases (and before comparing aggregate
    /// flash timings) so scheduled collections do not leak across windows.
    fn drain_gc(&mut self) -> SimTime {
        self.drain_time()
    }

    /// Enables or disables structured tracing on every device this FTL owns.
    /// Tracing records sim-time spans/instants without affecting any
    /// simulated timing; it is off by default.
    fn set_tracing(&mut self, on: bool) {
        self.device_mut().set_tracing(on);
    }

    /// Whether structured tracing is currently enabled.
    fn tracing(&self) -> bool {
        self.device().tracing()
    }

    /// Takes every recorded trace event across every device this FTL owns,
    /// merged into one deterministic stream (sharded frontends tag events
    /// with their shard index and stably sort by start time).
    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.device_mut().take_trace()
    }
}

/// Boxed FTLs are FTLs: forwarding impl so frontends generic over `F: Ftl`
/// (e.g. a sharded router) can hold the trait objects the experiment
/// harness's FTL registry produces.
impl<F: Ftl + ?Sized> Ftl for Box<F> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn read(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        (**self).read(lpn, pages, now)
    }

    fn write(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        (**self).write(lpn, pages, now)
    }

    fn submit(&mut self, req: HostRequest, now: SimTime) -> SimTime {
        (**self).submit(req, now)
    }

    fn stats(&self) -> &FtlStats {
        (**self).stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }

    fn logical_pages(&self) -> u64 {
        (**self).logical_pages()
    }

    fn device(&self) -> &FlashDevice {
        (**self).device()
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        (**self).device_mut()
    }

    fn drain_time(&self) -> SimTime {
        (**self).drain_time()
    }

    fn device_stats(&self) -> DeviceStats {
        (**self).device_stats()
    }

    fn reset_device_stats(&mut self) {
        (**self).reset_device_stats()
    }

    fn gc_mode(&self) -> GcMode {
        (**self).gc_mode()
    }

    fn drain_gc(&mut self) -> SimTime {
        (**self).drain_gc()
    }

    fn set_tracing(&mut self, on: bool) {
        (**self).set_tracing(on)
    }

    fn tracing(&self) -> bool {
        (**self).tracing()
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        (**self).take_trace()
    }
}
