//! Poison safety of the thread-parallel backend: a worker thread that
//! panics mid-request must surface the panic to the caller — promptly, with
//! the original payload, and without deadlocking the dispatcher or silently
//! truncating results. The simulated backend would have panicked on the
//! caller's thread; the threaded backend must be no worse.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ftl_base::{Ftl, FtlStats, Lpn};
use ftl_shard::ShardedFtl;
use harness::Runner;
use ssd_sim::{DeviceStats, Duration, FlashDevice, SimTime, SsdConfig};
use workloads::{FioPattern, FioWorkload};

/// An intentionally poisoned FTL: serves fixed-latency requests until the
/// `poison_after`-th one, then panics mid-request like a corrupted mapping
/// table would.
#[derive(Debug)]
struct PoisonedFtl {
    dev: FlashDevice,
    stats: FtlStats,
    served: u64,
    poison_after: Option<u64>,
}

impl PoisonedFtl {
    fn new(poison_after: Option<u64>) -> Self {
        PoisonedFtl {
            dev: FlashDevice::new(SsdConfig::tiny()),
            stats: FtlStats::new(),
            served: 0,
            poison_after,
        }
    }

    fn serve(&mut self, pages: u32, now: SimTime) -> SimTime {
        self.served += 1;
        if self.poison_after == Some(self.served) {
            panic!("poisoned FTL: mapping table corrupted");
        }
        now + Duration::from_micros(u64::from(pages) * 5)
    }
}

impl Ftl for PoisonedFtl {
    fn name(&self) -> &'static str {
        "poisoned"
    }
    fn read(&mut self, _lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.stats.host_read_pages += u64::from(pages);
        self.serve(pages, now)
    }
    fn write(&mut self, _lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.stats.host_write_pages += u64::from(pages);
        self.serve(pages, now)
    }
    fn stats(&self) -> &FtlStats {
        &self.stats
    }
    fn reset_stats(&mut self) {
        self.stats = FtlStats::new();
    }
    fn logical_pages(&self) -> u64 {
        1 << 20
    }
    fn device(&self) -> &FlashDevice {
        &self.dev
    }
    fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.dev
    }
    fn device_stats(&self) -> DeviceStats {
        DeviceStats::new()
    }
}

fn poisoned_frontend(shards: usize, victim: usize, after: u64) -> ShardedFtl<PoisonedFtl> {
    ShardedFtl::from_shards(
        (0..shards)
            .map(|s| PoisonedFtl::new((s == victim).then_some(after)))
            .collect(),
    )
}

fn workload() -> FioWorkload {
    FioWorkload::new(FioPattern::RandRead, 1 << 20, 4, 1, 64, 3)
}

fn assert_poison_payload(payload: Box<dyn std::any::Any + Send>) {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or("<non-&str panic payload>");
    assert!(
        message.contains("mapping table corrupted"),
        "the caller must see the worker's own panic payload, got {message:?}"
    );
}

#[test]
fn worker_panic_surfaces_through_run_threaded_qd() {
    let mut ftl = poisoned_frontend(4, 2, 10);
    let mut wl = workload();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Runner::new().run_threaded_qd(&mut ftl, &mut wl, 8, 4)
    }));
    assert_poison_payload(outcome.expect_err("the worker panic must propagate"));
}

#[test]
fn worker_panic_with_shared_worker_thread_still_surfaces() {
    // workers < shards: the panicking shard shares its thread with healthy
    // shards, whose queued work is abandoned without hanging the dispatcher.
    let mut ftl = poisoned_frontend(4, 0, 3);
    let mut wl = workload();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Runner::new().run_threaded_qd(&mut ftl, &mut wl, 16, 2)
    }));
    assert_poison_payload(outcome.expect_err("the worker panic must propagate"));
}

#[test]
fn unpoisoned_mock_runs_to_completion() {
    // Control: the same mock without a poisoned shard completes every
    // request, so the panic tests above fail for the right reason.
    let mut ftl = poisoned_frontend(4, usize::MAX, 1);
    let mut wl = workload();
    let result = Runner::new().run_threaded_qd(&mut ftl, &mut wl, 8, 4);
    assert_eq!(result.result.requests, 256);
    assert_eq!(result.result.latencies.count(), 256);
}
