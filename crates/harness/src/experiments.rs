//! The paper's experiment protocols, shared by the `repro` figures and the
//! integration tests.
//!
//! Every figure is measured the same way (Section IV-B): warm the SSD to a
//! steady state, then run the measured workload. Each protocol here does the
//! first half against any `&mut dyn Ftl` — plain, sharded
//! ([`FtlKind::build_sharded`]) or built with a custom configuration — and
//! returns the measured workload. The caller then picks the [`Runner`] entry
//! point and its queue depth, and turns tracing on in between
//! (`ftl.set_tracing(true)`) when it wants the measured phase traced:
//!
//! ```
//! use harness::{experiments, experiments::ExperimentScale, FtlKind, Runner};
//! use ssd_sim::SsdConfig;
//! use workloads::FioPattern;
//!
//! let mut ftl = FtlKind::Tpftl.build(SsdConfig::tiny());
//! let scale = ExperimentScale::quick();
//! let mut wl = experiments::fio_read(ftl.as_mut(), FioPattern::RandRead, 2, scale);
//! let result = Runner::new().run_qd(ftl.as_mut(), &mut wl, 1);
//! assert_eq!(result.requests, 400);
//! ```
//!
//! [`run`] is that sequence for the common case: the paper's default
//! configuration, untraced, through [`Runner::run`].
//!
//! The two protocols that need a particular frontend — GC interference and
//! the noisy-neighbour tenants, both on sharded FTLs with a chosen
//! [`GcMode`] — build it themselves and take a `traced` argument instead.

use baselines::BaselineConfig;
use ftl_base::{Ftl, GcMode};
use learnedftl::LearnedFtlConfig;
use ssd_sim::{Duration, SimTime, SsdConfig, TraceData};
use workloads::{
    warmup, FilebenchPreset, FilebenchWorkload, FioPattern, FioWorkload, RocksDbPhase,
    RocksDbWorkload, SyntheticTrace, TenantSet, TenantSpec, TraceKind, TraceWorkload, Workload,
};

use crate::kind::FtlKind;
use crate::result::{RunResult, TenantRunResult};
use crate::runner::{push_gc_instants, Runner};
use crate::ShardedFtl;

/// How much work each experiment does. The paper's runs write the device six
/// times over and replay million-request traces; the scaled settings keep the
/// same protocol at a size that finishes in seconds per (FTL, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// I/O size (in pages) used for the warm-up writes (paper: 128 = 512 KiB).
    pub warmup_io_pages: u32,
    /// How many times the device is overwritten during warm-up (paper: ~6).
    pub warmup_overwrites: u32,
    /// Requests issued per stream in FIO-style measured phases.
    pub ops_per_stream: u64,
    /// Requests issued in single-stream measured phases (RocksDB, traces).
    pub single_stream_ops: u64,
}

impl ExperimentScale {
    /// The scale `repro` runs at by default (minutes total).
    pub fn standard() -> Self {
        ExperimentScale {
            warmup_io_pages: 128,
            warmup_overwrites: 2,
            ops_per_stream: 2_000,
            single_stream_ops: 40_000,
        }
    }

    /// A much smaller scale used by integration tests (seconds total).
    pub fn quick() -> Self {
        ExperimentScale {
            warmup_io_pages: 32,
            warmup_overwrites: 1,
            ops_per_stream: 200,
            single_stream_ops: 2_000,
        }
    }
}

// One set of seeds for every protocol and figure: the cross-protocol
// comparisons (sharded vs plain, threaded vs simulated, one figure against
// another) need identically prepared devices and request streams.
const WARMUP_SEED: u64 = 0xFEED;
const FIO_WORKLOAD_SEED: u64 = 0xBEEF;
const TRACE_SEED: u64 = 0xD00D;
const FILEBENCH_SEED: u64 = 0xCAFE;
const TENANT_WORKLOAD_SEED: u64 = 0x7E7A;
/// Arrival-process seed of the open-loop protocols; callers of
/// [`Runner::run_open_loop`] pass it so open-loop runs stay comparable.
pub const OPEN_LOOP_ARRIVAL_SEED: u64 = 0xA11CE;

/// Builds `kind` on `device` with the paper's default parameters, prepares
/// it with `protocol` (one of this module's warm-ups) and runs the measured
/// workload through [`Runner::run`]: what most figures measure.
pub fn run<W: Workload>(
    kind: FtlKind,
    device: SsdConfig,
    protocol: impl FnOnce(&mut dyn Ftl) -> W,
) -> RunResult {
    let mut ftl = kind.build(device);
    let mut wl = protocol(ftl.as_mut());
    Runner::new().run(ftl.as_mut(), &mut wl)
}

/// The paper's read-experiment warm-up: a sequential pass with large I/Os
/// (so LeaFTL can build its index), then random overwrite passes.
fn paper_warmup(ftl: &mut dyn Ftl, scale: ExperimentScale) {
    warmup::paper_warmup(
        ftl,
        scale.warmup_io_pages,
        scale.warmup_overwrites,
        WARMUP_SEED,
    );
}

/// The write experiments' warm-up: one sequential pass with large I/Os.
fn sequential_fill(ftl: &mut dyn Ftl, scale: ExperimentScale) {
    warmup::sequential_fill(ftl, scale.warmup_io_pages, 1, SimTime::ZERO);
}

/// FIO read protocol (Figures 2, 3, 6, 14-read, 18b, the queue-depth and
/// shard-scaling sweeps): the paper's warm-up, then 4 KiB
/// reads over the whole logical space from `threads` streams. Panics if
/// `pattern` writes.
pub fn fio_read(
    ftl: &mut dyn Ftl,
    pattern: FioPattern,
    threads: usize,
    scale: ExperimentScale,
) -> FioWorkload {
    assert!(pattern.is_read(), "use fio_write for write patterns");
    paper_warmup(ftl, scale);
    fio_workload(ftl, pattern, threads, 1, scale)
}

/// FIO write protocol (Figures 14-write, 16, 17, 18a and the plane-scaling
/// sweep): one sequential fill, then `pages_per_request`-page writes from
/// `threads` streams. Panics if `pattern` reads.
pub fn fio_write(
    ftl: &mut dyn Ftl,
    pattern: FioPattern,
    threads: usize,
    pages_per_request: u32,
    scale: ExperimentScale,
) -> FioWorkload {
    assert!(!pattern.is_read(), "use fio_read for read patterns");
    sequential_fill(ftl, scale);
    fio_workload(ftl, pattern, threads, pages_per_request, scale)
}

fn fio_workload(
    ftl: &dyn Ftl,
    pattern: FioPattern,
    threads: usize,
    pages_per_request: u32,
    scale: ExperimentScale,
) -> FioWorkload {
    FioWorkload::new(
        pattern,
        ftl.logical_pages(),
        threads,
        pages_per_request,
        scale.ops_per_stream,
        FIO_WORKLOAD_SEED,
    )
}

/// Trace replay (Figures 21 and 22): the paper's warm-up, then a
/// `trace_len`-request synthetic trace with the Table II characteristics,
/// replayed from `streams` streams.
pub fn trace_replay(
    ftl: &mut dyn Ftl,
    trace: TraceKind,
    streams: usize,
    trace_len: u64,
    scale: ExperimentScale,
) -> TraceWorkload {
    paper_warmup(ftl, scale);
    SyntheticTrace::generate(trace, ftl.logical_pages(), trace_len, TRACE_SEED)
        .into_workload(streams)
}

/// Filebench protocol (Figures 7 and 20): one sequential fill, then the
/// personality's threads share `scale.single_stream_ops` requests.
pub fn filebench(
    ftl: &mut dyn Ftl,
    preset: FilebenchPreset,
    scale: ExperimentScale,
) -> FilebenchWorkload {
    sequential_fill(ftl, scale);
    let ops_per_thread = (scale.single_stream_ops / preset.threads() as u64).max(10);
    FilebenchWorkload::new(preset, ftl.logical_pages(), ops_per_thread, FILEBENCH_SEED)
}

/// RocksDB db_bench protocol (Figure 19): `fillseq` + `overwrite` populate
/// the database (80 % of the device) through [`Runner::run`], then `phase`
/// is the measured workload.
pub fn rocksdb(ftl: &mut dyn Ftl, phase: RocksDbPhase, scale: ExperimentScale) -> RocksDbWorkload {
    let db_pages = ftl.logical_pages() * 8 / 10;
    // fillseq until the DB footprint is written once.
    let fill_ops = (db_pages / u64::from(RocksDbWorkload::SSTABLE_PAGES)).max(1);
    let mut fill = RocksDbWorkload::new(RocksDbPhase::FillSeq, db_pages, fill_ops, 1);
    Runner::new().run(ftl, &mut fill);
    // overwrite pass: compaction-shaped churn.
    let mut over = RocksDbWorkload::new(RocksDbPhase::Overwrite, db_pages, fill_ops / 2 + 1, 2);
    Runner::new().run(ftl, &mut over);
    let ops = match phase {
        RocksDbPhase::ReadSeq => scale.single_stream_ops / 8,
        _ => scale.single_stream_ops,
    }
    .max(1);
    RocksDbWorkload::new(phase, db_pages, ops, 3)
}

/// The GC-interference protocol (fig24): a filled sharded frontend whose
/// shards collect in `gc_mode` serves open-loop Poisson random writes of
/// `write_pages` pages. Large requests land several programs deep on each
/// chip, which makes queued GC charges yield and the starvation bound force
/// collections through (`gc_forced`). Seeded arrivals keep the request
/// stream identical across modes, so an FTL whose allocation ignores device
/// timing (LearnedFTL's groups) must do bit-identical flash work in both.
///
/// The collections the run leaves outstanding are drained into the result,
/// so its statistics (and, `traced`, its trace) cover all of its GC work.
#[allow(clippy::too_many_arguments)]
pub fn fio_gc_interference_run(
    kind: FtlKind,
    threads: usize,
    write_pages: u32,
    shards: usize,
    gc_mode: GcMode,
    mean_interarrival: Duration,
    device: SsdConfig,
    scale: ExperimentScale,
    traced: bool,
) -> RunResult {
    let mut ftl = filled_gc_frontend(kind, shards, gc_mode, device, scale, traced);
    let mut wl = fio_workload(&ftl, FioPattern::RandWrite, threads, write_pages, scale);
    let mut result =
        Runner::new().run_open_loop(&mut ftl, &mut wl, mean_interarrival, OPEN_LOOP_ARRIVAL_SEED);
    drain_gc_into(&mut ftl, &mut result, traced);
    result
}

/// The noisy-neighbour protocol (fig28): tenants with disjoint LPN ranges
/// share a sharded FTL, admitted per shard under weighted per-tenant
/// arbitration (`isolate`) or in FIFO arrival order. The frontend is filled
/// and drained as in [`fio_gc_interference_run`], so every tenant's reads
/// hit mapped pages and the result covers the GC work the run triggered.
#[allow(clippy::too_many_arguments)]
pub fn tenant_noisy_neighbour_run(
    kind: FtlKind,
    specs: Vec<TenantSpec>,
    shards: usize,
    gc_mode: GcMode,
    device: SsdConfig,
    scale: ExperimentScale,
    isolate: bool,
    traced: bool,
) -> TenantRunResult {
    let mut ftl = filled_gc_frontend(kind, shards, gc_mode, device, scale, traced);
    let mut tenants = TenantSet::new(specs, ftl.logical_pages(), TENANT_WORKLOAD_SEED);
    let mut run = Runner::new().run_tenants(&mut ftl, &mut tenants, isolate);
    drain_gc_into(&mut ftl, &mut run.result, traced);
    run
}

/// The GC protocols' frontend: `shards` shards collecting in `gc_mode`,
/// sequentially filled, warm-up collections drained, tracing set for the
/// measured phase.
fn filled_gc_frontend(
    kind: FtlKind,
    shards: usize,
    gc_mode: GcMode,
    device: SsdConfig,
    scale: ExperimentScale,
    traced: bool,
) -> ShardedFtl<Box<dyn Ftl>> {
    let baseline = BaselineConfig::default()
        .for_shard(shards)
        .with_gc_mode(gc_mode);
    // Scheduled GC charges no compute, so the blocking reference must not
    // either.
    let learned = LearnedFtlConfig::default()
        .with_gc_mode(gc_mode)
        .with_charge_training_time(false);
    let mut ftl = kind.build_sharded_with(device, shards, baseline, learned);
    sequential_fill(&mut ftl, scale);
    ftl.drain_gc();
    ftl.set_tracing(traced);
    ftl
}

/// Drains the collections a measured phase left outstanding and takes the
/// final statistics into `result`. A traced result gets the drain's flash
/// events, and GC trigger/complete instants rebuilt from those statistics.
/// That fold is the one place where tracing changes the harness's code
/// path; the statistics are the same either way.
fn drain_gc_into(ftl: &mut dyn Ftl, result: &mut RunResult, traced: bool) {
    ftl.drain_gc();
    result.stats = ftl.stats().clone();
    result.device = ftl.device_stats();
    if !traced {
        return;
    }
    result.trace.extend(ftl.take_trace());
    result
        .trace
        .retain(|e| !matches!(e.data, TraceData::GcTrigger | TraceData::GcComplete));
    push_gc_instants(&mut result.trace, &result.stats);
    result.trace.sort_by_key(|e| e.start);
    result.profile.trace_events = result.trace.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fio_read_run_produces_sane_results() {
        let r = run(FtlKind::Tpftl, SsdConfig::tiny(), |ftl| {
            fio_read(ftl, FioPattern::RandRead, 2, ExperimentScale::quick())
        });
        assert_eq!(r.requests, 400);
        assert_eq!(r.write_pages, 0);
        assert!(r.mib_per_sec() > 0.0);
        assert!(r.stats.host_read_pages > 0);
    }

    #[test]
    fn fio_write_run_counts_writes_only() {
        let r = run(FtlKind::Ideal, SsdConfig::tiny(), |ftl| {
            fio_write(ftl, FioPattern::SeqWrite, 2, 1, ExperimentScale::quick())
        });
        assert_eq!(r.read_pages, 0);
        assert!(r.write_pages > 0);
        assert!(r.write_amplification() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "fio_write")]
    fn read_helper_rejects_write_patterns() {
        let mut ftl = FtlKind::Ideal.build(SsdConfig::tiny());
        fio_read(
            ftl.as_mut(),
            FioPattern::SeqWrite,
            1,
            ExperimentScale::quick(),
        );
    }

    #[test]
    fn fio_qd_run_bounds_concurrency() {
        let run_at = |depth| {
            let mut ftl = FtlKind::Ideal.build(SsdConfig::tiny());
            let mut wl = fio_read(
                ftl.as_mut(),
                FioPattern::RandRead,
                4,
                ExperimentScale::quick(),
            );
            Runner::new().run_qd(ftl.as_mut(), &mut wl, depth)
        };
        let deep = run_at(4);
        let shallow = run_at(1);
        assert_eq!(deep.requests, shallow.requests);
        assert!(deep.iops() > shallow.iops(), "deeper queue must raise IOPS");
        assert!(shallow.queueing.max() > ssd_sim::Duration::ZERO);
    }

    #[test]
    fn trace_run_replays_requested_length() {
        let r = run(FtlKind::Ideal, SsdConfig::tiny(), |ftl| {
            trace_replay(ftl, TraceKind::Systor17, 4, 500, ExperimentScale::quick())
        });
        assert_eq!(r.requests, 500);
        assert!(r.latencies.count() == 500);
    }
}
