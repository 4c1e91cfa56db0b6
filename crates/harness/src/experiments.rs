//! Canned experiment routines shared by the figure-reproduction binaries and
//! the integration tests.
//!
//! Every routine follows the paper's protocol: build the FTL, warm the SSD to
//! a steady state (Section IV-B), reset the statistics, then run the measured
//! workload through the closed-loop [`Runner`].

use baselines::BaselineConfig;
use ftl_base::{Ftl, GcMode};
use learnedftl::LearnedFtlConfig;
use ssd_sim::{Duration, SsdConfig, TraceData};
use workloads::{
    warmup, FilebenchPreset, FilebenchWorkload, FioPattern, FioWorkload, RocksDbPhase,
    RocksDbWorkload, SyntheticTrace, TraceKind,
};

use crate::kind::FtlKind;
use crate::result::{RunResult, ShardedRunResult, TenantRunResult};
use crate::runner::{push_gc_instants, Runner};

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
    /// The scale used by the figure-reproduction binaries (minutes total).
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

/// Warm-up seed shared by every FIO protocol. Kept in one place (with
/// [`FIO_WORKLOAD_SEED`]) because the cross-protocol bit-for-bit comparisons
/// — sharded shards=1 vs plain, threaded vs simulated — require identically
/// prepared devices and identical request streams.
const FIO_WARMUP_SEED: u64 = 0xFEED;
/// Measured-phase workload seed shared by every FIO protocol.
const FIO_WORKLOAD_SEED: u64 = 0xBEEF;
/// Arrival-process seed of the open-loop protocol.
const OPEN_LOOP_ARRIVAL_SEED: u64 = 0xA11CE;
/// Seed of the multi-tenant arrival/mix/hotspot streams.
const TENANT_WORKLOAD_SEED: u64 = 0x7E7A;

/// The measured FIO phase every protocol runs: 4 KiB requests over the FTL's
/// whole logical space from `threads` streams.
fn fio_measured_workload(
    logical_pages: u64,
    pattern: FioPattern,
    threads: usize,
    scale: ExperimentScale,
) -> FioWorkload {
    FioWorkload::new(
        pattern,
        logical_pages,
        threads,
        1,
        scale.ops_per_stream,
        FIO_WORKLOAD_SEED,
    )
}

/// Applies the paper's read-experiment warm-up and builds the measured
/// workload. Every FIO *read* protocol — plain, queue-depth, sharded, open
/// loop — goes through here, so they all measure the identically warmed
/// device with the identical request stream.
fn warm_and_workload_read(
    ftl: &mut dyn Ftl,
    pattern: FioPattern,
    threads: usize,
    scale: ExperimentScale,
) -> FioWorkload {
    warmup::paper_warmup(
        ftl,
        scale.warmup_io_pages,
        scale.warmup_overwrites,
        FIO_WARMUP_SEED,
    );
    fio_measured_workload(ftl.logical_pages(), pattern, threads, scale)
}

/// The write-experiment counterpart of [`warm_and_workload_read`]: one
/// sequential fill, then the measured write phase.
fn warm_and_workload_write(
    ftl: &mut dyn Ftl,
    pattern: FioPattern,
    threads: usize,
    scale: ExperimentScale,
) -> FioWorkload {
    warmup::sequential_fill(ftl, scale.warmup_io_pages, 1, ssd_sim::SimTime::ZERO);
    fio_measured_workload(ftl.logical_pages(), pattern, threads, scale)
}

/// Warm-up + FIO read phase (the protocol behind Figures 2, 3, 6, 14-read).
///
/// The device is first written over `scale.warmup_overwrites + 1` times with
/// large I/Os (so LeaFTL's learned index can be built, as the paper notes),
/// then the measured read phase runs with 4 KiB requests from `threads`
/// closed-loop streams.
pub fn fio_read_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    assert!(pattern.is_read(), "use fio_write_run for write patterns");
    let (mut ftl, mut wl) = warmed_fio_read_setup(kind, pattern, threads, device, scale);
    Runner::new().run(ftl.as_mut(), &mut wl)
}

/// The shared warm-up and workload construction behind [`fio_read_run`],
/// [`fio_qd_run`] and their traced twins. Kept in one place so the
/// queue-depth sweep always measures the identically warmed device with the
/// identical request stream.
fn warmed_fio_read_setup(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> (Box<dyn ftl_base::Ftl>, FioWorkload) {
    let mut ftl = kind.build(device);
    let wl = warm_and_workload_read(ftl.as_mut(), pattern, threads, scale);
    (ftl, wl)
}

/// Warm-up + FIO read phase driven through the queue-depth-bounded runner
/// ([`Runner::run_qd`]): the protocol behind the queue-depth sweep that
/// extends Figure 21's tail-latency analysis. Identical to [`fio_read_run`]
/// except that at most `depth` requests are in flight at once, so queueing
/// delay becomes visible in [`RunResult::queueing`].
pub fn fio_qd_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    depth: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    assert!(pattern.is_read(), "the QD sweep measures read traffic");
    let (mut ftl, mut wl) = warmed_fio_read_setup(kind, pattern, threads, device, scale);
    Runner::new().run_qd(ftl.as_mut(), &mut wl, depth)
}

/// Like [`fio_qd_run`], but through a sharded FTL frontend
/// ([`FtlKind::build_sharded`]) and [`Runner::run_sharded_qd`], so the result
/// carries the per-shard lane breakdown. `shards == 1` is the unsharded
/// reference point of the shard-scaling sweep (`fig23_shard_scaling`): the
/// one-shard frontend is a transparent wrapper around the plain FTL.
pub fn fio_qd_sharded_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    depth: usize,
    shards: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> ShardedRunResult {
    let (mut ftl, mut wl) = warmed_sharded_fio_setup(kind, pattern, threads, shards, device, scale);
    Runner::new().run_sharded_qd(&mut ftl, &mut wl, depth)
}

/// Builds and warms the sharded frontend of the FIO read protocol and
/// returns it with the measured workload, for callers that drive (and time)
/// the measured phase themselves — the wall-clock scaling experiment
/// (`fig25_wallclock_scaling`) must exclude construction and warm-up from
/// its measurements. Identical preparation to [`fio_qd_sharded_run`], so
/// runs measured either way are comparable.
pub fn warmed_sharded_fio_setup(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    shards: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> (ftl_shard::ShardedFtl<Box<dyn Ftl>>, FioWorkload) {
    warmed_sharded_fio_setup_with(
        kind,
        pattern,
        threads,
        shards,
        device,
        scale,
        LearnedFtlConfig::default(),
    )
}

/// [`warmed_sharded_fio_setup`] with explicit LearnedFTL parameters.
/// Cross-backend wall-clock comparisons pass
/// [`LearnedFtlConfig::with_charge_training_time`]`(false)`: billing the
/// trainer's host wall clock into simulated time would make separately
/// prepared instances diverge, which is exactly what a backend-equivalence
/// check must not be exposed to.
#[allow(clippy::too_many_arguments)]
pub fn warmed_sharded_fio_setup_with(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    shards: usize,
    device: SsdConfig,
    scale: ExperimentScale,
    learned: LearnedFtlConfig,
) -> (ftl_shard::ShardedFtl<Box<dyn Ftl>>, FioWorkload) {
    assert!(pattern.is_read(), "the sharded FIO protocol measures reads");
    let mut ftl = kind.build_sharded_with(
        device,
        shards,
        BaselineConfig::default().for_shard(shards),
        learned,
    );
    let wl = warm_and_workload_read(&mut ftl, pattern, threads, scale);
    (ftl, wl)
}

/// [`fio_read_run`] with structured tracing enabled for the measured phase:
/// the warm-up runs untraced (its events are not part of the measurement),
/// then tracing turns on and the measured closed-loop phase records the full
/// span/instant stream into [`RunResult::trace`].
pub fn fio_read_traced_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    assert!(pattern.is_read(), "use fio_write_run for write patterns");
    let (mut ftl, mut wl) = warmed_fio_read_setup(kind, pattern, threads, device, scale);
    ftl.set_tracing(true);
    Runner::new().run(ftl.as_mut(), &mut wl)
}

/// [`fio_qd_run`] with structured tracing enabled for the measured phase
/// (see [`fio_read_traced_run`]); what the queue-depth sweep binary exports
/// when `--trace-out` is given.
pub fn fio_qd_traced_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    depth: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    assert!(pattern.is_read(), "the QD sweep measures read traffic");
    let (mut ftl, mut wl) = warmed_fio_read_setup(kind, pattern, threads, device, scale);
    ftl.set_tracing(true);
    Runner::new().run_qd(ftl.as_mut(), &mut wl, depth)
}

/// [`fio_qd_sharded_run`] with structured tracing enabled for the measured
/// phase (see [`fio_read_traced_run`]); the trace determinism suite compares
/// this against [`fio_qd_threaded_traced_run`] byte for byte.
#[allow(clippy::too_many_arguments)]
pub fn fio_qd_sharded_traced_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    depth: usize,
    shards: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> ShardedRunResult {
    let (mut ftl, mut wl) = warmed_sharded_fio_setup(kind, pattern, threads, shards, device, scale);
    ftl.set_tracing(true);
    Runner::new().run_sharded_qd(&mut ftl, &mut wl, depth)
}

/// [`fio_qd_sharded_traced_run`] on the thread-parallel backend
/// ([`Runner::run_threaded_qd`]): per-shard traces are recorded
/// worker-locally and merged after the run, producing the identical stream
/// to the simulated backend's.
#[allow(clippy::too_many_arguments)]
pub fn fio_qd_threaded_traced_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    depth: usize,
    shards: usize,
    workers: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> ShardedRunResult {
    let (mut ftl, mut wl) = warmed_sharded_fio_setup(kind, pattern, threads, shards, device, scale);
    ftl.set_tracing(true);
    Runner::new().run_threaded_qd(&mut ftl, &mut wl, depth, workers)
}

/// Warm-up + FIO read phase with *open-loop* Poisson arrivals
/// ([`Runner::run_open_loop`]) through a sharded frontend: the
/// latency-vs-offered-load protocol of `fig23_shard_scaling`. The offered
/// load is `1 / mean_interarrival`; `shards == 1` gives the unsharded
/// reference curve.
pub fn fio_open_loop_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    shards: usize,
    mean_interarrival: Duration,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    let (mut ftl, mut wl) = warmed_sharded_fio_setup(kind, pattern, threads, shards, device, scale);
    Runner::new().run_open_loop(&mut ftl, &mut wl, mean_interarrival, OPEN_LOOP_ARRIVAL_SEED)
}

/// The GC-interference protocol behind `fig24_gc_interference`: a sharded
/// frontend whose shards run either blocking or scheduled garbage collection
/// serves *open-loop* Poisson random-write traffic (`write_pages` pages per
/// request — the paper's warm-up-style large writes, not the 4 KiB probe
/// stream) after a sequential fill. Large requests matter beyond raw bytes:
/// one request's page programs land several-deep on each chip, which is what
/// makes queued GC charges yield repeatedly and the starvation bound
/// actually force collections through (`gc_forced`).
///
/// Writes over a filled device force steady collections during the measured
/// phase, which is exactly where the two GC modes diverge: blocking GC
/// serialises each collection onto the triggering write (tail-latency
/// spikes), scheduled GC lets the collection's flash commands contend with
/// host commands chip by chip under the scheduler's starvation bound. Open
/// loop matters twice over — it models load that does not politely pause for
/// GC, and it keeps the request stream identical across modes (arrivals are
/// seeded, not completion-driven), so for FTLs whose allocation ignores
/// device timing (LearnedFTL's group allocator) the two modes must perform
/// **bit-identical aggregate flash work**; the workspace GC-scheduling test
/// and the fig24 binary assert exactly that.
///
/// Outstanding scheduled collections are drained into the result before it
/// is returned, so its statistics cover each run's complete GC work.
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
) -> RunResult {
    gc_interference_run_impl(
        kind,
        threads,
        write_pages,
        shards,
        gc_mode,
        mean_interarrival,
        device,
        scale,
        false,
    )
}

/// [`fio_gc_interference_run`] with structured tracing enabled for the
/// measured phase — the run whose trace actually shows GC-priority flash
/// spans, arbitration yields and forced collections interleaving with host
/// traffic. The post-run GC drain's flash events are folded into the trace,
/// and the GC trigger/complete instants are rebuilt from the final
/// statistics, so the trace covers the run's complete GC work just as its
/// statistics do.
#[allow(clippy::too_many_arguments)]
pub fn fio_gc_interference_traced_run(
    kind: FtlKind,
    threads: usize,
    write_pages: u32,
    shards: usize,
    gc_mode: GcMode,
    mean_interarrival: Duration,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    gc_interference_run_impl(
        kind,
        threads,
        write_pages,
        shards,
        gc_mode,
        mean_interarrival,
        device,
        scale,
        true,
    )
}

#[allow(clippy::too_many_arguments)]
fn gc_interference_run_impl(
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
    let baseline = BaselineConfig::default()
        .for_shard(shards)
        .with_gc_mode(gc_mode);
    // Charge only *flash* time in both modes: scheduled GC never bills the
    // trainer's wall clock to the simulated timeline, so the blocking
    // reference must not either — this keeps the mode comparison
    // apples-to-apples and the whole protocol bit-for-bit deterministic.
    let learned = LearnedFtlConfig::default()
        .with_gc_mode(gc_mode)
        .with_charge_training_time(false);
    let mut ftl = kind.build_sharded_with(device, shards, baseline, learned);
    warmup::sequential_fill(&mut ftl, scale.warmup_io_pages, 1, ssd_sim::SimTime::ZERO);
    ftl.drain_gc();
    ftl.set_tracing(traced);
    let mut wl = FioWorkload::new(
        FioPattern::RandWrite,
        ftl.logical_pages(),
        threads,
        write_pages,
        scale.ops_per_stream,
        FIO_WORKLOAD_SEED,
    );
    let mut result =
        Runner::new().run_open_loop(&mut ftl, &mut wl, mean_interarrival, OPEN_LOOP_ARRIVAL_SEED);
    ftl.drain_gc();
    result.stats = ftl.stats().clone();
    result.device = ftl.device_stats();
    if traced {
        fold_drained_gc_trace(&mut ftl, &mut result);
    }
    result
}

/// Folds a post-run GC drain into an already-taken trace: the drain just ran
/// scheduled collections to completion after the runner had taken the trace,
/// so its flash events are appended, and the GC trigger/complete instants
/// are rebuilt from the final statistics so they cover the same window the
/// statistics do.
fn fold_drained_gc_trace(ftl: &mut crate::ShardedFtl<Box<dyn Ftl>>, result: &mut RunResult) {
    result.trace.extend(ftl.take_trace());
    result
        .trace
        .retain(|e| !matches!(e.data, TraceData::GcTrigger | TraceData::GcComplete));
    push_gc_instants(&mut result.trace, &result.stats);
    result.trace.sort_by_key(|e| e.start);
    result.profile.trace_events = result.trace.len() as u64;
}

/// The multi-tenant noisy-neighbour protocol (fig28): N namespace-style
/// tenants with disjoint LPN ranges share a sharded FTL, their merged
/// arrival streams admitted per shard either under weighted per-tenant
/// arbitration (`isolate = true`) or in plain FIFO arrival order
/// (`isolate = false`). Comparing a victim tenant's tail latency across the
/// two modes quantifies what the weighted scheduler buys back from a
/// write-heavy aggressor.
///
/// Protocol: build the sharded FTL with `gc_mode` collections, sequentially
/// fill the device (so every tenant's reads hit mapped pages and GC has
/// work), drain warm-up GC, then run the tenant set to completion and drain
/// again so the statistics cover all collections the run triggered.
#[allow(clippy::too_many_arguments)]
pub fn tenant_noisy_neighbour_run(
    kind: FtlKind,
    specs: Vec<workloads::TenantSpec>,
    shards: usize,
    gc_mode: GcMode,
    device: SsdConfig,
    scale: ExperimentScale,
    isolate: bool,
    traced: bool,
) -> TenantRunResult {
    let baseline = BaselineConfig::default()
        .for_shard(shards)
        .with_gc_mode(gc_mode);
    let learned = LearnedFtlConfig::default()
        .with_gc_mode(gc_mode)
        .with_charge_training_time(false);
    let mut ftl = kind.build_sharded_with(device, shards, baseline, learned);
    warmup::sequential_fill(&mut ftl, scale.warmup_io_pages, 1, ssd_sim::SimTime::ZERO);
    ftl.drain_gc();
    ftl.set_tracing(traced);
    let mut tenants = workloads::TenantSet::new(specs, ftl.logical_pages(), TENANT_WORKLOAD_SEED);
    let mut run = Runner::new().run_tenants(&mut ftl, &mut tenants, isolate);
    ftl.drain_gc();
    run.result.stats = ftl.stats().clone();
    run.result.device = ftl.device_stats();
    if traced {
        fold_drained_gc_trace(&mut ftl, &mut run.result);
    }
    run
}

/// Warm-up + closed-loop FIO read phase against an FTL sharded `shards` ways
/// (`1` = the plain monolithic FTL): what `fig14 --shards N` runs.
pub fn fio_read_sharded_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    shards: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    assert!(pattern.is_read(), "use fio_write_sharded_run for writes");
    let mut ftl = kind.build_maybe_sharded(device, shards);
    let mut wl = warm_and_workload_read(ftl.as_mut(), pattern, threads, scale);
    Runner::new().run(ftl.as_mut(), &mut wl)
}

/// Warm-up + closed-loop FIO write phase against an FTL sharded `shards`
/// ways (`1` = the plain monolithic FTL).
pub fn fio_write_sharded_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    shards: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    assert!(!pattern.is_read(), "use fio_read_sharded_run for reads");
    let mut ftl = kind.build_maybe_sharded(device, shards);
    let mut wl = warm_and_workload_write(ftl.as_mut(), pattern, threads, scale);
    Runner::new().run(ftl.as_mut(), &mut wl)
}

/// Warm-up + queue-depth-bounded FIO **write** phase with multi-page
/// requests: the protocol behind the plane-scaling sweep
/// (`fig26_plane_scaling`). Multi-page writes at a bounded queue depth are
/// what keeps every plane of every chip fed, so the sweep can expose the
/// intra-chip parallelism that plane-striped allocation unlocks.
#[allow(clippy::too_many_arguments)]
pub fn fio_write_qd_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    pages_per_request: u32,
    depth: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    assert!(!pattern.is_read(), "the plane sweep measures write traffic");
    let mut ftl = kind.build(device);
    warmup::sequential_fill(
        ftl.as_mut(),
        scale.warmup_io_pages,
        1,
        ssd_sim::SimTime::ZERO,
    );
    let mut wl = FioWorkload::new(
        pattern,
        ftl.logical_pages(),
        threads,
        pages_per_request,
        scale.ops_per_stream,
        FIO_WORKLOAD_SEED,
    );
    Runner::new().run_qd(ftl.as_mut(), &mut wl, depth)
}

/// Warm-up + FIO write phase (Figures 14-write, 16, 17, 18a).
pub fn fio_write_run(
    kind: FtlKind,
    pattern: FioPattern,
    threads: usize,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    assert!(!pattern.is_read(), "use fio_read_run for read patterns");
    let mut ftl = kind.build(device);
    let mut wl = warm_and_workload_write(ftl.as_mut(), pattern, threads, scale);
    Runner::new().run(ftl.as_mut(), &mut wl)
}

/// Warm-up + Filebench phase (Figures 7 and 20).
pub fn filebench_run(
    kind: FtlKind,
    preset: FilebenchPreset,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    let mut ftl = kind.build(device);
    warmup::sequential_fill(
        ftl.as_mut(),
        scale.warmup_io_pages,
        1,
        ssd_sim::SimTime::ZERO,
    );
    let ops_per_thread = (scale.single_stream_ops / preset.threads() as u64).max(10);
    let mut wl = FilebenchWorkload::new(preset, ftl.logical_pages(), ops_per_thread, 0xCAFE);
    Runner::new().run(ftl.as_mut(), &mut wl)
}

/// RocksDB db_bench protocol (Figure 19): `fillseq` + `overwrite` to populate
/// the database (80 % of the device), then the measured read phase.
pub fn rocksdb_run(
    kind: FtlKind,
    phase: RocksDbPhase,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    let mut ftl = kind.build(device);
    let db_pages = ftl.logical_pages() * 8 / 10;
    // fillseq until the DB footprint is written once.
    let fill_ops = (db_pages / u64::from(RocksDbWorkload::SSTABLE_PAGES)).max(1);
    let mut fill = RocksDbWorkload::new(RocksDbPhase::FillSeq, db_pages, fill_ops, 1);
    Runner::new().run(ftl.as_mut(), &mut fill);
    // overwrite pass: compaction-shaped churn.
    let mut over = RocksDbWorkload::new(RocksDbPhase::Overwrite, db_pages, fill_ops / 2 + 1, 2);
    Runner::new().run(ftl.as_mut(), &mut over);
    // Measured phase.
    let ops = match phase {
        RocksDbPhase::ReadSeq => scale.single_stream_ops / 8,
        _ => scale.single_stream_ops,
    }
    .max(1);
    let mut wl = RocksDbWorkload::new(phase, db_pages, ops, 3);
    Runner::new().run(ftl.as_mut(), &mut wl)
}

/// Trace replay (Figures 21 and 22): warm the device, then replay a synthetic
/// trace with the Table II characteristics using `streams` closed-loop
/// streams.
pub fn trace_run(
    kind: FtlKind,
    trace: TraceKind,
    streams: usize,
    trace_len: u64,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    trace_run_impl(kind, trace, streams, trace_len, device, scale, false)
}

/// [`trace_run`] with structured tracing enabled for the measured replay
/// phase (see [`fio_read_traced_run`]); what the tail-latency binary exports
/// when `--trace-out` is given.
pub fn trace_traced_run(
    kind: FtlKind,
    trace: TraceKind,
    streams: usize,
    trace_len: u64,
    device: SsdConfig,
    scale: ExperimentScale,
) -> RunResult {
    trace_run_impl(kind, trace, streams, trace_len, device, scale, true)
}

fn trace_run_impl(
    kind: FtlKind,
    trace: TraceKind,
    streams: usize,
    trace_len: u64,
    device: SsdConfig,
    scale: ExperimentScale,
    traced: bool,
) -> RunResult {
    let mut ftl = kind.build(device);
    warmup::paper_warmup(
        ftl.as_mut(),
        scale.warmup_io_pages,
        scale.warmup_overwrites,
        0xFEED,
    );
    let synthetic = SyntheticTrace::generate(trace, ftl.logical_pages(), trace_len, 0xD00D);
    let mut wl = synthetic.into_workload(streams);
    if traced {
        ftl.set_tracing(true);
    }
    Runner::new().run(ftl.as_mut(), &mut wl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fio_read_run_produces_sane_results() {
        let r = fio_read_run(
            FtlKind::Tpftl,
            FioPattern::RandRead,
            2,
            SsdConfig::tiny(),
            ExperimentScale::quick(),
        );
        assert_eq!(r.requests, 400);
        assert_eq!(r.write_pages, 0);
        assert!(r.mib_per_sec() > 0.0);
        assert!(r.stats.host_read_pages > 0);
    }

    #[test]
    fn fio_write_run_counts_writes_only() {
        let r = fio_write_run(
            FtlKind::Ideal,
            FioPattern::SeqWrite,
            2,
            SsdConfig::tiny(),
            ExperimentScale::quick(),
        );
        assert_eq!(r.read_pages, 0);
        assert!(r.write_pages > 0);
        assert!(r.write_amplification() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "fio_write_run")]
    fn read_helper_rejects_write_patterns() {
        fio_read_run(
            FtlKind::Ideal,
            FioPattern::SeqWrite,
            1,
            SsdConfig::tiny(),
            ExperimentScale::quick(),
        );
    }

    #[test]
    fn fio_qd_run_bounds_concurrency() {
        let deep = fio_qd_run(
            FtlKind::Ideal,
            FioPattern::RandRead,
            4,
            4,
            SsdConfig::tiny(),
            ExperimentScale::quick(),
        );
        let shallow = fio_qd_run(
            FtlKind::Ideal,
            FioPattern::RandRead,
            4,
            1,
            SsdConfig::tiny(),
            ExperimentScale::quick(),
        );
        assert_eq!(deep.requests, shallow.requests);
        assert!(deep.iops() > shallow.iops(), "deeper queue must raise IOPS");
        assert!(shallow.queueing.max() > ssd_sim::Duration::ZERO);
    }

    #[test]
    fn trace_run_replays_requested_length() {
        let r = trace_run(
            FtlKind::Ideal,
            TraceKind::Systor17,
            4,
            500,
            SsdConfig::tiny(),
            ExperimentScale::quick(),
        );
        assert_eq!(r.requests, 500);
        assert!(r.latencies.count() == 500);
    }
}
