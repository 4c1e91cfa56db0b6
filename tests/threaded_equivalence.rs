//! Cross-backend equivalence: the thread-parallel execution backend
//! (`Runner::run_threaded_qd`) must be *semantically identical* to the
//! simulated backend (`run_sharded_qd`) — same per-request simulated-time
//! latencies, same aggregate flash work, same `FtlStats` (including the
//! order of the GC event history) — for every FTL design, both GC execution modes and every
//! shard count, because shards are independent and each worker replays the
//! same deterministic per-shard stream. Only host wall-clock may differ.
//!
//! Each configuration runs the threaded backend twice from identically
//! prepared devices, pinning run-to-run determinism of the threaded path on
//! top of the cross-backend agreement.

use baselines::BaselineConfig;
use ftl_base::{Ftl, GcMode};
use harness::{FtlKind, RunResult, Runner, ShardedRunResult};
use learnedftl::LearnedFtlConfig;
use ssd_sim::{Geometry, SimTime, SsdConfig};
use workloads::{warmup, FioPattern, FioWorkload};

use ftl_shard::ShardedFtl;

/// A device every swept shard count {1, 2, 4} divides cleanly, small enough
/// that the full matrix stays quick: 4 channels × 2 chips with 256-page
/// blocks, so even a 1-channel shard spans one full translation page per
/// block row (LearnedFTL's group allocation requires 512 mappings per row).
/// LearnedFTL additionally needs enough block rows per shard for its group
/// reserve, so it runs on a deeper variant. The planes=2 split costs extra
/// whole blocks per chip (one translation block per *plane*, plus
/// LearnedFTL's per-plane group-row reserve), so those configurations get
/// more over-provisioning resp. a deeper device — enough that GC runs in a
/// realistic regime instead of permanently pinned at the watermark.
fn device(kind: FtlKind, planes: u32) -> SsdConfig {
    let (blocks, op_ratio) = match (kind == FtlKind::LearnedFtl, planes) {
        (true, 1) => (16, 0.4),
        (true, _) => (20, 0.4),
        (false, 1) => (8, 0.4),
        (false, _) => (8, 0.5),
    };
    SsdConfig::tiny()
        .with_geometry(Geometry::new(4, 2, 1, blocks, 256, 4096))
        .with_op_ratio(op_ratio)
        .with_planes(planes)
}

/// Builds one configuration's frontend (explicit GC mode, shard-scaled
/// parameters) and fills the device so the write phase forces collections.
fn prepared(kind: FtlKind, mode: GcMode, shards: usize, planes: u32) -> ShardedFtl<Box<dyn Ftl>> {
    let baseline = BaselineConfig::default()
        .for_shard(shards)
        .with_gc_mode(mode);
    let learned = LearnedFtlConfig::default().with_gc_mode(mode);
    let mut ftl = kind.build_sharded_with(device(kind, planes), shards, baseline, learned);
    warmup::sequential_fill(&mut ftl, 32, 1, SimTime::ZERO);
    ftl.drain_gc();
    ftl
}

fn write_phase(pages: u64) -> FioWorkload {
    // 4-page random writes: spans several shards per request, and sized so
    // the churn (45% of the logical space) exceeds the 0.4 over-provisioning
    // ratio's free space — GC must run during the measured phase.
    let ops_per_stream = (pages * 45 / 100).div_ceil(4 * 4);
    FioWorkload::new(FioPattern::RandWrite, pages, 4, 4, ops_per_stream, 13)
}

fn read_phase(pages: u64) -> FioWorkload {
    FioWorkload::new(FioPattern::RandRead, pages, 4, 1, 300, 29)
}

/// Field-wise equality of everything a run measures. `FtlStats` is compared
/// without the two host wall-clock fields (`sort_wall_time`,
/// `train_wall_time`): wall clock is exactly what the backends are allowed
/// to change.
fn assert_results_equal(context: &str, simulated: &RunResult, threaded: &RunResult) {
    let mut a = simulated.clone();
    let mut b = threaded.clone();
    assert_eq!(a.requests, b.requests, "{context}: requests");
    assert_eq!(a.read_pages, b.read_pages, "{context}: read_pages");
    assert_eq!(a.write_pages, b.write_pages, "{context}: write_pages");
    assert_eq!(a.bytes, b.bytes, "{context}: bytes");
    assert_eq!(a.elapsed, b.elapsed, "{context}: elapsed");
    assert_eq!(
        a.latencies.count(),
        b.latencies.count(),
        "{context}: latency sample count"
    );
    assert_eq!(
        a.latencies.mean(),
        b.latencies.mean(),
        "{context}: mean latency"
    );
    assert_eq!(
        a.latencies.max(),
        b.latencies.max(),
        "{context}: max latency"
    );
    assert_eq!(a.p99(), b.p99(), "{context}: p99");
    assert_eq!(a.p999(), b.p999(), "{context}: p999");
    assert_eq!(
        a.queueing.count(),
        b.queueing.count(),
        "{context}: queueing count"
    );
    assert_eq!(
        a.queueing.mean(),
        b.queueing.mean(),
        "{context}: mean queueing"
    );
    assert_eq!(
        a.queueing.max(),
        b.queueing.max(),
        "{context}: max queueing"
    );
    assert_eq!(a.device, b.device, "{context}: device counters");

    let (s, t) = (&a.stats, &b.stats);
    assert_eq!(s.host_read_pages, t.host_read_pages, "{context}");
    assert_eq!(s.host_write_pages, t.host_write_pages, "{context}");
    assert_eq!(s.cmt_hits, t.cmt_hits, "{context}: cmt_hits");
    assert_eq!(s.cmt_misses, t.cmt_misses, "{context}: cmt_misses");
    assert_eq!(s.model_hits, t.model_hits, "{context}: model_hits");
    assert_eq!(s.buffer_hits, t.buffer_hits, "{context}: buffer_hits");
    assert_eq!(s.unmapped_reads, t.unmapped_reads, "{context}");
    assert_eq!(s.single_reads, t.single_reads, "{context}");
    assert_eq!(s.double_reads, t.double_reads, "{context}");
    assert_eq!(s.triple_reads, t.triple_reads, "{context}");
    assert_eq!(s.data_page_writes, t.data_page_writes, "{context}");
    assert_eq!(s.gc_page_writes, t.gc_page_writes, "{context}");
    assert_eq!(s.gc_page_reads, t.gc_page_reads, "{context}");
    assert_eq!(s.translation_writes, t.translation_writes, "{context}");
    assert_eq!(s.translation_reads, t.translation_reads, "{context}");
    assert_eq!(s.gc_count, t.gc_count, "{context}: gc_count");
    assert_eq!(s.blocks_erased, t.blocks_erased, "{context}");
    assert_eq!(
        s.gc_events, t.gc_events,
        "{context}: GC event history (values and order)"
    );
    assert_eq!(
        s.gc_complete_events, t.gc_complete_events,
        "{context}: GC completion history (values and order)"
    );
    assert_eq!(s.gc_stalled_exits, t.gc_stalled_exits, "{context}");
    assert_eq!(s.gc_yields, t.gc_yields, "{context}: gc_yields");
    assert_eq!(s.gc_forced, t.gc_forced, "{context}: gc_forced");
    assert_eq!(s.gc_flash_time, t.gc_flash_time, "{context}: gc_flash_time");
    assert_eq!(s.models_trained, t.models_trained, "{context}");
    assert_eq!(s.model_predictions, t.model_predictions, "{context}");
}

fn assert_sharded_equal(context: &str, simulated: &ShardedRunResult, threaded: &ShardedRunResult) {
    assert_results_equal(context, &simulated.result, &threaded.result);
    assert_eq!(
        simulated.lanes.len(),
        threaded.lanes.len(),
        "{context}: lane count"
    );
    for (a, b) in simulated.lanes.iter().zip(&threaded.lanes) {
        assert_eq!(
            a.requests, b.requests,
            "{context}: lane {} requests",
            a.shard
        );
        assert_eq!(
            a.latencies.mean(),
            b.latencies.mean(),
            "{context}: lane {} mean",
            a.shard
        );
        assert_eq!(
            a.latencies.max(),
            b.latencies.max(),
            "{context}: lane {} max",
            a.shard
        );
    }
}

/// Drives one prepared frontend through a write phase then a read phase on
/// the given backend (`workers == 0` selects the simulated backend), so the
/// comparison covers GC-heavy writes, the read path, and backend state
/// carried *between* measured phases.
fn two_phase(
    ftl: &mut ShardedFtl<Box<dyn Ftl>>,
    workers: usize,
) -> (ShardedRunResult, ShardedRunResult) {
    let pages = ftl.logical_pages();
    let runner = Runner::new();
    let writes = if workers == 0 {
        runner.run_sharded_qd(ftl, &mut write_phase(pages), 8)
    } else {
        runner.run_threaded_qd(ftl, &mut write_phase(pages), 8, workers)
    };
    let reads = if workers == 0 {
        runner.run_sharded_qd(ftl, &mut read_phase(pages), 8)
    } else {
        runner.run_threaded_qd(ftl, &mut read_phase(pages), 8, workers)
    };
    (writes, reads)
}

fn check_configuration(kind: FtlKind, mode: GcMode, shards: usize, planes: u32) {
    let context = format!("{kind} {mode:?} shards={shards} planes={planes}");

    let mut simulated = prepared(kind, mode, shards, planes);
    let (sim_writes, sim_reads) = two_phase(&mut simulated, 0);

    // Threaded, run twice from identically prepared devices: the first run
    // pins cross-backend agreement, the second pins determinism.
    let workers = shards.clamp(2, 4);
    let mut threaded_a = prepared(kind, mode, shards, planes);
    let (thr_writes_a, thr_reads_a) = two_phase(&mut threaded_a, workers);
    let mut threaded_b = prepared(kind, mode, shards, planes);
    let (thr_writes_b, thr_reads_b) = two_phase(&mut threaded_b, workers);

    assert_sharded_equal(&format!("{context} [writes]"), &sim_writes, &thr_writes_a);
    assert_sharded_equal(&format!("{context} [reads]"), &sim_reads, &thr_reads_a);
    assert_sharded_equal(
        &format!("{context} [writes, rerun]"),
        &thr_writes_a,
        &thr_writes_b,
    );
    assert_sharded_equal(
        &format!("{context} [reads, rerun]"),
        &thr_reads_a,
        &thr_reads_b,
    );
}

macro_rules! equivalence_tests {
    ($($name:ident / $name2:ident: $kind:expr, $mode:expr;)*) => {
        $(
            #[test]
            fn $name() {
                for shards in [1usize, 2, 4] {
                    check_configuration($kind, $mode, shards, 1);
                }
            }

            /// The same configuration on a two-plane geometry: plane-parallel
            /// dispatch and multi-plane program groups must stay
            /// deterministic and backend-agnostic too. One sharded
            /// configuration (shards=2) bounds the extra runtime — the
            /// single-shard planes=2 path is pinned by the crate-level
            /// equivalence tests and `fig26_plane_scaling`.
            #[test]
            fn $name2() {
                check_configuration($kind, $mode, 2, 2);
            }
        )*
    };
}

equivalence_tests! {
    dftl_blocking / dftl_blocking_planes2: FtlKind::Dftl, GcMode::Blocking;
    dftl_scheduled / dftl_scheduled_planes2: FtlKind::Dftl, GcMode::Scheduled;
    tpftl_blocking / tpftl_blocking_planes2: FtlKind::Tpftl, GcMode::Blocking;
    tpftl_scheduled / tpftl_scheduled_planes2: FtlKind::Tpftl, GcMode::Scheduled;
    leaftl_blocking / leaftl_blocking_planes2: FtlKind::LeaFtl, GcMode::Blocking;
    leaftl_scheduled / leaftl_scheduled_planes2: FtlKind::LeaFtl, GcMode::Scheduled;
    learnedftl_blocking / learnedftl_blocking_planes2: FtlKind::LearnedFtl, GcMode::Blocking;
    learnedftl_scheduled / learnedftl_scheduled_planes2: FtlKind::LearnedFtl, GcMode::Scheduled;
    ideal_blocking / ideal_blocking_planes2: FtlKind::Ideal, GcMode::Blocking;
    ideal_scheduled / ideal_scheduled_planes2: FtlKind::Ideal, GcMode::Scheduled;
}

#[test]
fn scheduled_write_phase_actually_collects() {
    // Sanity anchor for the matrix above: the write phase must force real
    // collections (otherwise the GC-mode dimension would be vacuous).
    let mut ftl = prepared(FtlKind::Dftl, GcMode::Scheduled, 1, 1);
    let pages = ftl.logical_pages();
    let result = Runner::new().run_threaded_qd(&mut ftl, &mut write_phase(pages), 8, 2);
    assert!(
        result.result.stats.gc_count > 0,
        "write phase must trigger collections, got none"
    );
    assert!(
        !result.result.stats.gc_events.is_empty(),
        "GC events must be recorded for the event-order comparison to bite"
    );
}

#[test]
fn planes2_write_phase_actually_collects() {
    // Same anchor for the planes=2 half of the matrix: the roomier
    // over-provisioning must not make the GC dimension vacuous.
    let mut ftl = prepared(FtlKind::Dftl, GcMode::Scheduled, 2, 2);
    let pages = ftl.logical_pages();
    let result = Runner::new().run_threaded_qd(&mut ftl, &mut write_phase(pages), 8, 2);
    assert!(
        result.result.stats.gc_count > 0,
        "planes=2 write phase must trigger collections, got none"
    );
}
