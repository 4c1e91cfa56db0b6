//! Workspace acceptance tests for FTL-integrated GC scheduling: routing GC
//! flash traffic through the I/O scheduler's GC priority class must change
//! *when* collections cost time, never *what* they do.
//!
//! The pinned invariant (also enforced at quick scale by
//! `repro fig24_gc_interference` in CI): under an identical open-loop
//! random-write stream, scheduled GC and blocking GC perform bit-identical
//! aggregate flash work for FTLs whose allocation policies ignore device
//! timing — LearnedFTL's group allocator end to end, and any pool-based FTL
//! on a single-chip device (where the least-busy-chip steering has one
//! choice). On top of that, at shards=4 under write-heavy load the scheduled
//! mode must improve host p99 latency, with the starvation bound visibly
//! exercised (`gc_forced > 0`).

use ftl_base::GcMode;
use harness::experiments::{fio_gc_interference_run, ExperimentScale};
use harness::FtlKind;
use ssd_sim::{Duration, Geometry, SsdConfig};

/// The 8-channel device of the shard sweeps: every shard count in {1, 4}
/// divides it into equal channel groups, and a quarter-device shard still
/// holds one full translation-page span per block row for LearnedFTL's
/// groups (4 chips x 128 pages/block = 512 mappings). The small blocks keep
/// block rows small, so the measured churn forces collections quickly.
fn gc_device() -> SsdConfig {
    SsdConfig::tiny()
        .with_geometry(Geometry::new(8, 2, 1, 16, 128, 4096))
        .with_op_ratio(0.4)
}

/// Enough random-write churn after the sequential fill to push every shard's
/// group allocator into repeated collections during the measured phase.
fn gc_scale() -> ExperimentScale {
    ExperimentScale {
        warmup_io_pages: 32,
        warmup_overwrites: 1,
        ops_per_stream: 400,
        single_stream_ops: 2_000,
    }
}

/// The measured requests are 128 KiB random writes (the paper's warm-up-size
/// I/O): large requests land several page programs deep on each chip, which
/// is what lets queued GC charges accumulate bypasses against real host runs.
const WRITE_PAGES: u32 = 32;

/// Write-heavy offered load: one 128 KiB write every 160 us is beyond what
/// the device sustains once collections start, which is exactly the regime
/// where blocking and scheduled GC diverge.
const HEAVY_GAP: Duration = Duration::from_micros(160);

fn run(kind: FtlKind, shards: usize, mode: GcMode) -> harness::RunResult {
    fio_gc_interference_run(
        kind,
        4,
        WRITE_PAGES,
        shards,
        mode,
        HEAVY_GAP,
        gc_device(),
        gc_scale(),
        false,
    )
}

/// Asserts that two runs performed bit-identical aggregate flash work.
fn assert_same_flash_work(blocking: &harness::RunResult, scheduled: &harness::RunResult) {
    // GC flash work: page reads, page writes (relocations) and erases.
    assert_eq!(blocking.stats.gc_page_reads, scheduled.stats.gc_page_reads);
    assert_eq!(
        blocking.stats.gc_page_writes,
        scheduled.stats.gc_page_writes
    );
    assert_eq!(blocking.stats.blocks_erased, scheduled.stats.blocks_erased);
    assert_eq!(blocking.stats.gc_count, scheduled.stats.gc_count);
    // Host and translation work agree too: the modes made identical logical
    // decisions and only differed in when the flash time was charged.
    assert_eq!(
        blocking.stats.data_page_writes,
        scheduled.stats.data_page_writes
    );
    assert_eq!(
        blocking.stats.translation_reads,
        scheduled.stats.translation_reads
    );
    assert_eq!(
        blocking.stats.translation_writes,
        scheduled.stats.translation_writes
    );
    // Device-level totals are the strongest form of the invariant.
    assert_eq!(blocking.device.reads, scheduled.device.reads);
    assert_eq!(blocking.device.programs, scheduled.device.programs);
    assert_eq!(blocking.device.erases, scheduled.device.erases);
}

#[test]
fn scheduled_gc_matches_blocking_flash_work_bit_for_bit_learnedftl() {
    for shards in [1usize, 4] {
        let blocking = run(FtlKind::LearnedFtl, shards, GcMode::Blocking);
        let scheduled = run(FtlKind::LearnedFtl, shards, GcMode::Scheduled);
        assert!(
            blocking.stats.gc_count > 0,
            "the protocol must force collections (shards={shards})"
        );
        assert_same_flash_work(&blocking, &scheduled);
        assert_eq!(
            blocking.stats.gc_yields + blocking.stats.gc_forced,
            0,
            "blocking GC never reaches the scheduler's arbitration"
        );
    }
}

#[test]
fn scheduled_gc_improves_p99_under_write_heavy_load_at_four_shards() {
    let mut blocking = run(FtlKind::LearnedFtl, 4, GcMode::Blocking);
    let mut scheduled = run(FtlKind::LearnedFtl, 4, GcMode::Scheduled);
    assert!(scheduled.stats.gc_count > 0, "collections must have run");
    let p99_blocking = blocking.p99();
    let p99_scheduled = scheduled.p99();
    assert!(
        p99_scheduled < p99_blocking,
        "scheduled GC must improve host p99 under write-heavy load \
         ({p99_scheduled} vs blocking {p99_blocking})"
    );
    // The arbitration is really exercised: host commands bypassed queued GC
    // charges chip by chip.
    assert!(scheduled.stats.gc_yields > 0, "host must bypass queued GC");
    // Scheduler-observed GC completions feed the timeline: one event per
    // collection unit.
    assert_eq!(
        scheduled.stats.gc_complete_events.len() as u64,
        scheduled.stats.gc_count
    );
}

#[test]
fn starvation_bound_forces_gc_through_under_write_heavy_load() {
    // DFTL's demand-map traffic keeps multi-deep host runs on single chips
    // (large writes plus translation-region cleaning bursts), so with deep
    // GC backlogs the starvation bound must visibly trigger: GC yields to
    // host commands, but never more than `gc_starvation_bound` times in a
    // row.
    let scheduled = run(FtlKind::Dftl, 4, GcMode::Scheduled);
    assert!(scheduled.stats.gc_count > 0, "collections must have run");
    assert!(scheduled.stats.gc_yields > 0, "host must bypass queued GC");
    assert!(
        scheduled.stats.gc_forced > 0,
        "the starvation bound must force GC through under heavy host load"
    );
}

#[test]
fn scheduled_gc_matches_blocking_flash_work_on_single_chip_pool_ftls() {
    // On one chip the dynamic allocator's least-busy-chip steering has a
    // single choice, so DFTL's and the ideal FTL's decisions are timing-free
    // and the invariant holds for the pool-based collector too.
    let device = SsdConfig::tiny()
        .with_geometry(Geometry::new(1, 1, 1, 32, 64, 4096))
        .with_op_ratio(0.4);
    let scale = ExperimentScale {
        warmup_io_pages: 16,
        warmup_overwrites: 1,
        ops_per_stream: 500,
        single_stream_ops: 1_000,
    };
    for kind in [FtlKind::Dftl, FtlKind::Ideal] {
        let blocking = fio_gc_interference_run(
            kind,
            2,
            4,
            1,
            GcMode::Blocking,
            Duration::from_micros(120),
            device,
            scale,
            false,
        );
        let scheduled = fio_gc_interference_run(
            kind,
            2,
            4,
            1,
            GcMode::Scheduled,
            Duration::from_micros(120),
            device,
            scale,
            false,
        );
        assert!(
            blocking.stats.gc_count > 0,
            "{kind:?}: the churn must force collections"
        );
        assert_same_flash_work(&blocking, &scheduled);
    }
}

/// Blocking GC's copy rule (`ftl_base::GcMode::Blocking`): a collection keeps
/// one copy chain per source plane. A copy's read issues when the previous
/// copy off the same plane has finished and its program when the read is
/// done, so copies off different planes overlap through the plane and
/// channel timelines. A LearnedFTL group collection copies block rows that
/// span every plane, so its flash time stays below one fully chained copy,
/// `read + program + 2·channel_transfer`, per page moved: the floor of a
/// single chain for the whole collection, which measured 1.08× it. It cannot
/// fall below `program + channel_transfer` per page spread over every plane,
/// because a plane does one thing at a time.
#[test]
fn blocking_group_gc_copies_run_one_chain_per_source_plane() {
    let device = SsdConfig::tiny();
    let mut ftl = FtlKind::LearnedFtl.build_with(
        device,
        baselines::BaselineConfig::default(),
        learnedftl::LearnedFtlConfig::default(),
    );
    assert_eq!(ftl.gc_mode(), GcMode::Blocking);
    let mut wl = harness::experiments::fio_write(
        ftl.as_mut(),
        workloads::FioPattern::RandWrite,
        4,
        1,
        ExperimentScale::quick(),
    );
    let run = harness::Runner::new().run_qd(ftl.as_mut(), &mut wl, 4);
    let s = &run.stats;
    assert!(s.gc_count > 0, "the random writes must force collections");

    let lat = device.latency;
    let pages = s.gc_page_writes;
    let one_chain =
        pages * (lat.read + lat.program + lat.channel_transfer + lat.channel_transfer).as_nanos();
    let planes_busy =
        pages * (lat.program + lat.channel_transfer).as_nanos() / device.geometry.total_planes();
    let spent = s.gc_flash_time.as_nanos();
    assert!(
        spent < one_chain,
        "{} collections of {pages} copies took {spent} ns, not under one chain's {one_chain} ns",
        s.gc_count
    );
    assert!(
        spent >= planes_busy,
        "{pages} copies took {spent} ns, less than every plane busy ({planes_busy} ns)"
    );
}

// ---------------------------------------------------------------------------
// Golden equivalence of the scheduled-GC replay path, recorded on the commit
// before the slab-backed event loop (PR 16): a seeded churn on the tiny device
// followed by `drain_gc`, with every simulated statistic pinned. The engine,
// the scheduler and `FlashDevice::charge_op` may get cheaper; none of these
// numbers may move.
// ---------------------------------------------------------------------------

/// Every simulated scalar of a run plus hashes of its two GC timelines.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    /// `FtlStats` scalars in declaration order (the two host-time fields are
    /// not simulated and stay out).
    ftl: [u64; 25],
    /// `DeviceStats` in declaration order.
    device: [u64; 5],
    /// FNV-1a over `gc_events` / `gc_complete_events` (nanoseconds).
    gc_events_hash: u64,
    gc_complete_events_hash: u64,
    /// The time `drain_gc` reported.
    drained_ns: u64,
}

fn fnv_times(times: &[ssd_sim::SimTime]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in times {
        for b in t.as_nanos().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Seeded churn under `GcMode::Scheduled` on `SsdConfig::tiny()`: mostly
/// single-page writes (the case that runs a group GC in the middle of a
/// write), some 4-page writes (deferred host batches) and single-page reads
/// of the churned space, then a final `drain_gc`.
fn scheduled_churn(kind: FtlKind) -> Pinned {
    use baselines::BaselineConfig;
    use learnedftl::LearnedFtlConfig;
    use ssd_sim::SimTime;

    let mut ftl = kind.build_with(
        SsdConfig::tiny(),
        BaselineConfig::default().with_gc_mode(GcMode::Scheduled),
        LearnedFtlConfig::default().with_gc_mode(GcMode::Scheduled),
    );
    assert_eq!(ftl.gc_mode(), GcMode::Scheduled);
    let span = ftl.logical_pages();
    let mut t = SimTime::ZERO;
    let mut state = 0x5EED_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    // A sequential fill first, so reads always find mapped pages.
    let mut l = 0;
    while l + 8 <= span {
        t = ftl.write(l, 8, t);
        l += 8;
    }
    for _ in 0..3 * span {
        let lpn = next() % (span - 4);
        t = match next() % 10 {
            0 => ftl.write(lpn, 4, t),
            1 | 2 => ftl.read(lpn, 1, t),
            _ => ftl.write(lpn, 1, t),
        };
    }
    let drained = ftl.drain_gc();
    let s = ftl.stats();
    let d = ftl.device_stats();
    Pinned {
        ftl: [
            s.host_read_pages,
            s.host_write_pages,
            s.cmt_hits,
            s.cmt_misses,
            s.model_hits,
            s.buffer_hits,
            s.unmapped_reads,
            s.single_reads,
            s.double_reads,
            s.triple_reads,
            s.data_page_writes,
            s.gc_page_writes,
            s.gc_page_reads,
            s.translation_writes,
            s.translation_reads,
            s.gc_count,
            s.blocks_erased,
            s.gc_events.len() as u64,
            s.gc_complete_events.len() as u64,
            s.gc_stalled_exits,
            s.gc_yields,
            s.gc_forced,
            s.gc_flash_time.as_nanos(),
            s.models_trained,
            s.model_predictions,
        ],
        device: [
            d.reads,
            d.programs,
            d.erases,
            d.translation_reads,
            d.translation_programs,
        ],
        gc_events_hash: fnv_times(&s.gc_events),
        gc_complete_events_hash: fnv_times(&s.gc_complete_events),
        drained_ns: drained.as_nanos(),
    }
}

#[test]
fn scheduled_churn_reproduces_the_pinned_statistics_learnedftl() {
    let got = scheduled_churn(FtlKind::LearnedFtl);
    assert!(got.ftl[15] > 0 && got.ftl[20] > 0, "GC must run and yield");
    assert_eq!(
        got,
        Pinned {
            ftl: [
                3627,
                26268,
                34,
                3593,
                3230,
                0,
                0,
                3264,
                363,
                0,
                26268,
                293640,
                293640,
                10858,
                11209,
                408,
                2530,
                408,
                408,
                0,
                29590,
                0,
                80129575000,
                408,
                3230,
            ],
            device: [308476, 330766, 2530, 11209, 10858],
            gc_events_hash: 11376085147867947157,
            gc_complete_events_hash: 1121166136042729040,
            drained_ns: 23250170000,
        }
    );
}

#[test]
fn scheduled_churn_reproduces_the_pinned_statistics_dftl() {
    let got = scheduled_churn(FtlKind::Dftl);
    assert!(got.ftl[15] > 0 && got.ftl[20] > 0, "GC must run and yield");
    assert_eq!(
        got,
        Pinned {
            ftl: [
                3627,
                26268,
                107,
                3520,
                0,
                0,
                0,
                107,
                3520,
                0,
                26268,
                72172,
                72172,
                9268,
                12776,
                716,
                786,
                716,
                716,
                22,
                27193,
                27,
                21786075000,
                0,
                0,
            ],
            device: [88575, 107708, 786, 12776, 9268],
            gc_events_hash: 1999718007632515846,
            gc_complete_events_hash: 10791188341065063497,
            drained_ns: 8415825000,
        }
    );
}
