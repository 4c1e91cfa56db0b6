//! Golden hashes of the trace pipeline: every field of every event a traced
//! run returns in `RunResult::trace`, and the bytes of the `analysis.json`
//! that `metrics::analyze` renders from it, for five runs that between them
//! reach every section of the report:
//!
//! * LearnedFTL, unsharded, QD16 random reads (`Runner::run_qd`);
//! * DFTL sharded ×4 through `Runner::run_sharded_qd`;
//! * the same through `Runner::run_threaded_qd` with two workers, so the
//!   trace carries submission-ring batches;
//! * the fig24 GC-interference run under `GcMode::Scheduled`: command
//!   lifecycles, GC-flagged plane and bus spans, truncated exemplars;
//! * fig28's weighted noisy-neighbour run: several tenants.
//!
//! The Chrome trace JSON and the 50 us metrics CSV rendered from the same
//! events are hashed too: the exporters share the per-shard epoch table with
//! the analysis.
//!
//! The constants were recorded before the analysis engine moved from ordered
//! maps to dense per-shard tables; `gc_scheduled`'s were re-recorded when
//! open-loop host spans began to name the shard that served them instead of
//! shard 0. A speed-only change to trace recording, assembly or analysis must
//! leave them alone; a failure prints the new table.

use ftl_base::{Ftl, GcMode};
use harness::experiments::{
    fio_gc_interference_traced_run, fio_qd_sharded_traced_run, fio_qd_threaded_traced_run,
    tenant_noisy_neighbour_run, ExperimentScale,
};
use harness::{FtlKind, Runner};
use learnedftl::{LearnedFtl, LearnedFtlConfig};
use metrics::{chrome_trace_json, metrics_csv, TraceAnalysis};
use ssd_sim::{Duration, FlashOp, Geometry, SsdConfig, TraceData, TraceEvent, TraceReadClass};
use workloads::{warmup, FioPattern, FioWorkload, TenantSpec};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn op_code(op: FlashOp) -> u64 {
    match op {
        FlashOp::Read => 0,
        FlashOp::Program => 1,
        FlashOp::Erase => 2,
    }
}

fn class_code(class: TraceReadClass) -> u64 {
    match class {
        TraceReadClass::CmtHit => 0,
        TraceReadClass::ModelHit => 1,
        TraceReadClass::BufferHit => 2,
        TraceReadClass::DoubleRead => 3,
        TraceReadClass::TripleRead => 4,
    }
}

/// FNV-1a over every field of every event, in trace order. The match is
/// exhaustive, so a new payload variant cannot slip past the hash.
fn trace_hash(trace: &[TraceEvent]) -> u64 {
    let mut h = Fnv::new();
    h.u64(trace.len() as u64);
    for e in trace {
        h.u64(e.start.as_nanos());
        h.u64(e.end.as_nanos());
        h.u64(u64::from(e.shard));
        let fields: Vec<u64> = match e.data {
            TraceData::PlaneOp {
                chip,
                plane,
                op,
                gc,
            } => vec![0, chip.into(), plane.into(), op_code(op), gc.into()],
            TraceData::BusXfer { channel, op, gc } => {
                vec![1, channel.into(), op_code(op), gc.into()]
            }
            TraceData::CmdLifecycle {
                chip,
                op,
                gc,
                issued,
            } => vec![2, chip.into(), op_code(op), gc.into(), issued.as_nanos()],
            TraceData::QueueDepth { chip, host, gc } => {
                vec![3, chip.into(), host.into(), gc.into()]
            }
            TraceData::GcYield { chip } => vec![4, chip.into()],
            TraceData::GcForced { chip } => vec![5, chip.into()],
            TraceData::GcStaged { ops, units } => vec![6, ops.into(), units.into()],
            TraceData::GcDrain { outstanding } => vec![7, outstanding.into()],
            TraceData::GcTrigger => vec![8],
            TraceData::GcComplete => vec![9],
            TraceData::ReadClass { class } => vec![10, class_code(class)],
            TraceData::RingBatch { entries } => vec![11, entries.into()],
            TraceData::HostRequest {
                req,
                lane,
                write,
                pages,
                tenant,
                issue,
            } => vec![
                12,
                req,
                lane.into(),
                write.into(),
                pages.into(),
                tenant.into(),
                issue.as_nanos(),
            ],
        };
        for v in fields {
            h.u64(v);
        }
    }
    h.0
}

fn text_hash(json: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(json.as_bytes());
    h.0
}

/// 4 channels × 2 chips, deep enough for LearnedFTL's group rows; every
/// shard count used here divides it.
fn read_device() -> SsdConfig {
    SsdConfig::tiny()
        .with_geometry(Geometry::new(4, 2, 1, 16, 256, 4096))
        .with_op_ratio(0.4)
}

fn read_scale() -> ExperimentScale {
    ExperimentScale {
        warmup_io_pages: 32,
        warmup_overwrites: 1,
        ops_per_stream: 150,
        single_stream_ops: 600,
    }
}

/// LearnedFTL without the trainer's wall clock on the simulated timeline, so
/// the raw event times are a pure function of the seeds.
fn learned_qd16() -> Vec<TraceEvent> {
    let mut ftl = LearnedFtl::new(
        read_device(),
        LearnedFtlConfig::default().with_charge_training_time(false),
    );
    let scale = read_scale();
    warmup::paper_warmup(
        &mut ftl,
        scale.warmup_io_pages,
        scale.warmup_overwrites,
        0xFEED,
    );
    let mut wl = FioWorkload::new(
        FioPattern::RandRead,
        ftl.logical_pages(),
        8,
        1,
        scale.ops_per_stream,
        0xBEEF,
    );
    ftl.set_tracing(true);
    Runner::new().run_qd(&mut ftl, &mut wl, 16).trace
}

fn dftl_sharded() -> Vec<TraceEvent> {
    fio_qd_sharded_traced_run(
        FtlKind::Dftl,
        FioPattern::RandRead,
        8,
        16,
        4,
        read_device(),
        read_scale(),
    )
    .result
    .trace
}

fn dftl_threaded() -> Vec<TraceEvent> {
    fio_qd_threaded_traced_run(
        FtlKind::Dftl,
        FioPattern::RandRead,
        8,
        16,
        4,
        2,
        read_device(),
        read_scale(),
    )
    .result
    .trace
}

/// The fig24 write-heavy point: 128 KiB open-loop writes every 160 us on the
/// 8-channel shard-sweep device, LearnedFTL, scheduled GC, four shards.
fn gc_scheduled() -> Vec<TraceEvent> {
    fio_gc_interference_traced_run(
        FtlKind::LearnedFtl,
        4,
        32,
        4,
        GcMode::Scheduled,
        Duration::from_micros(160),
        SsdConfig::tiny()
            .with_geometry(Geometry::new(8, 2, 1, 16, 128, 4096))
            .with_op_ratio(0.4),
        ExperimentScale {
            warmup_io_pages: 32,
            warmup_overwrites: 1,
            ops_per_stream: 200,
            single_stream_ops: 2_000,
        },
    )
    .trace
}

/// fig28's line-up (one write-heavy aggressor at weight 1, three read-mostly
/// victims at weight 8) under weighted arbitration, DFTL, four shards.
fn tenants_weighted() -> Vec<TraceEvent> {
    let requests = 400;
    let mut specs =
        vec![TenantSpec::write_heavy(Duration::from_micros(20), requests).with_weight(1)];
    for _ in 0..3 {
        specs.push(TenantSpec::read_mostly(Duration::from_micros(60), requests / 2).with_weight(8));
    }
    tenant_noisy_neighbour_run(
        FtlKind::Dftl,
        specs,
        4,
        GcMode::Blocking,
        read_device(),
        read_scale(),
        true,
        true,
    )
    .result
    .trace
}

/// Checks that a run reaches the part of the pipeline it is here for.
fn covers(name: &str, trace: &[TraceEvent], analysis: &TraceAnalysis) {
    let has = |pred: fn(&TraceData) -> bool| trace.iter().any(|e| pred(&e.data));
    assert!(!analysis.requests.is_empty(), "{name}: no host requests");
    assert_eq!(analysis.exemplars.len(), 5, "{name}: five exemplars");
    match name {
        "dftl_sharded" => assert_eq!(analysis.shards.len(), 4, "{name}: four shards"),
        "dftl_threaded" => assert!(!analysis.rings.is_empty(), "{name}: ring batches"),
        "gc_scheduled" => {
            assert!(
                has(|d| matches!(d, TraceData::CmdLifecycle { .. })),
                "{name}: command lifecycles"
            );
            assert!(
                has(|d| matches!(d, TraceData::PlaneOp { gc: true, .. })),
                "{name}: GC-flagged plane spans"
            );
            assert!(analysis.gc_tax().host_wait_ns > 0, "{name}: GC tax");
            assert!(
                analysis.exemplars.iter().any(|x| x.truncated_spans > 0),
                "{name}: a truncated exemplar"
            );
            // Each host span rides the clock of the shard that served it.
            let served: u64 = analysis.shards.iter().map(|s| s.requests).sum();
            assert_eq!(served, 800, "{name}: every request counted once");
            for e in trace {
                if matches!(e.data, TraceData::PlaneOp { .. }) {
                    let shard = analysis.shards.iter().find(|s| s.shard == e.shard);
                    assert!(
                        shard.is_some_and(|s| s.requests > 0),
                        "{name}: shard {} has device events but no requests",
                        e.shard
                    );
                }
            }
        }
        "tenants_weighted" => assert_eq!(analysis.tenants.len(), 4, "{name}: four tenants"),
        _ => {}
    }
}

type Case = (&'static str, fn() -> Vec<TraceEvent>);

const CASES: [Case; 5] = [
    ("learned_qd16", learned_qd16),
    ("dftl_sharded", dftl_sharded),
    ("dftl_threaded", dftl_threaded),
    ("gc_scheduled", gc_scheduled),
    ("tenants_weighted", tenants_weighted),
];

/// `(case, [trace, analysis.json, Chrome JSON, metrics CSV] hashes)`.
const GOLDEN: [(&str, [u64; 4]); 5] = [
    (
        "learned_qd16",
        [
            0xed2e_cfc2_307b_ae05,
            0x0cd9_1a91_81f5_e2be,
            0x06e2_5990_aa18_0e48,
            0x935c_be34_863f_d463,
        ],
    ),
    (
        "dftl_sharded",
        [
            0x132b_b67b_d1ca_29d8,
            0x85ce_15f1_f3e0_4377,
            0xcc6e_fd49_1b7d_0e02,
            0xd247_617a_a063_82d6,
        ],
    ),
    (
        "dftl_threaded",
        [
            0xd97a_5ef3_b279_2a86,
            0x7ca0_fcc2_9e4e_3f9c,
            0x83f2_95c3_3d33_0a4b,
            0xd247_617a_a063_82d6,
        ],
    ),
    (
        "gc_scheduled",
        [
            0x4b58_bccc_9642_aa3e,
            0x8118_4109_46a7_61ad,
            0x24ef_aaa3_63d9_d756,
            0x387c_8a1e_edfa_f151,
        ],
    ),
    (
        "tenants_weighted",
        [
            0xb35a_2673_562f_d2c8,
            0xfb3e_be7c_78c5_a790,
            0xa2d4_e453_03ea_fb94,
            0xeecc_9029_412c_2513,
        ],
    ),
];

#[test]
fn traced_runs_reproduce_the_recorded_trace_and_analysis() {
    let mut mismatches = Vec::new();
    for ((name, run), (golden_name, want)) in CASES.into_iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        let trace = run();
        let analysis = metrics::analyze(&trace);
        covers(name, &trace, &analysis);
        let got = [
            trace_hash(&trace),
            text_hash(&analysis.to_json("golden")),
            text_hash(&chrome_trace_json(&trace)),
            text_hash(&metrics_csv(&trace, Duration::from_micros(50))),
        ];
        if got != want {
            let hex: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
            mismatches.push(format!("(\"{name}\", [{}]),", hex.join(", ")));
        }
    }
    assert!(
        mismatches.is_empty(),
        "trace or analysis moved; got:\n{}",
        mismatches.join("\n")
    );
}
