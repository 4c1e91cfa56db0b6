//! Golden hashes of the host runners' accounting: what every `Runner` entry
//! point reports for a fixed, seeded run — request and page counts, bytes,
//! simulated elapsed, the latency and queueing distributions, the FTL and
//! device statistics, and the per-shard and per-tenant lanes.
//!
//! The cases cover the closed loop at unbounded and bounded depth, the
//! sharded queue-depth runner, open-loop Poisson arrivals on a sharded
//! frontend, both tenant admission modes, a scheduled-GC write run that
//! collects during the measured phase, and the RocksDB protocol with its two
//! preconditioning passes. A refactor of the runners must leave every hash
//! alone; a failure prints the new table.

use baselines::BaselineConfig;
use ftl_base::{Ftl, GcMode};
use harness::experiments::{self, ExperimentScale};
use harness::{FtlKind, RunResult, Runner, ShardedRunResult, TenantRunResult};
use learnedftl::{LearnedFtl, LearnedFtlConfig};
use metrics::LatencyHistogram;
use ssd_sim::{Duration, Geometry, SimTime, SsdConfig};
use workloads::{warmup, FioPattern, FioWorkload, RocksDbPhase, TenantSet, TenantSpec};

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

    /// Count, mean, max and the three reported percentiles.
    fn latencies(&mut self, latencies: &LatencyHistogram) {
        let mut l = latencies.clone();
        self.u64(l.count() as u64);
        for d in [l.mean(), l.max(), l.percentile(0.5), l.p99(), l.p999()] {
            self.u64(d.as_nanos());
        }
    }

    /// Everything simulated a `RunResult` carries except the trace. The
    /// queueing histogram contributes its mean and max only: a run without a
    /// bounded host queue may record zeros or nothing.
    fn result(&mut self, r: &RunResult) {
        for v in [
            r.requests,
            r.read_pages,
            r.write_pages,
            r.bytes,
            r.elapsed.as_nanos(),
        ] {
            self.u64(v);
        }
        self.latencies(&r.latencies);
        self.u64(r.queueing.mean().as_nanos());
        self.u64(r.queueing.max().as_nanos());
        let mut stats = r.stats.clone();
        // Host wall-clock, not simulated time.
        stats.sort_wall_time = std::time::Duration::ZERO;
        stats.train_wall_time = std::time::Duration::ZERO;
        self.bytes(format!("{stats:?}").as_bytes());
        self.bytes(format!("{:?}", r.device).as_bytes());
    }

    fn sharded(&mut self, r: &ShardedRunResult) {
        self.result(&r.result);
        for lane in &r.lanes {
            self.u64(lane.shard as u64);
            self.u64(lane.requests);
            self.latencies(&lane.latencies);
        }
    }

    fn tenants(&mut self, r: &TenantRunResult) {
        self.result(&r.result);
        for lane in &r.tenants {
            for v in [
                u64::from(lane.tenant),
                lane.requests,
                lane.read_pages,
                lane.write_pages,
            ] {
                self.u64(v);
            }
            self.latencies(&lane.latencies);
        }
    }
}

/// 4 channels × 2 chips, deep enough for LearnedFTL's group rows; splits
/// into two shards.
fn device() -> SsdConfig {
    SsdConfig::tiny()
        .with_geometry(Geometry::new(4, 2, 1, 16, 256, 4096))
        .with_op_ratio(0.4)
}

fn warm(ftl: &mut dyn Ftl) {
    warmup::paper_warmup(ftl, 32, 1, 0xFEED);
}

fn reads(ftl: &dyn Ftl, streams: usize, per_stream: u64) -> FioWorkload {
    FioWorkload::new(
        FioPattern::RandRead,
        ftl.logical_pages(),
        streams,
        1,
        per_stream,
        0xBEEF,
    )
}

fn check(name: &str, r: &RunResult) {
    assert!(r.requests > 0, "{name}: no requests");
    if name == "run_scheduled_gc" {
        assert!(r.stats.gc_count > 0, "{name}: the measured phase collects");
    }
}

fn run_dftl() -> u64 {
    let mut ftl = FtlKind::Dftl.build(device());
    warm(ftl.as_mut());
    let mut wl = reads(ftl.as_ref(), 4, 150);
    let r = Runner::new().run(ftl.as_mut(), &mut wl);
    check("run_dftl", &r);
    let mut h = Fnv::new();
    h.result(&r);
    h.0
}

/// LearnedFTL, training charge included.
fn run_qd_learned(depth: usize) -> u64 {
    let mut ftl = LearnedFtl::new(device(), LearnedFtlConfig::default());
    warm(&mut ftl);
    let mut wl = reads(&ftl, 4, 150);
    let r = Runner::new().run_qd(&mut ftl, &mut wl, depth);
    check("run_qd_learned", &r);
    let mut h = Fnv::new();
    h.result(&r);
    h.0
}

fn run_sharded_qd_tpftl() -> u64 {
    let mut ftl = FtlKind::Tpftl.build_sharded(device(), 2);
    warm(&mut ftl);
    let mut wl = reads(&ftl, 4, 150);
    let r = Runner::new().run_sharded_qd(&mut ftl, &mut wl, 3);
    check("run_sharded_qd_tpftl", &r.result);
    let mut h = Fnv::new();
    h.sharded(&r);
    h.0
}

fn run_open_loop_sharded() -> u64 {
    let mut ftl = FtlKind::Dftl.build_sharded(device(), 2);
    warm(&mut ftl);
    let mut wl = reads(&ftl, 4, 150);
    let r = Runner::new().run_open_loop(&mut ftl, &mut wl, Duration::from_micros(30), 42);
    check("run_open_loop_sharded", &r);
    let mut h = Fnv::new();
    h.result(&r);
    h.0
}

fn run_tenants(isolate: bool) -> u64 {
    let mut ftl = FtlKind::Dftl.build_sharded(device(), 2);
    warmup::sequential_fill(&mut ftl, 32, 1, SimTime::ZERO);
    let specs = vec![
        TenantSpec::write_heavy(Duration::from_micros(40), 200),
        TenantSpec::read_mostly(Duration::from_micros(20), 200).with_weight(4),
        TenantSpec::read_mostly(Duration::from_micros(20), 200).with_weight(4),
    ];
    let mut set = TenantSet::new(specs, ftl.logical_pages(), 0xBEEF);
    let r = Runner::new().run_tenants(&mut ftl, &mut set, isolate);
    check("run_tenants", &r.result);
    let mut h = Fnv::new();
    h.tenants(&r);
    h.0
}

/// Small blocks, so random writes over a filled device collect during the
/// measured phase through the scheduled engine.
fn run_scheduled_gc() -> u64 {
    let device = SsdConfig::tiny()
        .with_geometry(Geometry::new(2, 2, 1, 16, 256, 4096))
        .with_op_ratio(0.4);
    let mut ftl = FtlKind::Dftl.build_with(
        device,
        BaselineConfig::default().with_gc_mode(GcMode::Scheduled),
        LearnedFtlConfig::default(),
    );
    warmup::sequential_fill(ftl.as_mut(), 32, 1, SimTime::ZERO);
    ftl.drain_gc();
    let mut wl = FioWorkload::new(FioPattern::RandWrite, ftl.logical_pages(), 2, 4, 600, 11);
    let r = Runner::new().run(ftl.as_mut(), &mut wl);
    check("run_scheduled_gc", &r);
    let mut h = Fnv::new();
    h.result(&r);
    h.0
}

fn rocksdb() -> u64 {
    let scale = ExperimentScale {
        warmup_io_pages: 32,
        warmup_overwrites: 1,
        ops_per_stream: 100,
        single_stream_ops: 800,
    };
    let r = experiments::run(FtlKind::Dftl, SsdConfig::tiny(), |ftl| {
        experiments::rocksdb(ftl, RocksDbPhase::ReadRandom, scale)
    });
    check("rocksdb", &r);
    let mut h = Fnv::new();
    h.result(&r);
    h.0
}

type Case = (&'static str, fn() -> u64);

const CASES: [Case; 9] = [
    ("run_dftl", run_dftl),
    ("run_qd_learned_d1", || run_qd_learned(1)),
    ("run_qd_learned_d3", || run_qd_learned(3)),
    ("run_sharded_qd_tpftl", run_sharded_qd_tpftl),
    ("run_open_loop_sharded", run_open_loop_sharded),
    ("run_tenants_isolated", || run_tenants(true)),
    ("run_tenants_fifo", || run_tenants(false)),
    ("run_scheduled_gc", run_scheduled_gc),
    ("rocksdb", rocksdb),
];

const GOLDEN: [(&str, u64); 9] = [
    ("run_dftl", 0x6f98_fc51_2b2f_bd6d),
    ("run_qd_learned_d1", 0xd597_eedc_d49d_18af),
    ("run_qd_learned_d3", 0x2b9e_e4c5_84b0_de43),
    ("run_sharded_qd_tpftl", 0xf23e_135f_bb3a_c2ce),
    ("run_open_loop_sharded", 0xd530_3ff2_20a2_912b),
    ("run_tenants_isolated", 0xa67c_da35_6685_ed75),
    ("run_tenants_fifo", 0xe47e_eb89_95c1_6c71),
    ("run_scheduled_gc", 0xb4ac_e6d1_6563_a3e6),
    ("rocksdb", 0xa6c7_ff6d_0033_06da),
];

#[test]
fn runners_reproduce_the_recorded_accounting() {
    let mut mismatches = Vec::new();
    for ((name, run), (golden_name, want)) in CASES.into_iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        let got = run();
        if got != want {
            mismatches.push(format!("(\"{name}\", {got:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "runner accounting moved; got:\n{}",
        mismatches.join("\n")
    );
}
