//! Golden equivalence for the baselines' write + GC path: every completion
//! time and every counter of a seeded fill followed by two random overwrites
//! of the logical space, pinned as constants recorded on the commit *before*
//! the allocator's chip pick, the CMT's dirty flush and the greedy collector
//! were rewritten to read incrementally maintained state (ISSUE 22).
//!
//! That rewrite — and any later one of `DynamicDataPool`, `EntryCmt` or
//! `run_greedy_gc` — must reproduce every allocation, eviction and victim
//! choice, so these hashes may only change together with a deliberate change
//! of allocation, caching or collection *policy*.

use baselines::{BaselineConfig, Dftl, LeaFtl, Tpftl};
use ftl_base::{Ftl, GcMode};
use ssd_sim::{Geometry, LatencyConfig, SsdConfig};

/// SplitMix64: the test's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// 8 chips × 32 blocks × 64 pages (64 MiB raw) at 12.5 % over-provisioning:
/// small enough for a debug build, large enough that the two overwrites run
/// hundreds of collections on every chip.
fn config(planes: u32) -> SsdConfig {
    SsdConfig {
        geometry: Geometry::new(4, 2, 1, 32, 64, 4096),
        latency: LatencyConfig::femu_default(),
        op_ratio: 0.125,
    }
    .with_planes(planes)
}

/// Sequential fill in 8-page requests, then `2 × logical_pages` pages of
/// random 1–4-page overwrites with a read mixed in every fourth request,
/// each request issued when the previous one completed.
fn run(ftl: &mut dyn Ftl) -> u64 {
    let pages = ftl.logical_pages();
    let mut h = Fnv::new();
    let mut t = ssd_sim::SimTime::ZERO;
    let mut lpn = 0;
    while lpn < pages {
        t = ftl.write(lpn, 8, t);
        h.u64(t.as_nanos());
        lpn += 8;
    }
    let mut rng = Rng(0x5EED_0017);
    let mut written = 0;
    let mut request = 0u64;
    while written < 2 * pages {
        let len = 1 + (rng.next() % 4) as u32;
        let at = rng.next() % pages;
        if request % 4 == 3 {
            t = ftl.read(at, len, t);
        } else {
            t = ftl.write(at, len, t);
            written += u64::from(len);
        }
        h.u64(t.as_nanos());
        request += 1;
    }
    h.u64(ftl.drain_gc().as_nanos());

    let s = ftl.stats();
    for v in [
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
        s.gc_stalled_exits,
        s.gc_yields,
        s.gc_forced,
        s.gc_flash_time.as_nanos(),
        s.gc_events.len() as u64,
        s.gc_complete_events.len() as u64,
    ] {
        h.u64(v);
    }
    for at in s.gc_events.iter().chain(&s.gc_complete_events) {
        h.u64(at.as_nanos());
    }
    let d = ftl.device_stats();
    for v in [
        d.reads,
        d.programs,
        d.erases,
        d.translation_reads,
        d.translation_programs,
    ] {
        h.u64(v);
    }
    assert!(
        s.gc_count > 100,
        "the overwrites must exercise the collector"
    );
    h.0
}

fn build(name: &str, planes: u32, gc_mode: GcMode) -> Box<dyn Ftl> {
    let cfg = config(planes);
    let baseline = BaselineConfig::default().with_gc_mode(gc_mode);
    match name {
        "DFTL" => Box::new(Dftl::new(cfg, baseline)),
        "TPFTL" => Box::new(Tpftl::new(cfg, baseline)),
        "LeaFTL" => Box::new(LeaFtl::new(cfg, baseline)),
        other => panic!("no baseline named {other}"),
    }
}

const GOLDEN: [(&str, u32, GcMode, u64); 12] = [
    ("DFTL", 1, GcMode::Blocking, 0x47de_8393_6681_c933),
    ("DFTL", 1, GcMode::Scheduled, 0x64b9_4a32_83f8_ed81),
    ("DFTL", 2, GcMode::Blocking, 0x4555_9974_cc44_0481),
    ("DFTL", 2, GcMode::Scheduled, 0x6343_8d06_0805_21eb),
    ("TPFTL", 1, GcMode::Blocking, 0xe95d_7af5_1cd6_81ed),
    ("TPFTL", 1, GcMode::Scheduled, 0x99bc_af94_8f82_b572),
    ("TPFTL", 2, GcMode::Blocking, 0xa07c_d2f1_223a_1906),
    ("TPFTL", 2, GcMode::Scheduled, 0x2a70_1a44_e24c_67b2),
    ("LeaFTL", 1, GcMode::Blocking, 0x33c1_e6bd_7782_d738),
    ("LeaFTL", 1, GcMode::Scheduled, 0xc603_9be1_0fcf_1ed8),
    ("LeaFTL", 2, GcMode::Blocking, 0x8424_c169_0f30_6fae),
    ("LeaFTL", 2, GcMode::Scheduled, 0xaf86_de51_8616_2e89),
];

/// Replays `GOLDEN[case]` and compares its hash with the recorded one.
fn check(case: usize) {
    let (name, planes, gc_mode, want) = GOLDEN[case];
    let got = run(build(name, planes, gc_mode).as_mut());
    assert_eq!(
        got, want,
        "write-path statistics moved; got:\n(\"{name}\", {planes}, GcMode::{gc_mode:?}, {got:#018x}),"
    );
}

/// One test per `GOLDEN` entry, so the cases run in parallel.
macro_rules! golden_cases {
    ($($test:ident => $case:literal,)*) => {$(
        #[test]
        fn $test() {
            check($case);
        }
    )*};
}

golden_cases! {
    dftl_one_plane_blocking => 0,
    dftl_one_plane_scheduled => 1,
    dftl_two_planes_blocking => 2,
    dftl_two_planes_scheduled => 3,
    tpftl_one_plane_blocking => 4,
    tpftl_one_plane_scheduled => 5,
    tpftl_two_planes_blocking => 6,
    tpftl_two_planes_scheduled => 7,
    leaftl_one_plane_blocking => 8,
    leaftl_one_plane_scheduled => 9,
    leaftl_two_planes_blocking => 10,
    leaftl_two_planes_scheduled => 11,
}
