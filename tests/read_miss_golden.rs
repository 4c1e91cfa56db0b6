//! Golden equivalence for the two-level CMT's miss path — the read-side
//! counterpart of `crates/baselines/tests/write_path_golden.rs`: every
//! completion time and every counter of a quick-scale warm-up followed by
//! 20 000 mixed requests, pinned as constants recorded on the commit *before*
//! `PageNodeCmt`'s nodes became bitmaps over flat slabs (ISSUE 24).
//!
//! Nine requests in ten are single-page reads over a space far larger than the
//! CMT (three in four uniform, one in four up to 127 pages after the previous
//! request), one in ten overwrites 1–4 pages, so misses, prefetched runs that
//! overlap cached ones, dirty evictions with their write-backs and GC refreshes
//! all occur; the `trim` cases run a CMT smaller than one
//! prefetched run, where every miss leaves a single oversized node to trim.
//! The ledger's digests pin the same sequence at one geometry only, and
//! outside the suite. These hashes may only change together with a deliberate
//! change of caching, prefetching or eviction *policy*.

use baselines::{BaselineConfig, Tpftl};
use ftl_base::Ftl;
use learnedftl::{LearnedFtl, LearnedFtlConfig};
use ssd_sim::{Geometry, LatencyConfig, SimTime, SsdConfig};
use workloads::warmup;

/// SplitMix64: the measured phase's only source of randomness.
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

/// 8 chips × 64 blocks × 64 pages (128 MiB raw, 56 translation pages) at
/// 12.5 % over-provisioning.
fn config(planes: u32) -> SsdConfig {
    SsdConfig {
        geometry: Geometry::new(4, 2, 1, 64, 64, 4096),
        latency: LatencyConfig::femu_default(),
        op_ratio: 0.125,
    }
    .with_planes(planes)
}

/// A CMT of this many mappings is smaller than the 64-mapping prefetched run.
const TRIM_CMT_ENTRIES: usize = 24;

fn build(name: &str, planes: u32, trim: bool) -> Box<dyn Ftl> {
    let cfg = config(planes);
    match (name, trim) {
        ("TPFTL", false) => Box::new(Tpftl::new(cfg, BaselineConfig::default())),
        ("TPFTL", true) => Box::new(Tpftl::with_cmt_entries(
            cfg,
            BaselineConfig::default(),
            TRIM_CMT_ENTRIES,
        )),
        ("LearnedFTL", _) => {
            let mut learned = LearnedFtlConfig::default();
            if trim {
                learned.cmt_ratio = TRIM_CMT_ENTRIES as f64 / cfg.logical_pages() as f64;
                assert_eq!(learned.cmt_entries(cfg.logical_pages()), TRIM_CMT_ENTRIES);
            }
            Box::new(LearnedFtl::new(cfg, learned))
        }
        other => panic!("no case for {other:?}"),
    }
}

/// The quick experiment scale's warm-up (one sequential fill, one device's
/// worth of random 32-page writes), then 20 000 requests, each issued when
/// the previous one completed.
fn run(ftl: &mut dyn Ftl) -> u64 {
    let pages = ftl.logical_pages();
    let mut h = Fnv::new();
    let mut t = warmup::paper_warmup(ftl, 32, 1, 0x5EED_0018);
    h.u64(t.as_nanos());
    let mut rng = Rng(0x5EED_0019);
    let mut at = 0;
    for _ in 0..20_000 {
        // One request in four lands just after the previous one, so a miss
        // also meets the node the last miss left, cached runs overlap and —
        // with the small CMT — stale mappings are trimmed beside fresh ones.
        at = match rng.next() % 4 {
            0 => (at + rng.next() % 128) % pages,
            _ => rng.next() % pages,
        };
        if rng.next().is_multiple_of(10) {
            t = ftl.write(at, 1 + (rng.next() % 4) as u32, t);
        } else {
            t = ftl.read(at, 1, t);
        }
        h.u64(t.as_nanos());
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
        s.models_trained,
        s.model_predictions,
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
    assert!(t > SimTime::ZERO);
    assert!(
        s.cmt_hits > 0 && s.double_reads > 100 && s.translation_writes > 0 && s.gc_count > 0,
        "the requests must hit, miss, write dirty nodes back and collect"
    );
    h.0
}

const GOLDEN: [(&str, u32, bool, u64); 6] = [
    ("TPFTL", 1, false, 0x2ffe_f9c4_be80_9375),
    ("TPFTL", 2, false, 0xf0e7_10c2_0594_1014),
    ("TPFTL", 1, true, 0xeee5_73e4_183b_3653),
    ("LearnedFTL", 1, false, 0x985a_2f16_33c7_9765),
    ("LearnedFTL", 2, false, 0x8a7b_26b6_75ff_e6a8),
    ("LearnedFTL", 1, true, 0xfbb8_014c_3b17_b8a0),
];

#[test]
fn warm_up_and_mixed_requests_reproduce_the_recorded_statistics() {
    let mut mismatches = Vec::new();
    for (name, planes, trim, want) in GOLDEN {
        let got = run(build(name, planes, trim).as_mut());
        if got != want {
            mismatches.push(format!("(\"{name}\", {planes}, {trim}, {got:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "read-miss statistics moved; got:\n{}",
        mismatches.join("\n")
    );
}
