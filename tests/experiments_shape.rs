//! Shape tests for the canned experiment routines: at quick scale the
//! qualitative relationships behind the paper's figures must already hold.

use harness::experiments::{self, ExperimentScale};
use harness::{FtlKind, RunResult};
use ssd_sim::SsdConfig;
use workloads::{FilebenchPreset, FioPattern, TraceKind};

fn quick() -> (SsdConfig, ExperimentScale) {
    (SsdConfig::tiny(), ExperimentScale::quick())
}

fn fio_read_run(kind: FtlKind, pattern: FioPattern, threads: usize) -> RunResult {
    let (device, scale) = quick();
    experiments::run(kind, device, |ftl| {
        experiments::fio_read(ftl, pattern, threads, scale)
    })
}

fn fio_write_run(kind: FtlKind, pattern: FioPattern, threads: usize) -> RunResult {
    let (device, scale) = quick();
    experiments::run(kind, device, |ftl| {
        experiments::fio_write(ftl, pattern, threads, 1, scale)
    })
}

fn filebench_run(kind: FtlKind, preset: FilebenchPreset) -> RunResult {
    let (device, scale) = quick();
    experiments::run(kind, device, |ftl| {
        experiments::filebench(ftl, preset, scale)
    })
}

fn trace_run(kind: FtlKind, trace: TraceKind) -> RunResult {
    let (device, scale) = quick();
    experiments::run(kind, device, |ftl| {
        experiments::trace_replay(ftl, trace, 4, 2_000, scale)
    })
}

#[test]
fn fig2_shape_random_reads_slower_than_sequential() {
    // Two streams keep the prefetched mappings of both streams resident in the
    // tiny device's CMT, isolating the sequential-vs-random contrast from
    // cache-contention noise (the full-scale contention study is Fig. 3).
    let seq = fio_read_run(FtlKind::Tpftl, FioPattern::SeqRead, 2);
    let rand = fio_read_run(FtlKind::Tpftl, FioPattern::RandRead, 2);
    assert!(
        rand.mib_per_sec() < seq.mib_per_sec(),
        "random reads must be slower than sequential reads ({} vs {})",
        rand.mib_per_sec(),
        seq.mib_per_sec()
    );
    assert!(
        rand.cmt_hit_ratio() < seq.cmt_hit_ratio(),
        "random-read CMT hit ratio must be lower"
    );
}

#[test]
fn fig14_shape_learnedftl_leads_random_reads() {
    let tpftl = fio_read_run(FtlKind::Tpftl, FioPattern::RandRead, 4);
    let dftl = fio_read_run(FtlKind::Dftl, FioPattern::RandRead, 4);
    let learned = fio_read_run(FtlKind::LearnedFtl, FioPattern::RandRead, 4);
    let ideal = fio_read_run(FtlKind::Ideal, FioPattern::RandRead, 4);
    assert!(
        learned.mib_per_sec() > tpftl.mib_per_sec(),
        "LearnedFTL must beat TPFTL on random reads ({} vs {})",
        learned.mib_per_sec(),
        tpftl.mib_per_sec()
    );
    assert!(
        learned.mib_per_sec() > dftl.mib_per_sec(),
        "LearnedFTL must beat DFTL on random reads"
    );
    assert!(
        ideal.mib_per_sec() >= learned.mib_per_sec() * 0.95,
        "the ideal FTL remains the upper bound"
    );
    assert!(
        learned.model_hit_ratio() > 0.2,
        "LearnedFTL's models must serve a sizeable share of random reads, got {}",
        learned.model_hit_ratio()
    );
}

#[test]
fn fig14_shape_write_amplification_is_sane() {
    for kind in FtlKind::all() {
        let result = fio_write_run(kind, FioPattern::SeqWrite, 2);
        let wa = result.write_amplification();
        // LeaFTL's data buffer may still hold a few not-yet-flushed pages at
        // the end of the measured phase, so its WA can dip slightly below 1.
        assert!(
            (0.8..10.0).contains(&wa),
            "{kind}: sequential-write WA {wa} outside a sane range"
        );
    }
}

#[test]
fn fig20_shape_learnedftl_at_least_matches_baselines_on_filebench() {
    let preset = FilebenchPreset::Webserver;
    let tpftl = filebench_run(FtlKind::Tpftl, preset);
    let leaftl = filebench_run(FtlKind::LeaFtl, preset);
    let learned = filebench_run(FtlKind::LearnedFtl, preset);
    assert!(
        learned.mib_per_sec() >= tpftl.mib_per_sec() * 0.9,
        "LearnedFTL must not fall behind TPFTL on webserver ({} vs {})",
        learned.mib_per_sec(),
        tpftl.mib_per_sec()
    );
    assert!(
        learned.mib_per_sec() >= leaftl.mib_per_sec() * 0.9,
        "LearnedFTL must not fall behind LeaFTL on webserver"
    );
}

#[test]
fn fig21_shape_learnedftl_cuts_tail_latency() {
    let mut tpftl = trace_run(FtlKind::Tpftl, TraceKind::WebSearch1);
    let mut learned = trace_run(FtlKind::LearnedFtl, TraceKind::WebSearch1);
    assert!(
        learned.p99() <= tpftl.p99(),
        "LearnedFTL's P99 ({}) must not exceed TPFTL's ({})",
        learned.p99(),
        tpftl.p99()
    );
}

#[test]
fn fig22_shape_learnedftl_reads_less_flash_on_read_heavy_traces() {
    let tpftl = trace_run(FtlKind::Tpftl, TraceKind::WebSearch2);
    let learned = trace_run(FtlKind::LearnedFtl, TraceKind::WebSearch2);
    // The energy claim (Fig. 22) reduces to fewer flash reads for the same
    // host reads on a read-dominated trace.
    assert!(
        learned.device.reads <= tpftl.device.reads,
        "LearnedFTL must issue no more flash reads than TPFTL ({} vs {})",
        learned.device.reads,
        tpftl.device.reads
    );
}

#[test]
fn trace_generators_match_table2_read_ratios() {
    let (device, _) = quick();
    for kind in TraceKind::all() {
        let trace = workloads::SyntheticTrace::generate(kind, device.logical_pages(), 10_000, 3);
        assert!(
            (trace.measured_read_ratio() - kind.read_ratio()).abs() < 0.03,
            "{}: generated read ratio {} too far from Table II {}",
            kind.label(),
            trace.measured_read_ratio(),
            kind.read_ratio()
        );
    }
}
