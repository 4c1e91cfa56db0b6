//! Accounting identities: the FTL's counters and the device's must agree.
//!
//! Every figure reads these counters, and nothing else checks that what an
//! FTL says it did is what the flash device saw. For each of the five FTLs,
//! in both GC modes, under fio random reads and random writes (4 streams)
//! and filebench varmail, at quick scale on the tiny device and queue depth
//! 4, the measured window must satisfy exactly:
//!
//! - every host page read is classified once: `host_read_pages = single +
//!   double + triple + buffer_hits + unmapped`;
//! - every device program is a host, GC or translation write: `programs =
//!   data_page_writes + gc_page_writes + translation_writes`;
//! - the device's translation programs and reads are the FTL's translation
//!   writes and reads;
//! - the device's erases are the FTL's `blocks_erased`.

use ftl_base::GcMode;
use harness::experiments::{self, ExperimentScale};
use harness::RunResult;
use learnedftl_suite::prelude::*;
use workloads::FilebenchPreset;

/// The measured workloads: fio random reads, fio random writes, varmail.
#[derive(Debug, Clone, Copy)]
enum Mix {
    RandRead,
    RandWrite,
    Varmail,
}

/// Builds `kind` in `mode` on the tiny device, prepares it with the mix's
/// protocol at quick scale and runs it at queue depth 4.
fn run(kind: FtlKind, mode: GcMode, mix: Mix) -> RunResult {
    let baseline = baselines::BaselineConfig::default().with_gc_mode(mode);
    let learned = LearnedFtlConfig::default().with_gc_mode(mode);
    let mut ftl = kind.build_with(SsdConfig::tiny(), baseline, learned);
    let scale = ExperimentScale::quick();
    let runner = Runner::new();
    match mix {
        Mix::RandRead => {
            let mut wl = experiments::fio_read(ftl.as_mut(), FioPattern::RandRead, 4, scale);
            runner.run_qd(ftl.as_mut(), &mut wl, 4)
        }
        Mix::RandWrite => {
            let mut wl = experiments::fio_write(ftl.as_mut(), FioPattern::RandWrite, 4, 1, scale);
            runner.run_qd(ftl.as_mut(), &mut wl, 4)
        }
        Mix::Varmail => {
            let mut wl = experiments::filebench(ftl.as_mut(), FilebenchPreset::Varmail, scale);
            runner.run_qd(ftl.as_mut(), &mut wl, 4)
        }
    }
}

fn assert_identities(kind: FtlKind, mode: GcMode, mix: Mix) {
    let run = run(kind, mode, mix);
    let (s, d) = (&run.stats, &run.device);
    let cell = format!("{kind} {mode:?} {mix:?}");
    assert!(
        s.host_read_pages + s.host_write_pages > 0,
        "{cell}: the run did nothing"
    );
    assert_eq!(
        s.host_read_pages,
        s.single_reads + s.double_reads + s.triple_reads + s.buffer_hits + s.unmapped_reads,
        "{cell}: host reads"
    );
    assert_eq!(
        d.programs,
        s.data_page_writes + s.gc_page_writes + s.translation_writes,
        "{cell}: programs"
    );
    assert_eq!(
        d.translation_programs, s.translation_writes,
        "{cell}: translation programs"
    );
    assert_eq!(
        d.translation_reads, s.translation_reads,
        "{cell}: translation reads"
    );
    assert_eq!(d.erases, s.blocks_erased, "{cell}: erases");
}

fn all_cells(kind: FtlKind) {
    for mode in [GcMode::Blocking, GcMode::Scheduled] {
        for mix in [Mix::RandRead, Mix::RandWrite, Mix::Varmail] {
            assert_identities(kind, mode, mix);
        }
    }
}

#[test]
fn dftl_counters_agree_with_the_device() {
    all_cells(FtlKind::Dftl);
}

#[test]
fn tpftl_counters_agree_with_the_device() {
    all_cells(FtlKind::Tpftl);
}

#[test]
fn leaftl_counters_agree_with_the_device() {
    all_cells(FtlKind::LeaFtl);
}

#[test]
fn learnedftl_counters_agree_with_the_device() {
    all_cells(FtlKind::LearnedFtl);
}

#[test]
fn ideal_counters_agree_with_the_device() {
    all_cells(FtlKind::Ideal);
}
