//! Figure 19: RocksDB (db_bench) readrandom / readseq performance on top of
//! each FTL, plus the CMT/model hit ratios.
//!
//! Paper's finding: LearnedFTL outperforms the other FTLs by 1.3–1.4× on
//! readrandom (and is at least as good on readseq) because its learned models
//! keep serving single flash reads where the baselines double-read.

use bench::{percent, print_header, print_table_with_verdict, BenchArgs};
use harness::experiments::{rocksdb, run};
use harness::FtlKind;
use metrics::Table;
use workloads::RocksDbPhase;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 19 — RocksDB readrandom / readseq on each FTL",
        "LearnedFTL beats the baselines by 1.3-1.4x on readrandom",
        scale,
    );
    let device = scale.device();
    let experiment = scale.experiment();

    for phase in [RocksDbPhase::ReadRandom, RocksDbPhase::ReadSeq] {
        let mut table = Table::new(vec![
            "FTL",
            "MiB/s",
            "normalized to TPFTL",
            "CMT hit",
            "model hit",
        ]);
        let mut tpftl_mibs = 0.0;
        let mut learned_mibs = 0.0;
        let mut results = Vec::new();
        for kind in FtlKind::all() {
            let result = run(kind, device, |ftl| rocksdb(ftl, phase, experiment));
            if kind == FtlKind::Tpftl {
                tpftl_mibs = result.mib_per_sec();
            }
            if kind == FtlKind::LearnedFtl {
                learned_mibs = result.mib_per_sec();
            }
            results.push((kind, result));
        }
        for (kind, result) in &results {
            let normalized = if tpftl_mibs > 0.0 {
                result.mib_per_sec() / tpftl_mibs
            } else {
                0.0
            };
            table.add_row(vec![
                kind.label().to_string(),
                format!("{:.1}", result.mib_per_sec()),
                format!("{normalized:.2}"),
                percent(result.cmt_hit_ratio()),
                percent(result.model_hit_ratio()),
            ]);
        }
        let gain = if tpftl_mibs > 0.0 {
            learned_mibs / tpftl_mibs
        } else {
            0.0
        };
        println!("phase: {}", phase.label());
        print_table_with_verdict(
            &table,
            &format!(
                "LearnedFTL/TPFTL = {gain:.2}x (paper: 1.3-1.4x on readrandom, ≥1.02x on readseq)"
            ),
        );
    }

    bench::export_default_observability(&args, "fig19_rocksdb");
}
