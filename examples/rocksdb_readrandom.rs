//! Run an LSM-tree-shaped (RocksDB db_bench-like) workload on top of TPFTL and
//! LearnedFTL: bulk load, compaction-style overwrites, then random point
//! lookups — a small version of the paper's Fig. 19.
//!
//! Run with: `cargo run --release --example rocksdb_readrandom`

use harness::experiments::{rocksdb, run, ExperimentScale};
use learnedftl_suite::prelude::*;
use metrics::Table;
use ssd_sim::SsdConfig;
use workloads::RocksDbPhase;

fn main() {
    let device = SsdConfig::tiny();
    let scale = ExperimentScale::quick();

    println!("RocksDB-like workload on {}", device.geometry);
    println!("phases: fillseq -> overwrite -> readrandom / readseq (single threaded)");
    println!();

    for phase in [RocksDbPhase::ReadRandom, RocksDbPhase::ReadSeq] {
        let mut table = Table::new(vec!["FTL", "MiB/s", "CMT hit", "model hit"]);
        let mut tpftl_mibs = 0.0;
        let mut learned_mibs = 0.0;
        for kind in [
            FtlKind::Tpftl,
            FtlKind::LeaFtl,
            FtlKind::LearnedFtl,
            FtlKind::Ideal,
        ] {
            let result = run(kind, device, |ftl| rocksdb(ftl, phase, scale));
            if kind == FtlKind::Tpftl {
                tpftl_mibs = result.mib_per_sec();
            }
            if kind == FtlKind::LearnedFtl {
                learned_mibs = result.mib_per_sec();
            }
            table.add_row(vec![
                kind.label().to_string(),
                format!("{:.1}", result.mib_per_sec()),
                format!("{:.1}%", result.cmt_hit_ratio() * 100.0),
                format!("{:.1}%", result.model_hit_ratio() * 100.0),
            ]);
        }
        println!("{}:", phase.label());
        println!("{}", table.render());
        println!(
            "LearnedFTL / TPFTL = {:.2}x (the paper reports 1.3-1.4x for readrandom)\n",
            learned_mibs / tpftl_mibs.max(1e-9)
        );
    }
}
