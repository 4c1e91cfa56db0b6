//! Compare all five FTL designs under FIO-style 4 KiB random reads — a small
//! version of the paper's headline experiment (Fig. 14a, RandRead bars).
//!
//! Run with: `cargo run --release --example fio_randread`

use harness::experiments::{fio_read, run, ExperimentScale};
use learnedftl_suite::prelude::*;
use metrics::Table;
use ssd_sim::SsdConfig;
use workloads::FioPattern;

fn main() {
    let device = SsdConfig::tiny();
    let scale = ExperimentScale::quick();
    let threads = 4;

    println!(
        "FIO randread, {threads} threads, device {}",
        device.geometry
    );
    println!("(run `repro fig14_fio` from the bench crate for the full-scale version)");
    println!();

    let mut table = Table::new(vec![
        "FTL",
        "MiB/s",
        "CMT hit",
        "model hit",
        "double reads",
        "triple reads",
    ]);
    let randread = |kind| {
        run(kind, device, |ftl| {
            fio_read(ftl, FioPattern::RandRead, threads, scale)
        })
    };
    let mut baseline = None;
    for kind in FtlKind::all() {
        let result = randread(kind);
        if kind == FtlKind::Tpftl {
            baseline = Some(result.mib_per_sec());
        }
        table.add_row(vec![
            result.ftl_name.clone(),
            format!("{:.1}", result.mib_per_sec()),
            format!("{:.1}%", result.cmt_hit_ratio() * 100.0),
            format!("{:.1}%", result.model_hit_ratio() * 100.0),
            format!("{:.1}%", result.stats.double_read_ratio() * 100.0),
            format!("{:.1}%", result.stats.triple_read_ratio() * 100.0),
        ]);
    }
    println!("{}", table.render());
    if let Some(tpftl) = baseline {
        let learned = randread(FtlKind::LearnedFtl);
        println!(
            "LearnedFTL / TPFTL random-read speedup: {:.2}x (the paper reports 1.4x at full scale)",
            learned.mib_per_sec() / tpftl.max(1e-9)
        );
    }
}
