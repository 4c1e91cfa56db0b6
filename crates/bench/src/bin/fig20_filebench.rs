//! Figure 20 (and Table I): normalised Filebench throughput of every FTL.
//!
//! Paper's finding: LearnedFTL outperforms the other schemes by 1.1–2.3×
//! across fileserver, webserver and varmail, because the CMT still captures
//! the locality while the learned models catch the reads the CMT misses.

use bench::{print_header, print_table_with_verdict, BenchArgs};
use harness::experiments::{filebench, run};
use harness::FtlKind;
use metrics::Table;
use workloads::FilebenchPreset;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 20 — Filebench normalized throughput (all FTLs); Table I configurations",
        "LearnedFTL outperforms the other schemes by 1.1-2.3x",
        scale,
    );

    // Table I — the workload configurations themselves.
    let mut table1 = Table::new(vec!["name", "fileset", "feature", "threads"]);
    table1.add_row(vec![
        "fileserver".into(),
        "225,000 x 128KB".into(),
        "write heavy".into(),
        "50".into(),
    ]);
    table1.add_row(vec![
        "webserver".into(),
        "825,000 x 16KB".into(),
        "read heavy".into(),
        "64".into(),
    ]);
    table1.add_row(vec![
        "varmail".into(),
        "475,000 x 16KB".into(),
        "all read / 1:1".into(),
        "64".into(),
    ]);
    println!("Table I — Filebench configurations (as modelled by workloads::filebench)");
    println!("{}", table1.render());

    let device = scale.device();
    let experiment = scale.experiment();
    let mut table = Table::new(vec![
        "workload",
        "DFTL",
        "TPFTL",
        "LeaFTL",
        "LearnedFTL",
        "ideal",
        "LearnedFTL/best baseline",
    ]);
    let mut min_gain = f64::MAX;
    let mut max_gain: f64 = 0.0;
    for preset in FilebenchPreset::all() {
        let mut mibs = Vec::new();
        for kind in FtlKind::all() {
            mibs.push(run(kind, device, |ftl| filebench(ftl, preset, experiment)).mib_per_sec());
        }
        let best_baseline = mibs[0].max(mibs[1]).max(mibs[2]);
        let gain = if best_baseline > 0.0 {
            mibs[3] / best_baseline
        } else {
            0.0
        };
        min_gain = min_gain.min(gain);
        max_gain = max_gain.max(gain);
        table.add_row(vec![
            preset.label().to_string(),
            format!("{:.1}", mibs[0]),
            format!("{:.1}", mibs[1]),
            format!("{:.1}", mibs[2]),
            format!("{:.1}", mibs[3]),
            format!("{:.1}", mibs[4]),
            format!("{gain:.2}"),
        ]);
    }
    print_table_with_verdict(
        &table,
        &format!(
            "LearnedFTL vs the best baseline ranges {min_gain:.2}x – {max_gain:.2}x \
             (paper: 1.1x – 2.3x vs the other schemes)"
        ),
    );

    bench::export_default_observability(&args, "fig20_filebench");
}
