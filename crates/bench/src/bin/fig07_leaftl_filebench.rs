//! Figure 7: TPFTL vs LeaFTL under the Filebench workloads, plus the cache /
//! model hit ratios under webserver.
//!
//! Paper's finding: on locality-heavy workloads LeaFTL is no better (and often
//! worse) than TPFTL, because even a high model-cache hit ratio still yields
//! mispredictions and therefore double reads.

use bench::{percent, print_header, print_table_with_verdict, BenchArgs};
use harness::experiments::{filebench, run};
use harness::FtlKind;
use metrics::Table;
use workloads::FilebenchPreset;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 7 — TPFTL vs LeaFTL under Filebench",
        "LeaFTL is equal or worse than TPFTL on locality-heavy workloads",
        scale,
    );
    let device = scale.device();
    let experiment = scale.experiment();

    let mut table = Table::new(vec![
        "workload",
        "TPFTL MiB/s",
        "LeaFTL MiB/s",
        "LeaFTL normalized",
    ]);
    let mut leaftl_never_better = true;
    let mut webserver_hits = (0.0, 0.0);
    for preset in FilebenchPreset::all() {
        let tpftl = run(FtlKind::Tpftl, device, |ftl| {
            filebench(ftl, preset, experiment)
        });
        let leaftl = run(FtlKind::LeaFtl, device, |ftl| {
            filebench(ftl, preset, experiment)
        });
        let normalized = leaftl.normalized_throughput(&tpftl);
        if normalized > 1.10 {
            leaftl_never_better = false;
        }
        if preset == FilebenchPreset::Webserver {
            webserver_hits = (tpftl.cmt_hit_ratio(), leaftl.stats.single_read_ratio());
        }
        table.add_row(vec![
            preset.label().to_string(),
            format!("{:.1}", tpftl.mib_per_sec()),
            format!("{:.1}", leaftl.mib_per_sec()),
            format!("{normalized:.2}"),
        ]);
    }
    let verdict = format!(
        "LeaFTL {} beats TPFTL by more than 10% on any Filebench workload (paper: never); \
         under webserver TPFTL serves {} of reads from its CMT while LeaFTL serves only {} \
         with a single flash read",
        if leaftl_never_better { "never" } else { "DOES" },
        percent(webserver_hits.0),
        percent(webserver_hits.1),
    );
    print_table_with_verdict(&table, &verdict);

    bench::export_default_observability(&args, "fig07_leaftl_filebench");
}
