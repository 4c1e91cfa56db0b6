//! Figure 6: LeaFTL vs TPFTL under FIO random reads — normalised throughput
//! and the single/double/triple flash-read breakdown of LeaFTL.
//!
//! Paper's finding: LeaFTL is ~29 % slower than TPFTL under random reads
//! because 52 % of its reads become double reads and 43 % become triple reads
//! (only ~5 % are served with a single flash read).

use bench::{percent, print_header, print_table_with_verdict, BenchArgs};
use harness::experiments::{fio_read, run};
use harness::FtlKind;
use metrics::Table;
use workloads::FioPattern;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 6 — LeaFTL vs TPFTL under random reads",
        "LeaFTL ~29% slower than TPFTL; LeaFTL reads split ~5% single / 52% double / 43% triple",
        scale,
    );
    let device = scale.device();
    let experiment = scale.experiment();
    let threads = scale.fio_threads();

    let randread = |kind| {
        run(kind, device, |ftl| {
            fio_read(ftl, FioPattern::RandRead, threads, experiment)
        })
    };
    let tpftl = randread(FtlKind::Tpftl);
    let leaftl = randread(FtlKind::LeaFtl);

    let mut table = Table::new(vec![
        "FTL",
        "RandRead MiB/s",
        "normalized",
        "single",
        "double",
        "triple",
    ]);
    for result in [&tpftl, &leaftl] {
        let (single, double, triple) = result.multi_read_breakdown();
        table.add_row(vec![
            result.ftl_name.clone(),
            format!("{:.1}", result.mib_per_sec()),
            format!("{:.2}", result.normalized_throughput(&tpftl)),
            percent(single),
            percent(double),
            percent(triple),
        ]);
    }
    let (_, double, triple) = leaftl.multi_read_breakdown();
    let verdict = format!(
        "LeaFTL reaches {:.2}x of TPFTL (paper: 0.71x, i.e. slower) and {} of its reads need \
         more than one flash access (paper: ~95%)",
        leaftl.normalized_throughput(&tpftl),
        percent(double + triple)
    );
    print_table_with_verdict(&table, &verdict);

    bench::export_default_observability(&args, "fig06_leaftl_randread");
}
