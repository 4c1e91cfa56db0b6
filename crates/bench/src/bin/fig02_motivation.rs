//! Figure 2: sequential vs random read performance of a demand-based FTL
//! (TPFTL) as the thread count grows, plus the CMT hit ratio.
//!
//! Paper's finding: random-read throughput stays far below sequential-read
//! throughput regardless of thread count (up to ~60 % lower), because the CMT
//! hit ratio collapses to ~0 % under random reads while staying high under
//! sequential reads.

use bench::{percent, print_header, print_table_with_verdict, BenchArgs, Scale};
use harness::experiments::{fio_read, run, ExperimentScale};
use harness::FtlKind;
use metrics::Table;
use workloads::FioPattern;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 2 — TPFTL read throughput and CMT hit ratio vs thread count",
        "random reads are up to ~60% slower than sequential reads and their CMT hit ratio is ~0%",
        scale,
    );
    let threads_list: &[usize] = match scale {
        Scale::Quick => &[1, 4],
        _ => &[1, 16, 32, 64],
    };
    let device = scale.device();
    let experiment: ExperimentScale = scale.experiment();

    let mut table = Table::new(vec![
        "threads",
        "SeqRead MiB/s",
        "RandRead MiB/s",
        "rand/seq",
        "SeqRead CMT hit",
        "RandRead CMT hit",
    ]);
    let mut worst_ratio: f64 = 1.0;
    let mut last_rand_hit = 0.0;
    for &threads in threads_list {
        let read = |pattern| {
            run(FtlKind::Tpftl, device, |ftl| {
                fio_read(ftl, pattern, threads, experiment)
            })
        };
        let seq = read(FioPattern::SeqRead);
        let rand = read(FioPattern::RandRead);
        let ratio = if seq.mib_per_sec() > 0.0 {
            rand.mib_per_sec() / seq.mib_per_sec()
        } else {
            0.0
        };
        worst_ratio = worst_ratio.min(ratio);
        last_rand_hit = rand.cmt_hit_ratio();
        table.add_row(vec![
            threads.to_string(),
            format!("{:.1}", seq.mib_per_sec()),
            format!("{:.1}", rand.mib_per_sec()),
            format!("{ratio:.2}"),
            percent(seq.cmt_hit_ratio()),
            percent(rand.cmt_hit_ratio()),
        ]);
    }
    let verdict = format!(
        "random reads reach only {:.0}% of sequential throughput at the worst point \
         (paper: ~40%), and the random-read CMT hit ratio is {} (paper: ~0%)",
        worst_ratio * 100.0,
        percent(last_rand_hit)
    );
    print_table_with_verdict(&table, &verdict);

    bench::export_default_observability(&args, "fig02_motivation");
}
