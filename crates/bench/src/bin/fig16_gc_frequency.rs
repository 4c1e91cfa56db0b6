//! Figure 16: GC frequency over time under FIO random and sequential writes
//! for all FTL designs.
//!
//! Paper's finding: LearnedFTL's group-based allocation does not trigger more
//! garbage collections than the baselines — its total GC count is slightly
//! lower than DFTL/TPFTL/LeaFTL under both random and sequential writes.

use bench::{print_header, print_table_with_verdict, BenchArgs};
use harness::experiments::{fio_write, run};
use harness::FtlKind;
use metrics::{GcTimeline, Table};
use ssd_sim::Duration;
use workloads::FioPattern;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 16 — GC frequency under FIO random and sequential writes",
        "LearnedFTL triggers no more GCs than the baselines (slightly fewer in the paper)",
        scale,
    );
    let device = scale.device();
    let experiment = scale.experiment();
    let threads = scale.fio_threads();

    for pattern in [FioPattern::RandWrite, FioPattern::SeqWrite] {
        let mut table = Table::new(vec![
            "FTL",
            "total GCs",
            "peak GCs per window",
            "mean GCs per window",
        ]);
        let mut learned_total = 0u64;
        let mut baseline_max = 0u64;
        for kind in FtlKind::all() {
            let result = run(kind, device, |ftl| {
                fio_write(ftl, pattern, threads, 1, experiment)
            });
            let window = Duration::from_millis(100);
            let timeline = GcTimeline::from_events(&result.stats.gc_events, window);
            if kind == FtlKind::LearnedFtl {
                learned_total = timeline.total();
            } else if kind != FtlKind::Ideal {
                baseline_max = baseline_max.max(timeline.total());
            }
            table.add_row(vec![
                kind.label().to_string(),
                timeline.total().to_string(),
                timeline.peak().to_string(),
                format!("{:.2}", timeline.mean_per_bucket()),
            ]);
        }
        println!("pattern: {}", pattern.label());
        let verdict = format!(
            "LearnedFTL triggered {learned_total} GCs vs at most {baseline_max} for the \
             baselines — {}",
            if learned_total <= baseline_max + baseline_max / 5 {
                "comparable or fewer, as in the paper"
            } else {
                "MORE than the baselines, unlike the paper"
            }
        );
        print_table_with_verdict(&table, &verdict);
    }

    bench::export_default_observability(&args, "fig16_gc_frequency");
}
