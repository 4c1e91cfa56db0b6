//! Figure 17: how much of LearnedFTL's GC time goes to sorting and training
//! as the FIO random-write run gets longer.
//!
//! Paper's finding: sorting + training account for at most ~3.2 % of the GC
//! execution time; the rest is the flash reads/writes/erases GC performs
//! anyway.

use bench::{print_header, print_table_with_verdict, BenchArgs, Scale};
use harness::experiments::{fio_write, ExperimentScale};
use harness::Runner;
use learnedftl::{LearnedFtl, LearnedFtlConfig};
use metrics::Table;
use workloads::FioPattern;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 17 — sorting + training share of GC execution time (LearnedFTL)",
        "sorting and training account for at most ~3% of GC time",
        scale,
    );
    let device = scale.device();
    let experiment = scale.experiment();
    let threads = scale.fio_threads();
    let multipliers: &[u64] = match scale {
        Scale::Quick => &[1, 2],
        _ => &[1, 2, 4, 8],
    };

    let mut table = Table::new(vec![
        "write volume (x base)",
        "GC count",
        "GC flash time (ms)",
        "sort wall (ms)",
        "train wall (ms)",
        "compute share",
    ]);
    let mut worst_share: f64 = 0.0;
    for &mult in multipliers {
        let mut ftl = LearnedFtl::new(device, LearnedFtlConfig::default());
        let longer = ExperimentScale {
            ops_per_stream: experiment.ops_per_stream * mult,
            ..experiment
        };
        let mut wl = fio_write(&mut ftl, FioPattern::RandWrite, threads, 1, longer);
        let result = Runner::new().run(&mut ftl, &mut wl);
        let gc_ms = result.stats.gc_flash_time.as_millis_f64();
        let sort_ms = result.stats.sort_wall_time.as_secs_f64() * 1e3;
        let train_ms = result.stats.train_wall_time.as_secs_f64() * 1e3;
        let share = if gc_ms > 0.0 {
            (sort_ms + train_ms) / gc_ms
        } else {
            0.0
        };
        worst_share = worst_share.max(share);
        table.add_row(vec![
            mult.to_string(),
            result.stats.gc_count.to_string(),
            format!("{gc_ms:.2}"),
            format!("{sort_ms:.3}"),
            format!("{train_ms:.3}"),
            format!("{:.2}%", share * 100.0),
        ]);
    }
    let verdict = format!(
        "sorting + training never exceed {:.1}% of GC time (paper: at most ~3.2%)",
        worst_share * 100.0
    );
    print_table_with_verdict(&table, &verdict);

    bench::export_default_observability(&args, "fig17_gc_breakdown");
}
