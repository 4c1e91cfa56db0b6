//! Figure 18: (a) FIO random-write throughput of LearnedFTL with and without
//! charging the sorting/training computation, and (b) FIO read throughput of
//! LearnedFTL vs an "ideal LearnedFTL" that skips model predictions.
//!
//! Paper's finding: both gaps are below ~1 %, i.e. neither the training on the
//! write path (via GC) nor the prediction on the read path costs anything
//! noticeable.

use bench::{print_header, print_table_with_verdict, BenchArgs, Scale};
use harness::experiments::{fio_read, fio_write};
use harness::Runner;
use learnedftl::{LearnedFtl, LearnedFtlConfig};
use metrics::Table;
use workloads::FioPattern;

fn run_write(scale: Scale, charge: bool) -> f64 {
    let device = scale.device();
    let experiment = scale.experiment();
    let mut ftl = LearnedFtl::new(
        device,
        LearnedFtlConfig::default().with_charge_training_time(charge),
    );
    let mut wl = fio_write(
        &mut ftl,
        FioPattern::RandWrite,
        scale.fio_threads(),
        1,
        experiment,
    );
    Runner::new().run(&mut ftl, &mut wl).mib_per_sec()
}

fn run_read(scale: Scale, pattern: FioPattern, ideal_prediction: bool) -> f64 {
    let device = scale.device();
    let experiment = scale.experiment();
    let mut ftl = LearnedFtl::new(
        device,
        LearnedFtlConfig::default().with_ideal_prediction(ideal_prediction),
    );
    let mut wl = fio_read(&mut ftl, pattern, scale.fio_threads(), experiment);
    Runner::new().run(&mut ftl, &mut wl).mib_per_sec()
}

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 18 — cost of training (writes) and of model prediction (reads)",
        "both with/without gaps are below ~1%",
        scale,
    );

    // (a) random writes with and without charging sort+train time.
    let with = run_write(scale, true);
    let without = run_write(scale, false);
    let mut a = Table::new(vec!["configuration", "RandWrite MiB/s"]);
    a.add_row(vec![
        "with training+sorting charged".into(),
        format!("{with:.1}"),
    ]);
    a.add_row(vec![
        "without training+sorting".into(),
        format!("{without:.1}"),
    ]);
    let gap_a = if without > 0.0 {
        (without - with).abs() / without
    } else {
        0.0
    };
    println!("Fig. 18(a) — write path");
    print_table_with_verdict(
        &a,
        &format!("throughput gap {:.2}% (paper: < 0.7%)", gap_a * 100.0),
    );

    // (b) reads: normal prediction vs ideal (bitmap-gated direct mapping).
    let mut b = Table::new(vec![
        "pattern",
        "LearnedFTL MiB/s",
        "ideal-LearnedFTL MiB/s",
        "gap",
    ]);
    let mut worst_gap: f64 = 0.0;
    for pattern in [FioPattern::RandRead, FioPattern::SeqRead] {
        let normal = run_read(scale, pattern, false);
        let ideal = run_read(scale, pattern, true);
        let gap = if ideal > 0.0 {
            (ideal - normal).abs() / ideal
        } else {
            0.0
        };
        worst_gap = worst_gap.max(gap);
        b.add_row(vec![
            pattern.label().to_string(),
            format!("{normal:.1}"),
            format!("{ideal:.1}"),
            format!("{:.2}%", gap * 100.0),
        ]);
    }
    println!("Fig. 18(b) — read path");
    print_table_with_verdict(
        &b,
        &format!(
            "worst read-path gap {:.2}% (paper: < 1%)",
            worst_gap * 100.0
        ),
    );

    bench::export_default_observability(&args, "fig18_overhead");
}
