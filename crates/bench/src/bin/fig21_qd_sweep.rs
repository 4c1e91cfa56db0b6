//! Queue-depth sweep: IOPS, mean queueing delay and P99 latency for
//! QD ∈ {1, 4, 16, 64} under FIO-style 4 KiB random reads, for LearnedFTL
//! and the DFTL / TPFTL / LeaFTL baselines.
//!
//! This extends the paper's tail-latency analysis (Fig. 21): the paper's FEMU
//! platform exposes intra-SSD parallelism through the host's queue depth, and
//! the gap between the FTL designs widens as deeper queues keep more chips
//! busy. One shape check anchors the sweep, and sets the exit code: IOPS at
//! QD 16 must be strictly higher than at QD 1 for every FTL (the device has
//! 16+ chips at standard scale, so a deeper queue exposes real parallelism).

use bench::{print_header, print_table_with_verdict, BenchArgs};
use harness::experiments::fio_read;
use harness::{FtlKind, RunResult, Runner};
use metrics::Table;
use workloads::FioPattern;

const DEPTHS: [usize; 4] = [1, 4, 16, 64];

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 21 extension — queue-depth sweep, FIO randread 4 KiB",
        "deeper queues expose chip parallelism: IOPS rises with QD while per-request \
         latency absorbs the queueing delay; LearnedFTL holds its lead at every depth",
        scale,
    );
    let device = scale.device();
    let experiment = scale.experiment();
    let threads = scale.fio_threads();
    // The FIO read protocol at `depth` slots, traced or not.
    let run = |kind: FtlKind, depth: usize, traced: bool| -> RunResult {
        let mut ftl = kind.build(device);
        let mut wl = fio_read(ftl.as_mut(), FioPattern::RandRead, threads, experiment);
        ftl.set_tracing(traced);
        Runner::new().run_qd(ftl.as_mut(), &mut wl, depth)
    };
    let kinds = [
        FtlKind::Dftl,
        FtlKind::Tpftl,
        FtlKind::LeaFtl,
        FtlKind::LearnedFtl,
    ];

    let mut table = Table::new(vec![
        "FTL",
        "QD",
        "IOPS",
        "MiB/s",
        "mean queueing (us)",
        "P99 (us)",
        "P99.9 (us)",
    ]);
    let mut qd16_beats_qd1 = true;
    for kind in kinds {
        let mut iops_at = [0.0f64; DEPTHS.len()];
        for (i, &depth) in DEPTHS.iter().enumerate() {
            let mut r = run(kind, depth, false);
            iops_at[i] = r.iops();
            table.add_row(vec![
                kind.label().to_string(),
                depth.to_string(),
                format!("{:.0}", r.iops()),
                format!("{:.1}", r.mib_per_sec()),
                format!("{:.1}", r.mean_queueing().as_micros_f64()),
                format!("{:.1}", r.p99().as_micros_f64()),
                format!("{:.1}", r.p999().as_micros_f64()),
            ]);
        }
        if iops_at[2] <= iops_at[0] {
            qd16_beats_qd1 = false;
        }
    }

    let verdict = format!(
        "QD16 > QD1 IOPS for every FTL: {}",
        if qd16_beats_qd1 {
            "yes"
        } else {
            "NO — parallelism not exposed"
        },
    );
    print_table_with_verdict(&table, &verdict);

    // Observability: when `--trace-out` / `--metrics-out` are given, re-run
    // the designated configuration (LearnedFTL at QD 16) with tracing on and
    // export it. The sweep above stays untraced so its numbers are the same
    // whether or not observability was requested.
    if args.tracing() {
        let traced = run(FtlKind::LearnedFtl, 16, true);
        println!("traced run: LearnedFTL, FIO randread, QD 16");
        args.export_observability("fig21_qd_sweep", &traced)
            .expect("writing observability output failed");
    }

    if !qd16_beats_qd1 {
        std::process::exit(1);
    }
}
