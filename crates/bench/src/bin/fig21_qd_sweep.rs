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
use harness::experiments::{
    fio_qd_run, fio_qd_sharded_run, fio_qd_sharded_traced_run, fio_qd_traced_run,
};
use harness::{FtlKind, RunResult};
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
    // Sharded runs use the shard-ready geometry (8 channels, shard-sized
    // block rows) so every design builds on every channel group.
    let device = if args.shards > 1 {
        let device = bench::shard_scaling_device(scale);
        println!(
            "running sharded: {} per-channel-group FTL shards, each behind its own \
             serial translation engine, on {}",
            args.shards, device.geometry
        );
        device
    } else {
        scale.device()
    };
    let experiment = scale.experiment();
    let threads = scale.fio_threads();
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
            // With --shards N the sweep measures the sharded frontend (whose
            // per-shard engines serialise translation); the default is the
            // monolithic concurrent path, unchanged.
            let mut r: RunResult = if args.shards > 1 {
                fio_qd_sharded_run(
                    kind,
                    FioPattern::RandRead,
                    threads,
                    depth,
                    args.shards,
                    device,
                    experiment,
                )
                .result
            } else {
                fio_qd_run(
                    kind,
                    FioPattern::RandRead,
                    threads,
                    depth,
                    device,
                    experiment,
                )
            };
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
        let traced: RunResult = if args.shards > 1 {
            fio_qd_sharded_traced_run(
                FtlKind::LearnedFtl,
                FioPattern::RandRead,
                threads,
                16,
                args.shards,
                device,
                experiment,
            )
            .result
        } else {
            fio_qd_traced_run(
                FtlKind::LearnedFtl,
                FioPattern::RandRead,
                threads,
                16,
                device,
                experiment,
            )
        };
        println!("traced run: LearnedFTL, FIO randread, QD 16");
        args.export_observability("fig21_qd_sweep", &traced)
            .expect("writing observability output failed");
    }

    if !qd16_beats_qd1 {
        std::process::exit(1);
    }
}
