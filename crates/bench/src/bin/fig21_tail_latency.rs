//! Figure 21: P99 and P99.9 tail latencies under the WebSearch1-3 and Systor
//! traces for TPFTL, LeaFTL, LearnedFTL and the ideal FTL.
//!
//! Paper's finding: LearnedFTL reduces the P99 tail latency by 2.9–7.4×
//! (average 5.5×) vs TPFTL and 3.0–12.2× (average 8.2×) vs LeaFTL, because
//! its models remove the sporadic double/triple reads that dominate the tail.

use bench::{print_header, print_table_with_verdict, BenchArgs};
use harness::experiments::trace_replay;
use harness::{FtlKind, RunResult, Runner};
use metrics::Table;
use workloads::TraceKind;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 21 — P99 / P99.9 tail latency under the four traces",
        "LearnedFTL cuts P99 latency by ~5.5x vs TPFTL and ~8.2x vs LeaFTL on average",
        scale,
    );
    let device = scale.device();
    let experiment = scale.experiment();
    let kinds = [
        FtlKind::Tpftl,
        FtlKind::LeaFtl,
        FtlKind::LearnedFtl,
        FtlKind::Ideal,
    ];
    let trace_len = experiment.single_stream_ops;
    let streams = scale.fio_threads().min(16);
    let run = |kind: FtlKind, trace: TraceKind, traced: bool| -> RunResult {
        let mut ftl = kind.build(device);
        let mut wl = trace_replay(ftl.as_mut(), trace, streams, trace_len, experiment);
        ftl.set_tracing(traced);
        Runner::new().run(ftl.as_mut(), &mut wl)
    };

    let mut table = Table::new(vec![
        "trace",
        "FTL",
        "P99 (us)",
        "P99.9 (us)",
        "TPFTL P99 / this P99",
    ]);
    let mut tpftl_gains = Vec::new();
    let mut leaftl_gains = Vec::new();
    for trace in TraceKind::all() {
        let mut p99s = Vec::new();
        for kind in kinds {
            let mut result = run(kind, trace, false);
            let p99 = result.p99();
            let p999 = result.p999();
            p99s.push((kind, p99));
            table.add_row(vec![
                trace.label().to_string(),
                kind.label().to_string(),
                format!("{:.1}", p99.as_micros_f64()),
                format!("{:.1}", p999.as_micros_f64()),
                String::new(),
            ]);
        }
        let tpftl = p99s[0].1.as_micros_f64();
        let leaftl = p99s[1].1.as_micros_f64();
        let learned = p99s[2].1.as_micros_f64().max(1e-9);
        tpftl_gains.push(tpftl / learned);
        leaftl_gains.push(leaftl / learned);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    print_table_with_verdict(
        &table,
        &format!(
            "LearnedFTL improves P99 by {:.1}x on average over TPFTL (paper: 5.5x) and \
             {:.1}x over LeaFTL (paper: 8.2x)",
            avg(&tpftl_gains),
            avg(&leaftl_gains)
        ),
    );

    // Observability: export a traced LearnedFTL replay of the first trace
    // when requested; the comparison table above stays untraced.
    if args.tracing() {
        let trace = TraceKind::all()[0];
        let traced = run(FtlKind::LearnedFtl, trace, true);
        println!("traced run: LearnedFTL, {} replay", trace.label());
        args.export_observability("fig21_tail_latency", &traced)
            .expect("writing observability output failed");
    }
}
