//! Replay a synthetic WebSearch-like trace (Table II characteristics) against
//! TPFTL, LeaFTL and LearnedFTL and compare P99 tail latencies — a small
//! version of the paper's Fig. 21.
//!
//! Run with: `cargo run --release --example trace_tail_latency`

use harness::experiments::{run, trace_replay, ExperimentScale};
use learnedftl_suite::prelude::*;
use metrics::Table;
use ssd_sim::SsdConfig;
use workloads::TraceKind;

fn main() {
    let device = SsdConfig::tiny();
    let scale = ExperimentScale::quick();
    let trace = TraceKind::WebSearch1;
    let requests = 3_000;
    let streams = 8;

    println!(
        "trace {} ({}% reads, {:.1} KiB average I/O), {requests} requests, {streams} streams",
        trace.label(),
        trace.read_ratio() * 100.0,
        trace.average_io_kib()
    );
    println!();

    let mut table = Table::new(vec!["FTL", "P99 (us)", "P99.9 (us)", "mean (us)"]);
    let mut p99s = Vec::new();
    for kind in [
        FtlKind::Tpftl,
        FtlKind::LeaFtl,
        FtlKind::LearnedFtl,
        FtlKind::Ideal,
    ] {
        let mut result = run(kind, device, |ftl| {
            trace_replay(ftl, trace, streams, requests, scale)
        });
        let p99 = result.p99();
        p99s.push((kind, p99));
        table.add_row(vec![
            kind.label().to_string(),
            format!("{:.1}", p99.as_micros_f64()),
            format!("{:.1}", result.p999().as_micros_f64()),
            format!("{:.1}", result.latencies.mean().as_micros_f64()),
        ]);
    }
    println!("{}", table.render());
    let tpftl = p99s[0].1.as_micros_f64();
    let learned = p99s[2].1.as_micros_f64().max(1e-9);
    println!(
        "LearnedFTL cuts P99 by {:.1}x vs TPFTL on this run (the paper reports 5.3x for WS1 at full scale)",
        tpftl / learned
    );
}
