//! Figure 22: energy consumption under the four traces, normalised to TPFTL.
//!
//! Paper's finding: on the read-intensive WebSearch traces LearnedFTL uses
//! 1.09–1.2× less energy than TPFTL/LeaFTL (because it eliminates translation
//! reads), while on the write-heavy Systor trace all FTLs are similar (writes
//! and erases dominate the energy budget).

use bench::{print_header, print_table_with_verdict, BenchArgs};
use harness::experiments::{run, trace_replay};
use harness::FtlKind;
use metrics::{EnergyModel, Table};
use workloads::TraceKind;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 22 — normalized energy under the four traces",
        "LearnedFTL saves 1.09-1.2x energy on the read-intensive traces; Systor is a wash",
        scale,
    );
    let device = scale.device();
    let experiment = scale.experiment();
    let model = EnergyModel::default();
    let kinds = [
        FtlKind::Tpftl,
        FtlKind::LeaFtl,
        FtlKind::LearnedFtl,
        FtlKind::Ideal,
    ];
    let trace_len = experiment.single_stream_ops;
    let streams = scale.fio_threads().min(16);

    let mut table = Table::new(vec!["trace", "FTL", "energy (J)", "normalized to TPFTL"]);
    let mut websearch_savings = Vec::new();
    let mut systor_ratio = 1.0;
    for trace in TraceKind::all() {
        let mut baseline_energy = 0.0;
        let mut learned_ratio = 1.0;
        for kind in kinds {
            let result = run(kind, device, |ftl| {
                trace_replay(ftl, trace, streams, trace_len, experiment)
            });
            let joules = model.total_joules(&result.device);
            if kind == FtlKind::Tpftl {
                baseline_energy = joules;
            }
            let normalized = if baseline_energy > 0.0 {
                joules / baseline_energy
            } else {
                0.0
            };
            if kind == FtlKind::LearnedFtl {
                learned_ratio = normalized;
            }
            table.add_row(vec![
                trace.label().to_string(),
                kind.label().to_string(),
                format!("{joules:.4}"),
                format!("{normalized:.3}"),
            ]);
        }
        if trace == TraceKind::Systor17 {
            systor_ratio = learned_ratio;
        } else {
            websearch_savings.push(1.0 / learned_ratio.max(1e-9));
        }
    }
    let avg_saving = websearch_savings.iter().sum::<f64>() / websearch_savings.len().max(1) as f64;
    print_table_with_verdict(
        &table,
        &format!(
            "on the WebSearch traces LearnedFTL uses {avg_saving:.2}x less energy than TPFTL \
             (paper: 1.09-1.2x); on Systor the ratio is {systor_ratio:.2} (paper: ~1.0)"
        ),
    );

    bench::export_default_observability(&args, "fig22_energy");
}
