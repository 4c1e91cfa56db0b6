//! Ablation study of LearnedFTL's design choices (not a paper figure, but the
//! `LearnedFtlConfig` knobs behind the mechanisms the README describes):
//!
//! * the number of linear pieces per in-place-update model (paper default: 8),
//! * the CMT share of the DRAM budget (paper default: 1.5 %),
//! * sequential initialisation on/off (minimum run length pushed very high
//!   disables it in practice).
//!
//! Each row reports the random-read hit ratios and throughput after the
//! paper's warm-up, so the contribution of each mechanism is visible.

use bench::{percent, print_header, print_table_with_verdict, BenchArgs, Scale};
use harness::experiments::fio_read;
use harness::Runner;
use learnedftl::{LearnedFtl, LearnedFtlConfig};
use metrics::Table;
use workloads::FioPattern;

fn run(scale: Scale, config: LearnedFtlConfig) -> (f64, f64, f64, f64) {
    let device = scale.device();
    let experiment = scale.experiment();
    let mut ftl = LearnedFtl::new(device, config);
    let mut wl = fio_read(
        &mut ftl,
        FioPattern::RandRead,
        scale.fio_threads(),
        experiment,
    );
    // The models as the warm-up left them.
    let coverage = ftl.model_coverage();
    let result = Runner::new().run(&mut ftl, &mut wl);
    (
        result.mib_per_sec(),
        result.model_hit_ratio(),
        result.cmt_hit_ratio(),
        coverage,
    )
}

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Ablation — pieces per model, CMT share, sequential initialisation",
        "8 pieces + 1.5% CMT + sequential init is the paper's configuration; each knob contributes",
        scale,
    );

    let mut table = Table::new(vec![
        "configuration",
        "RandRead MiB/s",
        "model hit",
        "CMT hit",
        "model coverage",
    ]);
    let mut add = |name: &str, cfg: LearnedFtlConfig| {
        let (mibs, model_hit, cmt_hit, coverage) = run(scale, cfg);
        table.add_row(vec![
            name.to_string(),
            format!("{mibs:.1}"),
            percent(model_hit),
            percent(cmt_hit),
            percent(coverage),
        ]);
        (name.to_string(), model_hit)
    };

    let default = add("default (8 pieces, 1.5% CMT)", LearnedFtlConfig::default());
    let one_piece = add(
        "1 piece per model",
        LearnedFtlConfig::default().with_max_pieces(1),
    );
    add(
        "2 pieces per model",
        LearnedFtlConfig::default().with_max_pieces(2),
    );
    add(
        "16 pieces per model",
        LearnedFtlConfig::default().with_max_pieces(16),
    );
    add(
        "no CMT (models only)",
        LearnedFtlConfig::default().with_cmt_ratio(0.0),
    );
    add(
        "3% CMT (baseline-sized)",
        LearnedFtlConfig::default().with_cmt_ratio(0.03),
    );
    add(
        "no sequential init",
        LearnedFtlConfig {
            seq_init_min_run: u32::MAX,
            ..LearnedFtlConfig::default()
        },
    );

    print_table_with_verdict(
        &table,
        &format!(
            "the default configuration's model hit ratio ({}) should be at least as high as the \
             single-piece variant ({}) — more pieces let a model survive fragmentation",
            percent(default.1),
            percent(one_piece.1)
        ),
    );

    bench::export_default_observability(&args, "ablation_learnedftl");
}
