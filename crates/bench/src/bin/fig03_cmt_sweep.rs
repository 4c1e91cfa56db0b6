//! Figure 3: the CMT hit ratio of TPFTL under random reads as the CMT grows
//! from 0.1 % to 50 % of all page mappings.
//!
//! Paper's finding: even a CMT holding 50 % of all mappings only reaches a
//! ~26 % hit ratio under random reads — growing the cache cannot fix the
//! double-read problem.

use baselines::{BaselineConfig, Tpftl};
use bench::{percent, print_header, print_table_with_verdict, BenchArgs};
use harness::experiments::fio_read;
use harness::Runner;
use metrics::Table;
use workloads::FioPattern;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 3 — TPFTL CMT hit ratio vs CMT space under random reads",
        "hit ratio grows only to ~26% even with a CMT holding 50% of all mappings",
        scale,
    );
    let device = scale.device();
    let experiment = scale.experiment();
    let ratios = [0.001, 0.03, 0.10, 0.30, 0.50];
    let paper = [0.0001, 0.019, 0.0524, 0.15, 0.259];

    let mut table = Table::new(vec![
        "CMT space (% of mappings)",
        "RandRead hit ratio",
        "SeqRead hit ratio",
        "paper (rand)",
    ]);
    let mut measured = Vec::new();
    for (i, &ratio) in ratios.iter().enumerate() {
        let run_pattern = |pattern: FioPattern| {
            let mut ftl = Tpftl::new(device, BaselineConfig::default().with_cmt_ratio(ratio));
            let mut wl = fio_read(&mut ftl, pattern, scale.fio_threads(), experiment);
            Runner::new().run(&mut ftl, &mut wl)
        };
        let rand = run_pattern(FioPattern::RandRead);
        let seq = run_pattern(FioPattern::SeqRead);
        measured.push(rand.cmt_hit_ratio());
        table.add_row(vec![
            format!("{:.1}", ratio * 100.0),
            percent(rand.cmt_hit_ratio()),
            percent(seq.cmt_hit_ratio()),
            percent(paper[i]),
        ]);
    }
    let monotone = measured.windows(2).all(|w| w[1] >= w[0] - 0.02);
    let capped = measured.last().copied().unwrap_or(0.0) < 0.8;
    let verdict = format!(
        "hit ratio grows with CMT size ({}) but stays far from 100% even at 50% space ({}) — \
         matching the paper's point that cache growth cannot solve random reads",
        if monotone { "monotone" } else { "NOT monotone" },
        if capped { "capped" } else { "NOT capped" },
    );
    print_table_with_verdict(&table, &verdict);

    bench::export_default_observability(&args, "fig03_cmt_sweep");
}
