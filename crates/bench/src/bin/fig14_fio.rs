//! Figure 14: FIO performance under 64 threads for all five FTL designs —
//! (a) throughput per access pattern, (b) CMT/model hit ratios for reads,
//! (c) write amplification for writes.
//!
//! Paper's findings: LearnedFTL beats DFTL/TPFTL/LeaFTL by 1.4–1.6× on random
//! reads (reaching ~89 % of the ideal FTL), is slightly ahead on sequential
//! reads, and its group-based allocation keeps write amplification at or below
//! the baselines'.

use bench::{percent, print_header, print_table_with_verdict, BenchArgs};
use harness::experiments::{fio_read, fio_write, run};
use harness::{FtlKind, RunResult};
use metrics::Table;
use workloads::FioPattern;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    print_header(
        "Fig. 14 — FIO throughput, hit ratios and write amplification (all FTLs)",
        "LearnedFTL wins random reads by 1.4-1.6x over the baselines and approaches the ideal FTL",
        scale,
    );
    let device = scale.device();
    let experiment = scale.experiment();
    let threads = scale.fio_threads();
    let kinds = FtlKind::all();

    // ---- Fig. 14(a): throughput per pattern --------------------------------
    let mut results: Vec<(FioPattern, Vec<RunResult>)> = Vec::new();
    for pattern in [
        FioPattern::RandRead,
        FioPattern::SeqRead,
        FioPattern::RandWrite,
        FioPattern::SeqWrite,
    ] {
        let mut per_kind = Vec::new();
        for kind in kinds {
            per_kind.push(run(kind, device, |ftl| {
                if pattern.is_read() {
                    fio_read(ftl, pattern, threads, experiment)
                } else {
                    fio_write(ftl, pattern, threads, 1, experiment)
                }
            }));
        }
        results.push((pattern, per_kind));
    }

    let mut throughput = Table::new(vec![
        "pattern",
        "DFTL",
        "TPFTL",
        "LeaFTL",
        "LearnedFTL",
        "ideal",
        "LearnedFTL/TPFTL",
        "LearnedFTL/ideal",
    ]);
    let mut randread_gain = 0.0;
    let mut randread_vs_ideal = 0.0;
    for (pattern, per_kind) in &results {
        let mibs: Vec<f64> = per_kind.iter().map(RunResult::mib_per_sec).collect();
        let learned = mibs[3];
        let tpftl = mibs[1];
        let ideal = mibs[4];
        let vs_tpftl = if tpftl > 0.0 { learned / tpftl } else { 0.0 };
        let vs_ideal = if ideal > 0.0 { learned / ideal } else { 0.0 };
        if *pattern == FioPattern::RandRead {
            randread_gain = vs_tpftl;
            randread_vs_ideal = vs_ideal;
        }
        throughput.add_row(vec![
            pattern.label().to_string(),
            format!("{:.1}", mibs[0]),
            format!("{:.1}", mibs[1]),
            format!("{:.1}", mibs[2]),
            format!("{:.1}", mibs[3]),
            format!("{:.1}", mibs[4]),
            format!("{vs_tpftl:.2}"),
            format!("{vs_ideal:.2}"),
        ]);
    }
    println!("Fig. 14(a) — throughput (MiB/s)");
    print_table_with_verdict(
        &throughput,
        &format!(
            "LearnedFTL/TPFTL on random reads = {randread_gain:.2}x (paper: 1.4x) and reaches \
             {:.0}% of the ideal FTL (paper: 89%)",
            randread_vs_ideal * 100.0
        ),
    );

    // ---- Fig. 14(b): CMT / model hit ratios for the read patterns ----------
    let mut hits = Table::new(vec![
        "pattern",
        "FTL",
        "CMT hit",
        "model hit",
        "single reads",
    ]);
    for (pattern, per_kind) in &results {
        if !pattern.is_read() {
            continue;
        }
        for result in per_kind {
            hits.add_row(vec![
                pattern.label().to_string(),
                result.ftl_name.clone(),
                percent(result.cmt_hit_ratio()),
                percent(result.model_hit_ratio()),
                percent(result.stats.single_read_ratio()),
            ]);
        }
    }
    let learned_rand = &results[0].1[3];
    println!("Fig. 14(b) — hit ratios");
    print_table_with_verdict(
        &hits,
        &format!(
            "under random reads DFTL/TPFTL CMT hit ratios are near zero while LearnedFTL's \
             models alone serve {} of reads (paper: 55.5%)",
            percent(learned_rand.model_hit_ratio())
        ),
    );

    // ---- Fig. 14(c): write amplification ------------------------------------
    let mut wa = Table::new(vec![
        "pattern",
        "DFTL",
        "TPFTL",
        "LeaFTL",
        "LearnedFTL",
        "ideal",
    ]);
    let mut learned_wa_ok = true;
    for (pattern, per_kind) in &results {
        if pattern.is_read() {
            continue;
        }
        let was: Vec<f64> = per_kind
            .iter()
            .map(RunResult::write_amplification)
            .collect();
        if *pattern == FioPattern::RandWrite && was[3] > was[1] * 1.3 {
            learned_wa_ok = false;
        }
        wa.add_row(vec![
            pattern.label().to_string(),
            format!("{:.2}", was[0]),
            format!("{:.2}", was[1]),
            format!("{:.2}", was[2]),
            format!("{:.2}", was[3]),
            format!("{:.2}", was[4]),
        ]);
    }
    println!("Fig. 14(c) — write amplification");
    print_table_with_verdict(
        &wa,
        &format!(
            "LearnedFTL's group-based allocation {} write amplification comparable to the \
             baselines under random writes (paper: slightly lower than DFTL/LeaFTL)",
            if learned_wa_ok {
                "keeps"
            } else {
                "does NOT keep"
            }
        ),
    );

    bench::export_default_observability(&args, "fig14_fio");
}
