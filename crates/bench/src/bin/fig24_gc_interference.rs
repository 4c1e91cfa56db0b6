//! GC-interference sweep: host tail latency under write-heavy open-loop load
//! with blocking vs *scheduled* garbage collection, for 1 and 4 FTL shards.
//!
//! This extends the paper: its FEMU platform (like every FTL in this repo
//! before PR 3) runs GC as a fully serial detour on the triggering host
//! write, so a collection's entire flash traffic lands in one host request's
//! latency. Scheduled GC (`GcMode::Scheduled`) instead commits a
//! collection's outcome up front and replays its page reads, page programs
//! and erases as `Priority::Gc` commands through the `ssd-sched` I/O
//! scheduler, where host commands bypass them per chip up to the GC
//! starvation bound. With PR 2's sharding, each shard runs its own scheduler
//! over its own channel group: one shard collecting leaves its siblings
//! completely undisturbed.
//!
//! The measured phase replays 128 KiB random writes (the paper's
//! warm-up-size I/O) on a seeded open-loop Poisson arrival process over a
//! pre-filled device, at a moderate and a write-heavy offered load. Three
//! shape checks anchor the figure (all enforced at exit):
//!
//! * **work invariance** — scheduled and blocking GC perform bit-identical
//!   aggregate flash work for LearnedFTL (its group allocator ignores
//!   device timing, so the identical request stream must produce identical
//!   collections; only *when* the time is charged may differ),
//! * **tail-latency win** — at shards=4 under the write-heavy load,
//!   scheduled GC improves host p99 over blocking GC for DFTL and
//!   LearnedFTL,
//! * **arbitration engaged** — the write-heavy point produces `gc_forced > 0`
//!   (the starvation bound really forces collections through host runs).
//!
//! The GC timeline column buckets *scheduler-observed collection
//! completions* (`FtlStats::gc_complete_events`), not trigger times: under
//! scheduled GC a collection finishes when its last charge drains, which is
//! the timeline the tail latencies actually experience.

use ftl_base::GcMode;
use harness::experiments::fio_gc_interference_run;
use harness::{FtlKind, RunResult};
use metrics::{GcTimeline, Table};
use ssd_sim::Duration;

use bench::{print_header, print_table_with_verdict, shard_scaling_device, times, BenchArgs};

/// 128 KiB requests: large writes keep several page programs in flight per
/// chip, which is what makes queued GC charges yield — and the starvation
/// bound force them through.
const WRITE_PAGES: u32 = 32;
/// Open-loop request streams (round-robin sources, not closed-loop threads).
const THREADS: usize = 4;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    let device = shard_scaling_device(scale);
    print_header(
        "Fig. 24 (extension) — GC interference: blocking vs scheduled GC, FIO randwrite 128 KiB",
        "routing GC flash traffic through the scheduler's GC priority class bounds \
         host-vs-GC interference per chip: same total flash work, better write-heavy p99",
        scale,
    );
    println!("device: {}", device.geometry);

    // Offered loads for 128 KiB requests: `moderate` (1.8 ms gaps) leaves
    // ample headroom; the last entry — "the write-heavy point" of the shape
    // checks, 0.9 ms gaps — offers what the device sustains *with* its
    // GC/translation overhead, so collections run constantly and every GC
    // stall lands on a waiting host request. (Far beyond saturation every
    // mode degenerates to makespan and tails stop measuring interference.)
    let gaps_us: [u64; 2] = [1_800, 900];
    let shard_counts = [1usize, 4];
    let kinds = [
        FtlKind::Dftl,
        FtlKind::Tpftl,
        FtlKind::LeaFtl,
        FtlKind::LearnedFtl,
    ];
    let experiment = scale.experiment();

    let mut table = Table::new(vec![
        "FTL",
        "shards",
        "GC mode",
        "gap (us)",
        "P99 (ms)",
        "P99.9 (ms)",
        "GCs",
        "yields",
        "forced",
        "stalled",
        "WA",
        "GC timeline peak/bucket",
    ]);

    // results[kind][shards][mode] at the heavy load point.
    let mut heavy: Vec<Vec<Vec<Option<RunResult>>>> =
        vec![vec![vec![None, None]; shard_counts.len()]; kinds.len()];

    for (ki, &kind) in kinds.iter().enumerate() {
        for (si, &shards) in shard_counts.iter().enumerate() {
            for (mi, &mode) in [GcMode::Blocking, GcMode::Scheduled].iter().enumerate() {
                for (gi, &gap) in gaps_us.iter().enumerate() {
                    let mut r = fio_gc_interference_run(
                        kind,
                        THREADS,
                        WRITE_PAGES,
                        shards,
                        mode,
                        Duration::from_micros(gap),
                        device,
                        experiment,
                        false,
                    );
                    // Bucket scheduler-observed GC completions over the run.
                    let bucket = Duration::from_millis(100);
                    let timeline = GcTimeline::from_events(&r.stats.gc_complete_events, bucket);
                    table.add_row(vec![
                        kind.label().to_string(),
                        shards.to_string(),
                        format!("{mode:?}"),
                        gap.to_string(),
                        format!("{:.2}", r.p99().as_micros_f64() / 1000.0),
                        format!("{:.2}", r.p999().as_micros_f64() / 1000.0),
                        r.stats.gc_count.to_string(),
                        r.stats.gc_yields.to_string(),
                        r.stats.gc_forced.to_string(),
                        r.stats.gc_stalled_exits.to_string(),
                        format!("{:.2}", r.write_amplification()),
                        format!(
                            "{} ({:.1} mean)",
                            timeline.peak(),
                            timeline.mean_per_bucket()
                        ),
                    ]);
                    if gi == gaps_us.len() - 1 {
                        heavy[ki][si][mi] = Some(r);
                    }
                }
            }
        }
    }

    // ---- shape checks ------------------------------------------------------
    let ki_of = |kind: FtlKind| kinds.iter().position(|&k| k == kind).expect("swept");
    let mut ok = true;
    let mut verdicts: Vec<String> = Vec::new();

    // 1. Work invariance for LearnedFTL at shards 1 and 4.
    let learned = ki_of(FtlKind::LearnedFtl);
    for (si, &shards) in shard_counts.iter().enumerate() {
        let b = heavy[learned][si][0].as_ref().expect("blocking run");
        let s = heavy[learned][si][1].as_ref().expect("scheduled run");
        let same = b.stats.gc_page_reads == s.stats.gc_page_reads
            && b.stats.gc_page_writes == s.stats.gc_page_writes
            && b.stats.blocks_erased == s.stats.blocks_erased
            && b.device.reads == s.device.reads
            && b.device.programs == s.device.programs
            && b.device.erases == s.device.erases;
        if !same || b.stats.gc_count == 0 {
            ok = false;
        }
        verdicts.push(format!(
            "LearnedFTL shards={shards}: {} GCs, flash work scheduled==blocking: {}",
            b.stats.gc_count,
            if same { "yes" } else { "NO" }
        ));
    }

    // 2. Scheduled beats blocking p99 at shards=4 under the heavy point.
    let four = shard_counts.iter().position(|&s| s == 4).expect("swept");
    for kind in [FtlKind::Dftl, FtlKind::LearnedFtl] {
        let ki = ki_of(kind);
        let p99_b = heavy[ki][four][0].as_mut().expect("blocking run").p99();
        let p99_s = heavy[ki][four][1].as_mut().expect("scheduled run").p99();
        if p99_s >= p99_b {
            ok = false;
        }
        verdicts.push(format!(
            "{} shards=4 heavy p99: scheduled {:.2} ms vs blocking {:.2} ms ({} better)",
            kind.label(),
            p99_s.as_micros_f64() / 1000.0,
            p99_b.as_micros_f64() / 1000.0,
            times(p99_b.as_micros_f64() / p99_s.as_micros_f64().max(f64::MIN_POSITIVE)),
        ));
    }

    // 3. The write-heavy point really exercises the starvation bound.
    let forced: u64 = kinds
        .iter()
        .enumerate()
        .map(|(ki, _)| {
            heavy[ki][four][1]
                .as_ref()
                .map(|r| r.stats.gc_forced)
                .unwrap_or(0)
        })
        .sum();
    if forced == 0 {
        ok = false;
    }
    verdicts.push(format!(
        "gc_forced at the write-heavy point (shards=4, scheduled, all FTLs): {forced}"
    ));

    print_table_with_verdict(
        &table,
        &format!(
            "{} — {}",
            verdicts.join("; "),
            if ok {
                "all GC-scheduling invariants hold"
            } else {
                "INVARIANT VIOLATED"
            }
        ),
    );

    // Observability: when `--trace-out` / `--metrics-out` are given, re-run
    // the write-heavy scheduled-GC point (LearnedFTL, shards=4) with tracing
    // on and export it — the trace shows GC charge spans yielding to host
    // commands on the per-chip scheduler tracks.
    if args.tracing() {
        let traced = fio_gc_interference_run(
            FtlKind::LearnedFtl,
            THREADS,
            WRITE_PAGES,
            4,
            GcMode::Scheduled,
            Duration::from_micros(gaps_us[gaps_us.len() - 1]),
            device,
            experiment,
            true,
        );
        println!("traced run: LearnedFTL, scheduled GC, shards=4, write-heavy point");
        args.export_observability("fig24_gc_interference", &traced)
            .expect("writing observability output failed");
    }

    if !ok {
        std::process::exit(1);
    }
}
