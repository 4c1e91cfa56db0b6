//! Experiments that go beyond the paper: the queue-depth, shard and plane
//! sweeps, GC interference under the I/O scheduler, and noisy-neighbour
//! isolation. The paper's FEMU platform runs one FTL instance with one
//! plane per chip, blocking GC and one workload at a time; each row here
//! lifts one of those limits and enforces the shape it should produce.

use ftl_base::{Ftl, GcMode};
use harness::experiments::{
    fio_gc_interference_run, fio_read, fio_write, tenant_noisy_neighbour_run,
    OPEN_LOOP_ARRIVAL_SEED,
};
use harness::{FtlKind, RunResult, Runner, ShardedFtl, TenantRunResult};
use metrics::{GcTimeline, LatencyHistogram, Table};
use ssd_sim::Duration;
use workloads::{FioPattern, FioWorkload, TenantSpec};

use super::{slot, DEMAND_LINEUP};
use crate::{plane_scaling_device, shard_scaling_device, times, Scale, Section};

/// The queue depths of the QD sweep.
const DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// The FIO read protocol measured at `depth` host slots, traced or not.
fn qd_run(scale: Scale, kind: FtlKind, depth: usize, traced: bool) -> RunResult {
    let mut ftl = kind.build(scale.device());
    let mut wl = fio_read(
        ftl.as_mut(),
        FioPattern::RandRead,
        scale.fio_threads(),
        scale.experiment(),
    );
    ftl.set_tracing(traced);
    Runner::new().run_qd(ftl.as_mut(), &mut wl, depth)
}

/// Queue-depth sweep, extending the paper's tail-latency analysis: IOPS,
/// mean queueing delay and tail latency at QD 1/4/16/64 under FIO 4 KiB
/// random reads. FEMU exposes intra-SSD parallelism through the host's
/// queue depth, and the gap between the designs widens as deeper queues
/// keep more chips busy. Enforced: IOPS at QD 16 beats QD 1 for every FTL.
pub(super) fn fig21_qd_sweep(scale: Scale) -> Vec<Section> {
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
    for kind in DEMAND_LINEUP {
        let mut iops_at = [0.0f64; DEPTHS.len()];
        for (i, &depth) in DEPTHS.iter().enumerate() {
            let mut r = qd_run(scale, kind, depth, false);
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
    vec![Section::new(table, verdict).enforced(qd16_beats_qd1)]
}

/// The QD sweep's traced run: LearnedFTL at QD 16.
pub(super) fn fig21_qd_sweep_traced(scale: Scale) -> RunResult {
    qd_run(scale, FtlKind::LearnedFtl, 16, true)
}

/// The shard counts of the shard-scaling sweep.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The FIO read protocol on a `shards`-way frontend of the shard-scaling
/// device.
fn sharded_reads(
    scale: Scale,
    kind: FtlKind,
    shards: usize,
) -> (ShardedFtl<Box<dyn Ftl>>, FioWorkload) {
    let mut ftl = kind.build_sharded(shard_scaling_device(scale), shards);
    let wl = fio_read(
        &mut ftl,
        FioPattern::RandRead,
        scale.fio_threads(),
        scale.experiment(),
    );
    (ftl, wl)
}

/// Shard-scaling sweep: FIO 4 KiB random reads on 1/2/4/8 per-channel-group
/// FTL shards, each with its own CMT/GTD and translation engine, so deep
/// host queues keep several engines busy at once. Enforced: at QD 16 the
/// largest shard count beats one shard for DFTL and LearnedFTL. Reported: at
/// QD 1 sharding cannot help, and an open-loop table (seeded Poisson
/// arrivals) shows the single engine saturating first as offered load
/// climbs.
pub(super) fn fig23_shard_scaling(scale: Scale) -> Vec<Section> {
    const QDS: [usize; 2] = [1, 16];
    let mut table = Table::new(vec![
        "FTL",
        "shards",
        "QD",
        "IOPS",
        "MiB/s",
        "P99 (us)",
        "P99.9 (us)",
        "lane imbalance",
    ]);
    // iops[kind][shard_index][qd_index]
    let mut iops = [[[0.0f64; QDS.len()]; SHARD_COUNTS.len()]; DEMAND_LINEUP.len()];
    for (ki, &kind) in DEMAND_LINEUP.iter().enumerate() {
        for (si, &shards) in SHARD_COUNTS.iter().enumerate() {
            for (qi, &depth) in QDS.iter().enumerate() {
                let (mut ftl, mut wl) = sharded_reads(scale, kind, shards);
                let mut r = Runner::new().run_sharded_qd(&mut ftl, &mut wl, depth);
                iops[ki][si][qi] = r.result.iops();
                table.add_row(vec![
                    kind.label().to_string(),
                    shards.to_string(),
                    depth.to_string(),
                    format!("{:.0}", r.result.iops()),
                    format!("{:.1}", r.result.mib_per_sec()),
                    format!("{:.1}", r.result.p99().as_micros_f64()),
                    format!("{:.1}", r.result.p999().as_micros_f64()),
                    format!("{:.2}", r.lane_imbalance()),
                ]);
            }
        }
    }

    // The largest swept shard count vs shards=1 at QD16.
    let big = SHARD_COUNTS.len() - 1;
    let [dftl, learned] = [FtlKind::Dftl, FtlKind::LearnedFtl].map(|k| slot(&DEMAND_LINEUP, k));
    let gain = |ki: usize| iops[ki][big][1] / iops[ki][0][1].max(f64::MIN_POSITIVE);
    let scaling_holds = [dftl, learned]
        .iter()
        .all(|&ki| iops[ki][big][1] > iops[ki][0][1]);
    let closed = Section::new(
        table,
        format!(
            "shards={} vs shards=1 at QD16: DFTL {:.2}x, LearnedFTL {:.2}x \
             (must be > 1.0 for both): {}",
            SHARD_COUNTS[big],
            gain(dftl),
            gain(learned),
            if scaling_holds {
                "yes"
            } else {
                "NO — sharding did not scale"
            }
        ),
    )
    .with_preamble(format!(
        "shard-scaling device: {}\nshard counts swept: {SHARD_COUNTS:?}\n\n\
         closed loop, QD sweep",
        shard_scaling_device(scale).geometry
    ))
    .enforced(scaling_holds);

    let mut open = Table::new(vec![
        "FTL",
        "shards",
        "offered load (KIOPS)",
        "mean (us)",
        "P99 (us)",
    ]);
    // Mean inter-arrival times chosen to bracket one translation engine's
    // capacity: light, moderate, and beyond-single-engine load.
    let gaps_us = [80u64, 30, 12];
    for kind in [FtlKind::Dftl, FtlKind::LearnedFtl] {
        for shards in [SHARD_COUNTS[0], SHARD_COUNTS[big]] {
            for &gap in &gaps_us {
                let (mut ftl, mut wl) = sharded_reads(scale, kind, shards);
                let mut r = Runner::new().run_open_loop(
                    &mut ftl,
                    &mut wl,
                    Duration::from_micros(gap),
                    OPEN_LOOP_ARRIVAL_SEED,
                );
                open.add_row(vec![
                    kind.label().to_string(),
                    shards.to_string(),
                    format!("{:.1}", 1_000.0 / gap as f64),
                    format!("{:.1}", r.latencies.mean().as_micros_f64()),
                    format!("{:.1}", r.p99().as_micros_f64()),
                ]);
            }
        }
    }
    let open = Section::new(
        open,
        "the single-engine frontend saturates first: its latency blows up at offered \
         loads the sharded frontend still serves near service time",
    )
    .with_preamble("open loop, latency vs offered load (Poisson arrivals)");
    vec![closed, open]
}

/// The shard sweep's traced run: LearnedFTL at QD 16 on the largest shard
/// count. Each shard is its own trace process ("shard N" in Perfetto).
pub(super) fn fig23_shard_scaling_traced(scale: Scale) -> RunResult {
    let (mut ftl, mut wl) = sharded_reads(scale, FtlKind::LearnedFtl, SHARD_COUNTS[3]);
    ftl.set_tracing(true);
    Runner::new().run_sharded_qd(&mut ftl, &mut wl, 16).result
}

/// 128 KiB requests: large writes keep several page programs in flight per
/// chip, which is what makes queued GC charges yield — and the starvation
/// bound force them through.
const GC_WRITE_PAGES: u32 = 32;
/// Open-loop request streams (round-robin sources, not closed-loop threads).
const GC_STREAMS: usize = 4;
/// Mean arrival gaps of 128 KiB writes: 1.8 ms leaves ample headroom; the
/// last, "the write-heavy point" of the checks, offers what the device
/// sustains *with* its GC and translation overhead, so collections run
/// constantly and every GC stall lands on a waiting host request. (Far
/// beyond saturation every mode degenerates to makespan and tails stop
/// measuring interference.)
const GC_GAPS_US: [u64; 2] = [1_800, 900];

/// One point of the GC-interference sweep on the shard-scaling device.
fn gc_interference(
    scale: Scale,
    kind: FtlKind,
    shards: usize,
    mode: GcMode,
    gap_us: u64,
    traced: bool,
) -> RunResult {
    fio_gc_interference_run(
        kind,
        GC_STREAMS,
        GC_WRITE_PAGES,
        shards,
        mode,
        Duration::from_micros(gap_us),
        shard_scaling_device(scale),
        scale.experiment(),
        traced,
    )
}

/// GC interference: host tail latency under write-heavy open-loop load with
/// blocking vs scheduled GC, on 1 and 4 shards. Blocking GC stalls the
/// triggering host write for the whole collection, whose copies run one
/// chain per source plane (`GcMode::Blocking`); scheduled GC
/// (`GcMode::Scheduled`) commits a collection up front and replays its
/// reads, programs and erases as `Priority::Gc` commands that host commands
/// bypass per chip, up to the starvation bound. The measured phase replays
/// 128 KiB random writes on seeded Poisson arrivals over a pre-filled
/// device. Enforced, at the write-heavy point:
///
/// * work invariance — scheduled and blocking GC do bit-identical flash
///   work for LearnedFTL, whose group allocator ignores device timing;
/// * tail-latency win — at shards=4 scheduled GC beats blocking GC's host
///   p99 for DFTL and LearnedFTL;
/// * arbitration engaged — `gc_forced > 0` at shards=4.
///
/// The GC timeline column buckets scheduler-observed collection
/// completions (`FtlStats::gc_complete_events`), not trigger times: under
/// scheduled GC a collection ends when its last charge drains, and that is
/// the timeline the tail latencies experience.
pub(super) fn fig24_gc_interference(scale: Scale) -> Vec<Section> {
    const SHARDS: [usize; 2] = [1, 4];
    const MODES: [GcMode; 2] = [GcMode::Blocking, GcMode::Scheduled];
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

    // heavy[kind][shards][mode]: the runs at the write-heavy point.
    let mut heavy: Vec<Vec<Vec<RunResult>>> = Vec::new();
    for kind in DEMAND_LINEUP {
        let mut per_shards = Vec::new();
        for shards in SHARDS {
            let mut per_mode = Vec::new();
            for mode in MODES {
                for gap in GC_GAPS_US {
                    let mut r = gc_interference(scale, kind, shards, mode, gap, false);
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
                    if gap == GC_GAPS_US[GC_GAPS_US.len() - 1] {
                        per_mode.push(r);
                    }
                }
            }
            per_shards.push(per_mode);
        }
        heavy.push(per_shards);
    }

    let mut ok = true;
    let mut verdicts: Vec<String> = Vec::new();

    // 1. Work invariance for LearnedFTL at every shard count.
    let learned = slot(&DEMAND_LINEUP, FtlKind::LearnedFtl);
    for (runs, shards) in heavy[learned].iter().zip(SHARDS) {
        let (b, s) = (&runs[0], &runs[1]);
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

    // 2. Scheduled beats blocking p99 at shards=4.
    let four = 1; // SHARDS[1] == 4
    for kind in [FtlKind::Dftl, FtlKind::LearnedFtl] {
        let runs = &mut heavy[slot(&DEMAND_LINEUP, kind)][four];
        let p99_b = runs[0].p99();
        let p99_s = runs[1].p99();
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
    let forced: u64 = heavy.iter().map(|k| k[four][1].stats.gc_forced).sum();
    if forced == 0 {
        ok = false;
    }
    verdicts.push(format!(
        "gc_forced at the write-heavy point (shards=4, scheduled, all FTLs): {forced}"
    ));

    let verdict = format!(
        "{} — {}",
        verdicts.join("; "),
        if ok {
            "all GC-scheduling invariants hold"
        } else {
            "INVARIANT VIOLATED"
        }
    );
    vec![Section::new(table, verdict)
        .with_preamble(format!("device: {}", shard_scaling_device(scale).geometry))
        .enforced(ok)]
}

/// The GC-interference traced run: LearnedFTL under scheduled GC at
/// shards=4 and the write-heavy point. The trace shows GC charge spans
/// yielding to host commands on the per-chip scheduler tracks.
pub(super) fn fig24_gc_interference_traced(scale: Scale) -> RunResult {
    let heavy_gap = GC_GAPS_US[GC_GAPS_US.len() - 1];
    gc_interference(
        scale,
        FtlKind::LearnedFtl,
        4,
        GcMode::Scheduled,
        heavy_gap,
        true,
    )
}

/// Plane-scaling sweep: FIO random-write throughput at 1/2/4 planes per chip
/// and equal raw capacity. The simulator keeps one timeline per plane,
/// forms multi-plane program groups from plane-aligned allocation stripes,
/// and LearnedFTL's VPPN-order group rows cover every plane, so more planes
/// must buy write throughput. Enforced: planes=2 beats planes=1 for DFTL and
/// LearnedFTL. planes=1 is the single-timeline model, which the workspace
/// equivalence suites pin bit for bit.
pub(super) fn fig26_plane_scaling(scale: Scale) -> Vec<Section> {
    /// Pages per write request: enough to fan one request out across
    /// several planes of a chip once the chips are saturated.
    const PAGES_PER_REQUEST: u32 = 8;
    /// Host queue depth of the measured phase.
    const DEPTH: usize = 16;
    const PLANE_COUNTS: [u32; 3] = [1, 2, 4];
    const LINEUP: [FtlKind; 4] = [
        FtlKind::Dftl,
        FtlKind::Tpftl,
        FtlKind::LearnedFtl,
        FtlKind::Ideal,
    ];
    let base = plane_scaling_device(scale);
    let threads = scale.fio_threads().min(8);
    let mut table = Table::new(vec![
        "FTL",
        "planes",
        "write MiB/s",
        "IOPS",
        "P99 (us)",
        "programs",
    ]);
    // mibs[kind][plane_index]
    let mut mibs = [[0.0f64; PLANE_COUNTS.len()]; LINEUP.len()];
    for (ki, &kind) in LINEUP.iter().enumerate() {
        for (pi, &planes) in PLANE_COUNTS.iter().enumerate() {
            let mut ftl = kind.build(base.with_planes(planes));
            let mut wl = fio_write(
                ftl.as_mut(),
                FioPattern::RandWrite,
                threads,
                PAGES_PER_REQUEST,
                scale.experiment(),
            );
            let mut r = Runner::new().run_qd(ftl.as_mut(), &mut wl, DEPTH);
            mibs[ki][pi] = r.mib_per_sec();
            table.add_row(vec![
                kind.label().to_string(),
                planes.to_string(),
                format!("{:.1}", r.mib_per_sec()),
                format!("{:.0}", r.iops()),
                format!("{:.1}", r.p99().as_micros_f64()),
                r.device.programs.to_string(),
            ]);
        }
    }

    // planes=2 (the second swept count) vs planes=1.
    let [dftl, learned] = [FtlKind::Dftl, FtlKind::LearnedFtl].map(|k| slot(&LINEUP, k));
    let gain = |ki: usize| mibs[ki][1] / mibs[ki][0].max(f64::MIN_POSITIVE);
    let scaling_holds = [dftl, learned].iter().all(|&ki| mibs[ki][1] > mibs[ki][0]);
    let verdict = format!(
        "planes={} vs planes=1 write throughput: DFTL {}, LearnedFTL {} \
         (must be > 1.0 for both): {}",
        PLANE_COUNTS[1],
        times(gain(dftl)),
        times(gain(learned)),
        if scaling_holds {
            "yes"
        } else {
            "NO — planes did not scale"
        }
    );
    vec![Section::new(table, verdict)
        .with_preamble(format!(
            "base device: {} (planes swept at equal capacity)\n\
             plane counts swept: {PLANE_COUNTS:?}\n",
            base.geometry
        ))
        .enforced(scaling_holds)]
}

/// The aggressor's weighted-round-robin share (one contended slot per
/// victim-weight × victims).
const AGGRESSOR_WEIGHT: u32 = 1;
/// Each victim's weighted-round-robin share.
const VICTIM_WEIGHT: u32 = 8;
/// Read-mostly victim tenants sharing the device with the aggressor.
const VICTIMS: usize = 3;
/// The noisy-neighbour frontend's shard count.
const TENANT_SHARDS: usize = 4;

/// The tenant line-up: one flooding write-heavy aggressor, `VICTIMS`
/// read-mostly victims at a moderate rate. Arrival gaps are sized against
/// the quick/standard devices' single-page service times so backlogs
/// actually form — with idle shards, admission order cannot matter.
fn tenant_specs(requests: u64) -> Vec<TenantSpec> {
    let mut specs =
        vec![TenantSpec::write_heavy(Duration::from_micros(20), requests)
            .with_weight(AGGRESSOR_WEIGHT)];
    for _ in 0..VICTIMS {
        specs.push(
            TenantSpec::read_mostly(Duration::from_micros(60), requests / 2)
                .with_weight(VICTIM_WEIGHT),
        );
    }
    specs
}

/// One noisy-neighbour run on DFTL: weighted admission when `isolate`, FIFO
/// otherwise.
fn tenants(scale: Scale, isolate: bool, traced: bool) -> TenantRunResult {
    let experiment = scale.experiment();
    tenant_noisy_neighbour_run(
        FtlKind::Dftl,
        tenant_specs(experiment.single_stream_ops),
        TENANT_SHARDS,
        GcMode::Blocking,
        shard_scaling_device(scale),
        experiment,
        isolate,
        traced,
    )
}

/// The victims' aggregate p99: their per-tenant histograms merged.
fn victim_p99(run: &TenantRunResult) -> Duration {
    let mut merged = LatencyHistogram::new();
    for lane in &run.tenants[1..] {
        merged.merge(&lane.latencies);
    }
    merged.p99()
}

/// Noisy-neighbour isolation: one write-heavy aggressor (95 % writes, high
/// rate, weight 1) and three read-mostly victims (95 % reads, weight 8) on
/// disjoint quarters of the logical space of a 4-shard DFTL. Each tenant's
/// Poisson arrivals queue in per-shard backlogs; a shard serves one request
/// at a time and picks the next tenant by weighted round-robin
/// (*weighted*) or in arrival order (*FIFO*,
/// what a namespace-oblivious host does). Latencies count from the true
/// arrival, so queueing behind the aggressor is measured. Enforced: the
/// victims' aggregate p99 is better weighted than FIFO.
pub(super) fn fig28_noisy_neighbour(scale: Scale) -> Vec<Section> {
    let specs = tenant_specs(scale.experiment().single_stream_ops);
    let mut table = Table::new(vec![
        "admission",
        "tenant",
        "mix",
        "weight",
        "requests",
        "mean (us)",
        "P99 (ms)",
        "max (ms)",
    ]);
    let [fifo, isolated] = [false, true].map(|isolate| {
        let mut run = tenants(scale, isolate, false);
        for lane in &mut run.tenants {
            let spec = &specs[lane.tenant as usize];
            table.add_row(vec![
                if isolate { "weighted" } else { "FIFO" }.to_string(),
                format!(
                    "{} ({})",
                    lane.tenant,
                    if lane.tenant == 0 {
                        "aggressor"
                    } else {
                        "victim"
                    }
                ),
                format!("{}% read", (spec.read_fraction * 100.0).round()),
                spec.weight.to_string(),
                lane.requests.to_string(),
                format!("{:.0}", lane.latencies.mean().as_micros_f64()),
                format!("{:.2}", lane.latencies.p99().as_micros_f64() / 1000.0),
                format!("{:.2}", lane.latencies.max().as_micros_f64() / 1000.0),
            ]);
        }
        run
    });

    let p99_fifo = victim_p99(&fifo);
    let p99_isolated = victim_p99(&isolated);
    let ok = p99_isolated < p99_fifo;
    let verdict = format!(
        "victims' aggregate p99: weighted {:.2} ms vs FIFO {:.2} ms ({} better) — {}",
        p99_isolated.as_micros_f64() / 1000.0,
        p99_fifo.as_micros_f64() / 1000.0,
        times(p99_fifo.as_micros_f64() / p99_isolated.as_micros_f64().max(f64::MIN_POSITIVE)),
        if ok {
            "weighted isolation shields the victims"
        } else {
            "ISOLATION DID NOT HELP"
        }
    );
    vec![Section::new(table, verdict)
        .with_preamble(format!(
            "device: {}, shards: {TENANT_SHARDS}",
            shard_scaling_device(scale).geometry
        ))
        .enforced(ok)]
}

/// The noisy-neighbour traced run: weighted isolation. The analysis's
/// per-tenant section breaks each tenant's latency into queue-wait,
/// translation, NAND, bus and GC components.
pub(super) fn fig28_noisy_neighbour_traced(scale: Scale) -> RunResult {
    tenants(scale, true, true).result
}
