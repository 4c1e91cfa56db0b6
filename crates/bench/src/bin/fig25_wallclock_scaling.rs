//! Wall-clock scaling of the thread-parallel execution backend
//! (`Runner::run_threaded_qd` / `run_threaded_open_loop`).
//!
//! The simulated backend advances all four shards' translation engines from
//! one host thread, so host wall-clock grows with shard count even though
//! shards share no state. The threaded backend gives each shard's FTL to a
//! dedicated worker thread while keeping the *simulated-time* results
//! bit-for-bit identical (the workspace `threaded_equivalence` suite pins
//! the whole matrix; this binary re-checks the sweep it times). Two shape
//! criteria anchor the figure:
//!
//! * **equivalence** — every threaded run reports exactly the simulated
//!   run's requests, elapsed simulated time, mean/max latency and P99
//!   (always enforced),
//! * **scaling** — with ≥ 2 host cores, `workers=4` must finish the QD16
//!   closed-loop sweep and the saturating open-loop sweep in less host
//!   wall-clock than `workers=1`. Enforced for LearnedFTL *and* DFTL: the
//!   batched SQ/CQ rings ship whole submission windows per channel
//!   round-trip, so even DFTL's sub-microsecond translation work no longer
//!   drowns in per-request channel overhead. (Skipped with a note on
//!   single-core hosts, where no backend can overlap work.)
//! * **coalescing** — a traced DFTL run's `RingBatch` counters must show a
//!   mean submission-batch size above 1 at QD16. Batch boundaries are a
//!   pure function of dispatch history, so unlike the wall-clock criteria
//!   this is deterministic and enforced on every host.

use harness::wallclock::WallTimer;

use baselines::BaselineConfig;
use bench::{print_header, print_table_with_verdict, shard_scaling_device, BenchArgs, Scale};
use ftl_base::Ftl;
use harness::experiments::{fio_read, ExperimentScale, OPEN_LOOP_ARRIVAL_SEED};
use harness::{FtlKind, Runner, ShardedRunResult};
use learnedftl::LearnedFtlConfig;
use metrics::Table;
use ssd_sim::Duration;
use workloads::FioPattern;

const SHARDS: usize = 4;
const DEPTH: usize = 16;
const STREAMS: usize = 16;
/// Worker counts swept; `None` is the simulated single-thread reference.
const WORKERS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(4)];

/// The measured phase needs enough requests that host wall-clock dominates
/// thread start-up and channel warm-up; the quick preset's per-stream count
/// is sized for simulated-time smoke checks, so raise its floor here.
fn wallclock_scale(scale: Scale) -> ExperimentScale {
    let mut experiment = scale.experiment();
    experiment.ops_per_stream = experiment.ops_per_stream.max(2_000);
    experiment
}

fn backend_label(workers: Option<usize>) -> String {
    match workers {
        None => "simulated".to_string(),
        Some(n) => format!("threaded x{n}"),
    }
}

/// One identically prepared frontend + measured workload. LearnedFTL runs
/// with `charge_training_time(false)`: billing the trainer's host wall
/// clock into simulated time would let separately prepared instances
/// diverge, which a backend-equivalence check must never be exposed to.
fn setup(
    kind: FtlKind,
    device: ssd_sim::SsdConfig,
    experiment: ExperimentScale,
) -> (harness::ShardedFtl<Box<dyn Ftl>>, workloads::FioWorkload) {
    let mut ftl = kind.build_sharded_with(
        device,
        SHARDS,
        BaselineConfig::default().for_shard(SHARDS),
        LearnedFtlConfig::default().with_charge_training_time(false),
    );
    let wl = fio_read(&mut ftl, FioPattern::RandRead, STREAMS, experiment);
    (ftl, wl)
}

/// Timed runs on shared CI hosts are noisy; measure each backend twice on
/// freshly prepared (identical) frontends and keep the best wall-clock.
/// Results are deterministic, so either run's measurements can be reported.
const TIMING_REPS: usize = 2;

/// Asserts a threaded run reproduced the simulated run's simulated-time
/// measurements exactly.
fn assert_equivalent(kind: FtlKind, reference: &ShardedRunResult, run: &ShardedRunResult) -> bool {
    let (a, b) = (&reference.result, &run.result);
    let same = a.requests == b.requests
        && a.elapsed == b.elapsed
        && a.latencies.mean() == b.latencies.mean()
        && a.latencies.max() == b.latencies.max()
        && a.clone().p99() == b.clone().p99()
        && a.device == b.device;
    if !same {
        eprintln!("EQUIVALENCE VIOLATION for {kind}: threaded run diverged from simulated");
    }
    same
}

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    let device = shard_scaling_device(scale);
    let experiment = wallclock_scale(scale);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    print_header(
        "Fig. 25 (extension) — wall-clock scaling of the threaded backend",
        "worker threads cut host wall-clock without changing a single simulated \
         timestamp: threaded x4 beats threaded x1 at QD16 while every backend \
         reports identical results",
        scale,
    );
    println!(
        "wall-clock device: {} | host cores: {cores}",
        device.geometry
    );
    println!(
        "shards={SHARDS} depth={DEPTH} streams={STREAMS} requests/stream={}",
        experiment.ops_per_stream
    );
    println!();

    let kinds = [FtlKind::Dftl, FtlKind::LearnedFtl];
    let mut equivalent = true;
    let mut closed_scaling_holds = true;
    let mut closed_gains = Vec::new();

    // ---- closed loop, QD16 ------------------------------------------------
    let mut table = Table::new(vec![
        "FTL",
        "backend",
        "wall (ms)",
        "sim elapsed (ms)",
        "IOPS (sim)",
        "speedup vs x1",
    ]);
    for &kind in &kinds {
        let mut reference: Option<ShardedRunResult> = None;
        let mut wall_x1 = f64::NAN;
        for &workers in &WORKERS {
            let mut wall = f64::INFINITY;
            let mut measured = None;
            for _ in 0..TIMING_REPS {
                let (mut ftl, mut wl) = setup(kind, device, experiment);
                let clock = WallTimer::start();
                let run = match workers {
                    None => Runner::new().run_sharded_qd(&mut ftl, &mut wl, DEPTH),
                    Some(n) => Runner::new().run_threaded_qd(&mut ftl, &mut wl, DEPTH, n),
                };
                wall = wall.min(clock.elapsed().as_secs_f64() * 1_000.0);
                measured = Some(run);
            }
            let run = measured.expect("TIMING_REPS >= 1");
            match &reference {
                None => reference = Some(run.clone()),
                Some(r) => equivalent &= assert_equivalent(kind, r, &run),
            }
            if workers == Some(1) {
                wall_x1 = wall;
            }
            let speedup = match workers {
                Some(n) if n > 1 => format!("{:.2}x", wall_x1 / wall),
                _ => "-".to_string(),
            };
            if workers == Some(4) {
                closed_gains.push((kind, wall_x1 / wall));
                if wall >= wall_x1 {
                    closed_scaling_holds = false;
                }
            }
            table.add_row(vec![
                kind.label().to_string(),
                backend_label(workers),
                format!("{wall:.1}"),
                format!("{:.2}", run.result.elapsed.as_millis_f64()),
                format!("{:.0}", run.result.iops()),
                speedup,
            ]);
        }
    }
    println!("closed loop, QD{DEPTH} random read");
    let gains: Vec<String> = closed_gains
        .iter()
        .map(|(k, g)| format!("{k} {g:.2}x"))
        .collect();
    print_table_with_verdict(
        &table,
        &format!(
            "threaded x4 vs x1 wall-clock: {} (both FTLs must be > 1.0 on multi-core hosts): {}",
            gains.join(", "),
            if cores < 2 {
                "SKIPPED — single-core host"
            } else if closed_scaling_holds {
                "yes"
            } else {
                "NO — worker threads did not pay off"
            }
        ),
    );

    // ---- open loop (no host feedback: the backend's best case) ------------
    // Saturating offered load so every worker's backlog stays deep.
    let open_gap = Duration::from_micros(10);
    let mut open_table = Table::new(vec!["FTL", "backend", "wall (ms)", "mean (us)", "P99 (us)"]);
    let mut open_scaling_holds = true;
    for &kind in &[FtlKind::LearnedFtl] {
        let mut wall_x1 = f64::NAN;
        let mut reference: Option<harness::RunResult> = None;
        for &workers in &[None, Some(1), Some(4)] {
            let mut wall = f64::INFINITY;
            let mut measured = None;
            for _ in 0..TIMING_REPS {
                let (mut ftl, mut wl) = setup(kind, device, experiment);
                let clock = WallTimer::start();
                let run = match workers {
                    None => Runner::new().run_open_loop(
                        &mut ftl,
                        &mut wl,
                        open_gap,
                        OPEN_LOOP_ARRIVAL_SEED,
                    ),
                    Some(n) => Runner::new().run_threaded_open_loop(
                        &mut ftl,
                        &mut wl,
                        open_gap,
                        OPEN_LOOP_ARRIVAL_SEED,
                        n,
                    ),
                };
                wall = wall.min(clock.elapsed().as_secs_f64() * 1_000.0);
                measured = Some(run);
            }
            let mut run = measured.expect("TIMING_REPS >= 1");
            match &reference {
                None => reference = Some(run.clone()),
                Some(r) => {
                    let same = r.requests == run.requests
                        && r.elapsed == run.elapsed
                        && r.latencies.mean() == run.latencies.mean()
                        && r.latencies.max() == run.latencies.max();
                    if !same {
                        eprintln!(
                            "EQUIVALENCE VIOLATION for {kind} (open loop): threaded diverged"
                        );
                    }
                    equivalent &= same;
                }
            }
            if workers == Some(1) {
                wall_x1 = wall;
            }
            if workers == Some(4) && wall >= wall_x1 {
                open_scaling_holds = false;
            }
            open_table.add_row(vec![
                kind.label().to_string(),
                backend_label(workers),
                format!("{wall:.1}"),
                format!("{:.1}", run.latencies.mean().as_micros_f64()),
                format!("{:.1}", run.p99().as_micros_f64()),
            ]);
        }
    }
    println!("open loop, saturating offered load (Poisson, 10 us mean gap)");
    print_table_with_verdict(
        &open_table,
        &format!(
            "threaded x4 vs x1 wall-clock on the feedback-free arrival stream: {}",
            if cores < 2 {
                "SKIPPED — single-core host"
            } else if open_scaling_holds {
                "yes"
            } else {
                "NO — worker threads did not pay off"
            }
        ),
    );

    // ---- ring coalescing (traced; deterministic on every host) ------------
    // The refactored backend stages dispatches on per-shard submission rings
    // and ships each eligible window as one channel round-trip; a traced
    // run's RingBatch counters record exactly how many requests every window
    // coalesced. DFTL is the FTL the batching exists for — its translation
    // work is so cheap that per-request channel traffic used to dominate.
    let (mut ftl, mut wl) = setup(FtlKind::Dftl, device, experiment);
    ftl.set_tracing(true);
    let traced = Runner::new().run_threaded_qd(&mut ftl, &mut wl, DEPTH, 4);
    let analysis = metrics::analyze(&traced.result.trace);
    let ring = analysis.ring_totals();
    let mut ring_table = Table::new(vec!["shard", "batches", "entries", "mean", "max"]);
    for r in &analysis.rings {
        ring_table.add_row(vec![
            r.shard.to_string(),
            r.batches.to_string(),
            r.entries.to_string(),
            format!("{:.2}", r.mean_entries()),
            r.max_entries.to_string(),
        ]);
    }
    ring_table.add_row(vec![
        "all".to_string(),
        ring.batches.to_string(),
        ring.entries.to_string(),
        format!("{:.2}", ring.mean_entries()),
        ring.max_entries.to_string(),
    ]);
    println!("submission-ring coalescing, DFTL threaded x4, QD{DEPTH} random read (traced)");
    let batching_holds = ring.batches > 0 && ring.mean_entries() > 1.0;
    print_table_with_verdict(
        &ring_table,
        &format!(
            "mean submission-batch size at QD{DEPTH}: {:.2} (must exceed 1 — \
             the rings must coalesce): {}",
            ring.mean_entries(),
            if batching_holds {
                "yes"
            } else {
                "NO — every window shipped a single request"
            }
        ),
    );

    if !equivalent {
        eprintln!("FAIL: threaded backend diverged from the simulated backend");
        std::process::exit(1);
    }
    bench::export_default_observability(&args, "fig25_wallclock_scaling");

    if cores >= 2 && !(closed_scaling_holds && open_scaling_holds) {
        eprintln!("FAIL: threaded x4 did not beat threaded x1 in wall-clock");
        std::process::exit(1);
    }
    if !batching_holds {
        eprintln!("FAIL: submission rings did not coalesce requests at QD{DEPTH}");
        std::process::exit(1);
    }
}
