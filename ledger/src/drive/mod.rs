//! The pinned API surface: every call the benchmark makes into a layer crate
//! lives in this module and its two children ([`timed`], the span
//! decorators, and [`kernels`], the isolation kernels). A PR that renames or
//! removes an entry point used here needs a benchmark PR first — the README
//! lists the surface.
//!
//! This file builds each workload's frontend, warms it, runs one measured
//! *chunk* (a fixed number of requests, so simulated results are a pure
//! function of the seed) and turns the public results into numbers.

pub mod kernels;
pub mod timed;

use std::sync::Arc;

use baselines::BaselineConfig;
pub use ftl_base::Ftl;
use ftl_base::{FtlStats, GcMode};
use ftl_shard::ShardedFtl;
use harness::wallclock::WallTimer;
use harness::{FtlKind, RunResult, Runner};
use learnedftl::LearnedFtlConfig;
use ssd_sim::{DeviceStats, Duration, Geometry, LatencyConfig, SimTime, SsdConfig};
use workloads::{
    warmup, FilebenchPreset, FilebenchWorkload, FioPattern, FioWorkload, TenantSet, TenantSpec,
    Workload as Generator,
};

use crate::spec::Workload;
use timed::{Clock, Span, TimedFtl, TimedWorkload, Totals};

/// Full-size measurement or the tiny smoke configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Tiny device and chunks: exercises every code path in seconds. Its
    /// numbers are not comparable with anything.
    Quick,
}

/// Host queue depth of every closed-loop workload.
pub const DEPTH: usize = 16;
/// Closed-loop FIO streams.
const FIO_STREAMS: usize = 16;
/// Shards of the sharded workloads (8 channels, so 4 divides).
pub const SHARDS: usize = 4;
/// Worker threads of the threaded backend: the reference container has two
/// cores, and the host thread blocks in `recv` while workers run.
pub const THREAD_WORKERS: usize = 2;
/// Over-provisioning of the `tenants_open` device. At the common 12.5 % (and
/// still at 25 % once the device has aged) DFTL's per-chip collector
/// regularly gives up with the pool below its watermark
/// (`FtlStats::gc_stalled_exits`, which the ledger counts as failed
/// operations); at 30 % it never did over 8 M requests on five seeds.
const TENANT_OP_RATIO: f64 = 0.3;
/// Total offered load of `tenants_open`, requests per simulated second:
/// about 60 % of the mix's steady-state closed-loop capacity (13.3 k req/s
/// on the full-scale device once write amplification has levelled off at
/// ~3.4; a younger device has more headroom). Fixed here rather than derived
/// at run time so that two commits see the same arrivals.
const TENANT_TOTAL_RATE: f64 = 8_000.0;
/// The quick device has a quarter of the blocks, so collections come sooner.
const QUICK_TENANT_TOTAL_RATE: f64 = 3_000.0;
const TENANTS: u64 = 4;

/// The common device: 1 GiB raw, 8 channels, 12.5 % over-provisioning, FEMU
/// latencies. Quick mode is a quarter of it (256 MiB) at 25 % OP: LearnedFTL's
/// group allocation needs a block row of every shard to hold a whole
/// translation page's 512 mappings and generous over-provisioning at this
/// size. (Not every small shape works: unsharded LearnedFTL trips its own
/// "bitmap filter must guarantee exact predictions" debug assertion on, for
/// example, this geometry at 40 % OP — see the README's finding 5.)
pub fn device(scale: Scale) -> SsdConfig {
    let (geometry, op_ratio) = match scale {
        Scale::Full => (Geometry::new(8, 2, 1, 64, 256, 4096), 0.125),
        Scale::Quick => (Geometry::new(8, 2, 1, 16, 256, 4096), 0.25),
    };
    SsdConfig {
        geometry,
        latency: LatencyConfig::femu_default(),
        op_ratio,
    }
}

/// Requests in one chunk, and how many leading chunks make up the
/// *reference* whose merged results give the simulated metrics and digest.
///
/// A chunk takes 0.03-0.25 s on the reference container, so a window holds
/// dozens of rate samples; the reference holds at least 128 samples beyond
/// P99.9 and, on the slowest workload, still fits half the default window. `randread_learned` and its traced twin share both numbers
/// so their digests can be compared, as do the two varmail backends.
pub fn chunk_plan(workload: Workload, scale: Scale) -> (u64, usize) {
    let (requests, reference_chunks) = match workload {
        Workload::RandreadLearned | Workload::RandreadLearnedTraced => (50_000, 8),
        Workload::RandreadTpftl => (16_000, 16),
        Workload::HotreadDftl => (400_000, 2),
        Workload::RandwriteLearned => (8_000, 16),
        Workload::VarmailShard4Sim | Workload::VarmailShard4Thr => (8_000, 16),
        Workload::TenantsOpen => (100_000, 5),
    };
    match scale {
        Scale::Full => (requests, reference_chunks),
        Scale::Quick => ((requests / 10).max(1_000), 2),
    }
}

/// Requests in one chunk.
pub fn chunk_requests(workload: Workload, scale: Scale) -> u64 {
    chunk_plan(workload, scale).0
}

/// Requests written (untimed) during set-up so the first measured chunk
/// already sees steady-state garbage collection.
fn precondition_requests(workload: Workload, scale: Scale) -> u64 {
    let full = match workload {
        Workload::RandwriteLearned => 48_000,
        Workload::TenantsOpen => 600_000,
        _ => 0,
    };
    match scale {
        Scale::Full => full,
        Scale::Quick => full / 40,
    }
}

/// SplitMix64: derives the per-chunk stream (and tenant arrival) seeds from
/// the one `--seed`, far apart from each other.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set-up is configuration, not input: warm-up and preconditioning always
/// use these seeds, so every `--seed` measures the same warmed device and
/// only the measured request streams (and arrivals) differ. The simulated
/// metrics of two seeds then differ by sampling alone.
const WARMUP_SEED: u64 = 0x001E_D6E2;
const PRECONDITION_SEED: u64 = 0x001E_D6E3;

/// An unsharded FTL or a sharded frontend over `F`. One exists per set-up,
/// so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Front<F: Ftl> {
    Plain(F),
    Sharded(ShardedFtl<F>),
}

impl<F: Ftl> Front<F> {
    fn ftl(&mut self) -> &mut dyn Ftl {
        match self {
            Front::Plain(f) => f,
            Front::Sharded(s) => s,
        }
    }

    fn ftl_ref(&self) -> &dyn Ftl {
        match self {
            Front::Plain(f) => f,
            Front::Sharded(s) => s,
        }
    }

    /// The `F`s inside: the FTL itself, or each shard.
    pub fn parts(&self) -> Vec<&F> {
        match self {
            Front::Plain(f) => vec![f],
            Front::Sharded(s) => (0..s.shard_count()).map(|i| s.shard(i)).collect(),
        }
    }
}

/// A built and warmed frontend, ready to run chunks.
pub struct Prepared<F: Ftl> {
    pub workload: Workload,
    pub scale: Scale,
    seed: u64,
    pub front: Front<F>,
    next_chunk: u64,
}

/// Whether the workload's measured runs use the threaded backend, where
/// worker threads serve shards behind the generator.
pub fn is_threaded(workload: Workload) -> bool {
    workload == Workload::VarmailShard4Thr
}

fn is_sharded(workload: Workload) -> bool {
    matches!(
        workload,
        Workload::VarmailShard4Sim | Workload::VarmailShard4Thr | Workload::TenantsOpen
    )
}

/// Builds the workload's frontend and warms it. `wrap(shard, ftl)` decorates
/// each FTL the frontend is made of (identity for end-to-end runs,
/// [`TimedFtl`] for the traced pass).
pub fn prepare<F: Ftl>(
    workload: Workload,
    scale: Scale,
    seed: u64,
    mut wrap: impl FnMut(u32, Box<dyn Ftl>) -> F,
) -> Prepared<F> {
    let mut dev = device(scale);
    if workload == Workload::TenantsOpen {
        dev.op_ratio = TENANT_OP_RATIO;
    }
    // Charging the trainer's host time to the simulated timeline would leak
    // wall-clock noise into every simulated number; nothing would repeat.
    let learned = LearnedFtlConfig::default().with_charge_training_time(false);
    let (kind, learned) = match workload {
        Workload::RandreadLearned
        | Workload::RandreadLearnedTraced
        | Workload::VarmailShard4Sim
        | Workload::VarmailShard4Thr => (FtlKind::LearnedFtl, learned),
        Workload::RandwriteLearned => {
            (FtlKind::LearnedFtl, learned.with_gc_mode(GcMode::Scheduled))
        }
        Workload::RandreadTpftl => (FtlKind::Tpftl, learned),
        Workload::HotreadDftl | Workload::TenantsOpen => (FtlKind::Dftl, learned),
    };
    let mut front = if is_sharded(workload) {
        let baseline = BaselineConfig::default().for_shard(SHARDS);
        Front::Sharded(ShardedFtl::build_with(dev, SHARDS, |shard, cfg| {
            wrap(shard as u32, kind.build_with(cfg, baseline, learned))
        }))
    } else {
        Front::Plain(wrap(
            0,
            kind.build_with(dev, BaselineConfig::default(), learned),
        ))
    };

    let warm_seed = WARMUP_SEED;
    let (io_pages, overwrites) = match scale {
        Scale::Full => (128, 2),
        Scale::Quick => (32, 1),
    };
    let ftl = front.ftl();
    match workload {
        Workload::RandreadLearned | Workload::RandreadLearnedTraced | Workload::RandreadTpftl => {
            warmup::paper_warmup(ftl, io_pages, overwrites, warm_seed);
        }
        Workload::HotreadDftl => {
            let mut t = warmup::paper_warmup(ftl, io_pages, overwrites, warm_seed);
            // Touch the hot set once so the first measured chunk starts with
            // a filled CMT, like every later chunk.
            for lpn in 0..hot_pages(ftl.logical_pages()) {
                t = ftl.read(lpn, 1, t);
            }
        }
        Workload::VarmailShard4Sim | Workload::VarmailShard4Thr => {
            warmup::paper_warmup(ftl, io_pages, 1, warm_seed);
        }
        Workload::RandwriteLearned | Workload::TenantsOpen => {
            warmup::sequential_fill(ftl, io_pages, 1, SimTime::ZERO);
            ftl.drain_gc();
        }
    }

    let mut prepared = Prepared {
        workload,
        scale,
        seed,
        front,
        next_chunk: 0,
    };
    let requests = precondition_requests(workload, scale);
    if requests > 0 {
        let plan = Plan {
            requests,
            stream_seed: PRECONDITION_SEED,
            sim_trace: false,
            threaded: is_threaded(workload),
            precondition: true,
        };
        run_plan(&mut prepared, plan, None);
    }
    prepared
}

/// The hot set of `hotread_dftl`: the first 1 % of the space, which fits the
/// 3 % CMT.
fn hot_pages(logical_pages: u64) -> u64 {
    (logical_pages / 100).max(1)
}

/// One weight-1 write-heavy aggressor and three weight-8 read-mostly
/// victims, all at the same arrival rate. Preconditioning passes
/// `overload = true`: arrivals far faster than service, i.e. closed-loop
/// pressure that ages the device quickly.
fn tenant_specs(requests: u64, scale: Scale, overload: bool) -> Vec<TenantSpec> {
    let per_tenant = requests / TENANTS;
    let gap = if overload {
        Duration::from_nanos(400)
    } else {
        let rate = match scale {
            Scale::Full => TENANT_TOTAL_RATE,
            Scale::Quick => QUICK_TENANT_TOTAL_RATE,
        };
        Duration::from_secs_f64(TENANTS as f64 / rate)
    };
    let mut specs = vec![TenantSpec::write_heavy(gap, per_tenant).with_weight(1)];
    for _ in 1..TENANTS {
        specs.push(TenantSpec::read_mostly(gap, per_tenant).with_weight(8));
    }
    specs
}

/// Simulated-time facts of a tenant run the harness does not report: when
/// the last request arrived (to check for a growing backlog), and what
/// generating the arrivals cost (the generator cannot be decorated, because
/// `run_tenants` takes the concrete `TenantSet`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantFacts {
    pub last_arrival_s: f64,
    pub gen: Totals,
}

/// Replays an identical `TenantSet` on its own: sums each tenant's gaps to
/// find the last arrival and times the generation.
fn tenant_facts(specs: Vec<TenantSpec>, logical_pages: u64, seed: u64) -> TenantFacts {
    let mut set = TenantSet::new(specs, logical_pages, seed);
    let timer = WallTimer::start();
    let mut calls = 0u64;
    let mut last = Duration::ZERO;
    for tenant in 0..set.num_tenants() {
        let mut clock = Duration::ZERO;
        while let Some((gap, request)) = set.next_request(tenant) {
            clock += gap;
            calls += 1;
            std::hint::black_box(request);
        }
        last = last.max(clock);
    }
    TenantFacts {
        last_arrival_s: last.as_secs_f64(),
        gen: Totals {
            calls,
            busy_ns: u64::try_from(timer.elapsed().as_nanos()).unwrap_or(u64::MAX),
        },
    }
}

/// What a simulated-trace chunk adds: event count and the analysis numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTraceFacts {
    pub events: u64,
    pub analyze_s: f64,
    pub plane_util: f64,
    pub ring_mean_batch: f64,
}

/// Host-time spans of a decorated chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanFacts {
    /// Root span: its ordinal, and start and end of the `Runner` call on the
    /// pass clock.
    pub run_id: u32,
    pub run_start_ns: u64,
    pub run_end_ns: u64,
    pub gen: Totals,
    /// Sampled `workloads.gen` spans.
    pub gen_spans: Vec<Span>,
}

/// One measured chunk.
pub struct Chunk {
    /// Requests the generator was asked for.
    pub generated: u64,
    /// Wall seconds of the measured window: the `Runner` call plus, where
    /// the workload says so, the final `drain_gc` or `analyze`.
    pub wall_s: f64,
    /// The harness's result (trace dropped after analysis).
    pub result: RunResult,
    /// Sharded frontends: busiest shard's dispatch count over the uniform
    /// share, and mean wait for a shard's serial engine.
    pub lane_imbalance: f64,
    pub engine_wait_us_mean: f64,
    pub tenants: Option<TenantFacts>,
    pub sim_trace: Option<SimTraceFacts>,
    pub spans: Option<SpanFacts>,
}

/// How to run a chunk.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkOptions {
    /// Force the simulator's own tracing (and the analysis of the trace
    /// inside the window) on or off; by default only
    /// `randread_learned_traced` traces.
    pub sim_trace: Option<bool>,
    /// Run a sharded closed-loop workload on the other backend (`Some(true)`
    /// = threaded), for the backend speed ratio.
    pub threaded: Option<bool>,
    /// Override the chunk's request count (the small trace-cost chunks).
    pub requests: Option<u64>,
}

/// Runs the next chunk of the prepared workload. With `clock` set, the
/// generator is decorated and the root span recorded (the FTL side is
/// decorated through `F` and switched by the same clock).
pub fn run_chunk<F: Ftl>(
    prepared: &mut Prepared<F>,
    options: ChunkOptions,
    clock: Option<&Arc<Clock>>,
) -> Chunk {
    let plan = Plan {
        requests: options
            .requests
            .unwrap_or_else(|| chunk_requests(prepared.workload, prepared.scale)),
        stream_seed: derive_seed(prepared.seed, prepared.next_chunk),
        sim_trace: options
            .sim_trace
            .unwrap_or(prepared.workload == Workload::RandreadLearnedTraced),
        threaded: options
            .threaded
            .unwrap_or_else(|| is_threaded(prepared.workload)),
        precondition: false,
    };
    prepared.next_chunk += 1;
    run_plan(prepared, plan, clock)
}

/// Runs `run` over the generator, through a [`TimedWorkload`] when the pass
/// has a clock; returns the decorator's totals and sampled spans with it.
fn decorated<R>(
    generator: &mut dyn Generator,
    clock: Option<&Arc<Clock>>,
    run: impl FnOnce(&mut dyn Generator) -> R,
) -> (R, Option<(Totals, Vec<Span>)>) {
    match clock {
        Some(clock) => {
            let mut timed = TimedWorkload::new(generator, clock);
            let result = run(&mut timed);
            (result, Some(timed.finish()))
        }
        None => (run(generator), None),
    }
}

/// One pass of requests over the frontend: a measured chunk, or the untimed
/// preconditioning pass of set-up.
#[derive(Debug, Clone, Copy)]
struct Plan {
    requests: u64,
    stream_seed: u64,
    sim_trace: bool,
    threaded: bool,
    precondition: bool,
}

fn run_plan<F: Ftl>(prepared: &mut Prepared<F>, plan: Plan, clock: Option<&Arc<Clock>>) -> Chunk {
    let Plan {
        requests,
        stream_seed,
        sim_trace,
        threaded,
        precondition,
    } = plan;
    let scale = prepared.scale;
    let workload = prepared.workload;
    let logical_pages = prepared.front.ftl().logical_pages();
    let runner = Runner::new();
    prepared.front.ftl().set_tracing(sim_trace);

    // The closed-loop generators; `tenants_open` builds its own below.
    let fio = |pattern, space: u64| {
        let per_stream = (requests / FIO_STREAMS as u64).max(1);
        FioWorkload::new(pattern, space, FIO_STREAMS, 1, per_stream, stream_seed)
    };
    let mut generator: Option<Box<dyn Generator>> = match workload {
        Workload::RandreadLearned | Workload::RandreadLearnedTraced | Workload::RandreadTpftl => {
            Some(Box::new(fio(FioPattern::RandRead, logical_pages)))
        }
        Workload::HotreadDftl => Some(Box::new(fio(
            FioPattern::RandRead,
            hot_pages(logical_pages),
        ))),
        Workload::RandwriteLearned => Some(Box::new(fio(FioPattern::RandWrite, logical_pages))),
        Workload::VarmailShard4Sim | Workload::VarmailShard4Thr => {
            let streams = FilebenchPreset::Varmail.threads() as u64;
            Some(Box::new(FilebenchWorkload::new(
                FilebenchPreset::Varmail,
                logical_pages,
                (requests / streams).max(1),
                stream_seed,
            )))
        }
        Workload::TenantsOpen => None,
    };
    let generated = match &generator {
        Some(g) => g.total_requests().unwrap_or(requests),
        None => requests / TENANTS * TENANTS,
    };

    let tenant_specs =
        (workload == Workload::TenantsOpen).then(|| tenant_specs(requests, scale, precondition));
    let tenants = tenant_specs
        .clone()
        .filter(|_| !precondition)
        .map(|specs| tenant_facts(specs, logical_pages, stream_seed));

    let run_span = clock.map(|c| (c.begin_run(), c.now_ns()));
    let timer = WallTimer::start();
    let (mut result, timed_gen) = match (&mut prepared.front, generator.as_deref_mut()) {
        (Front::Plain(ftl), Some(generator)) => {
            decorated(generator, clock, |g| runner.run_qd(ftl, g, DEPTH))
        }
        (Front::Sharded(ftl), Some(generator)) => decorated(generator, clock, |g| {
            if threaded {
                runner.run_threaded_qd(ftl, g, DEPTH, THREAD_WORKERS).result
            } else {
                runner.run_sharded_qd(ftl, g, DEPTH).result
            }
        }),
        (Front::Sharded(ftl), None) => {
            let specs = tenant_specs.expect("only tenants_open has no closed-loop generator");
            let mut set = TenantSet::new(specs, logical_pages, stream_seed);
            (runner.run_tenants(ftl, &mut set, true).result, None)
        }
        (Front::Plain(_), None) => unreachable!("tenants_open is sharded"),
    };
    // Scheduled collections still in flight belong to the writes that
    // triggered them: finish them inside the window and report their work.
    if prepared.front.ftl().gc_mode() == GcMode::Scheduled {
        let ftl = prepared.front.ftl();
        ftl.drain_gc();
        result.stats = ftl.stats().clone();
        result.device = ftl.device_stats();
    }
    let run_end_ns = clock.map(|c| c.now_ns());

    let sim_trace = sim_trace.then(|| {
        let analyze = WallTimer::start();
        let analysis = metrics::analyze(&result.trace);
        let analyze_s = analyze.elapsed().as_secs_f64();
        let shards = analysis.shards.len().max(1) as f64;
        SimTraceFacts {
            events: result.trace.len() as u64,
            analyze_s,
            plane_util: analysis.shards.iter().map(|s| s.plane_util()).sum::<f64>() / shards,
            ring_mean_batch: analysis.ring_totals().mean_entries(),
        }
    });
    let wall_s = timer.elapsed().as_secs_f64();
    result.trace = Vec::new();
    prepared.front.ftl().set_tracing(false);

    let (lane_imbalance, engine_wait_us_mean) = match &prepared.front {
        Front::Plain(_) => (0.0, 0.0),
        Front::Sharded(ftl) => {
            let engines = ftl.engines().stats();
            let total: u64 = engines.dispatched.iter().sum();
            let busiest = engines.dispatched.iter().copied().max().unwrap_or(0);
            let imbalance = if total == 0 {
                0.0
            } else {
                busiest as f64 * engines.dispatched.len() as f64 / total as f64
            };
            (imbalance, engines.waits.mean().as_micros_f64())
        }
    };

    let spans = match (run_span, run_end_ns) {
        (Some((run_id, run_start_ns)), Some(run_end_ns)) => {
            let (gen, gen_spans) = match (timed_gen, &tenants) {
                (Some((totals, spans)), _) => (totals, spans),
                (None, Some(facts)) => (facts.gen, Vec::new()),
                (None, None) => (Totals::default(), Vec::new()),
            };
            Some(SpanFacts {
                run_id,
                run_start_ns,
                run_end_ns,
                gen,
                gen_spans,
            })
        }
        _ => None,
    };

    Chunk {
        generated,
        wall_s,
        result,
        lane_imbalance,
        engine_wait_us_mean,
        tenants,
        sim_trace,
        spans,
    }
}

/// The undecorated frontend of the end-to-end runs.
pub fn prepare_plain(workload: Workload, scale: Scale, seed: u64) -> Prepared<Box<dyn Ftl>> {
    prepare(workload, scale, seed, |_, ftl| ftl)
}

/// The decorated frontend of the traced pass.
pub fn prepare_timed(
    workload: Workload,
    scale: Scale,
    seed: u64,
    clock: &Arc<Clock>,
) -> Prepared<TimedFtl<Box<dyn Ftl>>> {
    // Request ids are exact wherever generation and submission alternate on
    // one thread; the traced pass only ever runs the workload's own backend
    // with the clock on.
    let exact_ids = !is_threaded(workload);
    prepare(workload, scale, seed, |shard, ftl| {
        TimedFtl::new(ftl, Arc::clone(clock), shard, exact_ids)
    })
}

/// Operations of a chunk that count as failed: generated but not completed,
/// reads of unmapped pages on a warmed device, and collector give-ups.
pub fn failed_ops(chunk: &Chunk) -> u64 {
    chunk.generated.saturating_sub(chunk.result.requests)
        + chunk.result.stats.unmapped_reads
        + chunk.result.stats.gc_stalled_exits
}

/// The end-to-end simulated numbers of a run (or merged reference) plus the
/// digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimNumbers {
    pub iops: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub elapsed_s: f64,
    pub digest: u64,
}

pub fn sim_numbers(result: &mut RunResult) -> SimNumbers {
    SimNumbers {
        iops: result.iops(),
        p50_us: interpolated_percentile_us(&mut result.latencies, 0.5),
        p99_us: interpolated_percentile_us(&mut result.latencies, 0.99),
        p999_us: interpolated_percentile_us(&mut result.latencies, 0.999),
        elapsed_s: result.elapsed.as_secs_f64(),
        digest: sim_digest(result),
    }
}

/// The `q`-quantile in microseconds, interpolated inside its tie group.
///
/// Simulated latencies are multiples of 5 us, so thousands of samples share
/// the nearest-rank percentile's value and a metric built on it moves in
/// 1-7 % steps when one sample crosses a rank. Here the tie group's samples
/// are taken as spread evenly over `(previous distinct value, value]`, which
/// turns the quantile into a smooth function of the sample. (The digest keeps
/// the exact nearest-rank values.) `LatencyHistogram` exposes order
/// statistics only through `percentile`, so the group's bounds are found by
/// bisection on the rank.
fn interpolated_percentile_us(latencies: &mut metrics::LatencyHistogram, q: f64) -> f64 {
    let n = latencies.count();
    if n == 0 {
        return 0.0;
    }
    // `percentile(p)` returns sample `ceil(n p)` (1-based), so the midpoint
    // of a rank's interval selects exactly that rank.
    let mut at = |rank: usize| latencies.percentile((rank as f64 - 0.5) / n as f64);
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    let value = at(rank);
    // First rank holding `value`: in [1, rank].
    let (mut first, mut hi) = (1, rank);
    while first < hi {
        let mid = (first + hi) / 2;
        if at(mid) < value {
            first = mid + 1;
        } else {
            hi = mid;
        }
    }
    // Last rank holding `value`: in [rank, n].
    let (mut lo, mut last) = (rank, n);
    while lo < last {
        let mid = (lo + last).div_ceil(2);
        if at(mid) > value {
            last = mid - 1;
        } else {
            lo = mid;
        }
    }
    let below = if first > 1 { at(first - 1) } else { value };
    let share = (rank - first + 1) as f64 / (last - first + 1) as f64;
    below.as_micros_f64() + (value.as_micros_f64() - below.as_micros_f64()) * share
}

/// Folds one more chunk into the reference: counts, simulated elapsed and
/// statistics add up, latency samples merge. The reference is what the
/// simulated metrics and the digest are computed from.
pub fn merge_into_reference(reference: &mut Option<RunResult>, chunk: &RunResult) {
    let Some(total) = reference else {
        *reference = Some(chunk.clone());
        return;
    };
    total.requests += chunk.requests;
    total.read_pages += chunk.read_pages;
    total.write_pages += chunk.write_pages;
    total.bytes += chunk.bytes;
    total.elapsed += chunk.elapsed;
    total.latencies.merge(&chunk.latencies);
    total.queueing.merge(&chunk.queueing);
    total.stats.merge(&chunk.stats);
    total.device.merge(&chunk.device);
}

/// FNV-1a over every simulated statistic of a run: request count, simulated
/// elapsed, latency mean/max/percentiles, queueing mean, and every scalar
/// `FtlStats` and `DeviceStats` field except the two host-time ones
/// (`sort_wall_time`, `train_wall_time`). A speed-only change leaves it
/// identical; so do tracing and the choice of backend.
pub fn sim_digest(result: &mut RunResult) -> u64 {
    let mut words = vec![
        result.requests,
        result.read_pages,
        result.write_pages,
        result.bytes,
        result.elapsed.as_nanos(),
        result.latencies.count() as u64,
        result.latencies.mean().as_nanos(),
        result.latencies.max().as_nanos(),
        result.latencies.percentile(0.5).as_nanos(),
        result.latencies.p99().as_nanos(),
        result.latencies.p999().as_nanos(),
        result.queueing.mean().as_nanos(),
    ];
    words.extend(stats_words(&result.stats));
    words.extend(device_words(&result.device));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn stats_words(s: &FtlStats) -> [u64; 25] {
    [
        s.host_read_pages,
        s.host_write_pages,
        s.cmt_hits,
        s.cmt_misses,
        s.model_hits,
        s.buffer_hits,
        s.unmapped_reads,
        s.single_reads,
        s.double_reads,
        s.triple_reads,
        s.data_page_writes,
        s.gc_page_writes,
        s.gc_page_reads,
        s.translation_writes,
        s.translation_reads,
        s.gc_count,
        s.blocks_erased,
        s.gc_events.len() as u64,
        s.gc_complete_events.len() as u64,
        s.gc_stalled_exits,
        s.gc_yields,
        s.gc_forced,
        s.gc_flash_time.as_nanos(),
        s.models_trained,
        s.model_predictions,
    ]
}

fn device_words(d: &DeviceStats) -> [u64; 5] {
    [
        d.reads,
        d.programs,
        d.erases,
        d.translation_reads,
        d.translation_programs,
    ]
}

/// Host time the traced pass attributes, per request, plus what it needs to
/// split the time below `Ftl`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    pub requests: u64,
    pub run_ns: f64,
    pub gen_ns: f64,
    pub submit_ns: f64,
    /// `run - gen - submit` where submission happens on the host thread;
    /// `run - gen` on the threaded backend (the host thread waits for
    /// workers inside the loop).
    pub loop_ns: f64,
    /// Busy share of the worker threads (threaded backend only).
    pub worker_busy_frac: f64,
    pub time_travel: u64,
}

/// Reads the decorators after a decorated chunk. `before` holds each part's
/// totals from before the chunk.
pub fn attribute<F: Ftl>(
    prepared: &Prepared<TimedFtl<F>>,
    before: &[Totals],
    chunk: &Chunk,
    threaded: bool,
) -> Option<Attribution> {
    let spans = chunk.spans.as_ref()?;
    let requests = chunk.result.requests.max(1);
    let submit = prepared
        .front
        .parts()
        .iter()
        .zip(before)
        .map(|(part, earlier)| part.totals().since(*earlier))
        .fold(Totals::default(), Totals::add);
    let per_request = |ns: u64| ns as f64 / requests as f64;
    let run_total = spans.run_end_ns - spans.run_start_ns;
    let host_thread_children = if threaded {
        spans.gen.busy_ns
    } else {
        spans.gen.busy_ns + submit.busy_ns
    };
    Some(Attribution {
        requests: chunk.result.requests,
        run_ns: per_request(run_total),
        gen_ns: per_request(spans.gen.busy_ns),
        submit_ns: per_request(submit.busy_ns),
        loop_ns: per_request(run_total.saturating_sub(host_thread_children)),
        worker_busy_frac: if threaded && run_total > 0 {
            submit.busy_ns as f64 / (THREAD_WORKERS as f64 * run_total as f64)
        } else {
            0.0
        },
        time_travel: prepared.front.parts().iter().map(|p| p.time_travel()).sum(),
    })
}

/// Each part's totals, to subtract after the next chunk.
pub fn part_totals<F: Ftl>(prepared: &Prepared<TimedFtl<F>>) -> Vec<Totals> {
    prepared.front.parts().iter().map(|p| p.totals()).collect()
}

/// Name of the root span around each `Runner` call.
pub const ROOT_SPAN: &str = "run";

/// Every sampled span of the pass so far: generator spans of the given
/// chunks plus each part's `ftl-base.submit` spans.
pub fn collect_spans<F: Ftl>(prepared: &Prepared<TimedFtl<F>>, chunks: &[&Chunk]) -> Vec<Span> {
    let mut all = Vec::new();
    for chunk in chunks {
        if let Some(spans) = &chunk.spans {
            all.push(Span {
                name: ROOT_SPAN,
                start_ns: spans.run_start_ns,
                end_ns: spans.run_end_ns,
                run: spans.run_id,
                request: timed::NO_REQUEST,
                track: 0,
            });
            all.extend_from_slice(&spans.gen_spans);
        }
    }
    for part in prepared.front.parts() {
        all.extend_from_slice(part.spans());
    }
    all.sort_by_key(|s| (s.start_ns, s.end_ns));
    all
}

/// Per-layer numbers read from public counters: `result` is the merged
/// reference, `host_secs` its measured wall time, and `first` its first
/// chunk (the shard-engine counters restart with every run).
pub fn counter_metrics(
    result: &RunResult,
    host_secs: f64,
    first: &Chunk,
) -> Vec<(&'static str, f64)> {
    let stats = &result.stats;
    let device = &result.device;
    let requests = result.requests.max(1) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let host_secs = host_secs.max(f64::MIN_POSITIVE);
    let train_s = stats.train_wall_time.as_secs_f64();
    let sort_s = stats.sort_wall_time.as_secs_f64();
    let per_model_ns = |secs: f64| {
        if stats.models_trained == 0 {
            0.0
        } else {
            secs * 1e9 / stats.models_trained as f64
        }
    };
    vec![
        (
            "harness.queue_wait_us_mean",
            result.mean_queueing().as_micros_f64(),
        ),
        ("ftl-shard.lane_imbalance", first.lane_imbalance),
        ("ssd-sched.gc_yields", stats.gc_yields as f64),
        ("ssd-sched.gc_forced", stats.gc_forced as f64),
        ("ssd-sched.engine_wait_us_mean", first.engine_wait_us_mean),
        ("ftl-base.cmt_hit_ratio", stats.cmt_hit_ratio()),
        ("ftl-base.double_read_frac", stats.double_read_ratio()),
        (
            "ftl-base.translation_reads_per_read",
            ratio(stats.translation_reads, stats.host_read_pages),
        ),
        ("ftl-base.waf", stats.write_amplification()),
        ("ftl-base.gc_count", stats.gc_count as f64),
        (
            "ftl-base.gc_pages_per_gc",
            ratio(stats.gc_page_writes, stats.gc_count),
        ),
        (
            "ftl-base.gc_flash_time_frac",
            ratio(stats.gc_flash_time.as_nanos(), result.elapsed.as_nanos()),
        ),
        ("ftl-base.gc_stalled_exits", stats.gc_stalled_exits as f64),
        ("core.model_hit_ratio", stats.model_hit_ratio()),
        ("core.models_trained", stats.models_trained as f64),
        ("core.train_ns_per_model", per_model_ns(train_s)),
        ("core.sort_ns_per_model", per_model_ns(sort_s)),
        ("core.train_wall_frac", (train_s + sort_s) / host_secs),
        (
            "ssd-sim.flash_reads_per_req",
            device.reads as f64 / requests,
        ),
        (
            "ssd-sim.flash_programs_per_req",
            device.programs as f64 / requests,
        ),
        ("ssd-sim.erases", device.erases as f64),
    ]
}

/// What the kernel estimates below `Ftl` need from a chunk's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BelowFtl {
    pub flash_reads: f64,
    pub flash_programs: f64,
    pub erases: f64,
    /// Commands through `IoScheduler`: every flash operation under
    /// scheduled GC, none under blocking GC.
    pub sched_commands: f64,
    /// CMT operations priced by the matching kernel: every host page on the
    /// entry-granular CMT (DFTL); on the page-node CMT (TPFTL, LearnedFTL)
    /// the misses that load and prefetch from a translation page, plus
    /// written pages.
    pub cmt_ops: f64,
    pub node_cmt: bool,
    pub predictions: f64,
    pub train_sort_ns: f64,
}

pub fn below_ftl<F: Ftl>(prepared: &Prepared<F>, result: &RunResult) -> BelowFtl {
    let stats = &result.stats;
    let device = &result.device;
    let scheduled = prepared.front.ftl_ref().gc_mode() == GcMode::Scheduled;
    let node_cmt = !matches!(
        prepared.workload,
        Workload::HotreadDftl | Workload::TenantsOpen
    );
    BelowFtl {
        flash_reads: device.reads as f64,
        flash_programs: device.programs as f64,
        erases: device.erases as f64,
        sched_commands: if scheduled {
            device.total_ops() as f64
        } else {
            0.0
        },
        cmt_ops: if node_cmt {
            (stats.double_reads + stats.triple_reads + stats.host_write_pages) as f64
        } else {
            (stats.host_read_pages + stats.host_write_pages) as f64
        },
        node_cmt,
        predictions: stats.model_predictions as f64,
        train_sort_ns: (stats.train_wall_time + stats.sort_wall_time).as_secs_f64() * 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Digest of the merged reference chunks and the operations that failed.
    fn reference_digest(workload: Workload, seed: u64) -> (u64, u64) {
        let mut prepared = prepare_plain(workload, Scale::Quick, seed);
        let mut reference = None;
        let mut failed = 0;
        for _ in 0..chunk_plan(workload, Scale::Quick).1 {
            let chunk = run_chunk(&mut prepared, ChunkOptions::default(), None);
            failed += failed_ops(&chunk);
            merge_into_reference(&mut reference, &chunk.result);
        }
        let mut reference = reference.expect("the plan has at least one chunk");
        (sim_digest(&mut reference), failed)
    }

    #[test]
    fn digest_repeats_for_a_seed_and_moves_with_it() {
        let a = reference_digest(Workload::RandreadLearned, 5);
        let b = reference_digest(Workload::RandreadLearned, 5);
        let c = reference_digest(Workload::RandreadLearned, 6);
        assert_eq!(a, b, "same seed, same simulated statistics");
        assert_ne!(a.0, c.0, "another seed gives other inputs");
        assert_eq!(a.1, 0, "no operation fails on a warmed device");
    }

    #[test]
    fn digest_changes_when_one_statistic_changes() {
        let mut prepared = prepare_plain(Workload::HotreadDftl, Scale::Quick, 3);
        let mut chunk = run_chunk(&mut prepared, ChunkOptions::default(), None);
        let before = sim_digest(&mut chunk.result);
        assert_eq!(
            before,
            sim_digest(&mut chunk.result),
            "digest is a pure function"
        );
        chunk.result.stats.cmt_hits += 1;
        assert_ne!(before, sim_digest(&mut chunk.result));
        chunk.result.stats.cmt_hits -= 1;
        chunk.result.device.erases += 1;
        assert_ne!(before, sim_digest(&mut chunk.result));
        chunk.result.device.erases -= 1;
        // Host time is not a simulated statistic.
        chunk.result.stats.train_wall_time += std::time::Duration::from_millis(5);
        assert_eq!(before, sim_digest(&mut chunk.result));
    }

    #[test]
    fn decorators_are_transparent() {
        for workload in [
            Workload::RandreadLearned,
            Workload::RandwriteLearned,
            Workload::VarmailShard4Sim,
            Workload::VarmailShard4Thr,
            Workload::TenantsOpen,
        ] {
            let plain = reference_digest(workload, 11).0;
            let threaded = is_threaded(workload);
            let clock = Clock::new();
            let mut prepared = prepare_timed(workload, Scale::Quick, 11, &clock);
            clock.set_on(true);
            let mut reference = None;
            let mut chunks = Vec::new();
            for _ in 0..chunk_plan(workload, Scale::Quick).1 {
                let before = part_totals(&prepared);
                let chunk = run_chunk(&mut prepared, ChunkOptions::default(), Some(&clock));
                merge_into_reference(&mut reference, &chunk.result);

                let attribution = attribute(&prepared, &before, &chunk, threaded)
                    .expect("decorated chunk has spans");
                assert_eq!(attribution.time_travel, 0);
                assert!(attribution.submit_ns > 0.0 && attribution.gen_ns > 0.0);
                if !threaded {
                    let sum = attribution.gen_ns + attribution.loop_ns + attribution.submit_ns;
                    assert!(
                        (sum - attribution.run_ns).abs() <= 0.02 * attribution.run_ns,
                        "{}: gen + loop + submit = {sum} but run = {}",
                        workload.name(),
                        attribution.run_ns
                    );
                }
                chunks.push(chunk);
            }
            clock.set_on(false);
            assert_eq!(
                sim_digest(reference.as_mut().expect("the plan has at least one chunk")),
                plain,
                "{}: decorated run must not change simulated results",
                workload.name()
            );

            let spans = collect_spans(&prepared, &chunks.iter().collect::<Vec<_>>());
            assert!(spans.iter().any(|s| s.name == ROOT_SPAN && s.run == 1));
            assert!(spans.iter().any(|s| s.name == ROOT_SPAN && s.run == 2));
            assert!(
                spans.iter().any(|s| s.name == "workloads.gen")
                    || workload == Workload::TenantsOpen
            );
            assert!(spans.iter().any(|s| s.name == "ftl-base.submit"));
        }
    }

    #[test]
    fn both_varmail_backends_and_the_traced_twin_agree() {
        let sim = reference_digest(Workload::VarmailShard4Sim, 9);
        let thr = reference_digest(Workload::VarmailShard4Thr, 9);
        assert_eq!(
            sim, thr,
            "threaded backend must reproduce the simulated one"
        );
        let plain = reference_digest(Workload::RandreadLearned, 9);
        let traced = reference_digest(Workload::RandreadLearnedTraced, 9);
        assert_eq!(plain, traced, "tracing observes, it must not perturb");
    }

    #[test]
    fn tenants_run_without_a_growing_backlog() {
        let mut prepared = prepare_plain(Workload::TenantsOpen, Scale::Quick, 2);
        let chunk = run_chunk(&mut prepared, ChunkOptions::default(), None);
        let facts = chunk.tenants.expect("tenant facts are recorded");
        let elapsed = chunk.result.elapsed.as_secs_f64();
        assert!(facts.last_arrival_s > 0.0);
        assert!(
            elapsed <= 1.05 * facts.last_arrival_s,
            "elapsed {elapsed} s vs last arrival {} s",
            facts.last_arrival_s
        );
    }

    #[test]
    fn interpolated_percentile_spreads_a_tie_group() {
        let mut h = metrics::LatencyHistogram::new();
        // 10 samples at 5 us, 80 at 10 us, 10 at 15 us.
        for (count, us) in [(10, 5), (80, 10), (10, 15)] {
            for _ in 0..count {
                h.record(Duration::from_micros(us));
            }
        }
        // Rank 50 is the 40th of the 80 samples spread over (5, 10].
        assert_eq!(interpolated_percentile_us(&mut h, 0.5), 7.5);
        // Rank 90 closes the 10 us group; rank 91 opens the 15 us one.
        assert_eq!(interpolated_percentile_us(&mut h, 0.9), 10.0);
        assert_eq!(interpolated_percentile_us(&mut h, 0.91), 10.5);
        assert_eq!(interpolated_percentile_us(&mut h, 1.0), 15.0);
        // The lowest group has no value below it to spread from.
        assert_eq!(interpolated_percentile_us(&mut h, 0.05), 5.0);
        // It never leaves the nearest-rank value's step.
        assert_eq!(h.percentile(0.5), Duration::from_micros(10));
        let mut empty = metrics::LatencyHistogram::new();
        assert_eq!(interpolated_percentile_us(&mut empty, 0.99), 0.0);
    }

    #[test]
    fn seeds_derive_apart() {
        let seeds: Vec<u64> = (0..64).map(|s| derive_seed(1, s)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
