//! Isolation kernels: each layer's public functions driven alone, with a
//! null neighbour, to price one operation in host nanoseconds.
//!
//! These are the fixed kernel classes of the ledger. They do not depend on
//! the workload or the seed (inputs come from a fixed LCG), take about a
//! second together, and every one reports the median of [`REPS`]
//! repetitions. A kernel touches hot caches and predictable branches, so it
//! prices an operation at its cheapest; the traced pass's residue
//! (`ledger.unexplained_frac`) is what the in-situ cost adds on top.

use std::hint::black_box;

use ftl_base::{EntryCmt, Ftl, FtlStats, Lpn, PageNodeCmt};
use ftl_shard::ShardedFtl;
use harness::wallclock::WallTimer;
use harness::Runner;
use learned_index::{BitmapFilter, GreedyPlr, Point};
use learnedftl::InPlaceModel;
use metrics::LatencyHistogram;
use ssd_sched::{
    CmdKind, IoScheduler, Priority, SchedConfig, TenantArbiter, TenantClass, TenantPolicy,
};
use ssd_sim::{Duration, FlashDevice, FlashOp, OobData, SimTime, SsdConfig};
use workloads::{FioPattern, FioWorkload};

use super::{device, Scale, DEPTH, SHARDS, THREAD_WORKERS};
use crate::stats::median;

const REPS: usize = 5;

/// Deterministic input stream for the kernels (Knuth's MMIX LCG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Nanoseconds `body` took.
fn time_ns(body: impl FnOnce()) -> f64 {
    let timer = WallTimer::start();
    body();
    timer.elapsed().as_secs_f64() * 1e9
}

/// Median over [`REPS`] of `body`'s nanoseconds per operation; `body`
/// returns how many operations it did.
fn per_op(mut body: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut ops = 0;
            let ns = time_ns(|| ops = body());
            ns / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn ops(scale: Scale, full: u64) -> u64 {
    match scale {
        Scale::Full => full,
        Scale::Quick => (full / 50).max(64),
    }
}

/// Everything the kernels measure, by per-layer metric name.
pub fn run_all(scale: Scale) -> Vec<(&'static str, f64)> {
    let device_ns = flash_device(scale);
    let (loop_ns, sharded_ns, threaded_ns) = null_ftl_runs(scale);
    let (record_ns, finalize_ns) = histogram(scale);
    vec![
        ("ledger.timer_ns", timer(scale)),
        ("ssd-sim.read_ns", device_ns.read),
        ("ssd-sim.program_ns", device_ns.program),
        ("ssd-sim.erase_ns", device_ns.erase),
        ("ssd-sched.cmd_ns", scheduler_command(scale)),
        ("ssd-sched.arbiter_decide_ns", arbiter_decide(scale)),
        ("ftl-base.entry_cmt_op_ns", entry_cmt(scale)),
        ("ftl-base.node_cmt_op_ns", node_cmt(scale)),
        ("core.predict_ns", model_predict(scale)),
        ("learned-index.plr_fit_ns_per_point", plr_fit(scale)),
        ("learned-index.bitmap_get_ns", bitmap_get(scale)),
        ("metrics.hist_record_ns", record_ns),
        ("metrics.hist_finalize_ns_per_sample", finalize_ns),
        (
            "ftl-shard.dispatch_ns_per_req",
            (sharded_ns - loop_ns).max(0.0),
        ),
        (
            "ftl-shard.thr_roundtrip_ns_per_req",
            (threaded_ns - loop_ns).max(0.0),
        ),
    ]
}

fn timer(scale: Scale) -> f64 {
    let n = ops(scale, 200_000);
    per_op(|| {
        let t = WallTimer::start();
        for _ in 0..n {
            black_box(t.elapsed());
        }
        n
    })
}

struct DeviceNs {
    read: f64,
    program: f64,
    erase: f64,
}

/// Programs every page of the device in chip-striped order.
fn program_all(dev: &mut FlashDevice) {
    let g = *dev.geometry();
    let mut t = SimTime::ZERO;
    for page in 0..u64::from(g.pages_per_block) {
        for block in 0..g.total_blocks() {
            let ppn = dev.first_ppn_of_flat_block(block) + page;
            t = dev
                .program_page(ppn, OobData::mapped(ppn), t)
                .expect("in-order program of a free page");
        }
    }
}

/// `FlashDevice` alone on a canned stream: program every page, read pages at
/// random, then erase every block (after an untimed invalidate).
fn flash_device(scale: Scale) -> DeviceNs {
    let cfg = device(scale);
    let pages = cfg.geometry.total_pages();
    let blocks = cfg.geometry.total_blocks();
    let (mut program, mut read, mut erase) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..REPS {
        let mut dev = FlashDevice::new(cfg);
        program.push(
            time_ns(|| {
                program_all(&mut dev);
            }) / pages as f64,
        );

        let mut lcg = Lcg(rep as u64 + 1);
        let mut t = dev.drain_time();
        read.push(
            time_ns(|| {
                for _ in 0..pages {
                    t = dev
                        .read_page(lcg.below(pages), t)
                        .expect("reading a programmed page");
                }
            }) / pages as f64,
        );

        for ppn in 0..pages {
            dev.invalidate_page(ppn).expect("ppn in range");
        }
        erase.push(
            time_ns(|| {
                for block in 0..blocks {
                    t = dev
                        .erase_block(block, t)
                        .expect("erasing a fully invalid block");
                }
            }) / blocks as f64,
        );
        black_box(t);
    }
    DeviceNs {
        read: median(&read),
        program: median(&program),
        erase: median(&erase),
    }
}

/// `IoScheduler` on the canned stream scheduled GC produces: per round, a
/// staged collection's worth of `Priority::Gc` charges submitted at once,
/// then two `Priority::Host` charges each awaited with
/// `run_until_complete` (the GC backlog drains and yields along the way),
/// then the completions are reaped. Nanoseconds per command, including
/// `FlashDevice::charge_op` (the timing half of a device operation; charges
/// touch no page state).
fn scheduler_command(scale: Scale) -> f64 {
    const GC_PER_ROUND: u64 = 30;
    const HOST_PER_ROUND: u64 = 2;
    let cfg = device(scale);
    let g = cfg.geometry;
    let chips = g.total_chips();
    let mut dev = FlashDevice::new(cfg);
    let rounds = ops(scale, 1_000);
    per_op(|| {
        let unbounded = SchedConfig::with_queue_depth(usize::MAX);
        let mut sched = IoScheduler::new(g, unbounded);
        let mut lcg = Lcg(7);
        let mut t = dev.drain_time();
        let mut charge = |i: u64| {
            let chip = lcg.below(chips);
            CmdKind::Charge {
                op: if i.is_multiple_of(2) {
                    FlashOp::Read
                } else {
                    FlashOp::Program
                },
                chip,
                channel: (chip / u64::from(g.chips_per_channel)) as u32,
                planes: 1,
            }
        };
        for _ in 0..rounds {
            for i in 0..GC_PER_ROUND {
                sched
                    .submit(charge(i), Priority::Gc, t)
                    .expect("the queue is unbounded");
            }
            for i in 0..HOST_PER_ROUND {
                let id = sched
                    .submit(charge(i), Priority::Host, t)
                    .expect("the queue is unbounded");
                t = sched.run_until_complete(&mut dev, id).completed;
            }
            black_box(sched.pop_completions());
        }
        black_box(sched.drain(&mut dev));
        rounds * (GC_PER_ROUND + HOST_PER_ROUND)
    })
}

/// `TenantArbiter::decide` with the tenant mix's four classes all present
/// and contending, as on a backlogged shard.
fn arbiter_decide(scale: Scale) -> f64 {
    let mut classes = vec![TenantClass::weighted(1)];
    classes.extend((0..3).map(|_| TenantClass::weighted(8)));
    let tenants = classes.len();
    classes.push(TenantClass::background(u32::MAX));
    let mut arbiter = TenantArbiter::new(&TenantPolicy::new(classes));
    let mut yielded = Vec::new();
    let n = ops(scale, 400_000);
    per_op(|| {
        for _ in 0..n {
            black_box(arbiter.decide(|c| c < tenants, |_, _| true, &mut yielded));
        }
        n
    })
}

/// The baselines' CMT capacity on the common device (3 % of the mappings).
fn cmt_capacity(scale: Scale) -> u64 {
    (device(scale).logical_pages() as f64 * 0.03) as u64
}

/// DFTL's entry-granular CMT: lookups over twice its capacity, inserting on
/// a miss: half hits, half insert-and-evict.
fn entry_cmt(scale: Scale) -> f64 {
    let capacity = cmt_capacity(scale).max(16);
    let mut cmt = EntryCmt::new(capacity as usize);
    let mut lcg = Lcg(11);
    let n = ops(scale, 100_000);
    per_op(|| {
        for _ in 0..n {
            let lpn: Lpn = lcg.below(2 * capacity);
            if cmt.lookup(lpn).is_none() {
                black_box(cmt.insert_clean(lpn, lpn + 1));
            }
        }
        n
    })
}

/// The page-node CMT of TPFTL and LearnedFTL on its miss path: a lookup
/// over four times its capacity (so nearly every one misses) followed by the
/// 64-entry prefetch batch (the default prefetch length) into the node,
/// evicting older nodes.
fn node_cmt(scale: Scale) -> f64 {
    const ENTRIES_PER_NODE: u64 = 512;
    let capacity = cmt_capacity(scale).max(128);
    let mut cmt = PageNodeCmt::new(capacity as usize);
    let nodes = (4 * capacity / ENTRIES_PER_NODE).max(2);
    let mut lcg = Lcg(13);
    let n = ops(scale, 5_000);
    per_op(|| {
        for _ in 0..n {
            let tpn = lcg.below(nodes) as usize;
            let offset = lcg.below(ENTRIES_PER_NODE) as u32;
            if cmt.lookup(tpn, offset).is_none() {
                let last = (offset + 64).min(ENTRIES_PER_NODE as u32);
                let batch: Vec<(u32, u64, bool)> =
                    (offset..last).map(|o| (o, u64::from(o), false)).collect();
                black_box(cmt.insert_batch(tpn, &batch));
            }
        }
        n
    })
}

/// 512 LPNs mapped onto four VPPN runs, as group GC leaves one GTD entry.
fn entry_points(start: u64) -> Vec<Point> {
    (0..512u64)
        .map(|i| Point::new(start + i, 2_000_000 + start + i + (i / 128) * 40_000))
        .collect()
}

/// `InPlaceModel::predict` over one trained model per GTD entry of the
/// device, probed at random like a uniform read stream.
fn model_predict(scale: Scale) -> f64 {
    let entries = (device(scale).logical_pages() / 512).max(1);
    let models: Vec<InPlaceModel> = (0..entries)
        .map(|e| {
            let mut model = InPlaceModel::new(e * 512, 512, 8);
            model.train(&entry_points(e * 512));
            model
        })
        .collect();
    let mut lcg = Lcg(17);
    let n = ops(scale, 200_000);
    per_op(|| {
        for _ in 0..n {
            let lpn = lcg.below(entries * 512);
            black_box(models[(lpn / 512) as usize].predict(lpn));
        }
        n
    })
}

/// `GreedyPlr::fit` with LearnedFTL's exact-piece error bound on one GTD
/// entry's 512 points, per point.
fn plr_fit(scale: Scale) -> f64 {
    let points = entry_points(0);
    let fits = ops(scale, 1_000);
    per_op(|| {
        for _ in 0..fits {
            black_box(GreedyPlr::new(0.5).fit(black_box(&points)));
        }
        fits * points.len() as u64
    })
}

fn bitmap_get(scale: Scale) -> f64 {
    let len = device(scale).logical_pages();
    let mut bitmap = BitmapFilter::new(len as usize);
    for i in (0..len as usize).step_by(3) {
        bitmap.set(i);
    }
    let mut lcg = Lcg(19);
    let n = ops(scale, 1_000_000);
    per_op(|| {
        for _ in 0..n {
            black_box(bitmap.get(lcg.below(len) as usize));
        }
        n
    })
}

/// `LatencyHistogram`: record out-of-order samples, then the one sort a
/// percentile query pays. Returns (ns per record, sort ns per sample).
fn histogram(scale: Scale) -> (f64, f64) {
    let n = ops(scale, 400_000);
    let (mut record, mut finalize) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        let mut lcg = Lcg(rep as u64 + 23);
        let mut hist = LatencyHistogram::new();
        record.push(
            time_ns(|| {
                for _ in 0..n {
                    hist.record(Duration::from_nanos(lcg.below(1_000_000)));
                }
            }) / n as f64,
        );
        finalize.push(
            time_ns(|| {
                black_box(hist.p99());
            }) / n as f64,
        );
    }
    (median(&record), median(&finalize))
}

/// An FTL that does nothing: every request completes a fixed 50 us after it
/// was issued. The null neighbour below the harness loop and the shard
/// dispatcher.
struct NullFtl {
    device: FlashDevice,
    stats: FtlStats,
    logical_pages: u64,
}

impl NullFtl {
    const SERVICE: Duration = Duration::from_micros(50);

    fn new(cfg: SsdConfig) -> Self {
        NullFtl {
            device: FlashDevice::new(cfg),
            stats: FtlStats::new(),
            logical_pages: cfg.logical_pages(),
        }
    }
}

impl Ftl for NullFtl {
    fn name(&self) -> &'static str {
        "null"
    }

    fn read(&mut self, _lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.stats.host_read_pages += u64::from(pages);
        now + Self::SERVICE
    }

    fn write(&mut self, _lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.stats.host_write_pages += u64::from(pages);
        now + Self::SERVICE
    }

    fn stats(&self) -> &FtlStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FtlStats::new();
    }

    fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    fn device(&self) -> &FlashDevice {
        &self.device
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.device
    }
}

/// Nanoseconds per request of the same 4 KiB random-read stream through
/// `run_qd` over one null FTL (generator + host loop), `run_sharded_qd`
/// over null shards (adds shard dispatch) and `run_threaded_qd` over the
/// same shards (adds the ring/channel round trip instead).
fn null_ftl_runs(scale: Scale) -> (f64, f64, f64) {
    let cfg = device(scale);
    let runner = Runner::new();
    let stream = |requests: u64| {
        FioWorkload::new(
            FioPattern::RandRead,
            cfg.logical_pages(),
            16,
            1,
            (requests / 16).max(1),
            29,
        )
    };

    let n = ops(scale, 100_000);
    let mut plain = NullFtl::new(cfg);
    let loop_ns = per_op(|| runner.run_qd(&mut plain, &mut stream(n), DEPTH).requests);

    let mut sharded = ShardedFtl::build_with(cfg, SHARDS, |_, shard_cfg| NullFtl::new(shard_cfg));
    let sharded_ns = per_op(|| {
        runner
            .run_sharded_qd(&mut sharded, &mut stream(n), DEPTH)
            .result
            .requests
    });

    let n = ops(scale, 10_000);
    let threaded_ns = per_op(|| {
        runner
            .run_threaded_qd(&mut sharded, &mut stream(n), DEPTH, THREAD_WORKERS)
            .result
            .requests
    });
    (loop_ns, sharded_ns, threaded_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_reports_a_positive_finite_cost() {
        let results = run_all(Scale::Quick);
        let names: Vec<&str> = results.iter().map(|(name, _)| *name).collect();
        for (name, value) in &results {
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        }
        // The raw kernels (not differences) must be strictly positive.
        for name in ["ssd-sim.read_ns", "core.predict_ns", "ledger.timer_ns"] {
            let value = results.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            assert!(value.is_some_and(|v| v > 0.0), "{name} missing or zero");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn null_ftl_completes_after_its_service_time() {
        let mut ftl = NullFtl::new(device(Scale::Quick));
        let done = ftl.read(0, 4, SimTime::from_micros(10));
        assert_eq!(done, SimTime::from_micros(60));
        assert_eq!(ftl.stats().host_read_pages, 4);
    }
}
