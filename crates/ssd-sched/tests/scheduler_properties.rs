//! Property tests for the scheduler invariants the rest of the workspace
//! relies on:
//!
//! 1. per chip, completions are monotone in `SimTime`,
//! 2. every submitted command completes exactly once,
//! 3. at queue depth 1 staging each access and charging its time through
//!    the scheduler reproduces the blocking path (issue each access at the
//!    previous one's completion) bit for bit.

use proptest::prelude::*;
use ssd_sched::{CmdKind, Completion, IoScheduler, Priority, SchedConfig};
use ssd_sim::{FlashDevice, OobData, SimTime, SsdConfig};
use std::collections::BTreeSet;

/// One generated command: a read of a populated page or a program of a fresh
/// page, host or GC class, submitted `delay_us` after the previous command.
#[derive(Debug, Clone, Copy)]
struct Op {
    read_frac: f64,
    is_read: bool,
    is_gc: bool,
    delay_us: u64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0.0f64..1.0, any::<bool>(), any::<bool>(), 0u64..80).prop_map(
        |(read_frac, is_read, is_gc, delay_us)| Op {
            read_frac,
            is_read,
            is_gc,
            delay_us,
        },
    )
}

const POPULATED: u64 = 64;

/// Programs the first `POPULATED` ppns so reads have valid targets, and
/// returns the drain time.
fn populated_device() -> (FlashDevice, SimTime) {
    let mut dev = FlashDevice::new(SsdConfig::tiny());
    let mut t = SimTime::ZERO;
    for ppn in 0..POPULATED {
        t = dev
            .program_page(ppn, OobData::mapped(ppn), t)
            .expect("fresh tiny device has room for the populated pages");
    }
    (dev, t)
}

/// A generated page access.
#[derive(Debug, Clone, Copy)]
enum Access {
    Read(u64),
    Program(u64),
}

impl Access {
    /// Performs the access on `dev` at `issue` and returns its completion
    /// time (`issue` itself inside a staging window).
    fn apply(self, dev: &mut FlashDevice, issue: SimTime) -> SimTime {
        match self {
            Access::Read(ppn) => dev.read_page(ppn, issue),
            Access::Program(ppn) => dev.program_page(ppn, OobData::mapped(ppn), issue),
        }
        .expect("generated accesses are valid")
    }

    /// Applies the access's state to `dev` in a staging window and returns
    /// the command that charges its flash time.
    fn stage(self, dev: &mut FlashDevice) -> CmdKind {
        dev.begin_staging();
        self.apply(dev, SimTime::ZERO);
        let ops = dev.end_staging();
        assert_eq!(ops.len(), 1, "one access stages one operation");
        CmdKind::charge(ops[0])
    }
}

/// Materialises the generated ops into (access, priority, submit-time)
/// triples. Programs walk fresh pages from the first page of chip 1 so they
/// stay in-order.
fn materialise(ops: &[Op], dev: &FlashDevice, t0: SimTime) -> Vec<(Access, Priority, SimTime)> {
    let g = *dev.geometry();
    let mut next_fresh = g.pages_per_chip(); // first page of chip 1: untouched
    let mut at = t0;
    let mut cmds = Vec::new();
    for op in ops {
        at += ssd_sim::Duration::from_micros(op.delay_us);
        let (access, priority) = if op.is_read || next_fresh >= g.total_pages() {
            let ppn = ((POPULATED - 1) as f64 * op.read_frac) as u64;
            // Reads may be host or GC traffic.
            let priority = if op.is_gc {
                Priority::Gc
            } else {
                Priority::Host
            };
            (Access::Read(ppn), priority)
        } else {
            let ppn = next_fresh;
            next_fresh += 1;
            (Access::Program(ppn), Priority::Host)
        };
        cmds.push((access, priority, at));
    }
    cmds
}

proptest! {
    /// Invariants 1 and 2: exactly-once completion, per-chip monotonicity,
    /// and sane per-command timestamps, under arbitrary command mixes.
    #[test]
    fn prop_exactly_once_and_chip_monotone(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let (mut dev, t0) = populated_device();
        let mut sched = IoScheduler::new(*dev.geometry(), SchedConfig::default());
        let cmds = materialise(&ops, &dev, t0);
        let mut submitted_ids = BTreeSet::new();
        let mut completions: Vec<Completion> = Vec::new();
        for (access, priority, at) in cmds {
            let kind = access.stage(&mut dev);
            loop {
                match sched.submit(kind, priority, at) {
                    Ok(id) => {
                        prop_assert!(submitted_ids.insert(id), "command ids must be unique");
                        break;
                    }
                    Err(_) => {
                        // Queue full: drain in-flight work, then retry.
                        sched.drain(&mut dev);
                        completions.extend(sched.pop_completions());
                    }
                }
            }
        }
        sched.drain(&mut dev);
        completions.extend(sched.pop_completions());

        // Every submitted command completed exactly once.
        prop_assert_eq!(completions.len(), submitted_ids.len());
        let completed_ids: BTreeSet<_> = completions.iter().map(|c| c.id).collect();
        prop_assert_eq!(completed_ids.len(), completions.len(), "no duplicate completions");
        prop_assert_eq!(completed_ids, submitted_ids);

        for c in &completions {
            prop_assert!(c.issued >= c.submitted, "issue must not precede submission");
            prop_assert!(c.completed >= c.issued, "completion must not precede issue");
        }

        // Per chip, completions are monotone in SimTime.
        let chips: BTreeSet<u64> = completions.iter().map(|c| c.chip).collect();
        for chip in chips {
            let times: Vec<SimTime> = completions
                .iter()
                .filter(|c| c.chip == chip)
                .map(|c| c.completed)
                .collect();
            prop_assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "chip {} completions must be monotone: {:?}", chip, times
            );
        }
    }

    /// Invariant 3: at queue depth 1 the scheduler is indistinguishable from
    /// the blocking path (each command issued at the previous command's
    /// completion time). The scheduled device stages each access and the
    /// scheduler charges its time; the blocking device performs it outright.
    #[test]
    fn prop_qd1_matches_blocking_path_bit_for_bit(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let (mut sched_dev, t0) = populated_device();
        let (mut block_dev, _) = populated_device();
        let cmds = materialise(&ops, &sched_dev, t0);

        // Scheduled path at QD 1: one command in flight at a time.
        let mut sched = IoScheduler::new(*sched_dev.geometry(), SchedConfig::with_queue_depth(1));
        let mut scheduled = Vec::new();
        for &(access, priority, at) in &cmds {
            let kind = access.stage(&mut sched_dev);
            sched.submit(kind, priority, at).expect("QD1: queue drained before each submit");
            sched.drain(&mut sched_dev);
            scheduled.extend(sched.pop_completions());
        }

        // Blocking path: issue at max(previous completion, submit time).
        let mut done = t0;
        let mut blocking = Vec::new();
        for &(access, _, at) in &cmds {
            done = access.apply(&mut block_dev, done.max(at));
            blocking.push(done);
        }

        prop_assert_eq!(scheduled.len(), blocking.len());
        for (c, &expected) in scheduled.iter().zip(blocking.iter()) {
            prop_assert_eq!(
                c.completed, expected,
                "QD1 completion diverged from the blocking path for {:?}", c.kind
            );
        }
        // The device end-states agree exactly.
        prop_assert_eq!(sched_dev.stats(), block_dev.stats());
        prop_assert_eq!(sched_dev.drain_time(), block_dev.drain_time());
    }
}

// ---------------------------------------------------------------------------
// Golden equivalence: the full completion sequence and every counter of
// seeded command mixes, pinned as constants recorded on the commit *before*
// the slab-backed event loop (PR 16). A rewrite of the scheduler's data path
// must reproduce every dispatch decision, so these hashes may only change
// together with a deliberate change of arbitration or timing semantics.
// ---------------------------------------------------------------------------

mod golden {
    use ssd_sched::{
        CmdKind, Completion, IoScheduler, Priority, SchedConfig, SchedError, TenantClass, TenantId,
        TenantPolicy,
    };
    use ssd_sim::{Duration, FlashDevice, FlashOp, Geometry, OobData, SimTime, SsdConfig};

    /// SplitMix64: the test's only source of randomness.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn u64(&mut self, v: u64) {
            for b in v.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// How a mix drives the event loop.
    #[derive(Clone, Copy)]
    enum Drive {
        /// Submit everything, then `drain`.
        Drain,
        /// The scheduled-GC engine's shape: per round a batch of GC commands,
        /// then host commands each awaited with `run_until_complete`, then
        /// `pop_completions`.
        Await,
        /// `run_until` in fixed windows, reaping between windows.
        Windows,
    }

    /// One seeded command mix. Percentages are drawn per command, in the
    /// order random charge → erase → program → (else) read; the last three
    /// are charges of single-plane operations on the targets the draws pick.
    #[derive(Clone, Copy)]
    struct Mix {
        seed: u64,
        planes: u32,
        tenants: bool,
        queue_depth: usize,
        commands: usize,
        charge_pct: u64,
        multi_plane_pct: u64,
        erase_pct: u64,
        program_pct: u64,
        gc_pct: u64,
        /// Upper bound of the per-command submit-time advance, microseconds
        /// (0: every command is submitted at the same instant).
        max_gap_us: u64,
        drive: Drive,
    }

    const PAGES_POPULATED: u64 = 8;

    /// Per-(chip, plane) layout of the blocks the mixes target: block 0 holds
    /// `PAGES_POPULATED` pages, programmed before the mix so it starts on a
    /// busy device, and the generated reads draw one of them; programs walk
    /// block 1, at most a block's worth per plane; erases draw a block from
    /// 2 on. Every command is a charge, so the draws pick only the plane.
    fn ppn_of(g: &Geometry, chip: u64, plane: u64, block: u64, page: u64) -> u64 {
        ((chip * u64::from(g.planes_per_chip) + plane) * u64::from(g.blocks_per_plane) + block)
            * u64::from(g.pages_per_block)
            + page
    }

    fn four_class_policy() -> TenantPolicy {
        TenantPolicy::new(vec![
            TenantClass::weighted(3),
            TenantClass::weighted(1),
            TenantClass::background(2),
            TenantClass::background(4),
        ])
    }

    struct Gen {
        rng: Rng,
        g: Geometry,
        mix: Mix,
        /// Next fresh page of block 1, per (chip, plane).
        program_cursor: Vec<u64>,
    }

    impl Gen {
        fn command(&mut self) -> (CmdKind, Priority, TenantId) {
            let g = self.g;
            let chips = g.total_chips();
            let planes = u64::from(g.planes_per_chip);
            let chip = self.rng.below(chips);
            let plane = self.rng.below(planes);
            let mut priority = if self.rng.chance(self.mix.gc_pct) {
                Priority::Gc
            } else {
                Priority::Host
            };
            let mut tenant = TenantId(if self.mix.tenants {
                self.rng.below(4) as u32
            } else {
                0
            });
            let single = |op| CmdKind::Charge {
                op,
                chip,
                channel: (chip / u64::from(g.chips_per_channel)) as u32,
                planes: 1 << plane,
            };
            let kind = if self.rng.chance(self.mix.charge_pct) {
                let op = match self.rng.below(8) {
                    0 => FlashOp::Erase,
                    1..=3 => FlashOp::Program,
                    _ => FlashOp::Read,
                };
                let mask = if planes > 1 && self.rng.chance(self.mix.multi_plane_pct) {
                    (1u32 << planes) - 1
                } else {
                    1 << plane
                };
                CmdKind::Charge {
                    op,
                    chip,
                    channel: (chip / u64::from(g.chips_per_channel)) as u32,
                    planes: mask,
                }
            } else if self.rng.chance(self.mix.erase_pct) {
                // The block is drawn but not needed: an erase occupies only
                // its plane.
                self.rng.below(u64::from(g.blocks_per_plane) - 2);
                single(FlashOp::Erase)
            } else if self.rng.chance(self.mix.program_pct)
                && self.program_cursor[(chip * planes + plane) as usize]
                    < u64::from(g.pages_per_block)
            {
                // Programs stay in one arbitration class so same-plane FIFO
                // order keeps them in NAND order.
                priority = Priority::Host;
                tenant = TenantId(0);
                self.program_cursor[(chip * planes + plane) as usize] += 1;
                single(FlashOp::Program)
            } else {
                // The page is drawn but not needed: a read occupies its plane
                // whichever page it reads.
                self.rng.below(PAGES_POPULATED);
                single(FlashOp::Read)
            };
            (kind, priority, tenant)
        }

        fn gap(&mut self) -> Duration {
            if self.mix.max_gap_us == 0 {
                Duration::ZERO
            } else {
                Duration::from_micros(self.rng.below(self.mix.max_gap_us + 1))
            }
        }
    }

    fn submit(
        sched: &mut IoScheduler,
        dev: &mut FlashDevice,
        done: &mut Vec<Completion>,
        (kind, priority, tenant): (CmdKind, Priority, TenantId),
        at: SimTime,
    ) -> ssd_sched::CmdId {
        loop {
            match sched.submit_for_tenant(kind, priority, tenant, at) {
                Ok(id) => return id,
                Err(SchedError::QueueFull { .. }) => {
                    sched.drain(dev);
                    done.extend(sched.pop_completions());
                }
            }
        }
    }

    /// Runs one mix and hashes everything the scheduler reported.
    fn run(mix: Mix) -> u64 {
        let cfg = SsdConfig::tiny().with_planes(mix.planes);
        let g = cfg.geometry;
        let mut dev = FlashDevice::new(cfg);
        let mut t0 = SimTime::ZERO;
        for chip in 0..g.total_chips() {
            for plane in 0..u64::from(g.planes_per_chip) {
                for page in 0..PAGES_POPULATED {
                    let ppn = ppn_of(&g, chip, plane, 0, page);
                    t0 = dev
                        .program_page(ppn, OobData::mapped(ppn), t0)
                        .expect("block 0 of a fresh device programs in order");
                }
            }
        }
        let config = SchedConfig::with_queue_depth(mix.queue_depth);
        let mut sched = if mix.tenants {
            IoScheduler::with_tenants(g, config, four_class_policy())
        } else {
            IoScheduler::new(g, config)
        };
        let mut gen = Gen {
            rng: Rng(mix.seed),
            g,
            mix,
            program_cursor: vec![0; (g.total_chips() * u64::from(g.planes_per_chip)) as usize],
        };
        let mut done: Vec<Completion> = Vec::new();
        let mut at = t0;
        match mix.drive {
            Drive::Drain => {
                for _ in 0..mix.commands {
                    at += gen.gap();
                    let cmd = gen.command();
                    submit(&mut sched, &mut dev, &mut done, cmd, at);
                }
            }
            Drive::Await => {
                let mut left = mix.commands;
                while left > 0 {
                    let burst = (8 + gen.rng.below(24) as usize).min(left);
                    left -= burst;
                    for _ in 0..burst {
                        let (kind, _, tenant) = gen.command();
                        submit(
                            &mut sched,
                            &mut dev,
                            &mut done,
                            (kind, Priority::Gc, tenant),
                            at,
                        );
                    }
                    for _ in 0..(1 + gen.rng.below(3)).min(left as u64) {
                        left -= 1;
                        let (kind, _, tenant) = gen.command();
                        let id = submit(
                            &mut sched,
                            &mut dev,
                            &mut done,
                            (kind, Priority::Host, tenant),
                            at,
                        );
                        let c = sched.run_until_complete(&mut dev, id);
                        assert_eq!(c.id, id);
                        at = c.completed + gen.gap();
                    }
                    done.extend(sched.pop_completions());
                }
            }
            Drive::Windows => {
                for i in 0..mix.commands {
                    at += gen.gap();
                    let cmd = gen.command();
                    submit(&mut sched, &mut dev, &mut done, cmd, at);
                    if i % 16 == 15 {
                        sched.run_until(&mut dev, at + Duration::from_micros(150));
                        done.extend(sched.pop_completions());
                    }
                }
            }
        }
        let end = sched.drain(&mut dev);
        done.extend(sched.pop_completions());
        assert_eq!(sched.outstanding(), 0);
        assert_eq!(done.len(), mix.commands);

        let mut h = Fnv::new();
        for c in &done {
            h.u64(c.id.0);
            h.u64(c.chip);
            h.u64(u64::from(c.priority == Priority::Gc));
            h.u64(u64::from(c.tenant.0));
            h.u64(c.submitted.as_nanos());
            h.u64(c.issued.as_nanos());
            h.u64(c.completed.as_nanos());
            // Where a success flag was hashed; it was 1 for every command.
            h.u64(1);
        }
        h.u64(end.as_nanos());
        let s = sched.stats();
        for v in [
            s.submitted,
            s.completed,
            // Where a rejection count was hashed; it was always 0.
            0,
            s.gc_yields,
            s.gc_forced,
            s.queueing.count,
            s.queueing.total.as_nanos(),
            s.queueing.max.as_nanos(),
            s.service.count,
            s.service.total.as_nanos(),
            s.service.max.as_nanos(),
        ] {
            h.u64(v);
        }
        for c in sched.class_stats() {
            for v in [c.submitted, c.completed, c.yields, c.forced] {
                h.u64(v);
            }
        }
        h.u64(dev.drain_time().as_nanos());
        h.0
    }

    const BASE: Mix = Mix {
        seed: 1,
        planes: 1,
        tenants: false,
        queue_depth: usize::MAX,
        commands: 400,
        charge_pct: 0,
        multi_plane_pct: 0,
        erase_pct: 0,
        program_pct: 0,
        gc_pct: 40,
        max_gap_us: 0,
        drive: Drive::Drain,
    };

    /// The pinned mixes and the hash each produced at the parent commit.
    fn mixes() -> Vec<(&'static str, Mix, u64)> {
        vec![
            ("host/gc reads, one instant", BASE, 0x926e_7481_a657_a026),
            (
                "read/program/erase, paced",
                Mix {
                    seed: 2,
                    erase_pct: 10,
                    program_pct: 40,
                    max_gap_us: 30,
                    ..BASE
                },
                0x2b60_8177_4b11_6bed,
            ),
            (
                "single-plane charges on two planes",
                Mix {
                    seed: 3,
                    planes: 2,
                    charge_pct: 100,
                    gc_pct: 60,
                    max_gap_us: 10,
                    ..BASE
                },
                0xfb26_02bf_8553_1f1f,
            ),
            (
                "multi-plane charge masks mixed with reads",
                Mix {
                    seed: 4,
                    planes: 2,
                    charge_pct: 60,
                    multi_plane_pct: 40,
                    program_pct: 20,
                    ..BASE
                },
                0x1eb0_e709_4db5_4116,
            ),
            (
                "far-future submit times",
                Mix {
                    seed: 5,
                    planes: 2,
                    charge_pct: 30,
                    multi_plane_pct: 30,
                    erase_pct: 5,
                    max_gap_us: 400,
                    ..BASE
                },
                0x3e1f_3ec3_e327_b1b8,
            ),
            (
                "four-class tenant policy",
                Mix {
                    seed: 6,
                    tenants: true,
                    gc_pct: 25,
                    program_pct: 15,
                    max_gap_us: 5,
                    ..BASE
                },
                0x4898_9c6a_addf_cd0e,
            ),
            (
                "tenants, two planes, charges, windows",
                Mix {
                    seed: 7,
                    planes: 2,
                    tenants: true,
                    charge_pct: 50,
                    multi_plane_pct: 25,
                    erase_pct: 5,
                    program_pct: 20,
                    gc_pct: 30,
                    max_gap_us: 20,
                    drive: Drive::Windows,
                    ..BASE
                },
                0x8082_9566_89cf_7d26,
            ),
            (
                "engine shape: gc bursts, awaited host charges",
                Mix {
                    seed: 8,
                    charge_pct: 100,
                    commands: 1_200,
                    max_gap_us: 3,
                    drive: Drive::Await,
                    ..BASE
                },
                0xfea0_a3a9_c782_4a41,
            ),
            (
                "engine shape on two planes with multi-plane masks",
                Mix {
                    seed: 9,
                    planes: 2,
                    charge_pct: 90,
                    multi_plane_pct: 30,
                    commands: 1_200,
                    drive: Drive::Await,
                    ..BASE
                },
                0x866c_d2e8_e285_30da,
            ),
            (
                "bounded queue depth",
                Mix {
                    seed: 10,
                    planes: 2,
                    queue_depth: 8,
                    charge_pct: 40,
                    program_pct: 30,
                    max_gap_us: 15,
                    ..BASE
                },
                0xa04f_1716_d945_c3f5,
            ),
        ]
    }

    #[test]
    fn seeded_mixes_reproduce_the_pinned_completion_sequences() {
        let results: Vec<(&str, u64, u64)> = mixes()
            .into_iter()
            .map(|(name, mix, want)| (name, run(mix), want))
            .collect();
        let listing: Vec<String> = results
            .iter()
            .map(|(name, got, _)| format!("{got:#018x}  {name}"))
            .collect();
        for (name, got, want) in &results {
            assert_eq!(
                got,
                want,
                "mix `{name}` diverged from the pinned sequence; all hashes:\n{}",
                listing.join("\n")
            );
        }
    }
}
