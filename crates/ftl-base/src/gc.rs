//! How collections charge their flash time.
//!
//! Under [`GcMode::Blocking`] the triggering host request waits for the
//! collection, whose copies run one chain per source plane (the rule is on
//! the variant). [`GcMode::Scheduled`] takes the collection off the host
//! request in two steps:
//!
//! 1. **Plan** — the existing GC logic runs unchanged with the device in
//!    *staging* mode ([`ssd_sim::FlashDevice::begin_staging`]): victim
//!    selection, page relocation, mapping/CMT updates, model retraining and
//!    translation flushes all commit their logical and physical state
//!    immediately, but no flash time is charged. The decision sequence is
//!    therefore identical to blocking mode, which is what makes the two
//!    modes' aggregate flash work comparable (bit-identical for FTLs whose
//!    allocation ignores device timing, e.g. LearnedFTL's group allocator).
//! 2. **Charge** — the recorded operations become a [`GcJob`]: a batch of
//!    [`CmdKind::Charge`] commands submitted to the engine's
//!    [`IoScheduler`] at [`Priority::Gc`]. They drain over simulated time,
//!    per chip, while the FTL's host commands (submitted at
//!    [`Priority::Host`] through the same scheduler) bypass them up to the
//!    configured `gc_starvation_bound` — the host-vs-GC arbitration built in
//!    the `ssd-sched` crate, finally exercised by real FTL traffic.
//!
//! The job is *resumable*: it survives across scheduler steps, draining a
//! little every time the host path waits for one of its own commands, and an
//! explicit [`GcEngine::drain`] completes whatever is left (end of run).

use ssd_sched::{CmdId, Completion, IoScheduler, Priority, SchedConfig};
use ssd_sim::{FlashDevice, Geometry, SimTime, StagedOp, TraceData, TraceSink};

use crate::stats::FtlStats;

/// How an FTL executes its garbage-collection flash traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcMode {
    /// GC runs on the triggering host request, which waits for it (the
    /// default). Every FTL times a collection by one rule. The collection
    /// keeps one copy chain per **source plane**: a page copy's read is
    /// issued when the previous copy off the same plane has finished, and its
    /// program when the read is done. Copies off different planes overlap
    /// through the device's plane and channel timelines, as FEMU's per-LUN
    /// timelines let them (Li et al., FAST'18). The collection's erases are
    /// issued together, each on its own plane, at the latest completion so
    /// far; a block recycled mid-collection is erased then too, so later
    /// programs into it queue behind the erase. Translation-page reads and
    /// writes keep their order in one chain. A baseline victim is one block
    /// on one plane, so its copies form one chain.
    #[default]
    Blocking,
    /// GC flash traffic is emitted as `Priority::Gc` commands through an
    /// [`IoScheduler`], contending per chip with the FTL's host commands
    /// under the scheduler's starvation-bounded arbitration.
    Scheduled,
}

/// The in-flight background collection work of one FTL: which scheduled GC
/// commands are still outstanding and where each collection unit (one victim
/// block / one group) ends. The job survives across scheduler steps — it
/// drains whenever the host path runs the event loop — and is extended in
/// place when a new collection is planned before the previous one finished.
#[derive(Debug, Clone, Default)]
pub struct GcJob {
    /// Scheduled GC commands not yet completed.
    outstanding: usize,
    /// Command ids that end one collection unit, ascending; their completion
    /// times feed the GC timeline ([`FtlStats::gc_complete_events`]).
    unit_ends: Vec<CmdId>,
    /// `gc_yields` already folded into [`FtlStats`].
    seen_yields: u64,
    /// `gc_forced` already folded into [`FtlStats`].
    seen_forced: u64,
}

impl GcJob {
    /// Scheduled GC commands not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

/// The scheduled-GC engine owned by an `FtlCore` in [`GcMode::Scheduled`]:
/// one [`IoScheduler`] over the FTL's device plus the resumable [`GcJob`].
#[derive(Debug, Clone)]
pub struct GcEngine {
    sched: IoScheduler,
    job: GcJob,
    /// Host completions observed while the event loop ran for *other*
    /// commands, parked until their submitter awaits them (a request's
    /// in-flight data charges complete while a translation dependency is
    /// being waited on). Never more than one request's charges, so a plain
    /// list searched linearly.
    host_done: Vec<(CmdId, SimTime)>,
    /// The ids [`GcEngine::run_host_charges`] is waiting for, reused across
    /// calls.
    awaited: Vec<CmdId>,
}

impl GcEngine {
    /// Creates an engine over a device with the given geometry.
    ///
    /// The scheduler's queue depth is effectively unbounded: the FTL's host
    /// path keeps at most a handful of commands in flight (it waits for each
    /// one), while a planned collection may stage hundreds of charges at
    /// once.
    pub fn new(geometry: Geometry, gc_starvation_bound: u32) -> Self {
        GcEngine {
            sched: IoScheduler::new(
                geometry,
                SchedConfig {
                    queue_depth: usize::MAX,
                    gc_starvation_bound,
                },
            ),
            job: GcJob::default(),
            host_done: Vec::new(),
            awaited: Vec::new(),
        }
    }

    /// The current background job.
    pub fn job(&self) -> &GcJob {
        &self.job
    }

    /// Submits one batch of staged GC operations as `Priority::Gc` charges at
    /// time `now`, extending the background job. `unit_bounds` holds
    /// ascending indices into `ops` marking the end (exclusive) of each
    /// collection unit, so the matching completions can be recorded as
    /// GC-finished events.
    ///
    /// The call is non-blocking: the charges drain as the event loop runs
    /// (host waits, or [`GcEngine::drain`]).
    pub fn submit_job(
        &mut self,
        dev: &mut FlashDevice,
        ops: &[StagedOp],
        unit_bounds: &[usize],
        now: SimTime,
    ) {
        if let Some(t) = dev.trace_sink() {
            t.instant(
                now,
                TraceData::GcStaged {
                    ops: ops.len() as u32,
                    units: unit_bounds.len() as u32,
                },
            );
        }
        let first = self
            .sched
            .submit_charges(ops, Priority::Gc, now)
            .expect("the GC scheduler's queue is unbounded");
        self.job.outstanding += ops.len();
        // A unit ends with the charge just before its bound; units that
        // staged nothing share their predecessor's last charge.
        let mut last = 0;
        for &bound in unit_bounds {
            debug_assert!(
                last <= bound && bound <= ops.len(),
                "bounds ascend within ops"
            );
            if bound > last {
                self.job.unit_ends.push(CmdId(first.0 + bound as u64 - 1));
                last = bound;
            }
        }
    }

    /// Submits staged host-path operations at time `at` as `Priority::Host`
    /// charges **without waiting**, appending their command ids to `ids` for
    /// a later [`GcEngine::await_host`].
    ///
    /// This is how a request's independent data-page operations stay
    /// overlapped the way the blocking path overlaps them: a multi-page
    /// write's programs occupy their chips while the request's translation
    /// dependencies are being waited on, and runs of same-chip host charges
    /// are exactly what drives the GC starvation bound — queued GC yields
    /// per dispatch until the bound forces it through.
    pub fn submit_host_async(&mut self, ops: &[StagedOp], at: SimTime, ids: &mut Vec<CmdId>) {
        let first = self
            .sched
            .submit_charges(ops, Priority::Host, at)
            .expect("the GC scheduler's queue is unbounded");
        ids.extend((first.0..first.0 + ops.len() as u64).map(CmdId));
    }

    /// Runs the event loop until every command in `ids` has completed,
    /// returning their latest completion time (`now` if `ids` is empty).
    /// Completions that were already reaped while other commands were being
    /// waited on are picked up from the parked set.
    pub fn await_host(
        &mut self,
        dev: &mut FlashDevice,
        ids: &[CmdId],
        now: SimTime,
        stats: &mut FtlStats,
    ) -> SimTime {
        let mut done = now;
        for &id in ids {
            let parked = self.host_done.iter().position(|&(p, _)| p == id);
            let completed = match parked {
                Some(at) => self.host_done.swap_remove(at).1,
                None => {
                    let completion = self.sched.run_until_complete_with(dev, id, |c| {
                        if c.id != id {
                            Self::reap(&mut self.job, &mut self.host_done, stats, c);
                        }
                    });
                    completion.completed
                }
            };
            done = done.max(completed);
        }
        self.fold_arbitration(stats);
        done
    }

    /// Submits a batch of staged host-path operations at `now` and waits for
    /// all of them: the synchronous form used for dependencies (translation-page
    /// reads and writes) whose completion time the FTL chains on.
    pub fn run_host_charges(
        &mut self,
        dev: &mut FlashDevice,
        ops: &[StagedOp],
        now: SimTime,
        stats: &mut FtlStats,
    ) -> SimTime {
        if ops.is_empty() {
            return now;
        }
        let mut ids = std::mem::take(&mut self.awaited);
        ids.clear();
        self.submit_host_async(ops, now, &mut ids);
        let done = self.await_host(dev, &ids, now, stats);
        self.awaited = ids;
        done
    }

    /// Runs the event loop to quiescence — every outstanding GC charge (and
    /// host command, though the host path never leaves one behind)
    /// completes — and returns the time the engine went idle.
    pub fn drain(&mut self, dev: &mut FlashDevice, stats: &mut FtlStats) -> SimTime {
        let outstanding = self.job.outstanding;
        let begun = self.sched.now();
        let t = self.sched.drain_with(dev, |c| {
            Self::reap(&mut self.job, &mut self.host_done, stats, c)
        });
        if outstanding > 0 {
            if let Some(sink) = dev.trace_sink() {
                sink.span(
                    begun,
                    t,
                    TraceData::GcDrain {
                        outstanding: outstanding as u32,
                    },
                );
            }
        }
        self.fold_arbitration(stats);
        debug_assert_eq!(self.job.outstanding, 0, "drain must finish the job");
        // Any still-parked host completions were claimed by value before the
        // drain (a well-formed request awaits everything it submits).
        self.host_done.clear();
        t
    }

    /// Folds one completion, as the scheduler reports it, into the job and
    /// the FTL's statistics: a GC charge into the flash-time total and, when
    /// it ends a collection unit, the GC timeline; a host completion is
    /// parked for its awaiter.
    fn reap(
        job: &mut GcJob,
        host_done: &mut Vec<(CmdId, SimTime)>,
        stats: &mut FtlStats,
        c: &Completion,
    ) {
        if c.priority != Priority::Gc {
            host_done.push((c.id, c.completed));
            return;
        }
        job.outstanding -= 1;
        stats.gc_flash_time += c.service();
        if let Ok(at) = job.unit_ends.binary_search(&c.id) {
            job.unit_ends.remove(at);
            stats.gc_complete_events.push(c.completed);
        }
    }

    /// Folds the scheduler's arbitration counters into the FTL's statistics.
    fn fold_arbitration(&mut self, stats: &mut FtlStats) {
        let s = self.sched.stats();
        stats.gc_yields += s.gc_yields - self.job.seen_yields;
        stats.gc_forced += s.gc_forced - self.job.seen_forced;
        self.job.seen_yields = s.gc_yields;
        self.job.seen_forced = s.gc_forced;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::{OobData, SsdConfig};

    #[test]
    fn job_drains_and_feeds_stats() {
        let cfg = SsdConfig::tiny();
        let mut dev = FlashDevice::new(cfg);
        let mut stats = FtlStats::new();
        let mut engine = GcEngine::new(cfg.geometry, 2);

        // Stage a tiny "collection": program two pages, then read them back.
        dev.begin_staging();
        dev.program_page(0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        dev.program_page(1, OobData::mapped(2), SimTime::ZERO)
            .unwrap();
        dev.read_page(0, SimTime::ZERO).unwrap();
        let ops = dev.end_staging();
        engine.submit_job(&mut dev, &ops, &[ops.len()], SimTime::ZERO);
        assert_eq!(engine.job().outstanding(), 3);

        let end = engine.drain(&mut dev, &mut stats);
        assert!(end > SimTime::ZERO);
        assert_eq!(engine.job().outstanding(), 0);
        assert_eq!(stats.gc_complete_events, vec![end]);
        assert!(stats.gc_flash_time > ssd_sim::Duration::ZERO);
    }

    #[test]
    fn host_commands_bypass_queued_gc_charges() {
        let cfg = SsdConfig::tiny();
        let mut dev = FlashDevice::new(cfg);
        let mut stats = FtlStats::new();
        let mut engine = GcEngine::new(cfg.geometry, 4);

        // Put readable data on chip 0, then queue GC charges for that chip.
        let mut t = SimTime::ZERO;
        for ppn in 0..4 {
            t = dev.program_page(ppn, OobData::mapped(ppn), t).unwrap();
        }
        dev.begin_staging();
        for ppn in 0..3 {
            dev.read_page(ppn, t).unwrap();
        }
        let ops = dev.end_staging();
        engine.submit_job(&mut dev, &ops, &[ops.len()], t);

        // A host read on the same chip bypasses the queued GC work.
        dev.begin_staging();
        dev.read_page(3, t).unwrap();
        let host_ops = dev.end_staging();
        let done = engine.run_host_charges(&mut dev, &host_ops, t, &mut stats);
        assert!(done > t);
        assert!(stats.gc_yields >= 1, "host must have bypassed queued GC");
        engine.drain(&mut dev, &mut stats);
        assert_eq!(stats.gc_complete_events.len(), 1);
    }

    #[test]
    fn reaped_collections_leave_no_completion_sized_buffers_behind() {
        // 10 000 GC charges submitted, drained and reaped — twice: the engine
        // folds each GC completion into the job and the statistics as it is
        // visited, so what it keeps afterwards does not depend on how many
        // completed (the scheduler's side of the bound is pinned by
        // `visited_backlogs_leave_no_completion_sized_buffers_behind` there).
        const CHARGES: usize = 10_000;
        let cfg = SsdConfig::tiny();
        let mut dev = FlashDevice::new(cfg);
        let mut stats = FtlStats::new();
        let mut engine = GcEngine::new(cfg.geometry, 4);
        let chips = cfg.geometry.total_chips();
        let ops: Vec<StagedOp> = (0..CHARGES as u64)
            .map(|i| StagedOp {
                op: if i % 2 == 0 {
                    ssd_sim::FlashOp::Read
                } else {
                    ssd_sim::FlashOp::Program
                },
                chip: i % chips,
                channel: ((i % chips) / u64::from(cfg.geometry.chips_per_channel)) as u32,
                planes: 1,
            })
            .collect();
        for round in 1..=2 {
            let now = dev.drain_time();
            engine.submit_job(&mut dev, &ops, &[CHARGES / 2, CHARGES], now);
            // A host charge awaited mid-backlog, as a write's translation
            // read would be: the loop reaps whatever completes before it.
            engine.run_host_charges(&mut dev, &ops[..1], now, &mut stats);
            engine.drain(&mut dev, &mut stats);
            assert_eq!(engine.job().outstanding(), 0);
            assert_eq!(stats.gc_complete_events.len(), 2 * round);
            assert!(
                engine.sched.pop_completions().is_empty(),
                "visited completions are not buffered as well"
            );
            assert!(engine.host_done.capacity() <= 4);
            assert!(engine.job.unit_ends.capacity() <= 4);
        }
    }
}
