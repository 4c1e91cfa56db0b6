//! The event-driven multi-queue I/O scheduler.
//!
//! [`IoScheduler`] sits between command submitters (an FTL's host path and
//! its garbage collector) and a [`FlashDevice`]. Every command replays the
//! flash time of an operation whose state was applied when it was staged:
//! commands are queued per chip, issued as [`FlashDevice::charge_op`] calls,
//! and completed out of order through a binary-heap event loop on
//! [`SimTime`]: an issued command's completion record waits in the in-flight
//! slot of its plane, and the heap orders 32-byte (time, slot) entries.
//! Dispatch is **plane-aware**: a chip is issuable whenever any of its planes
//! is free, and each queue is drained in per-plane FIFO order — a command may
//! only bypass earlier queued commands of its class that target *other*
//! planes (the die-interleave conflict rule: same-plane commands never
//! reorder, cross-plane commands overlap).
//!
//! Each chip has two queues, one per arbitration class: host commands take
//! priority over GC commands on the same chip, but a GC command is never
//! bypassed more than [`SchedConfig::gc_starvation_bound`] times in a row.
//! The chip's [`TenantArbiter`] over [`TenantPolicy::two_class`] makes that
//! decision per issue slot.

use std::collections::VecDeque;

use ssd_sim::{Duration, FlashDevice, Geometry, SimTime, StagedOp, TraceData, TraceSink};

use crate::cmd::{CmdId, CmdKind, Completion, Priority};
use crate::event::EventQueue;
use crate::tenant::{TenantArbiter, TenantPolicy};

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Maximum number of commands outstanding in the scheduler (queued plus
    /// issued, not yet completed). Submission fails once the bound is hit.
    pub queue_depth: usize,
    /// How many times in a row a queued GC command may be bypassed by host
    /// commands on the same chip before it is forced through.
    pub gc_starvation_bound: u32,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            queue_depth: 64,
            gc_starvation_bound: 4,
        }
    }
}

impl SchedConfig {
    /// A configuration with the given queue depth and default arbitration.
    pub fn with_queue_depth(queue_depth: usize) -> Self {
        SchedConfig {
            queue_depth,
            ..Self::default()
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedError {
    /// The scheduler already holds `queue_depth` outstanding commands.
    QueueFull {
        /// The configured bound that was hit.
        queue_depth: usize,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::QueueFull { queue_depth } => {
                write!(f, "submission queue full (depth {queue_depth})")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Count, total and maximum of a stream of durations: what a scheduler keeps
/// of its per-command delays. A scheduler under scheduled GC completes tens
/// of commands per host write for the lifetime of its FTL, so it must not
/// keep the samples themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurationSummary {
    /// Number of durations recorded.
    pub count: u64,
    /// Their sum.
    pub total: Duration,
    /// The largest one (zero when none was recorded).
    pub max: Duration,
}

impl DurationSummary {
    fn record(&mut self, d: Duration) {
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
    }
}

/// Counters and delay summaries accumulated by a scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Commands accepted by [`IoScheduler::submit`].
    pub submitted: u64,
    /// Commands completed.
    pub completed: u64,
    /// Times a GC command was bypassed in favour of a host command.
    pub gc_yields: u64,
    /// Times a GC command was forced through by the starvation bound.
    pub gc_forced: u64,
    /// Scheduler queueing delay per completed command.
    pub queueing: DurationSummary,
    /// Device service time per completed command.
    pub service: DurationSummary,
}

/// A command waiting in a chip queue. Its arbitration class is the queue it
/// sits in.
#[derive(Debug, Clone, Copy)]
struct Queued {
    id: CmdId,
    kind: CmdKind,
    submitted: SimTime,
}

/// The arbitration class (and chip queue) of host commands.
const HOST: usize = 0;
/// The arbitration class (and chip queue) of GC commands.
const GC: usize = 1;

/// The arbitration class a command of `priority` lands in.
fn class_of(priority: Priority) -> usize {
    match priority {
        Priority::Host => HOST,
        Priority::Gc => GC,
    }
}

#[derive(Debug, Clone)]
struct ChipQueue {
    /// One FIFO per arbitration class: [`HOST`] and [`GC`].
    queues: [VecDeque<Queued>; 2],
    /// Commands queued across all classes.
    queued: usize,
    /// Host-over-GC / starvation state for this chip's two classes.
    arbiter: TenantArbiter,
    /// Bitmask of planes with a command currently issued to the device.
    busy_planes: u32,
    /// Earliest pending wakeup for this chip, to suppress duplicate events.
    wakeup_at: Option<SimTime>,
}

impl ChipQueue {
    fn new(policy: &TenantPolicy) -> Self {
        ChipQueue {
            queues: [VecDeque::new(), VecDeque::new()],
            queued: 0,
            arbiter: TenantArbiter::new(policy),
            busy_planes: 0,
            wakeup_at: None,
        }
    }
}

/// What the event heap orders. A completing command is named by the in-flight
/// slot holding its record, so heap sifts move a few words per entry however
/// large a completion record is.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The command issued on `chip` whose lowest occupied plane is `plane`
    /// completes.
    Complete { chip: u32, plane: u32 },
    /// Re-run dispatch on `chip`: a queued command's submission time has
    /// been reached.
    Wakeup { chip: u32 },
}

/// The event-driven multi-queue scheduler over one [`FlashDevice`].
///
/// ```
/// use ssd_sched::{CmdKind, IoScheduler, Priority, SchedConfig};
/// use ssd_sim::{FlashDevice, OobData, SimTime, SsdConfig};
///
/// let mut dev = FlashDevice::new(SsdConfig::tiny());
/// let mut sched = IoScheduler::new(*dev.geometry(), SchedConfig::default());
/// // Apply a program's state now, and charge its flash time through the
/// // scheduler.
/// dev.begin_staging();
/// dev.program_page(0, OobData::mapped(7), SimTime::ZERO).unwrap();
/// let staged = dev.end_staging();
/// sched
///     .submit(CmdKind::charge(staged[0]), Priority::Host, SimTime::ZERO)
///     .unwrap();
/// let end = sched.drain(&mut dev);
/// let done = sched.pop_completions();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].completed, end);
/// assert!(end > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct IoScheduler {
    config: SchedConfig,
    geometry: Geometry,
    /// Bitmask with one bit per plane of a chip (all chips are alike).
    all_planes: u32,
    now: SimTime,
    chips: Vec<ChipQueue>,
    /// The finished completion records of the issued commands (the device
    /// reports the completion time at issue), one slot per plane of the
    /// device: a command sits in the slot of the lowest plane it occupies
    /// (planes are exclusive, so at most one command per plane is in flight).
    in_flight: Vec<Option<Completion>>,
    events: EventQueue<Event>,
    /// Completions recorded by the buffering entry points, until
    /// [`IoScheduler::pop_completions`] takes them.
    completions: Vec<Completion>,
    outstanding: usize,
    next_id: u64,
    stats: SchedStats,
    /// The classes that lost [`IoScheduler::dispatch_chip`]'s issue slot;
    /// only meaningful inside that call.
    yielded: Vec<usize>,
}

impl IoScheduler {
    /// Creates a scheduler for a device with the given geometry. Each chip
    /// arbitrates host over GC commands by [`TenantPolicy::two_class`] with
    /// [`SchedConfig::gc_starvation_bound`].
    pub fn new(geometry: Geometry, config: SchedConfig) -> Self {
        assert!(config.queue_depth > 0, "queue depth must be at least 1");
        let policy = TenantPolicy::two_class(config.gc_starvation_bound);
        let all_planes = if geometry.planes_per_chip >= 32 {
            u32::MAX
        } else {
            (1u32 << geometry.planes_per_chip) - 1
        };
        let chips = geometry.total_chips() as usize;
        let planes = chips * geometry.planes_per_chip as usize;
        IoScheduler {
            config,
            geometry,
            all_planes,
            now: SimTime::ZERO,
            chips: (0..chips).map(|_| ChipQueue::new(&policy)).collect(),
            in_flight: vec![None; planes],
            events: EventQueue::new(),
            completions: Vec::new(),
            outstanding: 0,
            next_id: 0,
            stats: SchedStats::default(),
            yielded: Vec::with_capacity(2),
        }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.config
    }

    /// The current simulated time of the event loop.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Commands submitted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Submits a command at time `submitted`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::QueueFull`] when `queue_depth` commands are
    /// already outstanding; the caller must run the event loop (e.g.
    /// [`IoScheduler::run_until`]) to drain completions first.
    pub fn submit(
        &mut self,
        kind: CmdKind,
        priority: Priority,
        submitted: SimTime,
    ) -> Result<CmdId, SchedError> {
        self.reserve(1)?;
        Ok(self.enqueue(class_of(priority), kind, submitted))
    }

    /// Submits the charge commands replaying `ops` (see [`CmdKind::charge`])
    /// in one call, all at `priority` and all at time
    /// `submitted`: how a staged garbage collection hands over its hundreds
    /// of operations. The commands get consecutive ids in `ops` order; the
    /// first one's is returned (the id the next submission gets when `ops`
    /// is empty).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::QueueFull`], submitting nothing, unless the
    /// whole batch fits under `queue_depth`.
    pub fn submit_charges(
        &mut self,
        ops: &[StagedOp],
        priority: Priority,
        submitted: SimTime,
    ) -> Result<CmdId, SchedError> {
        self.reserve(ops.len())?;
        let first = CmdId(self.next_id);
        let class = class_of(priority);
        for &op in ops {
            self.enqueue(class, CmdKind::charge(op), submitted);
        }
        Ok(first)
    }

    /// Checks that `commands` more submissions fit under the queue depth.
    fn reserve(&self, commands: usize) -> Result<(), SchedError> {
        let queue_depth = self.config.queue_depth;
        if commands > queue_depth.saturating_sub(self.outstanding) {
            return Err(SchedError::QueueFull { queue_depth });
        }
        Ok(())
    }

    fn enqueue(&mut self, class: usize, kind: CmdKind, submitted: SimTime) -> CmdId {
        let id = CmdId(self.next_id);
        self.next_id += 1;
        let CmdKind::Charge { chip, .. } = kind;
        let chip = &mut self.chips[chip as usize];
        chip.queues[class].push_back(Queued {
            id,
            kind,
            submitted,
        });
        chip.queued += 1;
        self.outstanding += 1;
        self.stats.submitted += 1;
        id
    }

    /// The in-flight slot of a command whose lowest occupied plane is `plane`.
    fn slot_of(&self, chip: usize, plane: u32) -> usize {
        chip * self.geometry.planes_per_chip as usize + plane as usize
    }

    /// Runs the event loop until every event at or before `until` has fired.
    /// Returns the new simulated time (`>= until` only if nothing remains to
    /// do earlier).
    pub fn run_until(&mut self, dev: &mut FlashDevice, until: SimTime) -> SimTime {
        // New commands may have been submitted since the last run: give every
        // idle chip one dispatch pass, then advance purely event by event
        // (each event re-dispatches only the chip it names).
        self.dispatch_idle_chips(dev);
        let mut buffer = std::mem::take(&mut self.completions);
        while let Some(t) = self.events.peek_time() {
            if t > until {
                break;
            }
            let (t, event) = self.events.pop().expect("peeked event exists");
            self.now = self.now.max(t);
            self.handle(event, dev, &mut |c| buffer.push(*c));
        }
        self.completions = buffer;
        self.now = self.now.max(until);
        self.now
    }

    /// Runs the event loop to quiescence: every submitted command completes.
    /// Returns the completion time of the last command (or the current time
    /// when the scheduler was already idle).
    pub fn drain(&mut self, dev: &mut FlashDevice) -> SimTime {
        let mut buffer = std::mem::take(&mut self.completions);
        let end = self.drain_with(dev, |c| buffer.push(*c));
        self.completions = buffer;
        end
    }

    /// [`IoScheduler::drain`], handing each completion to `sink` in
    /// completion order instead of buffering it for
    /// [`IoScheduler::pop_completions`]: the non-allocating way to reap for a
    /// submitter that folds completions into a few numbers.
    pub fn drain_with(
        &mut self,
        dev: &mut FlashDevice,
        mut sink: impl FnMut(&Completion),
    ) -> SimTime {
        self.dispatch_idle_chips(dev);
        while let Some((t, event)) = self.events.pop() {
            self.now = self.now.max(t);
            self.handle(event, dev, &mut sink);
        }
        debug_assert_eq!(self.outstanding, 0, "drain must complete every command");
        self.now
    }

    /// Runs the event loop until the command with `id` completes and returns
    /// its completion record. Other commands completing earlier stay in the
    /// completion buffer for [`IoScheduler::pop_completions`].
    ///
    /// This is the synchronous-submitter bridge: an FTL whose host path wants
    /// a plain completion *time* submits one command, then drives the event
    /// loop exactly far enough — pending GC-class commands dispatch and
    /// contend along the way.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never submitted (or already reaped): the event loop
    /// would run dry without observing it.
    pub fn run_until_complete(&mut self, dev: &mut FlashDevice, id: CmdId) -> Completion {
        self.dispatch_idle_chips(dev);
        if let Some(c) = self.completions.iter().find(|c| c.id == id) {
            return *c;
        }
        let mut buffer = std::mem::take(&mut self.completions);
        let completion = self.await_completion(dev, id, &mut |c| buffer.push(*c));
        self.completions = buffer;
        completion
    }

    /// [`IoScheduler::run_until_complete`], handing each completion — the
    /// awaited one included — to `sink` in completion order instead of
    /// buffering it for [`IoScheduler::pop_completions`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was never submitted or completed before this call.
    pub fn run_until_complete_with(
        &mut self,
        dev: &mut FlashDevice,
        id: CmdId,
        mut sink: impl FnMut(&Completion),
    ) -> Completion {
        self.dispatch_idle_chips(dev);
        self.await_completion(dev, id, &mut sink)
    }

    fn await_completion(
        &mut self,
        dev: &mut FlashDevice,
        id: CmdId,
        sink: &mut impl FnMut(&Completion),
    ) -> Completion {
        let mut awaited = None;
        while awaited.is_none() {
            let Some((t, event)) = self.events.pop() else {
                panic!("{id} never completes: was it submitted to this scheduler?");
            };
            self.now = self.now.max(t);
            self.handle(event, dev, &mut |c| {
                if c.id == id {
                    awaited = Some(*c);
                }
                sink(c);
            });
        }
        awaited.expect("the loop ends on the awaited completion")
    }

    /// Takes every completion recorded since the last call, in completion
    /// order.
    pub fn pop_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Fires one event. A completion is accounted, handed to `sink` straight
    /// from its in-flight slot, and its chip re-dispatched: the one path every
    /// completion takes, whoever consumes it.
    fn handle(&mut self, event: Event, dev: &mut FlashDevice, sink: &mut impl FnMut(&Completion)) {
        match event {
            Event::Complete { chip, plane } => {
                let chip_idx = chip as usize;
                let slot = self.slot_of(chip_idx, plane);
                let completion = self.in_flight[slot]
                    .as_ref()
                    .expect("a completion event names an occupied slot");
                let CmdKind::Charge { op, planes, .. } = completion.kind;
                self.chips[chip_idx].busy_planes &= !planes;
                self.outstanding -= 1;
                self.stats.completed += 1;
                self.stats.queueing.record(completion.queueing());
                self.stats.service.record(completion.service());
                if let Some(t) = dev.trace_sink() {
                    // One lifecycle span per command, emitted at completion so
                    // it carries the full submit→issue→complete record.
                    t.span(
                        completion.submitted,
                        completion.completed,
                        TraceData::CmdLifecycle {
                            chip,
                            op,
                            gc: completion.priority == Priority::Gc,
                            issued: completion.issued,
                        },
                    );
                    let queues = &self.chips[chip_idx].queues;
                    t.counter(
                        completion.completed,
                        TraceData::QueueDepth {
                            chip,
                            host: queues[HOST].len() as u32,
                            gc: queues[GC].len() as u32,
                        },
                    );
                }
                sink(completion);
                self.in_flight[slot] = None;
                self.dispatch_chip(chip_idx, dev);
            }
            Event::Wakeup { chip } => {
                self.chips[chip as usize].wakeup_at = None;
                self.dispatch_chip(chip as usize, dev);
            }
        }
    }

    /// Issues at most one command per idle chip, honouring arbitration.
    fn dispatch_idle_chips(&mut self, dev: &mut FlashDevice) {
        for chip_idx in 0..self.chips.len() {
            self.dispatch_chip(chip_idx, dev);
        }
    }

    /// The first command of `queue` that is submittable at `now` and whose
    /// planes are all free, honouring per-plane FIFO order: a command may
    /// only bypass earlier queued commands that target disjoint planes
    /// (commands on the same plane never reorder).
    fn queue_candidate(queue: &VecDeque<Queued>, now: SimTime, free: u32) -> Option<(usize, u32)> {
        let mut blocked = 0u32;
        for (i, cmd) in queue.iter().enumerate() {
            let CmdKind::Charge { planes, .. } = cmd.kind;
            if cmd.submitted <= now && planes & !free == 0 && planes & blocked == 0 {
                return Some((i, planes));
            }
            blocked |= planes;
            if blocked & free == free {
                return None;
            }
        }
        None
    }

    /// Issues as many commands as the chip's free planes allow, honouring
    /// arbitration per issue slot.
    fn dispatch_chip(&mut self, chip_idx: usize, dev: &mut FlashDevice) {
        loop {
            let now = self.now;
            let free = self.all_planes & !self.chips[chip_idx].busy_planes;
            if free == 0 || self.chips[chip_idx].queued == 0 {
                return;
            }
            // Each class's (queue index, plane mask) for this issue slot.
            let candidates = self.chips[chip_idx]
                .queues
                .each_ref()
                .map(|queue| Self::queue_candidate(queue, now, free));
            let decision = self.chips[chip_idx].arbiter.decide(
                |c| candidates[c].is_some(),
                |a, b| {
                    // Candidates on disjoint planes do not delay each other:
                    // the loser issues on the next loop iteration at the same
                    // simulated time, so no yield is recorded and no
                    // starvation counter moves.
                    let (_, pa) = candidates[a].expect("present candidate");
                    let (_, pb) = candidates[b].expect("present candidate");
                    pa & pb != 0
                },
                &mut self.yielded,
            );
            let Some(arb) = decision else {
                // Commands are queued but none is issuable yet: wake up
                // when the earliest one becomes eligible (a plane-blocked
                // command re-dispatches on its blocker's completion
                // instead).
                self.schedule_wakeup(chip_idx);
                return;
            };
            if self.yielded.contains(&GC) {
                self.stats.gc_yields += 1;
                if let Some(t) = dev.trace_sink() {
                    t.instant(
                        now,
                        TraceData::GcYield {
                            chip: chip_idx as u32,
                        },
                    );
                }
            }
            if arb.forced && arb.winner == GC {
                self.stats.gc_forced += 1;
                if let Some(t) = dev.trace_sink() {
                    t.instant(
                        now,
                        TraceData::GcForced {
                            chip: chip_idx as u32,
                        },
                    );
                }
            }
            let (queue_idx, planes) = candidates[arb.winner].expect("winner has a candidate");
            let chip = &mut self.chips[chip_idx];
            let cmd = chip.queues[arb.winner]
                .remove(queue_idx)
                .expect("winner candidate exists");
            chip.queued -= 1;
            chip.busy_planes |= planes;
            let issue = now.max(cmd.submitted);
            let CmdKind::Charge {
                op, chip, channel, ..
            } = cmd.kind;
            let completed = dev.charge_op(op, chip, channel, planes, issue);
            let plane = planes.trailing_zeros();
            let slot = self.slot_of(chip_idx, plane);
            debug_assert!(
                self.in_flight[slot].is_none(),
                "free planes hold no command"
            );
            self.in_flight[slot] = Some(Completion {
                id: cmd.id,
                kind: cmd.kind,
                priority: if arb.winner == GC {
                    Priority::Gc
                } else {
                    Priority::Host
                },
                chip: chip_idx as u64,
                submitted: cmd.submitted,
                issued: issue,
                completed,
            });
            self.events.schedule(
                completed,
                Event::Complete {
                    chip: chip_idx as u32,
                    plane,
                },
            );
        }
    }

    fn schedule_wakeup(&mut self, chip_idx: usize) {
        let now = self.now;
        let chip = &self.chips[chip_idx];
        // With plane-aware dispatch the next issuable command need not be a
        // queue head (a head can be plane-blocked while a later command's
        // submit time approaches), so consider every queued command. Commands
        // already submittable need no wakeup: they dispatch when a plane
        // frees (the blocker's completion re-dispatches the chip).
        let earliest = chip
            .queues
            .iter()
            .flatten()
            .map(|c| c.submitted)
            .filter(|&t| t > now)
            .min();
        if let Some(t) = earliest {
            // Skip if an equal-or-earlier wakeup for this chip is already
            // pending (a superseded later one fires as a harmless no-op).
            if self.chips[chip_idx].wakeup_at.is_none_or(|w| t < w) {
                self.chips[chip_idx].wakeup_at = Some(t);
                self.events.schedule(
                    t,
                    Event::Wakeup {
                        chip: chip_idx as u32,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::{CmdKind, Priority};
    use ssd_sim::{FlashOp, OobData, PhysAddr, SsdConfig};

    fn setup() -> (FlashDevice, IoScheduler) {
        let dev = FlashDevice::new(SsdConfig::tiny());
        let sched = IoScheduler::new(*dev.geometry(), SchedConfig::default());
        (dev, sched)
    }

    /// The charge of a single-plane `op` on the page at `ppn`.
    fn charge(dev: &FlashDevice, op: FlashOp, ppn: u64) -> CmdKind {
        let g = dev.geometry();
        let a = PhysAddr::from_ppn(ppn, g);
        CmdKind::Charge {
            op,
            chip: a.chip_index(g),
            channel: a.channel,
            planes: 1 << a.plane,
        }
    }

    fn read(dev: &FlashDevice, ppn: u64) -> CmdKind {
        charge(dev, FlashOp::Read, ppn)
    }

    #[test]
    fn waiting_commands_and_heap_entries_stay_small() {
        // A heap sift moves whole entries and a deep GC backlog is all queued
        // entries: 32 bytes per pending event (time, sequence number, slot),
        // 40 per queued command and 72 per in-flight slot (one per plane).
        assert!(EventQueue::<Event>::entry_bytes() <= 32);
        assert_eq!(std::mem::size_of::<Queued>(), 40);
        assert_eq!(std::mem::size_of::<Completion>(), 72);
        assert_eq!(std::mem::size_of::<Option<Completion>>(), 72);
    }

    #[test]
    fn commands_complete_out_of_order_across_chips() {
        let (mut dev, mut sched) = setup();
        let chip1_ppn = dev.geometry().pages_per_chip();
        // Submit a slow program (200us) on chip 0 first, then a fast read
        // (~40us) on chip 1: the read must complete first.
        let t0 = SimTime::ZERO;
        sched
            .submit(charge(&dev, FlashOp::Program, 0), Priority::Host, t0)
            .unwrap();
        sched
            .submit(read(&dev, chip1_ppn), Priority::Host, t0)
            .unwrap();
        sched.drain(&mut dev);
        let done = sched.pop_completions();
        assert_eq!(done.len(), 2);
        let ids: Vec<u64> = done.iter().map(|c| c.id.0).collect();
        assert_eq!(
            ids,
            vec![1, 0],
            "the fast chip-1 read must complete before the slow program"
        );
        // Delivery is in completion-time order.
        assert!(done.windows(2).all(|w| w[0].completed <= w[1].completed));
    }

    #[test]
    fn same_chip_commands_serialise_and_record_queueing() {
        let (mut dev, mut sched) = setup();
        for ppn in 0..2 {
            sched
                .submit(read(&dev, ppn), Priority::Host, SimTime::ZERO)
                .unwrap();
        }
        sched.drain(&mut dev);
        let done = sched.pop_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].queueing(), ssd_sim::Duration::ZERO);
        assert!(
            done[1].queueing() > ssd_sim::Duration::ZERO,
            "second command on the same chip must record queueing delay"
        );
        assert!(done[1].completed > done[0].completed);
    }

    #[test]
    fn gc_yields_to_host_until_starvation_bound() {
        let mut dev = FlashDevice::new(SsdConfig::tiny());
        let bound = 2;
        let config = SchedConfig {
            queue_depth: 64,
            gc_starvation_bound: bound,
        };
        let mut sched = IoScheduler::new(*dev.geometry(), config);
        // One GC read and a stream of host reads, all on chip 0, all at once.
        let t0 = SimTime::ZERO;
        sched.submit(read(&dev, 7), Priority::Gc, t0).unwrap();
        for ppn in 0..6 {
            sched.submit(read(&dev, ppn), Priority::Host, t0).unwrap();
        }
        sched.drain(&mut dev);
        let done = sched.pop_completions();
        let gc_pos = done
            .iter()
            .position(|c| c.priority == Priority::Gc)
            .unwrap();
        assert_eq!(
            gc_pos, bound as usize,
            "GC must run after exactly `bound` host bypasses, ran at {gc_pos}"
        );
        assert_eq!(sched.stats().gc_yields, u64::from(bound));
        assert_eq!(sched.stats().gc_forced, 1);
    }

    #[test]
    fn gc_runs_immediately_on_idle_chips() {
        let (mut dev, mut sched) = setup();
        sched
            .submit(read(&dev, 0), Priority::Gc, SimTime::ZERO)
            .unwrap();
        sched.drain(&mut dev);
        let done = sched.pop_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].queueing(), ssd_sim::Duration::ZERO);
        assert_eq!(sched.stats().gc_yields, 0);
    }

    #[test]
    fn queue_depth_bounds_outstanding_commands() {
        let mut dev = FlashDevice::new(SsdConfig::tiny());
        let mut sched = IoScheduler::new(*dev.geometry(), SchedConfig::with_queue_depth(2));
        for ppn in 0..2 {
            sched
                .submit(read(&dev, ppn), Priority::Host, SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(
            sched.submit(read(&dev, 2), Priority::Host, SimTime::ZERO),
            Err(SchedError::QueueFull { queue_depth: 2 })
        );
        // Draining frees the slots.
        sched.drain(&mut dev);
        assert_eq!(sched.outstanding(), 0);
        sched
            .submit(read(&dev, 2), Priority::Host, sched.now())
            .unwrap();
        sched.drain(&mut dev);
        assert_eq!(sched.pop_completions().len(), 3);
    }

    #[test]
    fn future_submissions_wait_for_their_submit_time() {
        let (mut dev, mut sched) = setup();
        let late = SimTime::from_millis(5);
        sched.submit(read(&dev, 0), Priority::Host, late).unwrap();
        let end = sched.drain(&mut dev);
        let done = sched.pop_completions();
        assert_eq!(
            done[0].issued, late,
            "command must not issue before its submit time"
        );
        assert!(end > late);
    }

    #[test]
    fn run_until_only_fires_events_in_window() {
        let (mut dev, mut sched) = setup();
        for ppn in 0..2 {
            sched
                .submit(read(&dev, ppn), Priority::Host, SimTime::ZERO)
                .unwrap();
        }
        // One read takes ~40us NAND + transfers; cut the window mid-way.
        let mid = SimTime::from_micros(60);
        sched.run_until(&mut dev, mid);
        let first_batch = sched.pop_completions();
        assert_eq!(first_batch.len(), 1, "only the first read fits the window");
        assert_eq!(sched.outstanding(), 1);
        sched.drain(&mut dev);
        assert_eq!(sched.pop_completions().len(), 1);
    }

    #[test]
    fn charge_commands_occupy_chips_without_state() {
        let (mut dev, mut sched) = setup();
        // Stage a program's state, then charge its time through the scheduler.
        dev.begin_staging();
        dev.program_page(0, OobData::mapped(0), SimTime::ZERO)
            .unwrap();
        let ops = dev.end_staging();
        assert_eq!(ops.len(), 1);
        let programs_before = dev.stats().programs;
        sched
            .submit(CmdKind::charge(ops[0]), Priority::Gc, SimTime::ZERO)
            .unwrap();
        let end = sched.drain(&mut dev);
        assert_eq!(sched.pop_completions().len(), 1);
        assert!(end > SimTime::ZERO, "the charge must consume flash time");
        assert_eq!(
            dev.stats().programs,
            programs_before,
            "charging must not re-count the staged operation"
        );
    }

    #[test]
    fn batched_charges_and_visited_completions_match_the_one_by_one_path() {
        let cfg = SsdConfig::tiny().with_planes(2);
        let g = cfg.geometry;
        let ops: Vec<StagedOp> = (0..40u64)
            .map(|i| StagedOp {
                op: [FlashOp::Read, FlashOp::Program, FlashOp::Erase][(i % 3) as usize],
                chip: (i * 7) % g.total_chips(),
                channel: (((i * 7) % g.total_chips()) / u64::from(g.chips_per_channel)) as u32,
                planes: [0b01, 0b10, 0b11][(i % 5 % 3) as usize],
            })
            .collect();
        let at = SimTime::from_micros(3);

        let mut dev = FlashDevice::new(cfg);
        let mut one_by_one = IoScheduler::new(g, SchedConfig::default());
        for &op in &ops {
            one_by_one
                .submit(CmdKind::charge(op), Priority::Gc, at)
                .unwrap();
        }
        let end = one_by_one.drain(&mut dev);
        let expected = one_by_one.pop_completions();

        let mut dev = FlashDevice::new(cfg);
        let mut batched = IoScheduler::new(g, SchedConfig::default());
        let first = batched.submit_charges(&ops, Priority::Gc, at).unwrap();
        assert_eq!(first, CmdId(0));
        assert_eq!(batched.outstanding(), ops.len());
        let mut visited = Vec::new();
        assert_eq!(batched.drain_with(&mut dev, |c| visited.push(*c)), end);
        assert_eq!(visited, expected);
        assert_eq!(batched.stats(), one_by_one.stats());
        assert!(
            batched.pop_completions().is_empty(),
            "visited completions are not buffered as well"
        );

        // A batch either fits under the queue depth or submits nothing.
        let mut shallow = IoScheduler::new(g, SchedConfig::with_queue_depth(ops.len() - 1));
        assert_eq!(
            shallow.submit_charges(&ops, Priority::Gc, at),
            Err(SchedError::QueueFull {
                queue_depth: ops.len() - 1
            })
        );
        assert_eq!(shallow.outstanding(), 0);
        let next = shallow
            .submit_charges(&ops[1..], Priority::Host, at)
            .unwrap();
        assert_eq!(next, CmdId(0), "a refused batch consumes no ids");
    }

    #[test]
    fn visited_backlogs_leave_no_completion_sized_buffers_behind() {
        // 10 000 GC charges submitted, visited through an awaited host charge
        // and a drain — twice: the scheduler keeps nothing per *completion*
        // (a buffer of completion records the size of a drained backlog is
        // what made scheduled GC's memory grow before), and its queues keep
        // the capacity of one backlog, not of every backlog they ever held.
        const CHARGES: usize = 10_000;
        let cfg = SsdConfig::tiny();
        let g = cfg.geometry;
        let mut dev = FlashDevice::new(cfg);
        let mut sched = IoScheduler::new(g, SchedConfig::with_queue_depth(usize::MAX));
        let ops: Vec<StagedOp> = (0..CHARGES as u64)
            .map(|i| StagedOp {
                op: [FlashOp::Read, FlashOp::Program][(i % 2) as usize],
                chip: i % g.total_chips(),
                channel: ((i % g.total_chips()) / u64::from(g.chips_per_channel)) as u32,
                planes: 1,
            })
            .collect();
        let mut queue_capacity = Vec::new();
        for round in 1..=2 {
            let now = sched.now();
            sched.submit_charges(&ops, Priority::Gc, now).unwrap();
            let host = sched
                .submit_charges(&ops[..1], Priority::Host, now)
                .unwrap();
            let mut visited = 0;
            sched.run_until_complete_with(&mut dev, host, |_| visited += 1);
            sched.drain_with(&mut dev, |_| visited += 1);
            assert_eq!(visited, CHARGES + 1);
            assert_eq!(sched.stats().completed, (round * (CHARGES + 1)) as u64);
            assert_eq!(sched.completions.capacity(), 0);
            assert!(sched.events.is_empty());
            queue_capacity.push(
                sched
                    .chips
                    .iter()
                    .flat_map(|chip| &chip.queues)
                    .map(VecDeque::capacity)
                    .sum::<usize>(),
            );
        }
        // Amortised growth may double a queue past its longest backlog.
        assert!(queue_capacity[0] <= 2 * (CHARGES + 1));
        assert_eq!(
            queue_capacity[0], queue_capacity[1],
            "no growth per collection"
        );
    }

    #[test]
    fn run_until_complete_returns_the_requested_completion() {
        let (mut dev, mut sched) = setup();
        let t0 = SimTime::ZERO;
        // Queue two GC charges ahead of a host read on the same chip.
        for ppn in 2..4 {
            sched.submit(read(&dev, ppn), Priority::Gc, t0).unwrap();
        }
        let host = sched.submit(read(&dev, 0), Priority::Host, t0).unwrap();
        let completion = sched.run_until_complete(&mut dev, host);
        assert_eq!(completion.id, host);
        assert!(completion.completed > t0);
        // The host command bypassed the queued GC charges (gc_yields counts
        // one bypass decision per dispatch).
        assert!(sched.stats().gc_yields >= 1);
        sched.drain(&mut dev);
        assert_eq!(sched.pop_completions().len(), 3);
    }

    // Regression tests pinning the `schedule_wakeup` edge: a queued command
    // whose `submitted` equals the scheduler's current time must dispatch on
    // the next event-loop entry, not wait for a wakeup that the
    // `t > self.now` guard would refuse to schedule.
    #[test]
    fn submitted_equal_to_now_dispatches_without_a_wakeup() {
        let (mut dev, mut sched) = setup();
        let t0 = SimTime::from_micros(205);
        // Advance the scheduler's clock to exactly t0 with an empty window.
        sched.run_until(&mut dev, t0);
        assert_eq!(sched.now(), t0);
        sched.submit(read(&dev, 0), Priority::Host, t0).unwrap();
        let end = sched.drain(&mut dev);
        let done = sched.pop_completions();
        assert_eq!(done.len(), 1, "submitted == now must not stall");
        assert_eq!(done[0].issued, t0);
        assert!(end > t0);
    }

    #[test]
    fn run_until_exactly_at_submit_time_issues_the_command() {
        let (mut dev, mut sched) = setup();
        let late = SimTime::from_micros(100);
        sched.submit(read(&dev, 0), Priority::Host, late).unwrap();
        // A window ending exactly at the submit time fires the wakeup and
        // issues the command (completion lands beyond the window).
        sched.run_until(&mut dev, late);
        assert_eq!(sched.pop_completions().len(), 0);
        sched.drain(&mut dev);
        let done = sched.pop_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].issued, late);
    }

    #[test]
    fn earlier_cross_class_arrival_supersedes_a_pending_wakeup() {
        let (mut dev, mut sched) = setup();
        let t0 = SimTime::ZERO;
        let far = t0 + ssd_sim::Duration::from_millis(2);
        let near = t0 + ssd_sim::Duration::from_micros(10);
        // A far-future host command first: run_until schedules its wakeup.
        sched.submit(read(&dev, 0), Priority::Host, far).unwrap();
        sched.run_until(&mut dev, t0);
        // Then a nearer GC command on the same chip: its earlier wakeup must
        // not be suppressed by the pending far one.
        sched.submit(read(&dev, 1), Priority::Gc, near).unwrap();
        sched.drain(&mut dev);
        let done = sched.pop_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].priority, Priority::Gc);
        assert_eq!(done[0].issued, near, "GC command must issue at its time");
        assert_eq!(done[1].issued, far.max(done[0].completed));
    }

    #[test]
    fn plane_aware_dispatch_overlaps_planes_and_keeps_per_plane_fifo() {
        // Two planes per chip: same-chip commands on different planes issue
        // concurrently, same-plane commands stay FIFO behind each other.
        let cfg = SsdConfig::tiny().with_planes(2);
        let mut dev = FlashDevice::new(cfg);
        let g = cfg.geometry;
        let mut sched = IoScheduler::new(g, SchedConfig::default());
        // (chip 0, plane 0, block 0, page 0) and (chip 0, plane 1, block 0,
        // page 0): programs submitted together at t0.
        let p0 = 0u64;
        let p1 = u64::from(g.blocks_per_plane) * u64::from(g.pages_per_block);
        let t0 = SimTime::ZERO;
        for ppn in [p0, p1] {
            sched
                .submit(charge(&dev, FlashOp::Program, ppn), Priority::Host, t0)
                .unwrap();
        }
        sched.drain(&mut dev);
        let done = sched.pop_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(
            done[0].queueing(),
            ssd_sim::Duration::ZERO,
            "plane-0 command issues immediately"
        );
        assert_eq!(
            done[1].queueing(),
            ssd_sim::Duration::ZERO,
            "the plane-1 command must not queue behind plane 0"
        );
        // NAND phases overlap: completions are one bus slot apart, not one
        // program apart.
        let spread = done[1].completed - done[0].completed;
        assert!(
            spread < ssd_sim::Duration::from_micros(40),
            "plane NAND phases must overlap (spread {spread})"
        );
        // Same-plane follow-up stays FIFO and queues.
        for ppn in [p0, p0 + 1] {
            sched
                .submit(read(&dev, ppn), Priority::Host, sched.now())
                .unwrap();
        }
        sched.drain(&mut dev);
        let reads = sched.pop_completions();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].kind, read(&dev, p0));
        assert!(
            reads[1].queueing() > ssd_sim::Duration::ZERO,
            "same-plane reads serialise"
        );
    }

    #[test]
    fn multi_plane_charges_occupy_every_plane_in_the_mask() {
        let cfg = SsdConfig::tiny().with_planes(2);
        let mut dev = FlashDevice::new(cfg);
        let g = cfg.geometry;
        let mut sched = IoScheduler::new(g, SchedConfig::default());
        let p0 = 0u64;
        let p1 = u64::from(g.blocks_per_plane) * u64::from(g.pages_per_block);
        // Stage a fused two-plane program, then charge it through the
        // scheduler: a host read on either plane must queue behind it.
        dev.begin_staging();
        dev.program_pages(
            &[(p0, OobData::mapped(1)), (p1, OobData::mapped(2))],
            SimTime::ZERO,
        )
        .unwrap();
        let ops = dev.end_staging();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].planes, 0b11);
        sched
            .submit(CmdKind::charge(ops[0]), Priority::Gc, SimTime::ZERO)
            .unwrap();
        // Issue the charge (idle chip: it dispatches immediately), then a
        // host read against one of its planes.
        sched.run_until(&mut dev, SimTime::ZERO);
        sched
            .submit(read(&dev, p1), Priority::Host, SimTime::ZERO)
            .unwrap();
        sched.drain(&mut dev);
        let done = sched.pop_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].priority, Priority::Gc, "charge was already issued");
        assert!(
            done[1].queueing() > ssd_sim::Duration::ZERO,
            "the read must wait for the fused charge to release its plane"
        );
    }

    #[test]
    fn tracing_emits_lifecycle_spans_and_arbitration_instants() {
        let mut dev = FlashDevice::new(SsdConfig::tiny());
        let bound = 2;
        let mut sched = IoScheduler::new(
            *dev.geometry(),
            SchedConfig {
                queue_depth: 64,
                gc_starvation_bound: bound,
            },
        );
        dev.set_tracing(true);
        let t0 = SimTime::ZERO;
        sched.submit(read(&dev, 7), Priority::Gc, t0).unwrap();
        for ppn in 0..6 {
            sched.submit(read(&dev, ppn), Priority::Host, t0).unwrap();
        }
        sched.drain(&mut dev);
        let events = dev.take_trace();
        let lifecycles: Vec<_> = events
            .iter()
            .filter_map(|e| match e.data {
                TraceData::CmdLifecycle { gc, issued, op, .. } => {
                    assert_eq!(op, FlashOp::Read);
                    assert!(e.start <= issued && issued <= e.end);
                    Some(gc)
                }
                _ => None,
            })
            .collect();
        assert_eq!(lifecycles.len(), 7, "one span per command");
        assert_eq!(lifecycles.iter().filter(|&&gc| gc).count(), 1);
        let yields = events
            .iter()
            .filter(|e| matches!(e.data, TraceData::GcYield { .. }))
            .count();
        let forced = events
            .iter()
            .filter(|e| matches!(e.data, TraceData::GcForced { .. }))
            .count();
        assert_eq!(yields as u64, sched.stats().gc_yields);
        assert_eq!(forced as u64, sched.stats().gc_forced);
        assert!(events
            .iter()
            .any(|e| matches!(e.data, TraceData::QueueDepth { .. })));
    }

    #[test]
    fn stats_summaries_cover_all_completions() {
        let (mut dev, mut sched) = setup();
        for ppn in 0..4 {
            sched
                .submit(read(&dev, ppn), Priority::Host, SimTime::ZERO)
                .unwrap();
        }
        sched.drain(&mut dev);
        let done = sched.pop_completions();
        assert_eq!(sched.stats().submitted, 4);
        assert_eq!(sched.stats().completed, 4);
        let stats = sched.stats();
        assert_eq!(stats.queueing.count, 4);
        assert_eq!(stats.service.count, 4);
        // Four reads of one chip: each waits for the ones before it.
        let service: Duration = done.iter().map(Completion::service).sum();
        assert_eq!(stats.service.total, service);
        assert_eq!(stats.queueing.max, done[3].queueing());
        assert!(stats.queueing.total > stats.queueing.max);
    }
}
