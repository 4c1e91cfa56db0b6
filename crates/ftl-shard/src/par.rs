//! The thread-parallel execution backend, on batched SQ/CQ rings.
//!
//! [`ShardedFtl::run_threaded`] replaces the simulated backend's serial loop
//! with real host concurrency while keeping the *simulated-time* semantics
//! bit-for-bit identical:
//!
//! * every shard's FTL and its [`SerialEngine`] move (as exclusive borrows)
//!   onto one of `workers` dedicated worker threads,
//! * a dispatcher on the calling thread *stages* each shard's work items
//!   into a per-shard submission ring and ships them as one
//!   `Vec<WorkItem>` batch per channel send — one cross-core round-trip
//!   amortised over the whole eligible window instead of one per request —
//!   preserving the [`crate::ShardMap`] striping and each shard's FIFO
//!   order exactly as the simulated backend's dispatch loop would,
//! * each worker executes a batch through the shard engine's ring entry
//!   point ([`ssd_sched::ShardEngine::dispatch_batch`], serially identical
//!   to N single dispatches) and answers with one completion batch, so
//!   every per-request completion time, statistic and device counter comes
//!   out equal to the simulated backend's — only host wall-clock changes.
//!
//! # Ring flow and the batching knobs
//!
//! [`RingConfig`] sets the two depths: `sq_depth` bounds a shard's staging
//! ring (a full ring auto-flushes), `channel_depth` bounds each worker's
//! batch channel (backpressure against a runaway open-loop dispatch).
//! [`ThreadedDispatcher::dispatch`] only stages; staged work is flushed to
//! the workers when a shard's ring fills and, unconditionally, at the top
//! of every [`ThreadedDispatcher::wait_resolved`] call — the host loop's
//! single blocking point, so everything a blocked caller could be waiting
//! on is always in flight. `sq_depth = 1` degenerates to the historical
//! piece-at-a-time behaviour.
//!
//! # Determinism (the reorder buffer)
//!
//! Worker replies arrive in wall-clock order, which varies run to run. The
//! dispatcher therefore never consumes a reply directly: completed pieces
//! park in a reorder buffer keyed by their global dispatch sequence number
//! and are *applied* to the host-visible bookkeeping strictly in dispatch
//! order, and `wait_resolved` applies only as many pieces as it takes to
//! resolve the next request. Every host-visible value — resolution order,
//! [`ThreadedDispatcher::lower_bound`], and hence the host loop's decisions
//! and the batch boundaries themselves — is then a pure function of the
//! dispatch history, so traced batch-size counters are byte-identical run
//! to run.
//!
//! Shards share no state, so the only cross-thread coupling is the request /
//! completion traffic itself. The caller's host model (the harness's
//! `run_threaded_qd`) *does* couple shards through completion times; the
//! dispatcher therefore exposes conservative completion **lower bounds**
//! ([`ThreadedDispatcher::lower_bound`]) so the host loop can prove a
//! decision's outcome before all in-flight completions are known — classic
//! conservative parallel discrete-event simulation, with the per-shard FIFO
//! chain providing the lookahead. The bound stays valid for staged
//! (not-yet-flushed) pieces: a shard executes its pieces in dispatch order,
//! so no piece can complete before the shard's latest applied completion.
//!
//! Scheduled garbage collection needs no extra machinery here: a shard's
//! `GcEngine` lives inside its FTL and is pumped by the FTL's own submit
//! path (staged jobs drain as host requests charge through the shard's
//! `IoScheduler`), so the worker thread pumps background GC between host
//! requests simply by executing them.
//!
//! # Panic safety
//!
//! A worker that panics mid-batch (a poisoned FTL, an allocation bug)
//! forwards the panic payload to the dispatcher instead of deadlocking it:
//! the dispatcher re-raises the panic on the calling thread the next time it
//! needs a completion, the remaining workers exit as their channels close,
//! and `std::thread::scope` unwinds cleanly.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender, SyncSender};

use ftl_base::{Ftl, HostOp, HostRequest, Lpn};
use ssd_sched::{CompletionBatch, SerialEngine, ShardEngine, SubmissionBatch};
use ssd_sim::{SimTime, TraceData, TraceSink};

use crate::map::ShardMap;
use crate::sharded::ShardedFtl;

/// Identifies one host request dispatched through a [`ThreadedDispatcher`]
/// (dense, in dispatch order).
pub type ReqId = usize;

/// The ring depths of a threaded run — the backend's two batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Submission-ring depth per shard: staged work items auto-flush to the
    /// shard's worker when the ring fills. `1` degenerates to the
    /// historical piece-at-a-time dispatch.
    pub sq_depth: usize,
    /// Bound on each worker's batch channel, in batches. Deep enough that
    /// workers keep a backlog while the dispatcher runs ahead, small enough
    /// to backpressure a runaway open-loop dispatch instead of buffering
    /// the whole workload.
    pub channel_depth: usize,
}

impl RingConfig {
    /// The default ring: submission windows up to 64 pieces per shard, up
    /// to 64 batches queued per worker.
    pub const DEFAULT: RingConfig = RingConfig {
        sq_depth: 64,
        channel_depth: 64,
    };
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig::DEFAULT
    }
}

/// One shard-local piece of a host request, staged for (or in flight to) a
/// worker.
struct WorkItem {
    /// Global dispatch sequence number (index into the dispatch log).
    seq: usize,
    /// The owning request.
    req: ReqId,
    local_lpn: Lpn,
    pages: u32,
    op: HostOp,
    /// Host-level issue time; the shard's engine applies its own
    /// serialisation on top (`max(issue, free_at)`).
    issue: SimTime,
}

/// One flushed submission window: every staged piece of one shard, shipped
/// as a single channel send.
struct WorkBatch {
    shard: usize,
    items: Vec<WorkItem>,
}

/// One completed piece inside a [`Reply::Done`] completion batch.
/// `gc_events` / `gc_complete_events` count the GC history entries the
/// shard appended while executing it (the dispatcher uses the counts to
/// rebuild the aggregate event history in dispatch order).
struct ItemDone {
    seq: usize,
    req: ReqId,
    completion: SimTime,
    gc_events: usize,
    gc_complete_events: usize,
}

/// A worker's report back to the dispatcher: one completion batch per
/// executed submission batch.
enum Reply {
    /// The whole batch finished, entry `i` answering submission entry `i`.
    Done(Vec<ItemDone>),
    /// The worker panicked executing a batch; the payload is re-raised on
    /// the dispatcher's thread.
    Panicked(Box<dyn std::any::Any + Send + 'static>),
}

/// Dispatch-log entry: which shard ran the `seq`-th piece and how many GC
/// history events it appended (filled in when the piece is applied).
struct SegRecord {
    shard: usize,
    gc_events: usize,
    gc_complete_events: usize,
}

/// A completed piece parked in the reorder buffer, waiting for every
/// earlier piece to be applied first.
struct ParkedPiece {
    req: ReqId,
    completion: SimTime,
    gc_events: usize,
    gc_complete_events: usize,
}

/// Bookkeeping for one in-flight request.
struct ReqState {
    /// `(shard, host_issue)` of every still-unresolved piece.
    pending: Vec<(usize, SimTime)>,
    /// Max completion over the applied pieces (the request's completion
    /// once `pending` empties).
    completion: SimTime,
}

/// The dispatcher half of a threaded run: stages host requests into
/// per-shard submission rings, ships them to the worker threads in batches,
/// and resolves their completion times back in deterministic dispatch
/// order, preserving per-shard FIFO order.
///
/// Handed by [`ShardedFtl::run_threaded`] to its body closure. The body
/// dispatches requests ([`ThreadedDispatcher::dispatch`]), blocks for
/// resolved completions ([`ThreadedDispatcher::wait_resolved`]), and may
/// consult [`ThreadedDispatcher::lower_bound`] to prove that an unresolved
/// completion cannot precede some already-known time.
pub struct ThreadedDispatcher {
    map: ShardMap,
    ring: RingConfig,
    work_txs: Vec<SyncSender<WorkBatch>>,
    /// shard index → worker index (round-robin).
    shard_worker: Vec<usize>,
    replies: Receiver<Reply>,
    reqs: Vec<ReqState>,
    /// Requests dispatched but not yet fully resolved.
    outstanding: usize,
    /// Per shard: the staged submission window not yet shipped.
    staging: Vec<Vec<WorkItem>>,
    /// Per shard: completion time of its latest *applied* piece. Workers
    /// resolve each shard's pieces in FIFO order and engine completions are
    /// non-decreasing along that order, so this is a valid lower bound for
    /// every later piece on the shard, staged or in flight.
    shard_resolved_free_at: Vec<SimTime>,
    log: Vec<SegRecord>,
    /// Reorder buffer, indexed by `seq`: completed pieces that arrived from
    /// the workers but have not been applied yet.
    parked: Vec<Option<ParkedPiece>>,
    /// Length of the applied prefix: every piece with `seq < applied` has
    /// been folded into the host-visible bookkeeping.
    applied: usize,
    /// Fully resolved requests not yet returned by `wait_resolved`.
    ready: VecDeque<(ReqId, SimTime)>,
}

impl ThreadedDispatcher {
    /// The LPN routing map of the frontend this dispatcher feeds.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The ring depths this run was configured with.
    pub fn ring(&self) -> RingConfig {
        self.ring
    }

    /// Number of requests dispatched and not yet fully resolved.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Dispatches one host request at host-level issue time `issue`,
    /// splitting it into per-shard pieces exactly like the simulated
    /// backend's dispatch loop and staging each piece on its shard's
    /// submission ring (a full ring flushes to the worker immediately).
    /// Returns the request's id; its completion arrives later via
    /// [`ThreadedDispatcher::wait_resolved`].
    pub fn dispatch(&mut self, request: HostRequest, issue: SimTime) -> ReqId {
        let req = self.reqs.len();
        let mut pending = Vec::with_capacity(1);
        // Mirror the simulated dispatch fast path: single-page requests and
        // one-shard frontends produce exactly one piece.
        if request.pages == 1 || self.map.shards() == 1 {
            let shard = self.map.shard_of(request.lpn);
            let local = self.map.local_lpn(request.lpn);
            self.stage_piece(req, shard, local, request.pages, request.op, issue);
            pending.push((shard, issue));
        } else {
            for seg in self.map.split(request.lpn, request.pages) {
                self.stage_piece(req, seg.shard, seg.local_lpn, seg.pages, request.op, issue);
                pending.push((seg.shard, issue));
            }
        }
        self.reqs.push(ReqState {
            pending,
            // Every piece completes at or after its host issue time, so the
            // request completion (their max) is at least `issue` — the same
            // `now.max(...)` the simulated dispatch applies.
            completion: issue,
        });
        self.outstanding += 1;
        req
    }

    /// A conservative lower bound on `req`'s completion time: the bound
    /// never exceeds the completion eventually reported, and it tightens as
    /// earlier pieces on the same shards are applied. For a resolved
    /// request it equals the exact completion.
    pub fn lower_bound(&self, req: ReqId) -> SimTime {
        let state = &self.reqs[req];
        let mut bound = state.completion;
        for &(shard, issue) in &state.pending {
            bound = bound.max(issue).max(self.shard_resolved_free_at[shard]);
        }
        bound
    }

    /// Blocks until some request is fully resolved and returns
    /// `(request, completion)`.
    ///
    /// Flushes every shard's staged submission window first (so everything
    /// the caller could be waiting on is in flight), then applies parked
    /// completions in dispatch order — only as many as it takes to resolve
    /// the next request, so the host-visible state after each call is a
    /// pure function of the dispatch history, not of reply timing.
    ///
    /// # Panics
    ///
    /// Re-raises a worker's panic, and panics if called with no requests in
    /// flight or if the workers died without reporting.
    pub fn wait_resolved(&mut self) -> (ReqId, SimTime) {
        self.flush_all();
        loop {
            if let Some(done) = self.ready.pop_front() {
                return done;
            }
            assert!(
                self.outstanding > 0,
                "wait_resolved called with no requests in flight"
            );
            if self.apply_next() {
                continue;
            }
            match self.replies.recv() {
                Ok(reply) => self.absorb(reply),
                Err(_) => panic!("worker threads exited with requests still in flight"),
            }
        }
    }

    /// Applies the next piece in dispatch order if its completion has
    /// arrived. Returns whether a piece was applied.
    fn apply_next(&mut self) -> bool {
        let seq = self.applied;
        let Some(slot) = self.parked.get_mut(seq) else {
            return false;
        };
        let Some(piece) = slot.take() else {
            return false;
        };
        self.applied += 1;
        let record = &mut self.log[seq];
        record.gc_events = piece.gc_events;
        record.gc_complete_events = piece.gc_complete_events;
        let shard = record.shard;
        debug_assert!(
            piece.completion >= self.shard_resolved_free_at[shard],
            "per-shard completions must resolve in FIFO order"
        );
        self.shard_resolved_free_at[shard] = piece.completion;
        let state = &mut self.reqs[piece.req];
        let pos = state
            .pending
            .iter()
            .position(|&(s, _)| s == shard)
            .expect("applied piece must be pending on its shard");
        state.pending.swap_remove(pos);
        state.completion = state.completion.max(piece.completion);
        if state.pending.is_empty() {
            self.outstanding -= 1;
            self.ready.push_back((piece.req, state.completion));
        }
        true
    }

    /// Parks one worker reply's completions in the reorder buffer.
    fn absorb(&mut self, reply: Reply) {
        match reply {
            Reply::Done(items) => {
                for item in items {
                    debug_assert!(self.parked[item.seq].is_none(), "piece completed twice");
                    self.parked[item.seq] = Some(ParkedPiece {
                        req: item.req,
                        completion: item.completion,
                        gc_events: item.gc_events,
                        gc_complete_events: item.gc_complete_events,
                    });
                }
            }
            Reply::Panicked(payload) => resume_unwind(payload),
        }
    }

    /// Stages one piece on its shard's submission ring, flushing the ring
    /// if it reaches the configured depth.
    fn stage_piece(
        &mut self,
        req: ReqId,
        shard: usize,
        local_lpn: Lpn,
        pages: u32,
        op: HostOp,
        issue: SimTime,
    ) {
        let seq = self.log.len();
        self.log.push(SegRecord {
            shard,
            gc_events: 0,
            gc_complete_events: 0,
        });
        self.parked.push(None);
        self.staging[shard].push(WorkItem {
            seq,
            req,
            local_lpn,
            pages,
            op,
            issue,
        });
        if self.staging[shard].len() >= self.ring.sq_depth {
            self.flush_shard(shard);
        }
    }

    /// Ships one shard's staged submission window as a single batch.
    fn flush_shard(&mut self, shard: usize) {
        if self.staging[shard].is_empty() {
            return;
        }
        let items = std::mem::replace(
            &mut self.staging[shard],
            Vec::with_capacity(self.ring.sq_depth),
        );
        let batch = WorkBatch { shard, items };
        if self.work_txs[self.shard_worker[shard]].send(batch).is_err() {
            self.propagate_worker_death();
        }
    }

    /// Ships every shard's staged window, in shard order.
    fn flush_all(&mut self) {
        for shard in 0..self.staging.len() {
            self.flush_shard(shard);
        }
    }

    /// A worker's request channel closed underneath us: surface its panic if
    /// it reported one, otherwise fail loudly. Never returns.
    fn propagate_worker_death(&mut self) -> ! {
        // The worker sends its `Panicked` reply *before* dropping its
        // receiver, so observing the closed channel guarantees the reply is
        // already in the queue.
        while let Ok(reply) = self.replies.try_recv() {
            if let Reply::Panicked(payload) = reply {
                resume_unwind(payload);
            }
        }
        panic!("a worker thread terminated unexpectedly");
    }

    /// Ends the session: verifies the body resolved everything, closes the
    /// worker channels and returns the dispatch log for the stats fold.
    fn finish(self) -> Vec<SegRecord> {
        assert!(
            self.outstanding == 0 && self.ready.is_empty(),
            "threaded run body returned with unresolved requests in flight"
        );
        debug_assert_eq!(
            self.applied,
            self.log.len(),
            "every dispatched piece resolves before the body may return"
        );
        debug_assert!(
            self.staging.iter().all(Vec::is_empty),
            "resolved everything implies nothing is still staged"
        );
        drop(self.work_txs);
        // Defensive: surface a panic a worker reported after its last
        // resolved piece (cannot normally happen once everything resolved).
        while let Ok(reply) = self.replies.try_recv() {
            if let Reply::Panicked(payload) = reply {
                resume_unwind(payload);
            }
        }
        self.log
    }
}

/// One worker thread's loop: execute each submission batch on the owned
/// shard's FTL through the shard engine's ring entry point, answer with one
/// completion batch, and forward panics instead of dying silently.
fn worker_loop<F: Ftl>(
    work: Receiver<WorkBatch>,
    replies: Sender<Reply>,
    mut owned: Vec<(usize, &mut F, &mut SerialEngine)>,
) {
    while let Ok(batch) = work.recv() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (_, ftl, engine) = owned
                .iter_mut()
                .find(|(shard, _, _)| *shard == batch.shard)
                .expect("work batch routed to the worker owning its shard");
            let items = &batch.items;
            let sq: SubmissionBatch = items.iter().map(|i| i.issue).collect();
            let mut cq = CompletionBatch::with_capacity(items.len());
            let mut gc_deltas: Vec<(usize, usize)> = Vec::with_capacity(items.len());
            // Dispatch through the ShardEngine ring interface — serially
            // identical to the per-request seam the simulated backend uses.
            let engine: &mut dyn ShardEngine = *engine;
            engine.dispatch_batch(
                &sq,
                &mut |index, t| {
                    let item = &items[index];
                    let events_before = ftl.stats().gc_events.len();
                    let completes_before = ftl.stats().gc_complete_events.len();
                    let completion = match item.op {
                        HostOp::Read => ftl.read(item.local_lpn, item.pages, t),
                        HostOp::Write => ftl.write(item.local_lpn, item.pages, t),
                    };
                    gc_deltas.push((
                        ftl.stats().gc_events.len() - events_before,
                        ftl.stats().gc_complete_events.len() - completes_before,
                    ));
                    completion
                },
                &mut cq,
            );
            // One coalescing counter per executed batch, timestamped at the
            // batch's first engine issue. Worker-local buffer, so no
            // synchronisation; batch boundaries are deterministic, so the
            // traced stream is too.
            if let Some(&(first_issue, _)) = cq.entries().first() {
                if let Some(sink) = ftl.device_mut().trace_sink() {
                    sink.counter(
                        first_issue,
                        TraceData::RingBatch {
                            entries: items.len() as u32,
                        },
                    );
                }
            }
            items
                .iter()
                .zip(cq.entries())
                .zip(&gc_deltas)
                .map(
                    |((item, &(_, completion)), &(gc_events, gc_complete_events))| ItemDone {
                        seq: item.seq,
                        req: item.req,
                        completion,
                        gc_events,
                        gc_complete_events,
                    },
                )
                .collect::<Vec<_>>()
        }));
        match outcome {
            Ok(items) => {
                if replies.send(Reply::Done(items)).is_err() {
                    return; // dispatcher is gone (unwinding); stop quietly
                }
            }
            Err(payload) => {
                // After a panic the shard's state may be inconsistent;
                // report and stop. The dispatcher re-raises on its thread.
                let _ = replies.send(Reply::Panicked(payload));
                return;
            }
        }
    }
}

impl<F: Ftl> ShardedFtl<F> {
    /// Runs `body` with this frontend's shards distributed across `workers`
    /// dedicated worker threads (clamped to the shard count) under the
    /// default [`RingConfig`], producing simulated-time results
    /// **bit-for-bit identical** to driving the same request sequence
    /// through the simulated backend on one thread.
    ///
    /// `body` receives a [`ThreadedDispatcher`] and must resolve every
    /// request it dispatches before returning. After `body` returns, the
    /// workers are joined and the shards' statistics growth is folded into
    /// the frontend's aggregate exactly as the simulated dispatch loop would
    /// have: scalar counters telescope per shard, and the GC event histories
    /// are interleaved in dispatch order.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, if `body` leaves requests unresolved, or
    /// (re-raised) if a worker thread panicked.
    pub fn run_threaded<R>(
        &mut self,
        workers: usize,
        body: impl FnOnce(&mut ThreadedDispatcher) -> R,
    ) -> R {
        self.run_threaded_with(workers, RingConfig::default(), body)
    }

    /// [`ShardedFtl::run_threaded`] with explicit ring depths. The ring
    /// configuration changes host wall-clock behaviour only — batch
    /// boundaries, never simulated-time results.
    ///
    /// # Panics
    ///
    /// Additionally panics if either ring depth is zero.
    pub fn run_threaded_with<R>(
        &mut self,
        workers: usize,
        ring: RingConfig,
        body: impl FnOnce(&mut ThreadedDispatcher) -> R,
    ) -> R {
        assert!(workers > 0, "need at least one worker thread");
        assert!(ring.sq_depth > 0, "submission ring depth must be positive");
        assert!(ring.channel_depth > 0, "channel depth must be positive");
        let shard_count = self.shards.len();
        let workers = workers.min(shard_count);
        let map = self.map;

        // Pre-run marks for the stats fold.
        let snaps: Vec<_> = self.shards.iter().map(|s| s.stats().snapshot()).collect();
        let pre_events: Vec<usize> = self
            .shards
            .iter()
            .map(|s| s.stats().gc_events.len())
            .collect();
        let pre_completes: Vec<usize> = self
            .shards
            .iter()
            .map(|s| s.stats().gc_complete_events.len())
            .collect();

        // Distribute (shard, FTL, engine) round-robin across the workers.
        let engines = self.engines.engines_mut();
        let mut bundles: Vec<Vec<(usize, &mut F, &mut SerialEngine)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (shard, (ftl, engine)) in self.shards.iter_mut().zip(engines.iter_mut()).enumerate() {
            bundles[shard % workers].push((shard, ftl, engine));
        }
        let shard_worker: Vec<usize> = (0..shard_count).map(|s| s % workers).collect();

        let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
        let mut work_txs = Vec::with_capacity(workers);
        let mut work_rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = std::sync::mpsc::sync_channel::<WorkBatch>(ring.channel_depth);
            work_txs.push(tx);
            work_rxs.push(rx);
        }

        let (result, log) = std::thread::scope(|scope| {
            for (work_rx, bundle) in work_rxs.into_iter().zip(bundles) {
                let replies = reply_tx.clone();
                scope.spawn(move || worker_loop(work_rx, replies, bundle));
            }
            // Workers hold the only remaining senders: `replies.recv()`
            // disconnects exactly when every worker has exited.
            drop(reply_tx);
            let mut dispatcher = ThreadedDispatcher {
                map,
                ring,
                work_txs,
                shard_worker,
                replies: reply_rx,
                reqs: Vec::new(),
                outstanding: 0,
                staging: (0..shard_count)
                    .map(|_| Vec::with_capacity(ring.sq_depth))
                    .collect(),
                shard_resolved_free_at: vec![SimTime::ZERO; shard_count],
                log: Vec::new(),
                parked: Vec::new(),
                applied: 0,
                ready: VecDeque::new(),
            };
            let result = body(&mut dispatcher);
            (result, dispatcher.finish())
        });

        // Fold the shards' statistics growth into the aggregate. Scalar
        // counters telescope (the sum of per-piece deltas over a run equals
        // final minus initial), so merging each shard's whole-run delta
        // reproduces the simulated backend's per-piece merges exactly; the
        // GC event histories are order-sensitive, so rebuild their tails
        // interleaved in dispatch order from the per-shard histories.
        let mut events_tail: Vec<SimTime> = Vec::new();
        let mut completes_tail: Vec<SimTime> = Vec::new();
        let mut events_cursor = pre_events;
        let mut completes_cursor = pre_completes;
        for record in &log {
            let stats = self.shards[record.shard].stats();
            let ev = events_cursor[record.shard];
            events_tail.extend_from_slice(&stats.gc_events[ev..ev + record.gc_events]);
            events_cursor[record.shard] += record.gc_events;
            let cp = completes_cursor[record.shard];
            completes_tail
                .extend_from_slice(&stats.gc_complete_events[cp..cp + record.gc_complete_events]);
            completes_cursor[record.shard] += record.gc_complete_events;
        }
        let base_events = self.merged.gc_events.len();
        let base_completes = self.merged.gc_complete_events.len();
        for (shard, snap) in snaps.iter().enumerate() {
            debug_assert_eq!(
                events_cursor[shard],
                self.shards[shard].stats().gc_events.len(),
                "every GC event must be attributed to exactly one dispatched piece"
            );
            self.merged.merge_delta(snap, self.shards[shard].stats());
        }
        self.merged.gc_events.truncate(base_events);
        self.merged.gc_events.extend_from_slice(&events_tail);
        self.merged.gc_complete_events.truncate(base_completes);
        self.merged
            .gc_complete_events
            .extend_from_slice(&completes_tail);

        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_base::FtlStats;
    use ssd_sim::{DeviceStats, Duration, FlashDevice, SsdConfig};

    /// A minimal deterministic FTL: fixed service time per page, optional
    /// panic trigger, GC event every few writes (to exercise the event
    /// interleave fold).
    #[derive(Debug)]
    struct StubFtl {
        dev: FlashDevice,
        stats: FtlStats,
        service: Duration,
        writes_seen: u64,
        panic_on_request: Option<u64>,
        requests_seen: u64,
    }

    impl StubFtl {
        fn new(service_us: u64) -> Self {
            StubFtl {
                dev: FlashDevice::new(SsdConfig::tiny()),
                stats: FtlStats::new(),
                service: Duration::from_micros(service_us),
                writes_seen: 0,
                panic_on_request: None,
                requests_seen: 0,
            }
        }

        fn serve(&mut self, pages: u32, now: SimTime) -> SimTime {
            self.requests_seen += 1;
            if self.panic_on_request == Some(self.requests_seen) {
                panic!("stub FTL poisoned on purpose");
            }
            now + Duration::from_nanos(self.service.as_nanos() * u64::from(pages))
        }
    }

    impl Ftl for StubFtl {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn read(&mut self, _lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
            self.stats.host_read_pages += u64::from(pages);
            self.serve(pages, now)
        }
        fn write(&mut self, _lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
            self.stats.host_write_pages += u64::from(pages);
            self.writes_seen += 1;
            if self.writes_seen.is_multiple_of(3) {
                self.stats.record_gc(now);
            }
            self.serve(pages, now)
        }
        fn stats(&self) -> &FtlStats {
            &self.stats
        }
        fn reset_stats(&mut self) {
            self.stats = FtlStats::new();
        }
        fn logical_pages(&self) -> u64 {
            1 << 20
        }
        fn device(&self) -> &FlashDevice {
            &self.dev
        }
        fn device_mut(&mut self) -> &mut FlashDevice {
            &mut self.dev
        }
        fn device_stats(&self) -> DeviceStats {
            DeviceStats::new()
        }
    }

    fn frontend(shards: usize) -> ShardedFtl<StubFtl> {
        ShardedFtl::from_shards((0..shards).map(|_| StubFtl::new(10)).collect())
    }

    /// Drives `requests` through the simulated backend and a threaded run
    /// under `ring`, asserting bit-identical completions and stats.
    fn assert_ring_matches_simulated(requests: &[HostRequest], shards: usize, ring: RingConfig) {
        let mut simulated = frontend(shards);
        let sim_done: Vec<SimTime> = requests
            .iter()
            .map(|r| simulated.submit(*r, SimTime::ZERO))
            .collect();

        let mut threaded = frontend(shards);
        let thr_done: Vec<SimTime> = threaded.run_threaded_with(2.min(shards), ring, |d| {
            let ids: Vec<ReqId> = requests
                .iter()
                .map(|r| d.dispatch(*r, SimTime::ZERO))
                .collect();
            let mut done = vec![SimTime::ZERO; ids.len()];
            while d.outstanding() > 0 {
                let (req, completion) = d.wait_resolved();
                done[req] = completion;
            }
            ids.into_iter().map(|id| done[id]).collect()
        });

        assert_eq!(
            sim_done, thr_done,
            "completions must match bit for bit under {ring:?}"
        );
        assert_eq!(
            simulated.stats().host_read_pages,
            threaded.stats().host_read_pages
        );
        assert_eq!(
            simulated.stats().gc_events,
            threaded.stats().gc_events,
            "GC event history must interleave identically under {ring:?}"
        );
    }

    fn mixed_requests(n: u64) -> Vec<HostRequest> {
        (0..n)
            .map(|i| {
                if i % 4 == 0 {
                    HostRequest::write(i % 16, 1)
                } else {
                    HostRequest::read((i * 7) % 16, 1)
                }
            })
            .collect()
    }

    #[test]
    fn threaded_completions_match_simulated_dispatch() {
        // Drive the identical single-page request sequence through both
        // backends and compare every completion and the merged stats.
        let requests = mixed_requests(64);

        let mut simulated = frontend(4);
        let sim_done: Vec<SimTime> = requests
            .iter()
            .map(|r| simulated.submit(*r, SimTime::ZERO))
            .collect();

        let mut threaded = frontend(4);
        let thr_done: Vec<SimTime> = threaded.run_threaded(2, |d| {
            let ids: Vec<ReqId> = requests
                .iter()
                .map(|r| d.dispatch(*r, SimTime::ZERO))
                .collect();
            let mut done = vec![SimTime::ZERO; ids.len()];
            while d.outstanding() > 0 {
                let (req, completion) = d.wait_resolved();
                done[req] = completion;
            }
            ids.into_iter().map(|id| done[id]).collect()
        });

        assert_eq!(sim_done, thr_done, "completions must match bit for bit");
        assert_eq!(
            simulated.stats().host_read_pages,
            threaded.stats().host_read_pages
        );
        assert_eq!(
            simulated.stats().gc_events,
            threaded.stats().gc_events,
            "GC event history must interleave identically"
        );
        for shard in 0..4 {
            assert_eq!(
                simulated.engines().engine(shard).dispatched(),
                threaded.engines().engine(shard).dispatched(),
                "per-engine dispatch counts must match"
            );
            assert_eq!(
                simulated.engines().free_at(shard),
                threaded.engines().free_at(shard),
                "engine busy-until state must match"
            );
        }
    }

    #[test]
    fn degenerate_ring_depth_one_still_completes() {
        // sq_depth = 1 flushes every piece as its own batch (the historical
        // piece-at-a-time behaviour) and channel_depth = 1 forces the
        // dispatcher to backpressure on every send: the slowest legal ring
        // must still complete and match the simulated backend exactly.
        assert_ring_matches_simulated(
            &mixed_requests(48),
            3,
            RingConfig {
                sq_depth: 1,
                channel_depth: 1,
            },
        );
    }

    #[test]
    fn oversized_ring_depth_batches_whole_windows() {
        // A ring deeper than the workload: nothing flushes until the first
        // blocking wait, so the entire backlog ships as one batch per shard.
        assert_ring_matches_simulated(
            &mixed_requests(48),
            3,
            RingConfig {
                sq_depth: 1 << 16,
                channel_depth: 2,
            },
        );
    }

    #[test]
    fn multi_page_requests_split_and_gather() {
        let mut simulated = frontend(4);
        let mut threaded = frontend(4);
        let requests: Vec<HostRequest> = (0..24).map(|i| HostRequest::write(i * 3, 6)).collect();
        let sim_done: Vec<SimTime> = requests
            .iter()
            .map(|r| simulated.submit(*r, SimTime::from_micros(5)))
            .collect();
        let thr_done: Vec<SimTime> = threaded.run_threaded(4, |d| {
            for r in &requests {
                d.dispatch(*r, SimTime::from_micros(5));
            }
            let mut done = vec![SimTime::ZERO; requests.len()];
            while d.outstanding() > 0 {
                let (req, completion) = d.wait_resolved();
                done[req] = completion;
            }
            done
        });
        assert_eq!(sim_done, thr_done);
        assert_eq!(
            simulated.stats().host_write_pages,
            threaded.stats().host_write_pages
        );
    }

    #[test]
    fn lower_bound_never_exceeds_resolved_completion() {
        let mut threaded = frontend(2);
        threaded.run_threaded(2, |d| {
            let mut bounds = Vec::new();
            for i in 0..32u64 {
                let id = d.dispatch(HostRequest::read(i, 1), SimTime::ZERO);
                bounds.push((id, d.lower_bound(id)));
            }
            let mut done = vec![SimTime::ZERO; 32];
            while d.outstanding() > 0 {
                let (req, completion) = d.wait_resolved();
                done[req] = completion;
            }
            for (id, bound) in bounds {
                assert!(
                    bound <= done[id],
                    "lower bound {bound} exceeds completion {}",
                    done[id]
                );
                assert_eq!(d.lower_bound(id), done[id], "resolved bound is exact");
            }
        });
    }

    #[test]
    fn resolution_order_is_canonical_dispatch_order() {
        // Shard 1 is 10x slower than shard 0, so replies arrive badly out
        // of dispatch order in wall-clock; the reorder buffer must still
        // hand requests back in a deterministic order — here, with every
        // request single-piece and all arrivals equal, exactly dispatch
        // order per shard chain, interleaved by completion applicability.
        let mut shards: Vec<StubFtl> = vec![StubFtl::new(1), StubFtl::new(1)];
        shards[1].service = Duration::from_micros(10);
        let order_a = run_and_record_order(ShardedFtl::from_shards(shards));
        let mut shards: Vec<StubFtl> = vec![StubFtl::new(1), StubFtl::new(1)];
        shards[1].service = Duration::from_micros(10);
        let order_b = run_and_record_order(ShardedFtl::from_shards(shards));
        assert_eq!(
            order_a, order_b,
            "wait_resolved order must not depend on reply timing"
        );
    }

    fn run_and_record_order(mut threaded: ShardedFtl<StubFtl>) -> Vec<(ReqId, SimTime)> {
        threaded.run_threaded(2, |d| {
            for i in 0..64u64 {
                d.dispatch(HostRequest::read(i, 1), SimTime::ZERO);
            }
            let mut order = Vec::new();
            while d.outstanding() > 0 {
                order.push(d.wait_resolved());
            }
            order
        })
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let mut shards: Vec<StubFtl> = (0..2).map(|_| StubFtl::new(10)).collect();
        shards[1].panic_on_request = Some(3);
        let mut threaded = ShardedFtl::from_shards(shards);
        let run = catch_unwind(AssertUnwindSafe(|| {
            threaded.run_threaded(2, |d| {
                for i in 0..32u64 {
                    d.dispatch(HostRequest::read(i, 1), SimTime::ZERO);
                }
                while d.outstanding() > 0 {
                    d.wait_resolved();
                }
            })
        }));
        let payload = run.expect_err("the worker panic must surface");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(
            message.contains("poisoned on purpose"),
            "panic payload must be the worker's, got {message:?}"
        );
    }

    #[test]
    #[should_panic(expected = "unresolved requests in flight")]
    fn leaving_requests_unresolved_is_rejected() {
        let mut threaded = frontend(2);
        threaded.run_threaded(2, |d| {
            d.dispatch(HostRequest::read(0, 1), SimTime::ZERO);
            // body returns without resolving
        });
    }
}
