//! The host models: closed-loop streams behind a bounded host queue (on the
//! simulated and the thread-parallel backend), open-loop Poisson arrivals
//! and multi-tenant admission. Every entry point starts with
//! [`Tally::begin`] and accounts each request through [`Tally::record`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ftl_base::{Ftl, FtlStats, HostOp, HostRequest};
use ftl_shard::{ReqId, ShardedFtl, ThreadedDispatcher};
use metrics::LatencyHistogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssd_sched::{QueuePair, TenantArbiter, TenantClass, TenantPolicy};
use ssd_sim::{Duration, SimTime, TraceData, TraceEvent};
use workloads::{TenantSet, Workload};

use crate::result::{
    RunResult, SelfProfile, ShardLane, ShardedRunResult, TenantLane, TenantRunResult,
};
use crate::wallclock::WallTimer;

/// Per-request bookkeeping of the threaded closed loop, indexed by [`ReqId`]
/// (dispatch order — identical to the simulated runner's pop order, so
/// replaying this log in index order reproduces its recording order).
struct ThreadedRecord {
    req: HostRequest,
    arrival: SimTime,
    issue: SimTime,
    lane: usize,
    completion: SimTime,
}

/// One host request's trace bookkeeping, recorded (only while tracing) in
/// the order requests are popped — the same order on every backend.
struct HostSpan {
    arrival: SimTime,
    issue: SimTime,
    completion: SimTime,
    lane: u32,
    /// The clock domain the span's times belong to: the shard that served
    /// the request on a sharded frontend (whatever its lane is), shard 0 on
    /// a single device. The exporters rebase each shard's timeline onto its
    /// own epoch, so every event must declare which timeline it rides.
    shard: u32,
    write: bool,
    pages: u32,
    tenant: u32,
}

/// Assembles the run's final trace: the FTL's device/scheduler/GC events,
/// the GC trigger/complete instants synthesised from [`ftl_base::FtlStats`]
/// (sorted by time so backend-dependent merge order cannot leak in), and one
/// flow-linked host-request span per popped request — stably sorted by start
/// time, so identical inputs produce byte-identical traces.
fn assemble_trace<F: Ftl + ?Sized>(ftl: &mut F, host: &[HostSpan]) -> Vec<TraceEvent> {
    let mut trace = ftl.take_trace();
    push_gc_instants(&mut trace, ftl.stats());
    for (req, span) in host.iter().enumerate() {
        trace.push(TraceEvent {
            start: span.arrival,
            end: span.completion,
            shard: span.shard,
            data: TraceData::HostRequest {
                req: req as u64,
                lane: span.lane,
                write: span.write,
                pages: span.pages,
                tenant: span.tenant,
                issue: span.issue,
            },
        });
    }
    trace.sort_by_key(|e| e.start);
    trace
}

/// Appends the GC trigger instants and then the GC complete instants of
/// `stats`, each set sorted by time so backend-dependent merge order cannot
/// leak into a trace.
pub(crate) fn push_gc_instants(trace: &mut Vec<TraceEvent>, stats: &FtlStats) {
    let instants = |times: &[SimTime], data: TraceData| {
        let mut times = times.to_vec();
        times.sort_unstable();
        times.into_iter().map(move |at| TraceEvent {
            start: at,
            end: at,
            shard: 0,
            data,
        })
    };
    trace.extend(instants(&stats.gc_events, TraceData::GcTrigger));
    trace.extend(instants(&stats.gc_complete_events, TraceData::GcComplete));
}

/// The accounting every runner shares: request, page and byte counts, the
/// latency (arrival → completion) and queueing (arrival → issue)
/// distributions, an optional per-shard or per-tenant breakdown and, while
/// tracing, one host span per request.
struct Tally {
    start: SimTime,
    wall: WallTimer,
    page_size: u32,
    tracing: bool,
    requests: u64,
    read_pages: u64,
    write_pages: u64,
    bytes: u64,
    last_completion: SimTime,
    /// Every request's latency when no breakdown is kept; otherwise the
    /// lanes record them and [`Tally::finish`] merges the sorted lanes here.
    latencies: LatencyHistogram,
    queueing: LatencyHistogram,
    host_spans: Vec<HostSpan>,
    /// One lane per shard, indexed by shard, or empty.
    shards: Vec<ShardLane>,
    /// One lane per tenant, indexed by [`HostRequest::tenant`], or empty.
    tenants: Vec<TenantLane>,
}

impl Tally {
    /// The prologue of every run: resets the FTL and device statistics, so
    /// the result covers only the measured phase, and starts the run once the
    /// device has drained earlier traffic — issuing the first requests "in
    /// the past" of a busy device would bill warm-up queueing to the measured
    /// phase. `shards` and `tenants` are how many shard and tenant lanes to
    /// keep (zero: none).
    fn begin<F: Ftl + ?Sized>(ftl: &mut F, shards: usize, tenants: usize) -> Tally {
        ftl.reset_stats();
        ftl.reset_device_stats();
        let start = ftl.drain_time();
        Tally {
            start,
            page_size: ftl.device().geometry().page_size,
            tracing: ftl.tracing(),
            requests: 0,
            read_pages: 0,
            write_pages: 0,
            bytes: 0,
            last_completion: start,
            latencies: LatencyHistogram::new(),
            queueing: LatencyHistogram::new(),
            host_spans: Vec::new(),
            shards: (0..shards)
                .map(|shard| ShardLane {
                    shard,
                    requests: 0,
                    latencies: LatencyHistogram::new(),
                })
                .collect(),
            tenants: (0..tenants)
                .map(|t| TenantLane {
                    tenant: t as u32,
                    requests: 0,
                    read_pages: 0,
                    write_pages: 0,
                    latencies: LatencyHistogram::new(),
                })
                .collect(),
            wall: WallTimer::start(),
        }
    }

    /// Accounts one request that arrived at `arrival`, issued at `issue` and
    /// completed at `completion`; its span is drawn on host lane `lane` in
    /// shard `shard`'s clock domain.
    // Inlined into each loop: this is run_qd's per-request path, which
    // `harness.loop_ns_per_req` measures.
    #[inline(always)]
    fn record(
        &mut self,
        req: &HostRequest,
        arrival: SimTime,
        issue: SimTime,
        completion: SimTime,
        lane: usize,
        shard: usize,
    ) {
        let latency = completion - arrival;
        let pages = u64::from(req.pages);
        let write = req.op == HostOp::Write;
        if let Some(t) = self.tenants.get_mut(req.tenant as usize) {
            t.requests += 1;
            if write {
                t.write_pages += pages;
            } else {
                t.read_pages += pages;
            }
            t.latencies.record(latency);
        } else if let Some(s) = self.shards.get_mut(shard) {
            s.requests += 1;
            s.latencies.record(latency);
        } else {
            self.latencies.record(latency);
        }
        self.queueing.record(issue - arrival);
        self.requests += 1;
        self.bytes += req.bytes(self.page_size);
        if write {
            self.write_pages += pages;
        } else {
            self.read_pages += pages;
        }
        if self.tracing {
            self.host_spans.push(HostSpan {
                arrival,
                issue,
                completion,
                lane: lane as u32,
                shard: shard as u32,
                write,
                pages: req.pages,
                tenant: req.tenant,
            });
        }
        self.last_completion = self.last_completion.max(completion);
    }

    /// Closes the run: stops the wall timer, merges the lanes into the
    /// aggregate histogram (each sorted first, so the merge stays linear),
    /// assembles the trace and folds in the FTL's statistics. Returns the
    /// result with the shard and tenant lanes.
    fn finish<F: Ftl + ?Sized>(
        mut self,
        ftl: &mut F,
    ) -> (RunResult, Vec<ShardLane>, Vec<TenantLane>) {
        let wall = self.wall.elapsed();
        let lanes = (self.shards.iter_mut().map(|l| &mut l.latencies))
            .chain(self.tenants.iter_mut().map(|l| &mut l.latencies));
        for lane in lanes {
            lane.finalize();
            self.latencies.merge(lane);
        }
        let trace = if self.tracing {
            assemble_trace(ftl, &self.host_spans)
        } else {
            Vec::new()
        };
        let result = RunResult {
            ftl_name: ftl.name().to_string(),
            requests: self.requests,
            read_pages: self.read_pages,
            write_pages: self.write_pages,
            bytes: self.bytes,
            elapsed: self.last_completion - self.start,
            latencies: self.latencies,
            queueing: self.queueing,
            stats: ftl.stats().clone(),
            device: ftl.device_stats(),
            profile: SelfProfile {
                wall,
                requests: self.requests,
                trace_events: trace.len() as u64,
            },
            trace,
        };
        (result, self.shards, self.tenants)
    }
}

/// The closed loop behind [`Runner::run`], [`Runner::run_qd`] and
/// [`Runner::run_sharded_qd`]: every stream issues its next request when its
/// previous one completes, the stream whose previous request finished
/// earliest goes first, and at most `depth` requests are in flight against
/// the FTL ([`QueuePair`]). `route` names a request's host lane and shard
/// from its stream.
fn closed_loop<F: Ftl + ?Sized>(
    ftl: &mut F,
    workload: &mut dyn Workload,
    depth: usize,
    mut tally: Tally,
    route: impl Fn(usize, &HostRequest) -> (usize, usize),
) -> Tally {
    let mut queue = QueuePair::new(depth);
    let mut ready: BinaryHeap<Reverse<(SimTime, usize)>> = (0..workload.streams())
        .map(|s| Reverse((tally.start, s)))
        .collect();
    while let Some(Reverse((arrival, stream))) = ready.pop() {
        let Some(req) = workload.next_request(stream) else {
            continue; // stream exhausted; do not re-queue
        };
        let (issue, completion) = queue.submit(arrival, |issue| ftl.submit(req, issue));
        let (lane, shard) = route(stream, &req);
        tally.record(&req, arrival, issue, completion, lane, shard);
        ready.push(Reverse((completion, stream)));
    }
    tally
}

/// One stream of the threaded closed-loop host model.
#[derive(Clone, Copy)]
enum StreamSlot {
    /// The stream's next request arrives at this (known) time.
    Ready(SimTime),
    /// The stream's previous request is still unresolved; its completion is
    /// the stream's next arrival.
    Waiting(ReqId),
    /// The stream is exhausted.
    Done,
}

/// One occupied slot of the threaded [`QueuePair`] emulation.
#[derive(Clone, Copy)]
enum FlightSlot {
    Resolved(SimTime),
    Pending(ReqId),
}

/// Blocks for the next resolved request and folds it into the host-side
/// bookkeeping: the stream whose request resolved becomes `Ready` at the
/// completion, and every queue slot holding the request learns its value.
///
/// This is the conservative loop's **only blocking point**, which makes it
/// the ring-flush boundary: `wait_resolved` ships every shard's staged
/// submission window to the workers before blocking, so all requests
/// dispatched since the previous wakeup travel as one batch per shard —
/// the eligible window *is* the submission batch.
fn absorb_resolution(
    dispatcher: &mut ThreadedDispatcher,
    slots: &mut [StreamSlot],
    in_flight: &mut [FlightSlot],
    records: &mut [ThreadedRecord],
    req_stream: &[usize],
) {
    let (req, completion) = dispatcher.wait_resolved();
    records[req].completion = completion;
    let stream = req_stream[req];
    if matches!(slots[stream], StreamSlot::Waiting(r) if r == req) {
        slots[stream] = StreamSlot::Ready(completion);
    }
    for slot in in_flight.iter_mut() {
        if matches!(slot, FlightSlot::Pending(r) if *r == req) {
            *slot = FlightSlot::Resolved(completion);
        }
    }
}

/// The weighted-arbitration policy a [`TenantSet`] implies: one foreground
/// class per tenant (carrying the spec's weight, never forced through) plus
/// the mandatory background GC class, which the admission loop never
/// presents — host-level arbitration only ranks tenants against each other.
fn tenant_policy(tenants: &TenantSet) -> TenantPolicy {
    let classes: Vec<TenantClass> = (0..tenants.num_tenants())
        .map(|t| TenantClass::weighted(tenants.spec(t).weight.max(1)))
        .chain(std::iter::once(TenantClass::background(u32::MAX)))
        .collect();
    TenantPolicy::new(classes)
}

/// The multi-tenant admission loop of [`Runner::run_tenants`]: per-tenant
/// Poisson arrival streams are merged in arrival order into per-shard
/// per-tenant backlogs, and each shard dispatches one request at a time — at
/// `max(shard free, earliest queued arrival)` — picking the next tenant
/// either by weighted arbitration (`policy` set: one [`TenantArbiter`] per
/// shard, every backlogged tenant contending) or in plain FIFO arrival
/// order (`policy` empty: the no-isolation baseline).
///
/// Latencies are recorded against the *true* arrival, so time spent queued
/// behind other tenants' backlogs counts — that queueing is exactly where
/// isolation pays off. The shard pacing clock is the FTL's completion time
/// for the previous request, which both variants share, keeping the
/// isolated-vs-FIFO comparison apples-to-apples.
fn run_tenant_admission<F: Ftl>(
    tenants: &mut TenantSet,
    tally: &mut Tally,
    ftl: &mut ShardedFtl<F>,
    policy: Option<&TenantPolicy>,
) {
    let n = tenants.num_tenants();
    let map = *ftl.map();
    let shards = map.shards();

    // Per-tenant arrival clocks and the next pending (not yet enqueued)
    // arrival of each tenant.
    let mut clocks: Vec<SimTime> = vec![tally.start; n];
    let advance = |tenants: &mut TenantSet, t: usize, clocks: &mut Vec<SimTime>| {
        tenants.next_request(t).map(|(gap, req)| {
            clocks[t] += gap;
            (clocks[t], req)
        })
    };
    let mut next: Vec<Option<(SimTime, HostRequest)>> =
        (0..n).map(|t| advance(tenants, t, &mut clocks)).collect();

    // Per-shard per-tenant backlogs (each tenant's queue is in arrival
    // order), per-shard pacing clocks and arbiters.
    let mut backlog: Vec<Vec<VecDeque<(SimTime, HostRequest)>>> =
        (0..shards).map(|_| vec![VecDeque::new(); n]).collect();
    let mut queued: Vec<usize> = vec![0; shards];
    let mut free_at: Vec<SimTime> = vec![tally.start; shards];
    let mut arbiters: Vec<TenantArbiter> = policy
        .map(|p| (0..shards).map(|_| TenantArbiter::new(p)).collect())
        .unwrap_or_default();
    let mut yielded: Vec<usize> = Vec::new();

    loop {
        // The next arrival across tenants (earliest time, lowest tenant).
        let arrival = next
            .iter()
            .enumerate()
            .filter_map(|(t, slot)| slot.as_ref().map(|&(at, _)| (at, t)))
            .min();
        // The next dispatch opportunity across shards (earliest time,
        // lowest shard).
        let mut dispatch: Option<(SimTime, usize)> = None;
        for s in 0..shards {
            if queued[s] == 0 {
                continue;
            }
            let earliest = backlog[s]
                .iter()
                .filter_map(|q| q.front().map(|&(at, _)| at))
                .min()
                .expect("a queued shard has a head");
            let d = free_at[s].max(earliest);
            if dispatch.is_none_or(|best| (d, s) < best) {
                dispatch = Some((d, s));
            }
        }
        match (arrival, dispatch) {
            (None, None) => break,
            // Arrivals first on ties, so every request arriving at or
            // before a dispatch instant is backlogged (and eligible) by the
            // time the pick happens.
            (Some((at, t)), d) if d.is_none_or(|(dd, _)| at <= dd) => {
                let (_, req) = next[t].take().expect("arrival slot is present");
                let s = map.shard_of(req.lpn);
                backlog[s][t].push_back((at, req));
                queued[s] += 1;
                next[t] = advance(tenants, t, &mut clocks);
            }
            (_, Some((d, s))) => {
                let winner = match policy {
                    Some(_) => {
                        arbiters[s]
                            .decide(
                                |c| c < n && backlog[s][c].front().is_some_and(|&(at, _)| at <= d),
                                // Host-level admission is one slot per shard:
                                // every eligible tenant contends for it.
                                |_, _| true,
                                &mut yielded,
                            )
                            .expect("an eligible tenant exists at dispatch time")
                            .winner
                    }
                    None => {
                        (0..n)
                            .filter_map(|t| backlog[s][t].front().map(|&(at, _)| (at, t)))
                            .filter(|&(at, _)| at <= d)
                            .min()
                            .expect("an eligible tenant exists at dispatch time")
                            .1
                    }
                };
                let (arrived, req) = backlog[s][winner].pop_front().expect("winner has a head");
                queued[s] -= 1;
                let completion = ftl.submit(req, d);
                free_at[s] = completion;
                tally.record(&req, arrived, d, completion, s, s);
            }
            (Some(_), None) => unreachable!("an unguarded arrival always wins"),
        }
    }
}

/// Drives a [`Workload`] against an [`Ftl`] with the closed-loop model used
/// throughout the paper's evaluation: every stream (FIO thread) issues its
/// next request as soon as its previous request completes, and the runner
/// always advances the stream whose previous request finished earliest.
///
/// Every run resets the FTL and device statistics first and starts when the
/// device has drained earlier traffic, so its result covers the measured
/// phase only.
#[derive(Debug, Clone, Copy, Default)]
pub struct Runner;

impl Runner {
    /// Creates a runner.
    pub fn new() -> Self {
        Runner
    }

    /// Runs the workload to completion with every stream's request in flight
    /// at once: [`Runner::run_qd`] at a depth no stream ever waits for.
    pub fn run(&self, ftl: &mut dyn Ftl, workload: &mut dyn Workload) -> RunResult {
        let depth = workload.streams().max(1);
        self.run_qd(ftl, workload, depth)
    }

    /// Runs the workload with a bounded host queue of `depth` slots, the
    /// NVMe-style model behind the queue-depth sweeps: every stream produces
    /// its next request when its previous one completes (closed loop), but at
    /// most `depth` requests are in flight against the FTL at once. A request
    /// that arrives while every slot is busy queues until the earliest
    /// in-flight request completes ([`QueuePair`]).
    ///
    /// Each request records two latencies: total (arrival → completion, into
    /// [`RunResult::latencies`]) and queueing (arrival → issue, into
    /// [`RunResult::queueing`]). With `depth >= workload.streams()` no request
    /// ever queues.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn run_qd(
        &self,
        ftl: &mut dyn Ftl,
        workload: &mut dyn Workload,
        depth: usize,
    ) -> RunResult {
        let tally = Tally::begin(ftl, 0, 0);
        let tally = closed_loop(ftl, workload, depth, tally, |stream, _| (stream, 0));
        tally.finish(ftl).0
    }

    /// Runs the workload through a sharded FTL frontend with a bounded host
    /// queue, recording a per-shard breakdown on top of everything
    /// [`Runner::run_qd`] measures.
    ///
    /// The host model is [`Runner::run_qd`]'s — `depth` slots shared by all
    /// streams, recycled at the earliest completion — but each request is
    /// also attributed to the shard that owns its first LPN, so the result
    /// exposes per-shard request counts and latency distributions (the
    /// aggregate histogram is their merge). Shard imbalance and per-engine
    /// queueing are exactly what the shard-scaling experiment
    /// (`fig23_shard_scaling`) needs to explain its curves.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn run_sharded_qd<F: Ftl>(
        &self,
        ftl: &mut ShardedFtl<F>,
        workload: &mut dyn Workload,
        depth: usize,
    ) -> ShardedRunResult {
        let shards = ftl.shard_count();
        let tally = Tally::begin(ftl, shards, 0);
        let map = *ftl.map();
        let tally = closed_loop(ftl, workload, depth, tally, |_, req| {
            let shard = map.shard_of(req.lpn);
            (shard, shard)
        });
        let (result, lanes, _) = tally.finish(ftl);
        ShardedRunResult { result, lanes }
    }

    /// [`Runner::run_sharded_qd`] on the thread-parallel backend: the same
    /// host model (bounded queue of `depth` slots, closed-loop streams, lane
    /// bookkeeping) producing **bit-for-bit identical** simulated-time
    /// results, with each shard's FTL owned by one of `workers` worker
    /// threads ([`ShardedFtl::run_threaded`]).
    ///
    /// The host loop is a conservative parallel discrete-event simulation:
    /// every decision the simulated loop takes (which stream's request to
    /// pop next, whether the queue is full, which in-flight completion is
    /// earliest) depends only on simulated-time *values*, so this loop takes
    /// the identical decision as soon as it can *prove* the outcome —
    /// blocking on worker completions only while an unresolved completion's
    /// lower bound ([`ThreadedDispatcher::lower_bound`]) could still change
    /// the answer. Workers meanwhile run their shards' FIFO backlogs
    /// concurrently; only host wall-clock differs from the simulated
    /// backend.
    ///
    /// Dispatches are *staged*, not sent: every request the loop proves
    /// eligible between two blocking waits lands on its shard's submission
    /// ring, and the whole window ships as one batched channel send when
    /// the loop next needs a completion (or a ring fills). At high queue
    /// depth many streams are provably eligible per wakeup, so the
    /// per-request cross-core round-trip of the historical backend
    /// amortises over the window. Batch boundaries are deterministic (the
    /// dispatcher applies completions in dispatch order), so traced runs are
    /// byte-identical across repetitions.
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `workers` is zero, and re-raises a worker
    /// thread's panic (a poisoned shard never deadlocks the dispatcher).
    pub fn run_threaded_qd<F: Ftl>(
        &self,
        ftl: &mut ShardedFtl<F>,
        workload: &mut dyn Workload,
        depth: usize,
        workers: usize,
    ) -> ShardedRunResult {
        assert!(depth > 0, "queue depth must be at least 1");
        let shards = ftl.shard_count();
        let mut tally = Tally::begin(ftl, shards, 0);
        let start = tally.start;
        let streams = workload.streams();

        let records = ftl.run_threaded(workers, |dispatcher| {
            let mut slots: Vec<StreamSlot> = vec![StreamSlot::Ready(start); streams];
            let mut in_flight: Vec<FlightSlot> = Vec::with_capacity(depth);
            let mut records: Vec<ThreadedRecord> = Vec::new();
            let mut req_stream: Vec<usize> = Vec::new();

            'run: loop {
                // Pop the stream with the smallest (arrival, stream) key —
                // the simulated loop's BinaryHeap order — waiting for worker
                // completions until the minimum is provable.
                let (arrival, stream) = loop {
                    let mut best: Option<(SimTime, usize)> = None;
                    let mut any_waiting = false;
                    for (s, slot) in slots.iter().enumerate() {
                        match *slot {
                            StreamSlot::Ready(t) => {
                                if best.is_none_or(|(bt, bs)| (t, s) < (bt, bs)) {
                                    best = Some((t, s));
                                }
                            }
                            StreamSlot::Waiting(_) => any_waiting = true,
                            StreamSlot::Done => {}
                        }
                    }
                    match best {
                        None if !any_waiting => break 'run,
                        None => absorb_resolution(
                            dispatcher,
                            &mut slots,
                            &mut in_flight,
                            &mut records,
                            &req_stream,
                        ),
                        Some((t, s)) => {
                            let contested = slots.iter().enumerate().any(|(s2, slot)| {
                                matches!(*slot, StreamSlot::Waiting(req)
                                    if (dispatcher.lower_bound(req), s2) < (t, s))
                            });
                            if contested {
                                absorb_resolution(
                                    dispatcher,
                                    &mut slots,
                                    &mut in_flight,
                                    &mut records,
                                    &req_stream,
                                );
                            } else {
                                break (t, s);
                            }
                        }
                    }
                };

                let Some(req) = workload.next_request(stream) else {
                    slots[stream] = StreamSlot::Done;
                    continue; // stream exhausted; do not re-queue
                };

                // QueuePair emulation. Reap: every slot that *might* have
                // completed by `arrival` must be known before we can free it
                // (or prove it stays).
                loop {
                    let uncertain = in_flight.iter().any(|slot| {
                        matches!(slot, FlightSlot::Pending(r)
                            if dispatcher.lower_bound(*r) <= arrival)
                    });
                    if !uncertain {
                        break;
                    }
                    absorb_resolution(
                        dispatcher,
                        &mut slots,
                        &mut in_flight,
                        &mut records,
                        &req_stream,
                    );
                }
                in_flight.retain(|slot| match slot {
                    FlightSlot::Resolved(t) => *t > arrival,
                    FlightSlot::Pending(_) => true,
                });
                let issue = if in_flight.len() < depth {
                    arrival
                } else {
                    // The queue is full: the request issues when the
                    // earliest in-flight command completes. Resolve until
                    // the minimum is provable.
                    let earliest = loop {
                        let min_resolved = in_flight
                            .iter()
                            .filter_map(|slot| match slot {
                                FlightSlot::Resolved(t) => Some(*t),
                                FlightSlot::Pending(_) => None,
                            })
                            .min();
                        match min_resolved {
                            Some(r)
                                if !in_flight.iter().any(|slot| {
                                    matches!(slot, FlightSlot::Pending(q)
                                        if dispatcher.lower_bound(*q) < r)
                                }) =>
                            {
                                break r
                            }
                            _ => absorb_resolution(
                                dispatcher,
                                &mut slots,
                                &mut in_flight,
                                &mut records,
                                &req_stream,
                            ),
                        }
                    };
                    let reaped = in_flight
                        .iter()
                        .position(|slot| matches!(slot, FlightSlot::Resolved(t) if *t == earliest))
                        .expect("the provable minimum is a resolved slot");
                    in_flight.swap_remove(reaped);
                    arrival.max(earliest)
                };

                let lane = dispatcher.map().shard_of(req.lpn);
                let rid = dispatcher.dispatch(req, issue);
                debug_assert_eq!(rid, records.len());
                records.push(ThreadedRecord {
                    req,
                    arrival,
                    issue,
                    lane,
                    completion: SimTime::ZERO,
                });
                req_stream.push(stream);
                slots[stream] = StreamSlot::Waiting(rid);
                in_flight.push(FlightSlot::Pending(rid));
            }

            // Every stream went Done through a Ready state, so its last
            // request already resolved; drain defensively regardless.
            while dispatcher.outstanding() > 0 {
                absorb_resolution(
                    dispatcher,
                    &mut slots,
                    &mut in_flight,
                    &mut records,
                    &req_stream,
                );
            }
            records
        });

        // Replaying the log in dispatch order reproduces the simulated
        // runner's recording order, so lanes, queueing and spans match it.
        for r in &records {
            tally.record(&r.req, r.arrival, r.issue, r.completion, r.lane, r.lane);
        }
        let (result, lanes, _) = tally.finish(ftl);
        ShardedRunResult { result, lanes }
    }

    /// Runs the workload with *open-loop* arrivals: requests arrive on a
    /// seeded Poisson process (exponential inter-arrival times with the given
    /// mean) independent of when earlier requests complete, cycling
    /// round-robin over the workload's streams.
    ///
    /// Where the closed-loop runners measure *saturation* throughput, this
    /// measures latency at an *offered load* (`1 / mean_interarrival`
    /// requests per second): below saturation latencies sit near service
    /// time, and as the offered load approaches the device's capacity the
    /// queueing in the device and the FTL frontend blows the tail up. There
    /// is no host queue bound — arrivals are exogenous, every request issues
    /// on arrival — so frontend waiting is part of each request's latency.
    /// The frontend is sharded (one shard stands for a plain device); a
    /// request's lane is its stream, and its span rides the clock of the
    /// shard that served it.
    ///
    /// The arrival process is deterministic for a given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interarrival` is zero.
    pub fn run_open_loop<F: Ftl>(
        &self,
        ftl: &mut ShardedFtl<F>,
        workload: &mut dyn Workload,
        mean_interarrival: Duration,
        seed: u64,
    ) -> RunResult {
        assert!(
            mean_interarrival > Duration::ZERO,
            "mean inter-arrival time must be positive"
        );
        let mut tally = Tally::begin(ftl, 0, 0);
        let map = *ftl.map();
        let streams = workload.streams();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrival = tally.start;
        let mut exhausted = 0usize;
        let mut stream = 0usize;

        while exhausted < streams {
            let Some(req) = workload.next_request(stream) else {
                exhausted += 1;
                stream = (stream + 1) % streams;
                continue;
            };
            exhausted = 0;
            let completion = ftl.submit(req, arrival);
            let shard = map.shard_of(req.lpn);
            tally.record(&req, arrival, arrival, completion, stream, shard);
            stream = (stream + 1) % streams;
            arrival += exponential(&mut rng, mean_interarrival);
        }
        tally.finish(ftl).0
    }

    /// Runs a multi-tenant [`TenantSet`] against a sharded FTL with a
    /// per-shard admission model: tenant arrival streams merge by arrival
    /// time, each shard serves one request at a time, and the next tenant is
    /// picked by weighted per-tenant arbitration (`isolate = true`: each
    /// tenant's spec weight, one [`TenantArbiter`] per shard) or in plain FIFO
    /// arrival order (`isolate = false`: the no-QoS baseline a namespace-
    /// oblivious host would get).
    ///
    /// Per-tenant latencies are measured from the *true* arrival, so
    /// backlog queueing behind other tenants counts — compare a victim
    /// tenant's p99 across the two modes to quantify noisy-neighbour
    /// interference and what the weighted scheduler buys back.
    pub fn run_tenants<F: Ftl>(
        &self,
        ftl: &mut ShardedFtl<F>,
        tenants: &mut TenantSet,
        isolate: bool,
    ) -> TenantRunResult {
        let policy = isolate.then(|| tenant_policy(tenants));
        let mut tally = Tally::begin(ftl, 0, tenants.num_tenants());
        run_tenant_admission(tenants, &mut tally, ftl, policy.as_ref());
        let (result, _, lanes) = tally.finish(ftl);
        TenantRunResult {
            result,
            tenants: lanes,
        }
    }
}

/// Draws one exponentially distributed inter-arrival gap with the given mean
/// (the increment of a Poisson arrival process), never shorter than 1 ns so
/// the arrival clock always advances.
fn exponential(rng: &mut StdRng, mean: Duration) -> Duration {
    let u: f64 = rng.gen();
    // u is uniform in [0, 1); 1-u is in (0, 1], so ln is finite.
    let gap = -(1.0 - u).ln() * mean.as_nanos() as f64;
    Duration::from_nanos((gap as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::FtlKind;
    use ssd_sim::SsdConfig;
    use workloads::{FioPattern, FioWorkload};

    #[test]
    fn runner_completes_every_request() {
        let mut ftl = FtlKind::Ideal.build(SsdConfig::tiny());
        let mut wl = FioWorkload::new(FioPattern::SeqWrite, 1000, 4, 2, 25, 1);
        let result = Runner::new().run(ftl.as_mut(), &mut wl);
        assert_eq!(result.requests, 100);
        assert_eq!(result.write_pages, 200);
        assert_eq!(result.read_pages, 0);
        assert!(result.elapsed > ssd_sim::Duration::ZERO);
        assert_eq!(result.latencies.count(), 100);
    }

    #[test]
    fn more_streams_increase_throughput_on_reads() {
        let run = |streams: usize| {
            let mut ftl = FtlKind::Ideal.build(SsdConfig::tiny());
            // Populate first.
            let mut fill = FioWorkload::new(FioPattern::SeqWrite, 4000, 1, 8, 500, 1);
            Runner::new().run(ftl.as_mut(), &mut fill);
            let mut wl = FioWorkload::new(
                FioPattern::RandRead,
                4000,
                streams,
                1,
                400 / streams as u64,
                2,
            );
            Runner::new().run(ftl.as_mut(), &mut wl).mib_per_sec()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four > one * 1.5,
            "parallel streams must raise read throughput ({one} vs {four})"
        );
    }

    #[test]
    fn reset_before_run_isolates_the_measured_phase() {
        let mut ftl = FtlKind::Dftl.build(SsdConfig::tiny());
        let mut fill = FioWorkload::new(FioPattern::SeqWrite, 1000, 1, 8, 50, 1);
        Runner::new().run(ftl.as_mut(), &mut fill);
        let mut reads = FioWorkload::new(FioPattern::SeqRead, 400, 1, 8, 50, 1);
        let result = Runner::new().run(ftl.as_mut(), &mut reads);
        assert_eq!(
            result.stats.host_write_pages, 0,
            "warm-up writes must not leak"
        );
        assert_eq!(result.stats.host_read_pages, 400);
    }

    fn warmed_ftl(kind: FtlKind) -> Box<dyn ftl_base::Ftl> {
        let mut ftl = kind.build(SsdConfig::tiny());
        let mut fill = FioWorkload::new(FioPattern::SeqWrite, 4000, 1, 8, 500, 1);
        Runner::new().run(ftl.as_mut(), &mut fill);
        ftl
    }

    #[test]
    fn depth_at_least_streams_never_queues() {
        for (streams, depth) in [(1, 1), (4, 4), (4, 16)] {
            let mut ftl = warmed_ftl(FtlKind::Dftl);
            let mut wl = FioWorkload::new(FioPattern::RandRead, 4000, streams, 1, 100, 13);
            let r = Runner::new().run_qd(ftl.as_mut(), &mut wl, depth);
            assert_eq!(r.requests, 100 * streams as u64);
            assert_eq!(r.queueing.count(), r.latencies.count());
            assert_eq!(
                r.queueing.max(),
                ssd_sim::Duration::ZERO,
                "{streams} streams at depth {depth} never queue"
            );
        }
    }

    #[test]
    fn deeper_queues_raise_read_throughput() {
        let run = |depth: usize| {
            let mut ftl = warmed_ftl(FtlKind::Ideal);
            let mut wl = FioWorkload::new(FioPattern::RandRead, 4000, 16, 1, 50, 17);
            Runner::new().run_qd(ftl.as_mut(), &mut wl, depth)
        };
        let shallow = run(1);
        let deep = run(16);
        assert!(
            deep.iops() > shallow.iops() * 1.5,
            "QD16 must beat QD1 on random reads ({} vs {})",
            deep.iops(),
            shallow.iops()
        );
        assert!(
            shallow.mean_queueing() > deep.mean_queueing(),
            "a shallow queue must show more queueing delay"
        );
    }

    fn warmed_sharded(kind: FtlKind, shards: usize) -> ShardedFtl<Box<dyn Ftl>> {
        let mut ftl = kind.build_sharded(SsdConfig::tiny(), shards);
        let mut fill = FioWorkload::new(FioPattern::SeqWrite, 4000, 1, 8, 500, 1);
        Runner::new().run(&mut ftl, &mut fill);
        ftl
    }

    /// A device every kind can shard two ways: 4 channels, and a 2-chip
    /// channel-group shard still spans one full translation page per block
    /// row (LearnedFTL's group allocation needs 512 mappings per row).
    fn shard_friendly_device() -> SsdConfig {
        SsdConfig::tiny()
            .with_geometry(ssd_sim::Geometry::new(4, 2, 1, 16, 256, 4096))
            .with_op_ratio(0.4)
    }

    fn warmed_sharded_on(
        device: SsdConfig,
        kind: FtlKind,
        shards: usize,
    ) -> ShardedFtl<Box<dyn Ftl>> {
        let mut ftl = kind.build_sharded(device, shards);
        let mut fill = FioWorkload::new(FioPattern::SeqWrite, 4000, 1, 8, 500, 1);
        Runner::new().run(&mut ftl, &mut fill);
        ftl
    }

    #[test]
    fn sharded_qd1_single_stream_matches_legacy_bit_for_bit() {
        // One shard, one stream, depth 1 must reproduce the plain FTL's
        // blocking closed loop exactly — the sharding layer adds no
        // distortion.
        let wl = || FioWorkload::new(FioPattern::RandRead, 4000, 1, 1, 300, 11);
        let mut legacy_ftl = warmed_ftl(FtlKind::Dftl);
        let legacy = Runner::new().run(legacy_ftl.as_mut(), &mut wl());
        let mut sharded_ftl = warmed_sharded(FtlKind::Dftl, 1);
        let sharded = Runner::new().run_sharded_qd(&mut sharded_ftl, &mut wl(), 1);
        let qd = &sharded.result;
        assert_eq!(qd.requests, legacy.requests);
        assert_eq!(qd.elapsed, legacy.elapsed);
        assert_eq!(qd.latencies.mean(), legacy.latencies.mean());
        assert_eq!(qd.latencies.max(), legacy.latencies.max());
        assert_eq!(qd.stats.host_read_pages, legacy.stats.host_read_pages);
        assert_eq!(qd.stats.cmt_hits, legacy.stats.cmt_hits);
        assert_eq!(qd.stats.double_reads, legacy.stats.double_reads);
        assert_eq!(qd.device.reads, legacy.device.reads);
        assert_eq!(sharded.lanes.len(), 1);
        assert_eq!(sharded.lanes[0].requests, legacy.requests);
    }

    #[test]
    fn run_sharded_qd_lanes_account_for_every_request() {
        // Every design's sharded accounting: the lanes partition the run's
        // requests and latency samples.
        for kind in FtlKind::all() {
            let mut ftl = warmed_sharded_on(shard_friendly_device(), kind, 2);
            let mut wl = FioWorkload::new(FioPattern::RandRead, 4000, 4, 1, 100, 13);
            let sharded = Runner::new().run_sharded_qd(&mut ftl, &mut wl, 4);
            assert_eq!(sharded.result.requests, 400, "{kind}");
            let lane_total: u64 = sharded.lanes.iter().map(|l| l.requests).sum();
            assert_eq!(lane_total, sharded.result.requests, "{kind}");
            let samples: usize = sharded.lanes.iter().map(|l| l.latencies.count()).sum();
            assert_eq!(samples, sharded.result.latencies.count(), "{kind}");
            assert!(sharded.lane_imbalance() >= 1.0, "{kind}");
        }
    }

    #[test]
    fn sharded_one_shard_matches_unsharded_under_scheduled_gc() {
        // The shards=1 transparency guarantee was only pinned under blocking
        // GC; scheduled GC routes flash work through a per-FTL IoScheduler,
        // which must not disturb it either. Write traffic forces collections
        // during the measured phase, so the scheduled engine really runs.
        use baselines::BaselineConfig;
        use ftl_base::GcMode;
        use learnedftl::LearnedFtlConfig;

        // Small blocks so the measured churn forces collections quickly; a
        // 2-chip × 256-page block row still spans one translation page for
        // LearnedFTL's groups.
        let device = SsdConfig::tiny()
            .with_geometry(ssd_sim::Geometry::new(2, 2, 1, 16, 256, 4096))
            .with_op_ratio(0.4);
        for kind in [FtlKind::Dftl, FtlKind::LearnedFtl] {
            let baseline = BaselineConfig::default().with_gc_mode(GcMode::Scheduled);
            let learned = LearnedFtlConfig::default()
                .with_gc_mode(GcMode::Scheduled)
                .with_charge_training_time(false);
            let wl = |pages: u64| FioWorkload::new(FioPattern::RandWrite, pages, 1, 4, 1500, 11);

            let mut plain_ftl = kind.build_with(device, baseline, learned);
            workloads::warmup::sequential_fill(plain_ftl.as_mut(), 32, 1, SimTime::ZERO);
            plain_ftl.drain_gc();
            let pages = plain_ftl.logical_pages();
            let legacy = Runner::new().run(plain_ftl.as_mut(), &mut wl(pages));

            let mut sharded_ftl =
                kind.build_sharded_with(device, 1, baseline.for_shard(1), learned);
            workloads::warmup::sequential_fill(&mut sharded_ftl, 32, 1, SimTime::ZERO);
            sharded_ftl.drain_gc();
            let sharded = Runner::new().run_sharded_qd(&mut sharded_ftl, &mut wl(pages), 1);

            let qd = &sharded.result;
            assert_eq!(qd.requests, legacy.requests, "{kind}");
            assert_eq!(qd.elapsed, legacy.elapsed, "{kind}");
            assert_eq!(qd.latencies.mean(), legacy.latencies.mean(), "{kind}");
            assert_eq!(qd.latencies.max(), legacy.latencies.max(), "{kind}");
            assert_eq!(qd.stats.gc_count, legacy.stats.gc_count, "{kind}");
            assert_eq!(qd.stats.gc_yields, legacy.stats.gc_yields, "{kind}");
            assert_eq!(qd.stats.gc_forced, legacy.stats.gc_forced, "{kind}");
            assert_eq!(qd.device.programs, legacy.device.programs, "{kind}");
            assert_eq!(qd.device.erases, legacy.device.erases, "{kind}");
            assert!(
                legacy.stats.gc_count > 0,
                "{kind}: the measured phase must actually collect"
            );
        }
    }

    #[test]
    fn threaded_qd_matches_simulated_backend_bit_for_bit() {
        let wl = || FioWorkload::new(FioPattern::RandRead, 4000, 4, 1, 100, 13);
        let mut simulated_ftl = warmed_sharded(FtlKind::Dftl, 2);
        let simulated = Runner::new().run_sharded_qd(&mut simulated_ftl, &mut wl(), 3);
        let mut threaded_ftl = warmed_sharded(FtlKind::Dftl, 2);
        let threaded = Runner::new().run_threaded_qd(&mut threaded_ftl, &mut wl(), 3, 2);
        assert_eq!(threaded.result.requests, simulated.result.requests);
        assert_eq!(threaded.result.elapsed, simulated.result.elapsed);
        assert_eq!(
            threaded.result.latencies.mean(),
            simulated.result.latencies.mean()
        );
        assert_eq!(
            threaded.result.latencies.max(),
            simulated.result.latencies.max()
        );
        assert_eq!(
            threaded.result.queueing.mean(),
            simulated.result.queueing.mean()
        );
        assert_eq!(
            threaded.result.queueing.max(),
            simulated.result.queueing.max()
        );
        assert_eq!(
            threaded.result.stats.cmt_hits,
            simulated.result.stats.cmt_hits
        );
        assert_eq!(threaded.result.device.reads, simulated.result.device.reads);
        for (a, b) in threaded.lanes.iter().zip(&simulated.lanes) {
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.latencies.mean(), b.latencies.mean());
            assert_eq!(a.latencies.max(), b.latencies.max());
        }
    }

    #[test]
    fn threaded_qd_with_one_worker_still_matches() {
        // workers < shards folds several shards onto one thread; the
        // dispatch order and timings must not change.
        let wl = || FioWorkload::new(FioPattern::RandRead, 4000, 8, 1, 60, 17);
        let mut simulated_ftl = warmed_sharded(FtlKind::Ideal, 2);
        let simulated = Runner::new().run_sharded_qd(&mut simulated_ftl, &mut wl(), 8);
        let mut threaded_ftl = warmed_sharded(FtlKind::Ideal, 2);
        let threaded = Runner::new().run_threaded_qd(&mut threaded_ftl, &mut wl(), 8, 1);
        assert_eq!(threaded.result.elapsed, simulated.result.elapsed);
        assert_eq!(
            threaded.result.latencies.mean(),
            simulated.result.latencies.mean()
        );
    }

    #[test]
    fn two_shards_outperform_one_at_depth() {
        let run = |shards: usize| {
            let mut ftl = warmed_sharded(FtlKind::Dftl, shards);
            let mut wl = FioWorkload::new(FioPattern::RandRead, 4000, 8, 1, 50, 17);
            Runner::new().run_sharded_qd(&mut ftl, &mut wl, 8)
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two.result.iops() > one.result.iops(),
            "two translation engines must beat one at depth 8 ({} vs {})",
            two.result.iops(),
            one.result.iops()
        );
    }

    #[test]
    fn open_loop_latency_grows_with_offered_load() {
        let run = |mean_us: u64| {
            let mut ftl = warmed_sharded(FtlKind::Ideal, 1);
            let mut wl = FioWorkload::new(FioPattern::RandRead, 4000, 4, 1, 250, 23);
            Runner::new().run_open_loop(&mut ftl, &mut wl, Duration::from_micros(mean_us), 42)
        };
        // 1 request per 400us is far below tiny's capacity; 1 per 5us is far
        // above it (a 4-chip device serves roughly one read per 10us).
        let light = run(400);
        let heavy = run(5);
        assert_eq!(light.requests, heavy.requests);
        assert!(
            heavy.latencies.mean() > light.latencies.mean().saturating_mul(3),
            "offered load beyond capacity must inflate latency ({} vs {})",
            heavy.latencies.mean(),
            light.latencies.mean()
        );
        assert!(
            light.latencies.max() < Duration::from_millis(1),
            "light load must stay near service time, saw {}",
            light.latencies.max()
        );
        assert_eq!(
            light.queueing.max(),
            Duration::ZERO,
            "open loop issues on arrival"
        );
    }

    #[test]
    fn exponential_gaps_never_collapse_to_zero() {
        // Regression: with a sub-nanosecond mean almost every raw draw
        // truncates to 0 ns, which would freeze the arrival clock and create
        // spurious simultaneous arrivals at high offered load. The sampler
        // clamps every gap to >= 1 ns, so the arrival sequence is strictly
        // increasing no matter how heavy the offered load is.
        let mut rng = StdRng::seed_from_u64(99);
        let mean = Duration::from_nanos(1);
        let mut arrival = SimTime::ZERO;
        for _ in 0..10_000 {
            let gap = exponential(&mut rng, mean);
            assert!(gap >= Duration::from_nanos(1), "gap must never be zero");
            let next = arrival + gap;
            assert!(next > arrival, "arrivals must strictly increase");
            arrival = next;
        }
        // Sanity at a realistic mean too: gaps stay positive and average
        // near the configured mean.
        let mean = Duration::from_micros(10);
        let mut total = Duration::ZERO;
        for _ in 0..10_000 {
            let gap = exponential(&mut rng, mean);
            assert!(gap >= Duration::from_nanos(1));
            total += gap;
        }
        let avg_ns = total.as_nanos() as f64 / 10_000.0;
        assert!(
            (avg_ns - 10_000.0).abs() < 1_000.0,
            "mean gap should be near 10us, got {avg_ns} ns"
        );
    }

    #[test]
    fn open_loop_arrivals_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut ftl = warmed_sharded(FtlKind::Ideal, 1);
            let mut wl = FioWorkload::new(FioPattern::RandRead, 4000, 2, 1, 200, 29);
            Runner::new().run_open_loop(&mut ftl, &mut wl, Duration::from_micros(50), seed)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.latencies.mean(), b.latencies.mean());
        assert_eq!(a.latencies.max(), b.latencies.max());
        let c = run(8);
        assert!(
            c.elapsed != a.elapsed || c.latencies.mean() != a.latencies.mean(),
            "a different seed must produce a different arrival process"
        );
    }

    fn tenant_mix(requests: u64) -> workloads::TenantSet {
        use workloads::TenantSpec;
        let specs = vec![
            TenantSpec::write_heavy(Duration::from_micros(40), requests),
            TenantSpec::read_mostly(Duration::from_micros(20), requests).with_weight(4),
            TenantSpec::read_mostly(Duration::from_micros(20), requests).with_weight(4),
        ];
        workloads::TenantSet::new(specs, 4000, 0xBEEF)
    }

    #[test]
    fn tenant_run_attributes_every_request_to_its_lane() {
        let mut ftl = warmed_sharded(FtlKind::Dftl, 2);
        let mut set = tenant_mix(200);
        let run = Runner::new().run_tenants(&mut ftl, &mut set, true);
        assert_eq!(run.tenants.len(), 3);
        for lane in &run.tenants {
            assert_eq!(lane.requests, 200, "tenant {}", lane.tenant);
            assert_eq!(lane.latencies.count(), 200);
            assert_eq!(
                lane.read_pages + lane.write_pages,
                200,
                "single-page requests"
            );
        }
        assert_eq!(run.result.requests, 600);
        assert_eq!(run.result.latencies.count(), 600);
        assert_eq!(run.result.queueing.count(), 600);
        assert!(
            run.tenants[0].write_pages > run.tenants[0].read_pages,
            "tenant 0 is the write-heavy aggressor"
        );
        assert!(
            run.tenants[1].read_pages > run.tenants[1].write_pages,
            "tenant 1 is read-mostly"
        );
    }

    #[test]
    fn tenant_run_is_deterministic() {
        let run = |isolate: bool| {
            let mut ftl = warmed_sharded(FtlKind::Dftl, 2);
            let mut set = tenant_mix(150);
            Runner::new().run_tenants(&mut ftl, &mut set, isolate)
        };
        let a = run(true);
        let b = run(true);
        assert_eq!(a.result.elapsed, b.result.elapsed);
        assert_eq!(a.result.latencies.mean(), b.result.latencies.mean());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.latencies.mean(), y.latencies.mean());
            assert_eq!(x.latencies.max(), y.latencies.max());
        }
        // The FIFO baseline serves the same requests (arrival processes are
        // admission-independent), just in a different order.
        let fifo = run(false);
        assert_eq!(fifo.result.requests, a.result.requests);
        for (x, y) in fifo.tenants.iter().zip(&a.tenants) {
            assert_eq!(x.requests, y.requests);
            assert_eq!(x.read_pages, y.read_pages);
            assert_eq!(x.write_pages, y.write_pages);
        }
    }
}
