//! In-memory trace analysis: latency attribution, GC-interference forensics,
//! resource utilisation and tail exemplars — computed directly from the
//! merged [`TraceEvent`] stream, no JSON round-trip.
//!
//! The engine answers the questions the raw trace only displays:
//!
//! * **Where did each request's time go?** [`RequestBreakdown`] splits every
//!   flow-linked host request's wall time into queue-wait, translation, NAND,
//!   channel-bus and GC-interference components that *sum exactly* to the
//!   measured latency (integer nanoseconds, test-enforced).
//! * **How much host latency is GC's fault?** [`GcTax`] aggregates the GC
//!   component per shard and across the FTL.
//! * **How busy was the hardware?** [`PlaneUse`]/[`ChannelUse`] report busy
//!   time, GC share, utilisation against the shard's traced window, and idle
//!   gaps per plane and channel.
//! * **What do the slowest requests look like?** [`Exemplar`]s carry the
//!   top-K tail requests with a reconstructed span tree of the shard's
//!   device activity while each was in flight (fig21/fig24 forensics).
//!
//! # Attribution model
//!
//! The trace stream carries no request id on flash or scheduler events (a
//! plane span does not know which host request caused it), so attribution is
//! by **time-window overlap on the request's shard**: the service window
//! `[issue, completion]` is partitioned by what the shard's hardware was
//! doing at each instant, with a fixed precedence when activities overlap —
//! GC-flagged work (the interference being measured) over channel-bus
//! transfers over NAND plane occupancy; uncovered remainder is charged to
//! translation/compute. Queue-wait is `issue − arrival`, taken from the host
//! span itself. The components therefore sum to the measured latency *by
//! construction*, and the report is a pure function of the event stream:
//! byte-identical across runs and across execution backends whenever the
//! trace is.
//!
//! [`TraceAnalysis::to_json`] renders the deterministic `analysis.json`
//! artifact (same byte-identical discipline as
//! [`crate::chrome_trace_json`]); [`validate_analysis_json`] shape-checks it
//! for CI.

use crate::json::{Json, JsonParser};
use crate::sim_trace::{shard_epochs, Slots};
use ssd_sim::{FlashOp, TraceData, TraceEvent};
use std::cmp::Reverse;
use std::fmt::Write as _;

/// How many slowest-request exemplars [`analyze`] keeps.
pub const EXEMPLAR_TOP_K: usize = 5;

/// How many device-activity nodes one exemplar's span tree may carry before
/// truncation (the count is recorded in [`Exemplar::truncated_spans`]).
const EXEMPLAR_SPAN_CAP: usize = 48;

/// Schema tag written into (and required from) `analysis.json`.
pub const ANALYSIS_SCHEMA: &str = "learnedftl-analysis-v1";

fn op_label(op: FlashOp) -> &'static str {
    match op {
        FlashOp::Read => "read",
        FlashOp::Program => "program",
        FlashOp::Erase => "erase",
    }
}

/// One host request's latency decomposition. All timestamps are rebased onto
/// the request's shard epoch (see [`crate::sim_trace`] on why shard clocks
/// can drift apart before tracing starts); all durations are exact integer
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestBreakdown {
    /// Dense request index in dispatch order (the flow id in the Chrome
    /// trace).
    pub req: u64,
    /// Shard that served the request.
    pub shard: u32,
    /// Host lane the request arrived on.
    pub lane: u32,
    /// Tenant (namespace) the request belongs to (0 for single-tenant
    /// workloads).
    pub tenant: u32,
    /// Whether the request was a write.
    pub write: bool,
    /// Pages transferred.
    pub pages: u32,
    /// Arrival time (shard-epoch-rebased nanoseconds).
    pub arrival_ns: u64,
    /// Dispatch time (≥ arrival).
    pub issue_ns: u64,
    /// Completion time (≥ issue).
    pub completion_ns: u64,
    /// Time queued in the host model before dispatch (`issue − arrival`).
    pub queue_wait_ns: u64,
    /// Service-window time not covered by any traced device activity:
    /// translation, mapping lookups and other compute.
    pub translation_ns: u64,
    /// Service-window time under host NAND plane occupancy.
    pub nand_ns: u64,
    /// Service-window time under host channel-bus transfer (and no higher
    /// precedence activity).
    pub bus_ns: u64,
    /// Service-window time blocked behind `Priority::Gc` work on the
    /// request's shard (GC-flagged plane or bus activity).
    pub gc_ns: u64,
}

impl RequestBreakdown {
    /// The measured request latency (arrival to completion).
    pub fn latency_ns(&self) -> u64 {
        self.completion_ns - self.arrival_ns
    }

    /// Sum of the five components; equals [`Self::latency_ns`] by
    /// construction (the property test pins this).
    pub fn components_sum_ns(&self) -> u64 {
        self.components().iter().sum()
    }

    /// `[queue_wait, translation, nand, bus, gc]` nanoseconds.
    fn components(&self) -> [u64; 5] {
        [
            self.queue_wait_ns,
            self.translation_ns,
            self.nand_ns,
            self.bus_ns,
            self.gc_ns,
        ]
    }
}

/// Nearest-rank p99 of `latencies` (0 when empty); reorders them.
fn nearest_rank_p99(latencies: &mut [u64]) -> u64 {
    match (latencies.len() * 99).div_ceil(100).checked_sub(1) {
        Some(rank) => *latencies.select_nth_unstable(rank).1,
        None => 0,
    }
}

/// GC's cost to the host, aggregated over one shard or the whole FTL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcTax {
    /// Total host request time attributed to GC interference.
    pub host_wait_ns: u64,
    /// Requests with a non-zero GC component.
    pub affected_requests: u64,
    /// The worst single request's GC component.
    pub max_request_ns: u64,
    /// Plane time occupied by GC charge replay.
    pub gc_plane_busy_ns: u64,
    /// Channel-bus time occupied by GC charge replay.
    pub gc_bus_busy_ns: u64,
}

impl GcTax {
    fn fold(&mut self, other: &GcTax) {
        self.host_wait_ns += other.host_wait_ns;
        self.affected_requests += other.affected_requests;
        self.max_request_ns = self.max_request_ns.max(other.max_request_ns);
        self.gc_plane_busy_ns += other.gc_plane_busy_ns;
        self.gc_bus_busy_ns += other.gc_bus_busy_ns;
    }
}

/// Busy/idle accounting of one plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneUse {
    /// Shard the plane belongs to.
    pub shard: u32,
    /// Flat chip index within the shard.
    pub chip: u32,
    /// Plane index within the chip.
    pub plane: u32,
    /// NAND operations traced on the plane.
    pub ops: u64,
    /// Total plane occupancy (plane ops never overlap on one plane).
    pub busy_ns: u64,
    /// The GC share of that occupancy.
    pub gc_ns: u64,
    /// Idle gaps between consecutive operations.
    pub idle_gaps: u64,
    /// Total idle time inside those gaps.
    pub idle_ns: u64,
    /// The longest single idle gap.
    pub max_idle_ns: u64,
}

/// Busy/idle accounting of one channel bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelUse {
    /// Shard the channel belongs to.
    pub shard: u32,
    /// Channel index within the shard.
    pub channel: u32,
    /// Bus transfers traced on the channel.
    pub xfers: u64,
    /// Total bus occupancy.
    pub busy_ns: u64,
    /// The GC share of that occupancy.
    pub gc_ns: u64,
    /// Idle gaps between consecutive transfers.
    pub idle_gaps: u64,
    /// Total idle time inside those gaps.
    pub idle_ns: u64,
    /// The longest single idle gap.
    pub max_idle_ns: u64,
}

/// Submission-ring batching statistics of one shard: how many requests the
/// thread-parallel backend coalesced into each SQ/CQ channel round-trip.
///
/// Built from [`TraceData::RingBatch`] counters, which only the threaded
/// backend emits — a simulated trace (or one stripped for cross-backend
/// comparison) produces an empty ring section, so the rest of the report
/// stays byte-identical across backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingUse {
    /// Shard the ring belongs to.
    pub shard: u32,
    /// Submission batches executed by the shard's worker.
    pub batches: u64,
    /// Total work items across those batches.
    pub entries: u64,
    /// The largest single batch.
    pub max_entries: u32,
}

impl RingUse {
    /// Mean work items per batch (0 when no batches were traced).
    pub fn mean_entries(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.entries as f64 / self.batches as f64
        }
    }
}

/// Per-shard rollup: traced window, request count, GC tax and resource
/// utilisation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// The shard's traced window (first event start to last event end).
    pub span_ns: u64,
    /// Host requests served by the shard.
    pub requests: u64,
    /// GC tax over the shard's requests and device.
    pub gc_tax: GcTax,
    /// Planes observed in the shard's stream.
    pub planes: u64,
    /// Total plane busy time across them.
    pub plane_busy_ns: u64,
    /// Channels observed in the shard's stream.
    pub channels: u64,
    /// Total bus busy time across them.
    pub bus_busy_ns: u64,
}

impl ShardReport {
    /// Plane utilisation: busy fraction of `planes × span`.
    pub fn plane_util(&self) -> f64 {
        let denom = self.span_ns.saturating_mul(self.planes);
        if denom == 0 {
            0.0
        } else {
            self.plane_busy_ns as f64 / denom as f64
        }
    }

    /// Bus utilisation: busy fraction of `channels × span`.
    pub fn bus_util(&self) -> f64 {
        let denom = self.span_ns.saturating_mul(self.channels);
        if denom == 0 {
            0.0
        } else {
            self.bus_busy_ns as f64 / denom as f64
        }
    }
}

/// Per-tenant rollup: request mix, latency aggregates and component sums
/// for one tenant (namespace) in a multi-tenant trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantReport {
    /// The tenant (namespace) index.
    pub tenant: u32,
    /// Host requests attributed to the tenant.
    pub requests: u64,
    /// Read requests among them.
    pub reads: u64,
    /// Write requests among them.
    pub writes: u64,
    /// Sum of the tenant's request latencies.
    pub total_latency_ns: u64,
    /// The tenant's slowest request.
    pub max_latency_ns: u64,
    /// Nearest-rank p99 of the tenant's request latencies.
    pub p99_latency_ns: u64,
    /// Component sums over the tenant's requests, in the order queue-wait,
    /// translation, NAND, bus, GC.
    pub components_ns: [u64; 5],
}

impl TenantReport {
    /// Mean request latency (0 for an empty tenant).
    pub fn mean_latency_ns(&self) -> u64 {
        self.total_latency_ns
            .checked_div(self.requests)
            .unwrap_or(0)
    }
}

/// One node of an exemplar's reconstructed span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExemplarSpan {
    /// A scheduler command lifecycle overlapping the request's service
    /// window, with the plane operations it issued nested inside.
    Cmd {
        /// Flat chip index the command targeted.
        chip: u32,
        /// The flash operation.
        op: FlashOp,
        /// Whether the command ran in the GC priority class.
        gc: bool,
        /// Submission time (shard-epoch-rebased).
        start_ns: u64,
        /// Dispatch time.
        issued_ns: u64,
        /// Completion time.
        end_ns: u64,
        /// Plane occupancy spans on the command's chip that started inside
        /// its dispatch window.
        planes: Vec<ExemplarPlane>,
    },
    /// A channel-bus transfer overlapping the service window.
    Bus {
        /// Channel index.
        channel: u32,
        /// The flash operation the burst belongs to.
        op: FlashOp,
        /// Whether it was GC charge replay.
        gc: bool,
        /// Transfer start (shard-epoch-rebased).
        start_ns: u64,
        /// Transfer end.
        end_ns: u64,
    },
}

/// A plane-occupancy leaf in an exemplar's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExemplarPlane {
    /// Plane index within the chip.
    pub plane: u32,
    /// The flash operation occupying the plane.
    pub op: FlashOp,
    /// Whether it was GC charge replay.
    pub gc: bool,
    /// Occupancy start (shard-epoch-rebased).
    pub start_ns: u64,
    /// Occupancy end.
    pub end_ns: u64,
}

/// One of the top-K slowest requests, with its decomposition and the span
/// tree of everything its shard's device was doing while it was in flight.
///
/// The tree is a **time-window reconstruction**: the trace carries no
/// request id on device events, so the children are the shard's command /
/// plane / bus spans overlapping the request's service window — the full
/// contention picture a tail request experienced, not a causal slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The request's decomposition (also present in
    /// [`TraceAnalysis::requests`]).
    pub breakdown: RequestBreakdown,
    /// Device activity overlapping the service window, in start order.
    pub spans: Vec<ExemplarSpan>,
    /// Activity nodes dropped by the per-exemplar cap.
    pub truncated_spans: u64,
}

/// Everything [`analyze`] computed from one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAnalysis {
    /// Events in the input stream.
    pub events: u64,
    /// Every host request's decomposition, in dispatch (`req`) order.
    pub requests: Vec<RequestBreakdown>,
    /// Per-shard rollups, in shard order.
    pub shards: Vec<ShardReport>,
    /// Per-tenant rollups, in tenant order. Single-tenant traces produce one
    /// entry for tenant 0; a trace with no host requests produces none.
    pub tenants: Vec<TenantReport>,
    /// Per-plane accounting, in (shard, chip, plane) order.
    pub planes: Vec<PlaneUse>,
    /// Per-channel accounting, in (shard, channel) order.
    pub channels: Vec<ChannelUse>,
    /// Per-shard submission-ring batching, in shard order. Empty unless the
    /// trace came from the thread-parallel backend with its batch counters
    /// intact.
    pub rings: Vec<RingUse>,
    /// The top-K slowest requests (latency descending, request index
    /// ascending on ties), each with its reconstructed span tree.
    pub exemplars: Vec<Exemplar>,
}

/// What overlapping device activity a service-window instant is charged to,
/// in ascending precedence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Charge {
    Nand = 0,
    Bus = 1,
    Gc = 2,
}

/// One covered segment of a shard's timeline: `[start_ns, end_ns)` charged
/// to `charge`. Segments are disjoint and sorted.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start_ns: u64,
    end_ns: u64,
    charge: Charge,
}

/// Sweep bounds are packed `u64`s, so the sweep sorts plain integers: time
/// in the high 61 bits, saturating here (73 years of simulated time), then
/// the charge class and whether the bound closes its interval.
const SWEEP_TIME_MAX: u64 = (1 << 61) - 1;

/// Appends `[start, end)` charged to `charge` to a shard's sweep bounds;
/// empty intervals charge nothing.
fn push_interval(bounds: &mut Vec<u64>, start: u64, end: u64, charge: Charge) {
    if end > start {
        let class = (charge as u64) << 1;
        bounds.push(start.min(SWEEP_TIME_MAX) << 3 | class);
        bounds.push(end.min(SWEEP_TIME_MAX) << 3 | class | 1);
    }
}

/// Builds the disjoint charged segments of one shard's timeline from its
/// packed bounds via a boundary sweep: at every instant the active charge is
/// the highest-precedence class with a live interval.
fn charged_segments(bounds: &mut [u64]) -> Vec<Segment> {
    bounds.sort_unstable();
    let mut segments: Vec<Segment> = Vec::new();
    let mut live = [0i64; 3];
    let mut cursor = 0u64;
    for &bound in bounds.iter() {
        let t = bound >> 3;
        // Every bound at `cursor` is applied: charge `[cursor, t)`.
        if t > cursor {
            let active = [Charge::Gc, Charge::Bus, Charge::Nand]
                .into_iter()
                .find(|&c| live[c as usize] > 0);
            if let Some(charge) = active {
                // Coalesce with the previous segment when the boundary only
                // changed an inactive class.
                match segments.last_mut() {
                    Some(last) if last.end_ns == cursor && last.charge == charge => last.end_ns = t,
                    _ => segments.push(Segment {
                        start_ns: cursor,
                        end_ns: t,
                        charge,
                    }),
                }
            }
            cursor = t;
        }
        live[(bound >> 1 & 3) as usize] += if bound & 1 == 0 { 1 } else { -1 };
    }
    segments
}

/// Sums a window's overlap with the charged segments into per-class totals
/// (`[nand, bus, gc]` nanoseconds).
fn window_charges(segments: &[Segment], start: u64, end: u64) -> [u64; 3] {
    let mut sums = [0u64; 3];
    if end <= start {
        return sums;
    }
    // First segment that ends after the window starts.
    let mut idx = segments.partition_point(|s| s.end_ns <= start);
    while let Some(seg) = segments.get(idx) {
        if seg.start_ns >= end {
            break;
        }
        let lo = seg.start_ns.max(start);
        let hi = seg.end_ns.min(end);
        sums[seg.charge as usize] += hi - lo;
        idx += 1;
    }
    sums
}

/// Per-unit busy/idle accumulator shared by plane and channel accounting,
/// kept in [`PlaneUse`]'s shape (a channel's index sits in `chip`).
#[derive(Clone, Default)]
struct UnitAcc {
    row: PlaneUse,
    prev_end: Option<u64>,
}

impl UnitAcc {
    /// Records one operation of `(shard, chip, plane)`; returns its busy time.
    fn record(
        &mut self,
        (shard, chip, plane): (u32, u32, u32),
        start: u64,
        end: u64,
        gc: bool,
    ) -> u64 {
        let row = &mut self.row;
        (row.shard, row.chip, row.plane) = (shard, chip, plane);
        row.ops += 1;
        let dur = end.saturating_sub(start);
        row.busy_ns += dur;
        if gc {
            row.gc_ns += dur;
        }
        if let Some(prev) = self.prev_end {
            if start > prev {
                let gap = start - prev;
                row.idle_gaps += 1;
                row.idle_ns += gap;
                row.max_idle_ns = row.max_idle_ns.max(gap);
            }
        }
        self.prev_end = Some(self.prev_end.unwrap_or(0).max(end));
        dur
    }
}

/// A plane's table key, ordered by (shard, chip, plane).
fn plane_key(shard: u32, chip: u32, plane: u32) -> u128 {
    u128::from(shard) << 64 | u128::from(chip) << 32 | u128::from(plane)
}

/// A channel's table key, ordered by (shard, channel).
fn channel_key(shard: u32, channel: u32) -> u64 {
    u64::from(shard) << 32 | u64::from(channel)
}

/// Runs the analysis engine over a merged trace.
///
/// A pure function of the event stream (dense tables in key order, integer
/// arithmetic, no clocks): identical streams analyse to identical reports,
/// which is what makes `analysis.json` byte-stable across runs and backends.
///
/// Every table is indexed by the slots of the shard, plane, channel and
/// tenant keys the trace contains; then one accounting pass with the top-K
/// selection, and one pass for the decompositions and exemplars.
pub fn analyze(events: &[TraceEvent]) -> TraceAnalysis {
    let epochs = shard_epochs(events);
    let shard_count = epochs.slots.len();
    let (mut plane_slots, mut channel_slots, mut tenant_slots) =
        (Slots::new(), Slots::new(), Slots::new());
    for e in events {
        match e.data {
            TraceData::PlaneOp { chip, plane, .. } => {
                plane_slots.insert(plane_key(e.shard, chip, plane))
            }
            TraceData::BusXfer { channel, .. } => {
                channel_slots.insert(channel_key(e.shard, channel))
            }
            TraceData::HostRequest { tenant, .. } => tenant_slots.insert(tenant),
            _ => {}
        }
    }
    let (plane_slots, channel_slots, tenant_slots) = (
        plane_slots.sealed(),
        channel_slots.sealed(),
        tenant_slots.sealed(),
    );

    // Accounting: charged intervals as packed sweep bounds, unit accounting,
    // shard windows, ring batches, and the K slowest requests as (latency
    // descending, request index, event index).
    let mut shards: Vec<Option<ShardReport>> = vec![None; shard_count];
    let mut bounds: Vec<Vec<u64>> = vec![Vec::new(); shard_count];
    let mut rings = vec![RingUse::default(); shard_count];
    let mut planes = vec![UnitAcc::default(); plane_slots.len()];
    let mut units = vec![UnitAcc::default(); channel_slots.len()];
    let mut slowest: Vec<(Reverse<u64>, u64, usize)> = Vec::with_capacity(EXEMPLAR_TOP_K + 1);
    let mut host_requests = 0;
    for (i, e) in events.iter().enumerate() {
        let slot = epochs.slot(e.shard);
        // Ring-batch counters are backend bookkeeping, not device activity:
        // they feed the ring section only and never touch shard windows or
        // charge intervals, so every other section of the report is
        // unchanged by their presence.
        if let TraceData::RingBatch { entries } = e.data {
            let ring = &mut rings[slot];
            ring.shard = e.shard;
            ring.batches += 1;
            ring.entries += u64::from(entries);
            ring.max_entries = ring.max_entries.max(entries);
            continue;
        }
        let epoch = epochs.epoch(slot);
        let (start, end) = (
            e.start.as_nanos().saturating_sub(epoch),
            e.end.as_nanos().saturating_sub(epoch),
        );
        let report = shards[slot].get_or_insert(ShardReport {
            shard: e.shard,
            ..ShardReport::default()
        });
        report.span_ns = report.span_ns.max(end);
        match e.data {
            TraceData::PlaneOp {
                chip, plane, gc, ..
            } => {
                let charge = if gc { Charge::Gc } else { Charge::Nand };
                push_interval(&mut bounds[slot], start, end, charge);
                let unit = &mut planes[plane_slots.slot(plane_key(e.shard, chip, plane))];
                report.planes += u64::from(unit.row.ops == 0);
                let busy = unit.record((e.shard, chip, plane), start, end, gc);
                report.plane_busy_ns += busy;
                report.gc_tax.gc_plane_busy_ns += if gc { busy } else { 0 };
            }
            TraceData::BusXfer { channel, gc, .. } => {
                let charge = if gc { Charge::Gc } else { Charge::Bus };
                push_interval(&mut bounds[slot], start, end, charge);
                let unit = &mut units[channel_slots.slot(channel_key(e.shard, channel))];
                report.channels += u64::from(unit.row.ops == 0);
                let busy = unit.record((e.shard, channel, 0), start, end, gc);
                report.bus_busy_ns += busy;
                report.gc_tax.gc_bus_busy_ns += if gc { busy } else { 0 };
            }
            TraceData::HostRequest { req, .. } => {
                host_requests += 1;
                let rank = (Reverse(end - start), req, i);
                slowest.insert(slowest.partition_point(|r| *r < rank), rank);
                slowest.truncate(EXEMPLAR_TOP_K);
            }
            _ => {}
        }
    }
    let segments: Vec<Vec<Segment>> = bounds.iter_mut().map(|b| charged_segments(b)).collect();
    let decompose = |e: &TraceEvent| {
        let TraceData::HostRequest {
            req,
            lane,
            write,
            pages,
            tenant,
            issue,
        } = e.data
        else {
            return None;
        };
        let slot = epochs.slot(e.shard);
        let rebase = |t: ssd_sim::SimTime| t.as_nanos().saturating_sub(epochs.epoch(slot));
        let (arrival_ns, completion_ns) = (rebase(e.start), rebase(e.end));
        let issue_ns = rebase(issue).clamp(arrival_ns, completion_ns);
        let [nand_ns, bus_ns, gc_ns] = window_charges(&segments[slot], issue_ns, completion_ns);
        Some(RequestBreakdown {
            req,
            shard: e.shard,
            lane,
            tenant,
            write,
            pages,
            arrival_ns,
            issue_ns,
            completion_ns,
            queue_wait_ns: issue_ns - arrival_ns,
            translation_ns: (completion_ns - issue_ns) - (nand_ns + bus_ns + gc_ns),
            nand_ns,
            bus_ns,
            gc_ns,
        })
    };

    // Host-request decomposition against the shard segments, with the shard
    // and tenant rollups, and the exemplars' span trees, in one pass.
    let mut exemplars: Vec<ExemplarBuild> = slowest
        .iter()
        .map(|&(_, _, i)| ExemplarBuild {
            exemplar: Exemplar {
                breakdown: decompose(&events[i]).expect("a host request"),
                spans: Vec::new(),
                truncated_spans: 0,
            },
            loose_planes: Vec::new(),
        })
        .collect();
    let mut requests: Vec<RequestBreakdown> = Vec::with_capacity(host_requests);
    let mut tenant_reports = vec![TenantReport::default(); tenant_slots.len()];
    let mut tenant_latencies: Vec<Vec<u64>> = vec![Vec::new(); tenant_slots.len()];
    for e in events {
        let slot = epochs.slot(e.shard);
        let Some(r) = decompose(e) else {
            for x in &mut exemplars {
                x.add(e, epochs.epoch(slot));
            }
            continue;
        };
        if let Some(report) = &mut shards[slot] {
            report.requests += 1;
            report.gc_tax.host_wait_ns += r.gc_ns;
            report.gc_tax.affected_requests += u64::from(r.gc_ns > 0);
            report.gc_tax.max_request_ns = report.gc_tax.max_request_ns.max(r.gc_ns);
        }
        let t = tenant_slots.slot(r.tenant);
        let report = &mut tenant_reports[t];
        report.tenant = r.tenant;
        report.requests += 1;
        report.writes += u64::from(r.write);
        report.reads += u64::from(!r.write);
        let latency = r.latency_ns();
        report.total_latency_ns += latency;
        report.max_latency_ns = report.max_latency_ns.max(latency);
        for (total, v) in report.components_ns.iter_mut().zip(r.components()) {
            *total += v;
        }
        tenant_latencies[t].push(latency);
        requests.push(r);
    }
    requests.sort_by_key(|r| r.req);
    for (report, lat) in tenant_reports.iter_mut().zip(&mut tenant_latencies) {
        report.p99_latency_ns = nearest_rank_p99(lat);
    }

    TraceAnalysis {
        events: events.len() as u64,
        requests,
        shards: shards.into_iter().flatten().collect(),
        tenants: tenant_reports
            .into_iter()
            .filter(|t| t.requests > 0)
            .collect(),
        planes: planes
            .into_iter()
            .filter_map(|a| (a.row.ops > 0).then_some(a.row))
            .collect(),
        channels: units
            .into_iter()
            .filter(|a| a.row.ops > 0)
            .map(|UnitAcc { row: a, .. }| ChannelUse {
                shard: a.shard,
                channel: a.chip,
                xfers: a.ops,
                busy_ns: a.busy_ns,
                gc_ns: a.gc_ns,
                idle_gaps: a.idle_gaps,
                idle_ns: a.idle_ns,
                max_idle_ns: a.max_idle_ns,
            })
            .collect(),
        rings: rings.into_iter().filter(|r| r.batches > 0).collect(),
        exemplars: exemplars.into_iter().map(ExemplarBuild::finish).collect(),
    }
}

/// One tail request's span tree under construction: the shard's command /
/// plane / bus spans overlapping its service window, in event order, with
/// plane spans held loose until [`ExemplarBuild::finish`] nests them.
struct ExemplarBuild {
    exemplar: Exemplar,
    loose_planes: Vec<(u32, ExemplarPlane)>,
}

impl ExemplarBuild {
    /// Takes one event, whose shard's timeline starts at `epoch`.
    fn add(&mut self, e: &TraceEvent, epoch: u64) {
        let rebase = |t: ssd_sim::SimTime| t.as_nanos().saturating_sub(epoch);
        let (start, end) = (rebase(e.start), rebase(e.end));
        let b = &self.exemplar.breakdown;
        if e.shard != b.shard || start >= b.completion_ns || end <= b.issue_ns {
            return;
        }
        let full = self.exemplar.spans.len() + self.loose_planes.len() >= EXEMPLAR_SPAN_CAP;
        match e.data {
            TraceData::CmdLifecycle { .. }
            | TraceData::PlaneOp { .. }
            | TraceData::BusXfer { .. }
                if full =>
            {
                self.exemplar.truncated_spans += 1
            }
            TraceData::CmdLifecycle {
                chip,
                op,
                gc,
                issued,
            } => self.exemplar.spans.push(ExemplarSpan::Cmd {
                chip,
                op,
                gc,
                start_ns: start,
                issued_ns: rebase(issued),
                end_ns: end,
                planes: Vec::new(),
            }),
            TraceData::PlaneOp {
                chip,
                plane,
                op,
                gc,
            } => self.loose_planes.push((
                chip,
                ExemplarPlane {
                    plane,
                    op,
                    gc,
                    start_ns: start,
                    end_ns: end,
                },
            )),
            TraceData::BusXfer { channel, op, gc } => self.exemplar.spans.push(ExemplarSpan::Bus {
                channel,
                op,
                gc,
                start_ns: start,
                end_ns: end,
            }),
            _ => {}
        }
    }

    /// Nests plane spans under the first command on their chip whose
    /// dispatch window contains their start. A plane span whose owning
    /// command lies outside the window (or past the cap) has nowhere to hang
    /// and is counted as truncated.
    fn finish(mut self) -> Exemplar {
        for (chip, plane_span) in self.loose_planes {
            let owner = self.exemplar.spans.iter_mut().find_map(|span| match span {
                ExemplarSpan::Cmd {
                    chip: c,
                    issued_ns,
                    end_ns,
                    planes,
                    ..
                } if *c == chip
                    && *issued_ns <= plane_span.start_ns
                    && plane_span.start_ns < *end_ns =>
                {
                    Some(planes)
                }
                _ => None,
            });
            match owner {
                Some(planes) => planes.push(plane_span),
                None => self.exemplar.truncated_spans += 1,
            }
        }
        self.exemplar
    }
}

impl TraceAnalysis {
    /// The FTL-wide GC tax: the per-shard reports folded together.
    pub fn gc_tax(&self) -> GcTax {
        let mut total = GcTax::default();
        for s in &self.shards {
            total.fold(&s.gc_tax);
        }
        total
    }

    /// FTL-wide submission-ring batching: the per-shard [`RingUse`] rows
    /// folded together (shard index 0 is meaningless on the fold).
    pub fn ring_totals(&self) -> RingUse {
        let mut total = RingUse::default();
        for r in &self.rings {
            total.batches += r.batches;
            total.entries += r.entries;
            total.max_entries = total.max_entries.max(r.max_entries);
        }
        total
    }

    /// Component totals over all requests:
    /// `[queue_wait, translation, nand, bus, gc]` nanoseconds.
    pub fn component_totals_ns(&self) -> [u64; 5] {
        let mut t = [0u64; 5];
        for r in &self.requests {
            for (total, v) in t.iter_mut().zip(r.components()) {
                *total += v;
            }
        }
        t
    }

    /// Renders the deterministic `analysis.json` artifact.
    ///
    /// `figure` records which figure (and protocol) produced the trace.
    /// Aggregates, utilisation and exemplars are included; the full
    /// per-request array is an in-memory API ([`Self::requests`]), not part
    /// of the artifact.
    pub fn to_json(&self, figure: &str) -> String {
        let mut out = String::new();
        let frac = |v: f64| format!("{v:.6}");
        let _ = write!(
            out,
            "{{\"schema\":\"{ANALYSIS_SCHEMA}\",\"figure\":\"{figure}\",\"events\":{},",
            self.events
        );

        // Request aggregates.
        let count = self.requests.len() as u64;
        let writes = self.requests.iter().filter(|r| r.write).count() as u64;
        let total_latency: u64 = self.requests.iter().map(|r| r.latency_ns()).sum();
        let max_latency = self
            .requests
            .iter()
            .map(|r| r.latency_ns())
            .max()
            .unwrap_or(0);
        let mut latencies: Vec<u64> = self.requests.iter().map(|r| r.latency_ns()).collect();
        let p99_latency = nearest_rank_p99(&mut latencies);
        let totals = self.component_totals_ns();
        let share = |v: u64| {
            if total_latency == 0 {
                frac(0.0)
            } else {
                frac(v as f64 / total_latency as f64)
            }
        };
        let _ = write!(
            out,
            "\"requests\":{{\"count\":{count},\"reads\":{},\"writes\":{writes},\
             \"latency_ns\":{{\"total\":{total_latency},\"mean\":{},\"max\":{max_latency},\
             \"p99\":{p99_latency}}},\
             \"components_ns\":{{\"queue_wait\":{},\"translation\":{},\"nand\":{},\
             \"bus\":{},\"gc\":{}}},\
             \"components_share\":{{\"queue_wait\":{},\"translation\":{},\"nand\":{},\
             \"bus\":{},\"gc\":{}}}}},",
            count - writes,
            total_latency.checked_div(count).unwrap_or(0),
            totals[0],
            totals[1],
            totals[2],
            totals[3],
            totals[4],
            share(totals[0]),
            share(totals[1]),
            share(totals[2]),
            share(totals[3]),
            share(totals[4]),
        );

        // FTL-wide GC tax.
        let tax = self.gc_tax();
        let _ = write!(
            out,
            "\"gc_tax\":{{\"host_wait_ns\":{},\"affected_requests\":{},\
             \"max_request_ns\":{},\"gc_plane_busy_ns\":{},\"gc_bus_busy_ns\":{},\
             \"share_of_latency\":{}}},",
            tax.host_wait_ns,
            tax.affected_requests,
            tax.max_request_ns,
            tax.gc_plane_busy_ns,
            tax.gc_bus_busy_ns,
            share(tax.host_wait_ns),
        );

        // Shard rollups.
        out.push_str("\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"span_ns\":{},\"requests\":{},\
                 \"gc_tax\":{{\"host_wait_ns\":{},\"affected_requests\":{},\
                 \"max_request_ns\":{},\"gc_plane_busy_ns\":{},\"gc_bus_busy_ns\":{}}},\
                 \"planes\":{},\"plane_busy_ns\":{},\"plane_util\":{},\
                 \"channels\":{},\"bus_busy_ns\":{},\"bus_util\":{}}}",
                s.shard,
                s.span_ns,
                s.requests,
                s.gc_tax.host_wait_ns,
                s.gc_tax.affected_requests,
                s.gc_tax.max_request_ns,
                s.gc_tax.gc_plane_busy_ns,
                s.gc_tax.gc_bus_busy_ns,
                s.planes,
                s.plane_busy_ns,
                frac(s.plane_util()),
                s.channels,
                s.bus_busy_ns,
                frac(s.bus_util()),
            );
        }
        out.push_str("],");

        // Per-unit accounting.
        out.push_str("\"planes\":[");
        for (i, p) in self.planes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"chip\":{},\"plane\":{},\"ops\":{},\"busy_ns\":{},\
                 \"gc_ns\":{},\"idle_gaps\":{},\"idle_ns\":{},\"max_idle_ns\":{}}}",
                p.shard,
                p.chip,
                p.plane,
                p.ops,
                p.busy_ns,
                p.gc_ns,
                p.idle_gaps,
                p.idle_ns,
                p.max_idle_ns,
            );
        }
        out.push_str("],\"channels\":[");
        for (i, c) in self.channels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"channel\":{},\"xfers\":{},\"busy_ns\":{},\"gc_ns\":{},\
                 \"idle_gaps\":{},\"idle_ns\":{},\"max_idle_ns\":{}}}",
                c.shard,
                c.channel,
                c.xfers,
                c.busy_ns,
                c.gc_ns,
                c.idle_gaps,
                c.idle_ns,
                c.max_idle_ns,
            );
        }
        out.push_str("],");

        // Submission-ring batching (threaded backend only; zeros and an
        // empty shard list on simulated or ring-stripped traces, so the
        // document shape is backend-independent).
        let ring = self.ring_totals();
        let _ = write!(
            out,
            "\"ring\":{{\"batches\":{},\"entries\":{},\"mean_entries\":{},\
             \"max_entries\":{},\"shards\":[",
            ring.batches,
            ring.entries,
            frac(ring.mean_entries()),
            ring.max_entries,
        );
        for (i, r) in self.rings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"batches\":{},\"entries\":{},\"mean_entries\":{},\
                 \"max_entries\":{}}}",
                r.shard,
                r.batches,
                r.entries,
                frac(r.mean_entries()),
                r.max_entries,
            );
        }
        out.push_str("]},");

        // Per-tenant rollups.
        out.push_str("\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"tenant\":{},\"requests\":{},\"reads\":{},\"writes\":{},\
                 \"latency_ns\":{{\"total\":{},\"mean\":{},\"max\":{},\"p99\":{}}},\
                 \"components_ns\":{{\"queue_wait\":{},\"translation\":{},\"nand\":{},\
                 \"bus\":{},\"gc\":{}}}}}",
                t.tenant,
                t.requests,
                t.reads,
                t.writes,
                t.total_latency_ns,
                t.mean_latency_ns(),
                t.max_latency_ns,
                t.p99_latency_ns,
                t.components_ns[0],
                t.components_ns[1],
                t.components_ns[2],
                t.components_ns[3],
                t.components_ns[4],
            );
        }
        out.push_str("],");

        // Exemplars.
        out.push_str("\"exemplars\":[");
        for (i, x) in self.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let b = &x.breakdown;
            let _ = write!(
                out,
                "{{\"req\":{},\"shard\":{},\"lane\":{},\"write\":{},\"pages\":{},\
                 \"arrival_ns\":{},\"issue_ns\":{},\"completion_ns\":{},\
                 \"latency_ns\":{},\
                 \"components_ns\":{{\"queue_wait\":{},\"translation\":{},\"nand\":{},\
                 \"bus\":{},\"gc\":{}}},\"spans\":[",
                b.req,
                b.shard,
                b.lane,
                b.write,
                b.pages,
                b.arrival_ns,
                b.issue_ns,
                b.completion_ns,
                b.latency_ns(),
                b.queue_wait_ns,
                b.translation_ns,
                b.nand_ns,
                b.bus_ns,
                b.gc_ns,
            );
            for (j, span) in x.spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match span {
                    ExemplarSpan::Cmd {
                        chip,
                        op,
                        gc,
                        start_ns,
                        issued_ns,
                        end_ns,
                        planes,
                    } => {
                        let _ = write!(
                            out,
                            "{{\"kind\":\"cmd\",\"chip\":{chip},\"op\":\"{}\",\"gc\":{gc},\
                             \"start_ns\":{start_ns},\"issued_ns\":{issued_ns},\
                             \"end_ns\":{end_ns},\"planes\":[",
                            op_label(*op),
                        );
                        for (k, p) in planes.iter().enumerate() {
                            if k > 0 {
                                out.push(',');
                            }
                            let _ = write!(
                                out,
                                "{{\"plane\":{},\"op\":\"{}\",\"gc\":{},\
                                 \"start_ns\":{},\"end_ns\":{}}}",
                                p.plane,
                                op_label(p.op),
                                p.gc,
                                p.start_ns,
                                p.end_ns,
                            );
                        }
                        out.push_str("]}");
                    }
                    ExemplarSpan::Bus {
                        channel,
                        op,
                        gc,
                        start_ns,
                        end_ns,
                    } => {
                        let _ = write!(
                            out,
                            "{{\"kind\":\"bus\",\"channel\":{channel},\"op\":\"{}\",\
                             \"gc\":{gc},\"start_ns\":{start_ns},\"end_ns\":{end_ns}}}",
                            op_label(*op),
                        );
                    }
                }
            }
            let _ = write!(out, "],\"truncated_spans\":{}}}", x.truncated_spans);
        }
        out.push_str("]}\n");
        out
    }
}

/// Convenience: [`analyze`] + [`TraceAnalysis::to_json`] in one call.
pub fn analysis_json(events: &[TraceEvent], figure: &str) -> String {
    analyze(events).to_json(figure)
}

/// What [`validate_analysis_json`] observed in an `analysis.json` document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisSummary {
    /// `requests.count`.
    pub requests: u64,
    /// Entries in the `shards` array.
    pub shards: usize,
    /// Entries in the `planes` array.
    pub planes: usize,
    /// Entries in the `tenants` array.
    pub tenants: usize,
    /// Entries in the `exemplars` array.
    pub exemplars: usize,
}

/// Validates an `analysis.json` document against the
/// [`ANALYSIS_SCHEMA`] shape and re-checks the decomposition invariant on
/// every exemplar (components must sum to the recorded latency).
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn validate_analysis_json(json: &str) -> Result<AnalysisSummary, String> {
    let doc = JsonParser::new(json).parse_document()?;
    if doc.get("schema").and_then(Json::as_str) != Some(ANALYSIS_SCHEMA) {
        return Err(format!("schema must be {ANALYSIS_SCHEMA:?}"));
    }
    if doc.get("figure").and_then(Json::as_str).is_none() {
        return Err("missing figure string".into());
    }
    let number = |v: Option<&Json>, what: &str| -> Result<f64, String> {
        v.and_then(Json::as_number)
            .filter(|n| n.is_finite() && *n >= 0.0)
            .ok_or_else(|| format!("missing non-negative numeric {what}"))
    };
    number(doc.get("events"), "events")?;
    let requests = doc.get("requests").ok_or("missing requests object")?;
    let count = number(requests.get("count"), "requests.count")? as u64;
    let components = requests
        .get("components_ns")
        .ok_or("missing requests.components_ns")?;
    let mut components_total = 0u64;
    for key in ["queue_wait", "translation", "nand", "bus", "gc"] {
        components_total += number(components.get(key), key)? as u64;
    }
    let latency = requests
        .get("latency_ns")
        .ok_or("missing requests.latency_ns")?;
    let latency_total = number(latency.get("total"), "latency_ns.total")? as u64;
    if components_total != latency_total {
        return Err(format!(
            "component totals ({components_total} ns) do not sum to total latency \
             ({latency_total} ns)"
        ));
    }
    let tax = doc.get("gc_tax").ok_or("missing gc_tax object")?;
    number(tax.get("host_wait_ns"), "gc_tax.host_wait_ns")?;
    let shards = doc
        .get("shards")
        .and_then(Json::as_array)
        .ok_or("missing shards array")?;
    for (i, s) in shards.iter().enumerate() {
        number(s.get("shard"), &format!("shards[{i}].shard"))?;
        number(s.get("span_ns"), &format!("shards[{i}].span_ns"))?;
    }
    let planes = doc
        .get("planes")
        .and_then(Json::as_array)
        .ok_or("missing planes array")?;
    let ring = doc.get("ring").ok_or("missing ring object")?;
    let ring_batches = number(ring.get("batches"), "ring.batches")? as u64;
    let ring_entries = number(ring.get("entries"), "ring.entries")? as u64;
    number(ring.get("mean_entries"), "ring.mean_entries")?;
    number(ring.get("max_entries"), "ring.max_entries")?;
    if ring_entries < ring_batches {
        return Err(format!(
            "ring records {ring_batches} batches but only {ring_entries} entries \
             (every batch carries at least one)"
        ));
    }
    let ring_shards = ring
        .get("shards")
        .and_then(Json::as_array)
        .ok_or("missing ring.shards array")?;
    for (i, r) in ring_shards.iter().enumerate() {
        number(r.get("shard"), &format!("ring.shards[{i}].shard"))?;
        number(r.get("batches"), &format!("ring.shards[{i}].batches"))?;
        number(r.get("entries"), &format!("ring.shards[{i}].entries"))?;
    }
    let tenants = doc
        .get("tenants")
        .and_then(Json::as_array)
        .ok_or("missing tenants array")?;
    let mut tenant_requests = 0u64;
    for (i, t) in tenants.iter().enumerate() {
        number(t.get("tenant"), &format!("tenants[{i}].tenant"))?;
        tenant_requests += number(t.get("requests"), &format!("tenants[{i}].requests"))? as u64;
        t.get("latency_ns")
            .ok_or_else(|| format!("tenants[{i}]: missing latency_ns"))?;
        t.get("components_ns")
            .ok_or_else(|| format!("tenants[{i}]: missing components_ns"))?;
    }
    if tenant_requests != count {
        return Err(format!(
            "tenant rollups account for {tenant_requests} requests but the \
             document has {count}"
        ));
    }
    let exemplars = doc
        .get("exemplars")
        .and_then(Json::as_array)
        .ok_or("missing exemplars array")?;
    for (i, x) in exemplars.iter().enumerate() {
        let latency = number(x.get("latency_ns"), &format!("exemplars[{i}].latency_ns"))? as u64;
        let comp = x
            .get("components_ns")
            .ok_or_else(|| format!("exemplars[{i}]: missing components_ns"))?;
        let mut sum = 0u64;
        for key in ["queue_wait", "translation", "nand", "bus", "gc"] {
            sum += number(comp.get(key), &format!("exemplars[{i}].{key}"))? as u64;
        }
        if sum != latency {
            return Err(format!(
                "exemplars[{i}]: components sum to {sum} ns but latency is {latency} ns"
            ));
        }
        if x.get("spans").and_then(Json::as_array).is_none() {
            return Err(format!("exemplars[{i}]: missing spans array"));
        }
    }
    Ok(AnalysisSummary {
        requests: count,
        shards: shards.len(),
        planes: planes.len(),
        tenants: tenants.len(),
        exemplars: exemplars.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssd_sim::{SimTime, TraceBuffer, TraceSink};

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// A hand-built two-request stream with known overlap structure:
    ///
    /// ```text
    /// t(us):      0    10   20   30   40   50   60   70   80   90  100
    /// req 0:      |wait|<------------- service ------------------->|
    /// req 1:           |wait-----|<-------- service -------->|
    /// plane 0.0:       [read 10..40]        [gc-prog 60..80]
    /// bus ch 0:             [xfer 35..45]
    /// ```
    fn sample_events() -> Vec<TraceEvent> {
        let mut b = TraceBuffer::new();
        b.span(
            at(10),
            at(40),
            TraceData::PlaneOp {
                chip: 0,
                plane: 0,
                op: FlashOp::Read,
                gc: false,
            },
        );
        b.span(
            at(35),
            at(45),
            TraceData::BusXfer {
                channel: 0,
                op: FlashOp::Read,
                gc: false,
            },
        );
        b.span(
            at(60),
            at(80),
            TraceData::PlaneOp {
                chip: 0,
                plane: 0,
                op: FlashOp::Program,
                gc: true,
            },
        );
        b.span(
            at(10),
            at(40),
            TraceData::CmdLifecycle {
                chip: 0,
                op: FlashOp::Read,
                gc: false,
                issued: at(10),
            },
        );
        b.span(
            at(0),
            at(100),
            TraceData::HostRequest {
                req: 0,
                lane: 0,
                write: false,
                pages: 1,
                tenant: 0,
                issue: at(10),
            },
        );
        b.span(
            at(10),
            at(90),
            TraceData::HostRequest {
                req: 1,
                lane: 1,
                write: true,
                pages: 2,
                tenant: 1,
                issue: at(30),
            },
        );
        b.take()
    }

    #[test]
    fn decomposition_attributes_known_overlaps() {
        let analysis = analyze(&sample_events());
        assert_eq!(analysis.requests.len(), 2);

        // Request 0: wait 10us; service 10..100 = nand 10..35 (25),
        // bus 35..45 (10), gc 60..80 (20), translation = 90 - 55 = 35.
        let r0 = &analysis.requests[0];
        assert_eq!(r0.queue_wait_ns, 10_000);
        assert_eq!(r0.nand_ns, 25_000);
        assert_eq!(r0.bus_ns, 10_000);
        assert_eq!(r0.gc_ns, 20_000);
        assert_eq!(r0.translation_ns, 35_000);
        assert_eq!(r0.components_sum_ns(), r0.latency_ns());

        // Request 1: wait 20us; service 30..90 = nand 30..35 (5),
        // bus 35..45 (10), gc 60..80 (20), translation 25.
        let r1 = &analysis.requests[1];
        assert_eq!(r1.queue_wait_ns, 20_000);
        assert_eq!(r1.nand_ns, 5_000);
        assert_eq!(r1.bus_ns, 10_000);
        assert_eq!(r1.gc_ns, 20_000);
        assert_eq!(r1.translation_ns, 25_000);
        assert_eq!(r1.components_sum_ns(), r1.latency_ns());
    }

    #[test]
    fn gc_tax_and_utilisation_roll_up() {
        let analysis = analyze(&sample_events());
        let tax = analysis.gc_tax();
        assert_eq!(tax.host_wait_ns, 40_000, "both requests blocked 20us");
        assert_eq!(tax.affected_requests, 2);
        assert_eq!(tax.max_request_ns, 20_000);
        assert_eq!(tax.gc_plane_busy_ns, 20_000);
        assert_eq!(tax.gc_bus_busy_ns, 0);

        assert_eq!(analysis.planes.len(), 1);
        let p = &analysis.planes[0];
        assert_eq!(p.ops, 2);
        assert_eq!(p.busy_ns, 50_000);
        assert_eq!(p.gc_ns, 20_000);
        assert_eq!(p.idle_gaps, 1, "one gap 40..60us");
        assert_eq!(p.idle_ns, 20_000);
        assert_eq!(p.max_idle_ns, 20_000);

        assert_eq!(analysis.channels.len(), 1);
        assert_eq!(analysis.channels[0].busy_ns, 10_000);

        assert_eq!(analysis.shards.len(), 1);
        let s = &analysis.shards[0];
        assert_eq!(s.span_ns, 100_000);
        assert_eq!(s.requests, 2);
        assert_eq!(s.planes, 1);
        assert!((s.plane_util() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn exemplars_rank_by_latency_and_carry_span_trees() {
        let analysis = analyze(&sample_events());
        assert_eq!(analysis.exemplars.len(), 2);
        // Request 0 (100us) outranks request 1 (80us).
        assert_eq!(analysis.exemplars[0].breakdown.req, 0);
        assert_eq!(analysis.exemplars[1].breakdown.req, 1);
        let spans = &analysis.exemplars[0].spans;
        // One cmd (with the host read nested), one gc plane op that has no
        // owning command (counted truncated), one bus span.
        let cmds: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s, ExemplarSpan::Cmd { .. }))
            .collect();
        assert_eq!(cmds.len(), 1);
        if let ExemplarSpan::Cmd { planes, .. } = cmds[0] {
            assert_eq!(planes.len(), 1);
            assert!(!planes[0].gc);
        }
        assert!(spans
            .iter()
            .any(|s| matches!(s, ExemplarSpan::Bus { channel: 0, .. })));
        assert_eq!(
            analysis.exemplars[0].truncated_spans, 1,
            "the gc plane op has no overlapping command to nest under"
        );
    }

    #[test]
    fn analysis_json_is_deterministic_and_validates() {
        let a = analysis_json(&sample_events(), "unit-test");
        let b = analysis_json(&sample_events(), "unit-test");
        assert_eq!(a, b);
        let summary = validate_analysis_json(&a).expect("valid analysis.json");
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.shards, 1);
        assert_eq!(summary.planes, 1);
        assert_eq!(summary.exemplars, 2);
        assert!(a.contains("\"figure\":\"unit-test\""));
    }

    #[test]
    fn empty_trace_analyses_to_an_empty_valid_report() {
        let analysis = analyze(&[]);
        assert_eq!(analysis.requests.len(), 0);
        assert_eq!(analysis.exemplars.len(), 0);
        let json = analysis.to_json("empty");
        let summary = validate_analysis_json(&json).expect("valid");
        assert_eq!(summary.requests, 0);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_analysis_json("[]").is_err(), "not an object");
        assert!(
            validate_analysis_json("{\"schema\":\"other\"}").is_err(),
            "wrong schema"
        );
        let good = analysis_json(&sample_events(), "x");
        // Corrupt the decomposition totals: the validator re-checks the
        // invariant, so a single flipped component must be caught.
        let bad = good.replacen("\"queue_wait\":30000", "\"queue_wait\":30001", 1);
        assert_ne!(good, bad, "replacement must hit the components object");
        assert!(validate_analysis_json(&bad).is_err(), "broken invariant");
    }

    #[test]
    fn ring_batches_aggregate_per_shard_and_leave_the_rest_untouched() {
        let ring = |us: u64, shard: u32, entries: u32| TraceEvent {
            start: at(us),
            end: at(us),
            shard,
            data: TraceData::RingBatch { entries },
        };
        let mut events = sample_events();
        events.push(ring(12, 0, 3));
        events.push(ring(50, 0, 5));
        events.push(ring(20, 1, 1));
        let analysis = analyze(&events);
        assert_eq!(
            analysis.rings,
            vec![
                RingUse {
                    shard: 0,
                    batches: 2,
                    entries: 8,
                    max_entries: 5,
                },
                RingUse {
                    shard: 1,
                    batches: 1,
                    entries: 1,
                    max_entries: 1,
                },
            ]
        );
        let total = analysis.ring_totals();
        assert_eq!((total.batches, total.entries, total.max_entries), (3, 9, 5));
        assert!((total.mean_entries() - 3.0).abs() < 1e-9);

        // Ring counters are bookkeeping, not device activity: every other
        // section must match the same trace without them (which is what the
        // cross-backend comparison relies on after stripping).
        let plain = analyze(&sample_events());
        assert_eq!(analysis.requests, plain.requests);
        assert_eq!(analysis.shards, plain.shards);
        assert_eq!(analysis.planes, plain.planes);
        assert_eq!(analysis.channels, plain.channels);
        assert_eq!(analysis.exemplars, plain.exemplars);
        assert!(plain.rings.is_empty());

        let json = analysis.to_json("ring-test");
        validate_analysis_json(&json).expect("valid analysis.json");
        assert!(json.contains(
            "\"ring\":{\"batches\":3,\"entries\":9,\"mean_entries\":3.000000,\"max_entries\":5"
        ));
    }

    #[test]
    fn validator_rejects_impossible_ring_sections() {
        let good = analysis_json(&sample_events(), "x");
        // Zero batches with zero entries is fine (simulated trace)...
        validate_analysis_json(&good).expect("valid");
        // ...but more batches than entries is impossible.
        let bad = good.replacen(
            "\"ring\":{\"batches\":0,\"entries\":0",
            "\"ring\":{\"batches\":2,\"entries\":1",
            1,
        );
        assert_ne!(good, bad, "replacement must hit the ring object");
        assert!(validate_analysis_json(&bad).is_err());
    }

    #[test]
    fn charged_segments_respect_precedence() {
        // gc [10,30) over bus [0,20) over nand [0,40).
        let mut bounds = Vec::new();
        push_interval(&mut bounds, 0, 40, Charge::Nand);
        push_interval(&mut bounds, 0, 20, Charge::Bus);
        push_interval(&mut bounds, 10, 30, Charge::Gc);
        let segs = charged_segments(&mut bounds);
        let shape: Vec<(u64, u64, Charge)> = segs
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.charge))
            .collect();
        assert_eq!(
            shape,
            vec![
                (0, 10, Charge::Bus),
                (10, 30, Charge::Gc),
                (30, 40, Charge::Nand),
            ]
        );
        let [nand, bus, gc] = window_charges(&segs, 5, 35);
        assert_eq!((nand, bus, gc), (5, 5, 20));
    }

    /// A trace whose indices are sparse and huge: a table indexed directly
    /// by any of them would need gigabytes.
    fn hostile_events() -> Vec<TraceEvent> {
        let event = |shard: u32, start: u64, end: u64, data: TraceData| TraceEvent {
            start: at(start),
            end: at(end),
            shard,
            data,
        };
        let plane = |chip: u32, plane: u32, gc: bool| TraceData::PlaneOp {
            chip,
            plane,
            op: FlashOp::Read,
            gc,
        };
        let bus = |channel: u32| TraceData::BusXfer {
            channel,
            op: FlashOp::Read,
            gc: false,
        };
        let host = |req: u64, tenant: u32, issue: u64| TraceData::HostRequest {
            req,
            lane: 0,
            write: req % 2 == 1,
            pages: 1,
            tenant,
            issue: at(issue),
        };
        const BIG: u32 = 1_000_000;
        vec![
            event(0, 0, 30, plane(0, 0, false)),
            event(0, 25, 35, bus(0)),
            event(0, 0, 50, host(0, 0, 5)),
            event(BIG, 100, 140, plane(u32::MAX, 0, false)),
            event(BIG, 120, 130, bus(u32::MAX)),
            event(BIG, 150, 170, plane(u32::MAX, 0, true)),
            event(
                BIG,
                100,
                175,
                TraceData::CmdLifecycle {
                    chip: u32::MAX,
                    op: FlashOp::Read,
                    gc: false,
                    issued: at(100),
                },
            ),
            event(BIG, 110, 110, TraceData::RingBatch { entries: 3 }),
            event(BIG, 90, 180, host(1, 70_000, 95)),
            event(BIG, 90, 160, host(2, u32::MAX, 100)),
            event(u32::MAX, 7, 19, plane(5, u32::MAX, false)),
            event(u32::MAX, 8, 12, bus(3)),
            event(u32::MAX, 6, 20, host(3, 70_000, 7)),
        ]
    }

    #[test]
    fn hostile_indices_get_their_rows_in_memory_bounded_by_the_trace() {
        let events = hostile_events();
        // One epoch slot per distinct shard, not one per shard index below
        // the largest; a direct plane or channel table would need 2^32 rows
        // and abort on allocation.
        assert_eq!(shard_epochs(&events).slots.len(), 3);
        let analysis = analyze(&events);
        let rows = |v: Vec<(u32, u32, u32)>| v;
        assert_eq!(
            rows(
                analysis
                    .shards
                    .iter()
                    .map(|s| (s.shard, s.planes as u32, s.channels as u32))
                    .collect()
            ),
            vec![(0, 1, 1), (1_000_000, 1, 1), (u32::MAX, 1, 1)]
        );
        assert_eq!(
            rows(
                analysis
                    .planes
                    .iter()
                    .map(|p| (p.shard, p.chip, p.plane))
                    .collect()
            ),
            vec![(0, 0, 0), (1_000_000, u32::MAX, 0), (u32::MAX, 5, u32::MAX)]
        );
        assert_eq!(
            rows(
                analysis
                    .channels
                    .iter()
                    .map(|c| (c.shard, c.channel, c.xfers as u32))
                    .collect()
            ),
            vec![(0, 0, 1), (1_000_000, u32::MAX, 1), (u32::MAX, 3, 1)]
        );
        assert_eq!(
            rows(
                analysis
                    .tenants
                    .iter()
                    .map(|t| (t.tenant, t.requests as u32, t.writes as u32))
                    .collect()
            ),
            vec![(0, 1, 0), (70_000, 2, 2), (u32::MAX, 1, 0)]
        );
        assert_eq!(
            analysis.rings,
            vec![RingUse {
                shard: 1_000_000,
                batches: 1,
                entries: 3,
                max_entries: 3,
            }]
        );
        // The whole report, byte for byte, as the ordered-map engine
        // rendered it (FNV-1a of the JSON).
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in analysis.to_json("hostile").bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(hash, 0x95de_0004_693d_7adf);
    }

    /// Which charge a brute-force classifier gives each nanosecond of
    /// `[0, 256)`: the highest-precedence class (gc > bus > nand) of any
    /// interval covering it, decided per instant, with no sweep.
    fn charge_per_nanosecond(intervals: &[(u64, u64, Charge)]) -> Vec<Option<Charge>> {
        (0..256)
            .map(|t| {
                [Charge::Gc, Charge::Bus, Charge::Nand]
                    .into_iter()
                    .find(|&c| intervals.iter().any(|&(s, e, k)| k == c && s <= t && t < e))
            })
            .collect()
    }

    proptest! {
        /// The packed-key sweep plus `window_charges` against the
        /// per-nanosecond classifier, on timelines of at most 256 ns. Every
        /// case also carries a duplicate, a zero-length and a nested
        /// interval; windows may be empty or reversed.
        #[test]
        fn prop_sweep_matches_a_per_nanosecond_oracle(
            raw in collection::vec((0u64..256, 0u64..96, 0usize..3), 1..24),
            windows in collection::vec((0u64..257, 0u64..257), 1..24),
        ) {
            let charges = [Charge::Nand, Charge::Bus, Charge::Gc];
            let mut intervals: Vec<(u64, u64, Charge)> = raw
                .iter()
                .map(|&(s, len, c)| (s, (s + len).min(256), charges[c]))
                .collect();
            let (s, e, c) = intervals[0];
            intervals.push((s, e, c));
            intervals.push((s, s, Charge::Gc));
            intervals.push((s + (e - s) / 4, e - (e - s) / 4, charges[(c as usize + 1) % 3]));
            let mut bounds = Vec::new();
            for &(s, e, c) in &intervals {
                push_interval(&mut bounds, s, e, c);
            }
            let segments = charged_segments(&mut bounds);
            for pair in segments.windows(2) {
                prop_assert!(pair[0].end_ns <= pair[1].start_ns, "segments overlap");
                prop_assert!(
                    pair[0].end_ns < pair[1].start_ns || pair[0].charge != pair[1].charge,
                    "touching segments of one charge are not coalesced"
                );
            }
            prop_assert!(segments.iter().all(|s| s.start_ns < s.end_ns), "empty segment");
            let oracle = charge_per_nanosecond(&intervals);
            for &(start, end) in windows.iter().chain([&(0, 256)]) {
                let mut want = [0u64; 3];
                for t in start..end {
                    if let Some(charge) = oracle[t as usize] {
                        want[charge as usize] += 1;
                    }
                }
                prop_assert_eq!(
                    window_charges(&segments, start, end),
                    want,
                    "window [{}, {}) over {:?}",
                    start,
                    end,
                    intervals
                );
            }
        }
    }
}
