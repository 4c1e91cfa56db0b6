//! Exporters and a schema checker for the simulator's structured trace
//! stream (`ssd_sim::trace`).
//!
//! Two renderings of the same merged [`TraceEvent`] stream:
//!
//! * [`chrome_trace_json`] — the Chrome trace-event format (load in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)): one process
//!   per shard, planes/channels/scheduler chips/host lanes as named threads,
//!   host requests as flow-linked wait→service span pairs, queue depths as
//!   counter tracks.
//! * [`metrics_csv`] — an interval-sampled time series (plane/bus/GC
//!   utilization, queue depths, GC debt, CMT hit rate) for plotting.
//!
//! Both are **pure functions of the event stream**: rendering allocates and
//! formats but consults no clocks, no maps with nondeterministic iteration
//! order and no floating-point reductions whose order depends on input
//! layout. Two identical streams therefore render to byte-identical output —
//! the property the trace-determinism suite asserts across runs and across
//! execution backends.
//!
//! [`validate_chrome_trace`] is a minimal JSON parser plus shape checks over
//! the exporter's output, so CI can assert a traced run emitted well-formed
//! Chrome JSON without adding a serde dependency.

use crate::json::{Json, JsonParser};
use ssd_sim::{Duration, FlashOp, SimTime, TraceData, TraceEvent};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Thread-id namespaces inside a shard's process, chosen so every track of a
/// realistic geometry (≤ 99 planes per chip, ≤ 10 000 chips) stays unique.
const TID_PLANE_BASE: u64 = 1_000_000;
const TID_BUS_BASE: u64 = 2_000_000;
const TID_SCHED_BASE: u64 = 3_000_000;
const TID_GC: u64 = 4_000_000;
const TID_HOST_BASE: u64 = 5_000_000;
const TID_RING: u64 = 6_000_000;

fn op_label(op: FlashOp) -> &'static str {
    match op {
        FlashOp::Read => "read",
        FlashOp::Program => "program",
        FlashOp::Erase => "erase",
    }
}

/// Microsecond timestamp with nanosecond precision, rendered exactly
/// (`1234.567`): integer arithmetic only, so formatting is deterministic.
/// `epoch` is the event's shard-timeline origin (see [`shard_epochs`]).
fn ts_us(t: SimTime, epoch: u64) -> String {
    let ns = t.as_nanos().saturating_sub(epoch);
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn dur_us(start: SimTime, end: SimTime) -> String {
    let ns = end.as_nanos().saturating_sub(start.as_nanos());
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Dense table slots for the keys one trace contains: its sorted distinct
/// keys, a key's slot being its position (found by binary search). A table
/// of [`Slots::len`] entries grows with the trace, never with an index
/// value: a sparse or hostile index such as shard 1 000 000 in a ten-event
/// trace takes one slot like any other, and tables stay in key order.
///
/// Built by [`Slots::insert`]ing every key, then [`Slots::sealed`]. Until
/// then the keys are the sorted distinct ones found so far followed by the
/// newcomers, folded in whenever they outnumber them: a key already seen
/// costs one binary search, and memory stays within about twice the
/// distinct keys however many events repeat them.
pub(crate) struct Slots<K> {
    keys: Vec<K>,
    sorted: usize,
}

impl<K: Ord> Slots<K> {
    pub(crate) fn new() -> Slots<K> {
        Slots {
            keys: Vec::new(),
            sorted: 0,
        }
    }

    pub(crate) fn insert(&mut self, key: K) {
        if self.keys[..self.sorted].binary_search(&key).is_err() {
            self.keys.push(key);
            if self.keys.len() > 2 * self.sorted + 64 {
                self.fold();
            }
        }
    }

    fn fold(&mut self) {
        self.keys.sort_unstable();
        self.keys.dedup();
        self.sorted = self.keys.len();
    }

    /// The slots, every key inserted.
    pub(crate) fn sealed(mut self) -> Slots<K> {
        self.fold();
        self
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    pub(crate) fn slot(&self, key: K) -> usize {
        debug_assert_eq!(self.sorted, self.keys.len(), "slots are sealed");
        self.keys
            .binary_search(&key)
            .expect("every key the trace contains has a slot")
    }
}

/// Each shard's timeline origin, the start of its earliest traced event, in
/// a dense per-shard table.
///
/// Shards are independent devices with independent clocks, and those clocks
/// can drift apart before tracing starts (each shard's warm-up ends when its
/// own share of the fill and its own collections do). Rebasing every shard
/// onto its own epoch makes the exported artifacts a pure function of the
/// *relative* event stream — byte-identical across runs and backends
/// whenever the measured phase is deterministic — and aligns the shards'
/// measured-phase starts for side-by-side viewing.
pub(crate) struct ShardEpochs {
    /// The shard indices the trace contains.
    pub(crate) slots: Slots<u32>,
    epochs: Vec<u64>,
}

impl ShardEpochs {
    #[inline]
    pub(crate) fn slot(&self, shard: u32) -> usize {
        self.slots.slot(shard)
    }

    /// The epoch of the shard in `slot`.
    #[inline]
    pub(crate) fn epoch(&self, slot: usize) -> u64 {
        self.epochs[slot]
    }

    /// `t` in nanoseconds on `shard`'s own timeline.
    pub(crate) fn rebase(&self, t: SimTime, shard: u32) -> u64 {
        t.as_nanos().saturating_sub(self.epoch(self.slot(shard)))
    }
}

pub(crate) fn shard_epochs(events: &[TraceEvent]) -> ShardEpochs {
    let mut slots = Slots::new();
    for e in events {
        slots.insert(e.shard);
    }
    let slots = slots.sealed();
    let mut epochs = vec![u64::MAX; slots.len()];
    for e in events {
        let epoch = &mut epochs[slots.slot(e.shard)];
        *epoch = (*epoch).min(e.start.as_nanos());
    }
    ShardEpochs { slots, epochs }
}

/// The (pid, tid) track of one event. Processes are shards (pid = shard + 1;
/// pid 0 is invalid in the trace-event format).
fn track_of(e: &TraceEvent) -> (u64, u64) {
    let pid = u64::from(e.shard) + 1;
    let tid = match e.data {
        TraceData::PlaneOp { chip, plane, .. } => {
            TID_PLANE_BASE + u64::from(chip) * 100 + u64::from(plane)
        }
        TraceData::BusXfer { channel, .. } => TID_BUS_BASE + u64::from(channel),
        TraceData::CmdLifecycle { chip, .. } | TraceData::QueueDepth { chip, .. } => {
            TID_SCHED_BASE + u64::from(chip)
        }
        TraceData::GcYield { chip } | TraceData::GcForced { chip } => {
            TID_SCHED_BASE + u64::from(chip)
        }
        TraceData::GcStaged { .. }
        | TraceData::GcDrain { .. }
        | TraceData::GcTrigger
        | TraceData::GcComplete
        | TraceData::ReadClass { .. } => TID_GC,
        TraceData::HostRequest { lane, .. } => TID_HOST_BASE + u64::from(lane),
        TraceData::RingBatch { .. } => TID_RING,
    };
    (pid, tid)
}

fn thread_name(tid: u64) -> String {
    match tid {
        TID_RING => "ring dispatch".to_string(),
        t if t >= TID_HOST_BASE => format!("host lane {}", t - TID_HOST_BASE),
        TID_GC => "gc/translation".to_string(),
        t if t >= TID_SCHED_BASE => format!("sched chip {}", t - TID_SCHED_BASE),
        t if t >= TID_BUS_BASE => format!("channel {}", t - TID_BUS_BASE),
        t => format!(
            "chip {} plane {}",
            (t - TID_PLANE_BASE) / 100,
            (t - TID_PLANE_BASE) % 100
        ),
    }
}

fn push_meta(out: &mut String, pid: u64, tid: Option<u64>, name: &str, value: &str) {
    match tid {
        Some(tid) => {
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\
                 \"args\":{{\"name\":\"{value}\"}}}}"
            );
        }
        None => {
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"{name}\",\
                 \"args\":{{\"name\":\"{value}\"}}}}"
            );
        }
    }
}

/// Renders a merged trace as Chrome trace-event JSON.
///
/// Deterministic: metadata tracks are emitted in sorted (pid, tid) order and
/// events in input order, with integer-exact timestamp formatting.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let epochs = shard_epochs(events);
    let mut tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    for e in events {
        tracks.insert(track_of(e));
    }
    let mut parts: Vec<String> = Vec::new();
    let mut pids: BTreeSet<u64> = BTreeSet::new();
    for &(pid, tid) in &tracks {
        if pids.insert(pid) {
            let mut s = String::new();
            push_meta(
                &mut s,
                pid,
                None,
                "process_name",
                &format!("shard {}", pid - 1),
            );
            parts.push(s);
        }
        let mut s = String::new();
        push_meta(&mut s, pid, Some(tid), "thread_name", &thread_name(tid));
        parts.push(s);
    }
    for e in events {
        let (pid, tid) = track_of(e);
        let epoch = epochs.epoch(epochs.slot(e.shard));
        let ts = ts_us(e.start, epoch);
        let mut s = String::new();
        match e.data {
            TraceData::PlaneOp { op, gc, .. } => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"dur\":{},\"cat\":\"plane\",\"name\":\"{}\",\
                     \"args\":{{\"gc\":{gc}}}}}",
                    dur_us(e.start, e.end),
                    op_label(op),
                );
            }
            TraceData::BusXfer { op, gc, .. } => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"dur\":{},\"cat\":\"bus\",\"name\":\"xfer:{}\",\
                     \"args\":{{\"gc\":{gc}}}}}",
                    dur_us(e.start, e.end),
                    op_label(op),
                );
            }
            TraceData::CmdLifecycle { op, gc, issued, .. } => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"dur\":{},\"cat\":\"cmd\",\"name\":\"{}{}\",\
                     \"args\":{{\"gc\":{gc},\"issued_us\":{}}}}}",
                    dur_us(e.start, e.end),
                    if gc { "gc:" } else { "" },
                    op_label(op),
                    ts_us(issued, epoch),
                );
            }
            TraceData::QueueDepth { chip, host, gc } => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"cat\":\"queue\",\"name\":\"qdepth chip {chip}\",\
                     \"args\":{{\"host\":{host},\"gc\":{gc}}}}}"
                );
            }
            TraceData::GcYield { .. } => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"s\":\"t\",\"cat\":\"gc\",\"name\":\"gc-yield\"}}"
                );
            }
            TraceData::GcForced { .. } => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"s\":\"t\",\"cat\":\"gc\",\"name\":\"gc-forced\"}}"
                );
            }
            TraceData::GcStaged { ops, units } => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"s\":\"t\",\"cat\":\"gc\",\"name\":\"gc-staged\",\
                     \"args\":{{\"ops\":{ops},\"units\":{units}}}}}"
                );
            }
            TraceData::GcDrain { outstanding } => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"dur\":{},\"cat\":\"gc\",\"name\":\"gc-drain\",\
                     \"args\":{{\"outstanding\":{outstanding}}}}}",
                    dur_us(e.start, e.end),
                );
            }
            TraceData::GcTrigger => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"s\":\"p\",\"cat\":\"gc\",\"name\":\"gc-trigger\"}}"
                );
            }
            TraceData::GcComplete => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"s\":\"p\",\"cat\":\"gc\",\"name\":\"gc-complete\"}}"
                );
            }
            TraceData::ReadClass { class } => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"s\":\"t\",\"cat\":\"translation\",\"name\":\"{}\"}}",
                    class.label(),
                );
            }
            TraceData::RingBatch { entries } => {
                let _ = write!(
                    s,
                    "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"cat\":\"ring\",\"name\":\"ring batch\",\
                     \"args\":{{\"entries\":{entries}}}}}"
                );
            }
            TraceData::HostRequest {
                req,
                write,
                pages,
                issue,
                ..
            } => {
                // One request renders as a wait span (arrival→issue) flow-
                // linked to a service span (issue→completion), so Perfetto
                // draws the queueing/service split with an arrow between.
                let kind = if write { "write" } else { "read" };
                let issue_ts = ts_us(issue, epoch);
                let _ = write!(
                    s,
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"dur\":{},\"cat\":\"host\",\"name\":\"wait:{kind}\",\
                     \"args\":{{\"req\":{req},\"pages\":{pages}}}}},\n\
                     {{\"ph\":\"s\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"id\":{req},\"cat\":\"host\",\"name\":\"req\"}},\n\
                     {{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{issue_ts},\
                     \"dur\":{},\"cat\":\"host\",\"name\":\"{kind}\",\
                     \"args\":{{\"req\":{req},\"pages\":{pages}}}}},\n\
                     {{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{pid},\"tid\":{tid},\
                     \"ts\":{issue_ts},\"id\":{req},\"cat\":\"host\",\"name\":\"req\"}}",
                    dur_us(e.start, issue),
                    dur_us(issue, e.end),
                );
            }
        }
        parts.push(s);
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&parts.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// One row of the interval-sampled metrics series.
struct IntervalRow {
    plane_busy_ns: u64,
    gc_busy_ns: u64,
    bus_busy_ns: u64,
    qdepth_host_sum: u64,
    qdepth_gc_sum: u64,
    qdepth_samples: u64,
    cmt_hits: u64,
    reads_classified: u64,
    gc_staged_ops: u64,
    gc_done_ops: u64,
}

/// Renders a merged trace as an interval-sampled CSV time series.
///
/// Columns: interval start (µs), plane utilization (busy fraction across all
/// planes observed in the trace), GC share of plane time, bus utilization,
/// mean host/GC queue depths over the samples falling in the interval, GC
/// debt (staged GC ops minus completed GC commands, end of interval) and the
/// interval's CMT hit rate. Utilization denominators come from the set of
/// planes/channels that appear in the stream, so the series is a pure
/// function of the events.
pub fn metrics_csv(events: &[TraceEvent], interval: Duration) -> String {
    assert!(interval > Duration::ZERO, "interval must be positive");
    let mut out =
        String::from("t_us,plane_util,gc_plane_util,bus_util,host_qdepth,gc_qdepth,gc_debt,cmt_hits,reads_classified,cmt_hit_rate\n");
    if events.is_empty() {
        return out;
    }
    let epochs = shard_epochs(events);
    // Rebased onto the event's shard epoch (see [`shard_epochs`]), matching
    // the Chrome trace exporter's timeline.
    let rebase = |t: SimTime, shard: u32| epochs.rebase(t, shard);
    let mut planes: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
    let mut channels: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut horizon: u64 = 0;
    for e in events {
        horizon = horizon.max(rebase(e.end, e.shard));
        match e.data {
            TraceData::PlaneOp { chip, plane, .. } => {
                planes.insert((e.shard, chip, plane));
            }
            TraceData::BusXfer { channel, .. } => {
                channels.insert((e.shard, channel));
            }
            _ => {}
        }
    }
    let step = interval.as_nanos();
    let rows = (horizon / step + 1) as usize;
    let mut acc: Vec<IntervalRow> = (0..rows)
        .map(|_| IntervalRow {
            plane_busy_ns: 0,
            gc_busy_ns: 0,
            bus_busy_ns: 0,
            qdepth_host_sum: 0,
            qdepth_gc_sum: 0,
            qdepth_samples: 0,
            cmt_hits: 0,
            reads_classified: 0,
            gc_staged_ops: 0,
            gc_done_ops: 0,
        })
        .collect();
    // Clips the rebased `[start, end)` onto the interval grid, adding each
    // overlap to the per-row field chosen by `add`.
    let clip = |acc: &mut Vec<IntervalRow>, s: u64, e: u64, add: fn(&mut IntervalRow, u64)| {
        if e <= s {
            return;
        }
        let first = (s / step) as usize;
        let last = ((e - 1) / step) as usize;
        for (i, row) in acc.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = s.max(i as u64 * step);
            let hi = e.min((i as u64 + 1) * step);
            add(row, hi - lo);
        }
    };
    for e in events {
        let (start, end) = (rebase(e.start, e.shard), rebase(e.end, e.shard));
        let idx = (start / step) as usize;
        match e.data {
            TraceData::PlaneOp { gc, .. } => {
                clip(&mut acc, start, end, |r, ns| r.plane_busy_ns += ns);
                if gc {
                    clip(&mut acc, start, end, |r, ns| r.gc_busy_ns += ns);
                }
            }
            TraceData::BusXfer { .. } => {
                clip(&mut acc, start, end, |r, ns| r.bus_busy_ns += ns);
            }
            TraceData::QueueDepth { host, gc, .. } => {
                let row = &mut acc[idx];
                row.qdepth_host_sum += u64::from(host);
                row.qdepth_gc_sum += u64::from(gc);
                row.qdepth_samples += 1;
            }
            TraceData::ReadClass { class } => {
                let row = &mut acc[idx];
                row.reads_classified += 1;
                if class.is_cmt_hit() {
                    row.cmt_hits += 1;
                }
            }
            TraceData::GcStaged { ops, .. } => acc[idx].gc_staged_ops += u64::from(ops),
            TraceData::CmdLifecycle { gc: true, .. } => {
                acc[(end / step) as usize].gc_done_ops += 1;
            }
            _ => {}
        }
    }
    let plane_denom = step * planes.len().max(1) as u64;
    let bus_denom = step * channels.len().max(1) as u64;
    let mut gc_debt: i64 = 0;
    for (i, row) in acc.iter().enumerate() {
        gc_debt += row.gc_staged_ops as i64 - row.gc_done_ops as i64;
        let ratio = |num: u64, den: u64| format!("{:.6}", num as f64 / den as f64);
        let qd = |sum: u64| {
            if row.qdepth_samples == 0 {
                "0.000000".to_string()
            } else {
                format!("{:.6}", sum as f64 / row.qdepth_samples as f64)
            }
        };
        let hit_rate = if row.reads_classified == 0 {
            "0.000000".to_string()
        } else {
            ratio(row.cmt_hits, row.reads_classified)
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            ts_us(SimTime::from_nanos(i as u64 * step), 0),
            ratio(row.plane_busy_ns, plane_denom),
            ratio(row.gc_busy_ns, plane_denom),
            ratio(row.bus_busy_ns, bus_denom),
            qd(row.qdepth_host_sum),
            qd(row.qdepth_gc_sum),
            gc_debt,
            row.cmt_hits,
            row.reads_classified,
            hit_rate,
        );
    }
    out
}

/// What the schema checker observed in a Chrome trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete (`ph == "X"`) spans with `cat == "plane"`.
    pub plane_spans: usize,
    /// Complete spans with `cat == "cmd"` (scheduler command lifecycles).
    pub cmd_spans: usize,
    /// Events of any phase with `cat == "gc"`.
    pub gc_events: usize,
    /// Host request spans (`cat == "host"`, `ph == "X"`).
    pub host_spans: usize,
    /// Flow events (`ph == "s"` or `"f"`).
    pub flows: usize,
    /// Counter events (`ph == "C"`).
    pub counters: usize,
}

/// Validates exporter output against the Chrome trace-event schema (the
/// subset this workspace emits) and returns what it saw.
///
/// Checks: the document is a JSON object with a `traceEvents` array; every
/// event is an object with a string `ph` ∈ {M, X, i, C, s, f} and a numeric
/// `pid`; non-metadata events carry a numeric `ts`; `X` events carry a
/// non-negative numeric `dur`; counter (`C`) events carry an `args` object
/// whose values are all numeric (at least one); flow events carry an `id`,
/// flow *finishes* (`f`) also carry `"bp":"e"` and bind to an earlier flow
/// start (`s`) with the same (pid, id) — and every start must be finished by
/// the end of the document.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceSummary, String> {
    let value = JsonParser::new(json).parse_document()?;
    let Json::Object(top) = value else {
        return Err("top level must be an object".into());
    };
    let Some(Json::Array(events)) = top.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v)
    else {
        return Err("missing traceEvents array".into());
    };
    let mut summary = ChromeTraceSummary::default();
    // Flow binding: (pid, id) pairs with an open `s` not yet matched by `f`.
    let mut open_flows: BTreeSet<(u64, u64)> = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let Json::Object(fields) = e else {
            return Err(format!("event {i}: not an object"));
        };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let Some(Json::String(ph)) = get("ph") else {
            return Err(format!("event {i}: missing ph"));
        };
        if !matches!(ph.as_str(), "M" | "X" | "i" | "C" | "s" | "f") {
            return Err(format!("event {i}: unknown phase {ph:?}"));
        }
        let Some(Json::Number(pid)) = get("pid") else {
            return Err(format!("event {i}: missing numeric pid"));
        };
        let pid = *pid as u64;
        if !matches!(get("name"), Some(Json::String(_))) {
            return Err(format!("event {i}: missing name"));
        }
        if ph != "M" && !matches!(get("ts"), Some(Json::Number(_))) {
            return Err(format!("event {i}: missing numeric ts"));
        }
        if ph == "X" {
            match get("dur") {
                Some(Json::Number(d)) if *d >= 0.0 => {}
                _ => return Err(format!("event {i}: X span needs non-negative dur")),
            }
        }
        if ph == "C" {
            let Some(Json::Object(args)) = get("args") else {
                return Err(format!("event {i}: counter needs an args object"));
            };
            if args.is_empty() {
                return Err(format!("event {i}: counter args must carry a series"));
            }
            for (key, v) in args {
                if !matches!(v, Json::Number(_)) {
                    return Err(format!("event {i}: counter series {key:?} is not numeric"));
                }
            }
        }
        if ph == "s" || ph == "f" {
            let Some(Json::Number(id)) = get("id") else {
                return Err(format!("event {i}: flow event needs an id"));
            };
            let id = *id as u64;
            if ph == "s" {
                if !open_flows.insert((pid, id)) {
                    return Err(format!(
                        "event {i}: flow (pid {pid}, id {id}) started twice"
                    ));
                }
            } else {
                if get("bp").and_then(|v| match v {
                    Json::String(s) => Some(s.as_str()),
                    _ => None,
                }) != Some("e")
                {
                    return Err(format!("event {i}: flow finish needs \"bp\":\"e\""));
                }
                if !open_flows.remove(&(pid, id)) {
                    return Err(format!(
                        "event {i}: flow finish (pid {pid}, id {id}) has no earlier start"
                    ));
                }
            }
        }
        summary.events += 1;
        let cat = match get("cat") {
            Some(Json::String(c)) => c.as_str(),
            _ => "",
        };
        match ph.as_str() {
            "X" if cat == "plane" => summary.plane_spans += 1,
            "X" if cat == "cmd" => summary.cmd_spans += 1,
            "X" if cat == "host" => summary.host_spans += 1,
            "C" => summary.counters += 1,
            "s" | "f" => summary.flows += 1,
            _ => {}
        }
        if cat == "gc" {
            summary.gc_events += 1;
        }
    }
    if let Some((pid, id)) = open_flows.first() {
        return Err(format!(
            "flow (pid {pid}, id {id}) started but never finished"
        ));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::{TraceBuffer, TraceReadClass, TraceSink};

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn sample_events() -> Vec<TraceEvent> {
        let mut b = TraceBuffer::new();
        b.span(
            at(0),
            at(45),
            TraceData::PlaneOp {
                chip: 0,
                plane: 1,
                op: FlashOp::Read,
                gc: false,
            },
        );
        b.span(
            at(40),
            at(45),
            TraceData::BusXfer {
                channel: 0,
                op: FlashOp::Read,
                gc: false,
            },
        );
        b.span(
            at(0),
            at(45),
            TraceData::CmdLifecycle {
                chip: 0,
                op: FlashOp::Read,
                gc: true,
                issued: at(0),
            },
        );
        b.counter(
            at(45),
            TraceData::QueueDepth {
                chip: 0,
                host: 2,
                gc: 1,
            },
        );
        b.instant(at(50), TraceData::GcTrigger);
        b.instant(
            at(51),
            TraceData::ReadClass {
                class: TraceReadClass::CmtHit,
            },
        );
        b.instant(
            at(52),
            TraceData::ReadClass {
                class: TraceReadClass::DoubleRead,
            },
        );
        b.span(
            at(0),
            at(100),
            TraceData::HostRequest {
                req: 7,
                lane: 0,
                write: false,
                pages: 4,
                tenant: 0,
                issue: at(10),
            },
        );
        b.take()
    }

    #[test]
    fn exporter_output_validates_and_summarises() {
        let json = chrome_trace_json(&sample_events());
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.plane_spans, 1);
        assert_eq!(summary.cmd_spans, 1);
        assert_eq!(summary.host_spans, 2, "wait + service spans");
        assert_eq!(summary.flows, 2, "flow start + finish");
        assert_eq!(summary.counters, 1);
        assert!(summary.gc_events >= 1);
        assert!(summary.events > 8, "metadata tracks add events");
    }

    #[test]
    fn exporter_is_deterministic() {
        let a = chrome_trace_json(&sample_events());
        let b = chrome_trace_json(&sample_events());
        assert_eq!(a, b);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("[1,2,3]").is_err(), "not an object");
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"pid\":1}]}").is_err(),
            "missing ph"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"name\":\"x\",\"ts\":0}]}"
            )
            .is_err(),
            "X without dur"
        );
        assert!(
            validate_chrome_trace("{\"traceEvents\":").is_err(),
            "truncated"
        );
        assert!(
            validate_chrome_trace("{} trailing").is_err(),
            "trailing data"
        );
    }

    #[test]
    fn validator_shape_checks_counters_and_flow_binds() {
        let doc = |events: &str| format!("{{\"traceEvents\":[{events}]}}");
        let counter = |args: &str| {
            doc(&format!(
                "{{\"ph\":\"C\",\"pid\":1,\"name\":\"q\",\"ts\":0{args}}}"
            ))
        };
        assert!(
            validate_chrome_trace(&counter("")).is_err(),
            "counter without args"
        );
        assert!(
            validate_chrome_trace(&counter(",\"args\":{}")).is_err(),
            "counter with empty args"
        );
        assert!(
            validate_chrome_trace(&counter(",\"args\":{\"host\":\"2\"}")).is_err(),
            "counter with non-numeric series"
        );
        assert!(validate_chrome_trace(&counter(",\"args\":{\"host\":2,\"gc\":0}")).is_ok());

        let s = "{\"ph\":\"s\",\"pid\":1,\"name\":\"req\",\"ts\":0,\"id\":7}";
        let f = "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"name\":\"req\",\"ts\":1,\"id\":7}";
        let f_unbound = "{\"ph\":\"f\",\"pid\":1,\"name\":\"req\",\"ts\":1,\"id\":7}";
        let f_other_id = "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"name\":\"req\",\"ts\":1,\"id\":8}";
        assert!(validate_chrome_trace(&doc(&format!("{s},{f}"))).is_ok());
        assert!(
            validate_chrome_trace(&doc(&format!("{f},{s}"))).is_err(),
            "finish before start"
        );
        assert!(
            validate_chrome_trace(&doc(&format!("{s},{f_unbound}"))).is_err(),
            "finish without bp:e"
        );
        assert!(
            validate_chrome_trace(&doc(&format!("{s},{f_other_id}"))).is_err(),
            "finish never binds the started id"
        );
        assert!(
            validate_chrome_trace(&doc(s)).is_err(),
            "start never finished"
        );
        assert!(
            validate_chrome_trace(&doc(&format!("{s},{s}"))).is_err(),
            "duplicate start"
        );
    }

    #[test]
    fn csv_series_reports_utilization_and_hit_rate() {
        let csv = metrics_csv(&sample_events(), Duration::from_micros(50));
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("t_us,plane_util"));
        // Horizon 100us, 50us interval: rows at 0 and 50 (and 100).
        assert!(lines.len() >= 3);
        let first: Vec<&str> = lines[1].split(',').collect();
        // One plane busy 45/50us in interval 0.
        assert_eq!(first[0], "0.000");
        assert_eq!(first[1], "0.900000");
        // Second interval: the two read classes land there, one a CMT hit.
        let second: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(second[7], "1", "one CMT hit");
        assert_eq!(second[8], "2", "two classified reads");
        assert_eq!(second[9], "0.500000");
        // Deterministic.
        assert_eq!(
            csv,
            metrics_csv(&sample_events(), Duration::from_micros(50))
        );
    }

    #[test]
    fn csv_of_empty_trace_is_just_the_header() {
        let csv = metrics_csv(&[], Duration::from_micros(10));
        assert_eq!(csv.lines().count(), 1);
    }
}
