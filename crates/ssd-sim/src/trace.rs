//! Structured simulation tracing: sim-time-keyed span/instant/counter events.
//!
//! Every layer of the stack — the device's plane/channel timing, the I/O
//! scheduler's arbitration, the FTLs' translation path and the harness's host
//! models — can emit [`TraceEvent`]s into the [`TraceBuffer`] owned by a
//! [`crate::FlashDevice`]. The buffer lives here, on the device, because the
//! device is the one object every layer already holds a `&mut` to at the
//! moment something trace-worthy happens; no extra plumbing, no shared
//! handles, and the thread-parallel backend needs no synchronisation (each
//! shard's device — and therefore its buffer — is owned by exactly one
//! worker).
//!
//! Tracing is **off by default** and zero-cost when off: every emission site
//! is guarded by a single `Option` check on the device, no event is
//! constructed and nothing allocates. With tracing on, events are appended in
//! execution order, which is deterministic in simulated time and dispatch
//! order — identical streams on the simulated and thread-parallel backends.
//!
//! [`TraceSink`] is the seam: [`TraceBuffer`] is the recording sink used
//! everywhere today and [`NullSink`] is the explicit no-op. The buffer is a
//! plain `Vec` of events that grows by doubling: `set_tracing(true)` installs
//! it empty, and [`crate::FlashDevice::take_trace`] hands the whole `Vec` to
//! the caller, who owns it from then on (the harness appends its
//! host-request spans and sorts it in place). A bounded sink — a reused
//! ring, a 1-in-N sampler or a streaming encoder — can implement the trait
//! without touching any emission site.

use crate::clock::SimTime;
use crate::stats::FlashOp;

/// How one logical page read was resolved by an FTL's translation path.
///
/// Mirrors the `ReadClass` taxonomy of the FTL layer without depending on it
/// (the dependency points the other way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceReadClass {
    /// Mapping found in the cached mapping table: one flash read.
    CmtHit,
    /// Mapping predicted exactly by a learned model: one flash read.
    ModelHit,
    /// Served from an in-memory write buffer: no flash read.
    BufferHit,
    /// Translation page read first: two flash reads.
    DoubleRead,
    /// GTD chain walked: three flash reads.
    TripleRead,
}

impl TraceReadClass {
    /// Short stable label, used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            TraceReadClass::CmtHit => "cmt-hit",
            TraceReadClass::ModelHit => "model-hit",
            TraceReadClass::BufferHit => "buffer-hit",
            TraceReadClass::DoubleRead => "double-read",
            TraceReadClass::TripleRead => "triple-read",
        }
    }

    /// Whether this classification is a CMT hit (the hit-rate numerator).
    pub fn is_cmt_hit(self) -> bool {
        matches!(self, TraceReadClass::CmtHit)
    }
}

/// What a [`TraceEvent`] describes. Payload variants are deliberately plain
/// integers (chip/plane/channel indices, counts) so events are `Copy`, the
/// buffer is a flat `Vec`, and exporters need no cross-crate type knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceData {
    /// NAND-phase occupancy of one plane (span). `gc` marks staged-GC charge
    /// replay traffic.
    PlaneOp {
        /// Flat chip index.
        chip: u32,
        /// Plane index within the chip.
        plane: u32,
        /// The flash operation occupying the plane.
        op: FlashOp,
        /// Whether this is staged-GC charge replay rather than a live call.
        gc: bool,
    },
    /// One page burst across a channel bus (span).
    BusXfer {
        /// Channel index.
        channel: u32,
        /// The flash operation the burst belongs to.
        op: FlashOp,
        /// Whether this is staged-GC charge replay rather than a live call.
        gc: bool,
    },
    /// One scheduler command's enqueue→dispatch→complete lifecycle (span from
    /// submission to completion; `issued` marks the dispatch point inside it).
    CmdLifecycle {
        /// Flat chip index the command targeted.
        chip: u32,
        /// The flash operation the command performs.
        op: FlashOp,
        /// Whether the command ran in the scheduler's GC priority class.
        gc: bool,
        /// When the scheduler issued the command to the device.
        issued: SimTime,
    },
    /// Per-chip scheduler queue depths after a dispatch or completion
    /// (counter).
    QueueDepth {
        /// Flat chip index.
        chip: u32,
        /// Queued host-priority commands.
        host: u32,
        /// Queued GC-priority commands.
        gc: u32,
    },
    /// A queued GC command was bypassed by host traffic (instant).
    GcYield {
        /// Flat chip index the arbitration happened on.
        chip: u32,
    },
    /// A queued GC command was forced through by the starvation bound
    /// (instant).
    GcForced {
        /// Flat chip index the arbitration happened on.
        chip: u32,
    },
    /// One staged GC batch was handed to the scheduler (instant at the end of
    /// the stage phase).
    GcStaged {
        /// Staged flash operations in the batch.
        ops: u32,
        /// Collection units (victims) the batch covers.
        units: u32,
    },
    /// An explicit drain of outstanding scheduled-GC work (span).
    GcDrain {
        /// Commands still outstanding when the drain began.
        outstanding: u32,
    },
    /// A garbage collection was triggered (instant).
    GcTrigger,
    /// A collection unit's flash work finished (instant).
    GcComplete,
    /// How one logical page read was resolved (instant).
    ReadClass {
        /// The resolution.
        class: TraceReadClass,
    },
    /// One submission-ring batch executed by a shard's translation engine
    /// (counter): how many requests the thread-parallel backend coalesced
    /// into a single channel round-trip. Emitted only by the threaded
    /// backend — exporters comparing backends must filter it out first.
    RingBatch {
        /// Work items in the batch.
        entries: u32,
    },
    /// One host request's lifecycle (span from arrival to completion;
    /// `issue` marks the dispatch point inside it).
    HostRequest {
        /// Dense request index in dispatch order.
        req: u64,
        /// The lane (shard) that served the request, when known.
        lane: u32,
        /// Whether the request was a write.
        write: bool,
        /// Pages transferred.
        pages: u32,
        /// Tenant (namespace) the request belongs to; 0 for single-tenant
        /// workloads.
        tenant: u32,
        /// When the host model issued the request.
        issue: SimTime,
    },
}

/// One trace event: a time span (or a point, when `end == start`) plus what
/// happened. `shard` is filled in by multi-shard frontends when per-device
/// buffers are collected and merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event start (the sort key of a merged trace).
    pub start: SimTime,
    /// Event end; equals `start` for instants and counters.
    pub end: SimTime,
    /// Shard the event originated from (0 for monolithic FTLs).
    pub shard: u32,
    /// The payload.
    pub data: TraceData,
}

impl TraceEvent {
    /// Whether the event is a point rather than a span.
    pub fn is_instant(&self) -> bool {
        self.start == self.end
    }
}

/// The sink interface of the tracing layer: spans, instants and counter
/// samples keyed by simulated time.
///
/// Implemented by [`TraceBuffer`] (record everything) and [`NullSink`]
/// (drop everything). The device's emission sites are guarded by an `Option`
/// rather than dispatching through a boxed sink, so the disabled path costs
/// one branch and the trait stays object-safe for future streaming sinks.
pub trait TraceSink {
    /// Records a span from `start` to `end`.
    fn span(&mut self, start: SimTime, end: SimTime, data: TraceData);

    /// Records a point event at `at`.
    fn instant(&mut self, at: SimTime, data: TraceData) {
        self.span(at, at, data);
    }

    /// Records a counter sample at `at`. Counters are point events whose
    /// payload carries the sampled values.
    fn counter(&mut self, at: SimTime, data: TraceData) {
        self.span(at, at, data);
    }
}

/// A sink that drops every event: the explicit spelling of "tracing off".
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn span(&mut self, _start: SimTime, _end: SimTime, _data: TraceData) {}
}

/// An in-memory recording sink: a flat, append-only event buffer.
///
/// Events are appended in execution order. Because the simulator is
/// deterministic in simulated time and dispatch order, two runs of the same
/// seeded workload produce byte-identical buffers — on either execution
/// backend.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Takes the recorded events out of the buffer, leaving it empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl TraceSink for TraceBuffer {
    fn span(&mut self, start: SimTime, end: SimTime, data: TraceData) {
        debug_assert!(end >= start, "trace spans must not run backwards");
        self.events.push(TraceEvent {
            start,
            end,
            shard: 0,
            data,
        });
    }
}

/// Merges per-shard event streams into one deterministic trace.
///
/// Each stream is tagged with its shard index and the union is stably sorted
/// by event start time, so ties preserve (shard, emission) order. Given
/// identical per-shard streams — which the cross-backend equivalence
/// guarantees — the merged trace is byte-identical regardless of which
/// backend (or how many worker threads) produced the shards.
pub fn merge_shard_traces(shards: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let total = shards.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    for (shard, events) in shards.into_iter().enumerate() {
        merged.extend(events.into_iter().map(|mut e| {
            e.shard = shard as u32;
            e
        }));
    }
    merged.sort_by_key(|e| e.start);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn buffer_records_in_order() {
        let mut b = TraceBuffer::new();
        b.span(
            at(1),
            at(3),
            TraceData::PlaneOp {
                chip: 0,
                plane: 0,
                op: FlashOp::Read,
                gc: false,
            },
        );
        b.instant(at(2), TraceData::GcTrigger);
        assert_eq!(b.len(), 2);
        assert!(!b.events()[0].is_instant());
        assert!(b.events()[1].is_instant());
        let taken = {
            let mut b = b;
            b.take()
        };
        assert_eq!(taken.len(), 2);
    }

    #[test]
    fn null_sink_drops_everything() {
        let mut n = NullSink;
        n.span(at(0), at(1), TraceData::GcTrigger);
        n.instant(at(0), TraceData::GcTrigger);
        n.counter(
            at(0),
            TraceData::QueueDepth {
                chip: 0,
                host: 1,
                gc: 2,
            },
        );
    }

    #[test]
    fn merge_tags_shards_and_sorts_stably() {
        let mut a = TraceBuffer::new();
        a.instant(at(5), TraceData::GcTrigger);
        a.instant(at(1), TraceData::GcTrigger);
        let mut b = TraceBuffer::new();
        b.instant(at(5), TraceData::GcComplete);
        let merged = merge_shard_traces(vec![a.take(), b.take()]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].start, at(1));
        assert_eq!(merged[0].shard, 0);
        // Equal start times keep shard order: shard 0's event first.
        assert_eq!(merged[1].shard, 0);
        assert_eq!(merged[1].data, TraceData::GcTrigger);
        assert_eq!(merged[2].shard, 1);
        assert_eq!(merged[2].data, TraceData::GcComplete);
    }

    #[test]
    fn read_class_labels_are_stable() {
        assert_eq!(TraceReadClass::CmtHit.label(), "cmt-hit");
        assert!(TraceReadClass::CmtHit.is_cmt_hit());
        assert!(!TraceReadClass::DoubleRead.is_cmt_hit());
    }
}
