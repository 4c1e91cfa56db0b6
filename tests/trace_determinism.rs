//! Trace determinism: structured tracing must be a pure *observer*.
//!
//! Three properties pin that down, each over the full FTL-design matrix at
//! shard counts {1, 4}:
//!
//! * **run-to-run determinism** — the same seed produces byte-identical
//!   Chrome trace JSON (and metrics CSV, and trace-analysis report) across
//!   two traced runs,
//! * **backend independence** — the thread-parallel backend
//!   (`Runner::run_threaded_qd`) produces the byte-identical trace (and
//!   analysis report) to the simulated backend: per-shard streams are recorded worker-locally and
//!   merged in shard order, so the interleaving of worker threads must never
//!   leak into the artifact,
//! * **zero observer effect** — enabling tracing changes nothing the run
//!   measures: simulated time, latency distributions, flash work and FTL
//!   statistics are bit-for-bit those of the untraced run.
//!
//! Every traced run also checks that its self-profile counts what the run
//! returned: one trace event per recorded event, one request per request.

use harness::experiments::{
    fio_qd_sharded_run, fio_qd_sharded_traced_run, fio_qd_threaded_traced_run, ExperimentScale,
};
use harness::{FtlKind, ShardedRunResult};
use metrics::{chrome_trace_json, metrics_csv, validate_chrome_trace};
use ssd_sim::{Duration, Geometry, SsdConfig, TraceData, TraceEvent};
use workloads::FioPattern;

const KINDS: [FtlKind; 5] = [
    FtlKind::Dftl,
    FtlKind::Tpftl,
    FtlKind::LeaFtl,
    FtlKind::LearnedFtl,
    FtlKind::Ideal,
];

/// A device every swept shard count {1, 4} divides cleanly (same sizing
/// rationale as the cross-backend equivalence suite): 4 channels × 2 chips
/// with 256-page blocks, deeper for LearnedFTL's group-row reserve.
fn device(kind: FtlKind) -> SsdConfig {
    let blocks = if kind == FtlKind::LearnedFtl { 16 } else { 8 };
    SsdConfig::tiny()
        .with_geometry(Geometry::new(4, 2, 1, blocks, 256, 4096))
        .with_op_ratio(0.4)
}

/// Asserts that `run`'s self-profile counts the trace and the requests it
/// returned, and hands the run back.
fn profile_counts_trace(run: ShardedRunResult, context: &str) -> ShardedRunResult {
    let r = &run.result;
    assert_eq!(
        r.profile.trace_events,
        r.trace.len() as u64,
        "{context}: profiled trace events"
    );
    assert_eq!(
        r.profile.requests, r.requests,
        "{context}: profiled requests"
    );
    run
}

fn traced_sim(kind: FtlKind, shards: usize) -> ShardedRunResult {
    let run = fio_qd_sharded_traced_run(
        kind,
        FioPattern::RandRead,
        4,
        8,
        shards,
        device(kind),
        ExperimentScale::quick(),
    );
    profile_counts_trace(run, &format!("{kind} shards={shards} simulated"))
}

#[test]
fn same_seed_produces_byte_identical_artifacts() {
    for kind in KINDS {
        for shards in [1usize, 4] {
            let a = traced_sim(kind, shards);
            let b = traced_sim(kind, shards);
            let json_a = chrome_trace_json(&a.result.trace);
            let json_b = chrome_trace_json(&b.result.trace);
            assert!(
                !a.result.trace.is_empty(),
                "{kind} shards={shards}: traced run recorded no events"
            );
            assert_eq!(
                json_a, json_b,
                "{kind} shards={shards}: trace JSON differs between identical runs"
            );
            let interval = Duration::from_micros(50);
            assert_eq!(
                metrics_csv(&a.result.trace, interval),
                metrics_csv(&b.result.trace, interval),
                "{kind} shards={shards}: metrics CSV differs between identical runs"
            );
            assert_eq!(
                metrics::analysis_json(&a.result.trace, "determinism"),
                metrics::analysis_json(&b.result.trace, "determinism"),
                "{kind} shards={shards}: analysis JSON differs between identical runs"
            );
            let summary = validate_chrome_trace(&json_a)
                .unwrap_or_else(|e| panic!("{kind} shards={shards}: invalid trace JSON: {e}"));
            assert!(summary.plane_spans > 0, "{kind}: no plane activity traced");
            assert!(summary.host_spans > 0, "{kind}: no host request spans");
            assert!(summary.flows > 0, "{kind}: no request flow arrows");
        }
    }
}

fn traced_threaded(kind: FtlKind, shards: usize) -> ShardedRunResult {
    let run = fio_qd_threaded_traced_run(
        kind,
        FioPattern::RandRead,
        4,
        8,
        shards,
        shards.clamp(2, 4),
        device(kind),
        ExperimentScale::quick(),
    );
    profile_counts_trace(run, &format!("{kind} shards={shards} threaded"))
}

/// Drops the threaded backend's `RingBatch` counters: they describe the
/// execution backend (how many requests shared one channel round-trip), not
/// the simulated device, so cross-backend comparisons remove them first.
fn strip_ring_batches(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| !matches!(e.data, TraceData::RingBatch { .. }))
        .copied()
        .collect()
}

#[test]
fn threaded_backend_produces_the_identical_trace() {
    for kind in KINDS {
        for shards in [1usize, 4] {
            let simulated = traced_sim(kind, shards);
            let threaded = traced_threaded(kind, shards);
            let device_events = strip_ring_batches(&threaded.result.trace);
            assert!(
                device_events.len() < threaded.result.trace.len(),
                "{kind} shards={shards}: threaded trace carries no ring-batch counters"
            );
            assert_eq!(
                chrome_trace_json(&simulated.result.trace),
                chrome_trace_json(&device_events),
                "{kind} shards={shards}: threaded backend changed the trace"
            );
            assert_eq!(
                metrics::analysis_json(&simulated.result.trace, "determinism"),
                metrics::analysis_json(&device_events, "determinism"),
                "{kind} shards={shards}: threaded backend changed the analysis"
            );
        }
    }
}

#[test]
fn threaded_traces_are_deterministic_including_ring_batches() {
    // The submission windows themselves must be reproducible: two threaded
    // runs of the same seed agree on the rebased artifacts *with* the
    // backend's RingBatch counters left in — batch boundaries are a pure
    // function of dispatch history, never of worker-thread timing. (Raw
    // `SimTime`s are compared rebased because LearnedFTL bills trainer wall
    // clock to the timeline during warm-up; see `metrics::sim_trace`.)
    for kind in [FtlKind::Dftl, FtlKind::LearnedFtl] {
        for shards in [1usize, 4] {
            let a = traced_threaded(kind, shards);
            let b = traced_threaded(kind, shards);
            assert_eq!(
                chrome_trace_json(&a.result.trace),
                chrome_trace_json(&b.result.trace),
                "{kind} shards={shards}: threaded trace differs between identical runs"
            );
            assert_eq!(
                metrics::analysis_json(&a.result.trace, "ring"),
                metrics::analysis_json(&b.result.trace, "ring"),
                "{kind} shards={shards}: threaded analysis differs between identical runs"
            );
        }
    }
}

#[test]
fn tracing_has_zero_observer_effect() {
    for kind in KINDS {
        for shards in [1usize, 4] {
            let context = format!("{kind} shards={shards}");
            let plain = fio_qd_sharded_run(
                kind,
                FioPattern::RandRead,
                4,
                8,
                shards,
                device(kind),
                ExperimentScale::quick(),
            );
            let traced = traced_sim(kind, shards);
            let (p, t) = (&plain.result, &traced.result);

            assert!(p.trace.is_empty(), "{context}: untraced run has events");
            assert_eq!(p.requests, t.requests, "{context}: requests");
            assert_eq!(p.elapsed, t.elapsed, "{context}: simulated elapsed time");
            assert_eq!(p.latencies.count(), t.latencies.count(), "{context}");
            assert_eq!(p.latencies.mean(), t.latencies.mean(), "{context}: mean");
            assert_eq!(p.latencies.max(), t.latencies.max(), "{context}: max");
            assert_eq!(p.device, t.device, "{context}: device counters");
            assert_eq!(p.stats.cmt_hits, t.stats.cmt_hits, "{context}: cmt_hits");
            assert_eq!(
                p.stats.gc_events, t.stats.gc_events,
                "{context}: GC event history"
            );
            assert_eq!(
                p.stats.gc_complete_events, t.stats.gc_complete_events,
                "{context}: GC completion history"
            );
        }
    }
}
