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
//!   analysis report) to the simulated backend: per-shard streams are
//!   recorded worker-locally and merged in shard order, so the interleaving
//!   of worker threads must never leak into the artifact,
//! * **zero observer effect** — enabling tracing changes nothing the run
//!   measures: simulated time, latency distributions, flash work and FTL
//!   statistics are bit-for-bit those of the untraced run. This also holds
//!   for the GC-interference protocol in both GC modes and for the tenant
//!   protocol with and without isolation, whose traced runs fold the
//!   post-run GC drain into the trace.
//!
//! Every traced run also checks that its self-profile counts what the run
//! returned: one trace event per recorded event, one request per request.
//!
//! Each check is a module with one `#[test]` per FTL design, so the harness
//! spreads the matrix across cores. The threaded backend's submission rings
//! must also coalesce: at QD16 a traced run batches more than one request per
//! channel round-trip on average.

use ftl_base::{Ftl, GcMode};
use harness::experiments::{
    fio_gc_interference_run, fio_read, tenant_noisy_neighbour_run, ExperimentScale,
};
use harness::{FtlKind, RunResult, Runner, ShardedFtl, ShardedRunResult};
use metrics::{chrome_trace_json, metrics_csv, validate_chrome_trace};
use ssd_sim::{Duration, Geometry, SsdConfig, TraceData, TraceEvent};
use workloads::{FioPattern, FioWorkload, TenantSpec};

/// One `#[test]` per FTL design for the check `$check(kind: FtlKind)`, in a
/// module named after the check: every design, or the listed ones.
macro_rules! per_ftl {
    ($check:ident) => {
        per_ftl!($check: dftl => Dftl, tpftl => Tpftl, leaftl => LeaFtl,
                 learnedftl => LearnedFtl, ideal => Ideal);
    };
    ($check:ident: $($test:ident => $kind:ident),+) => {
        mod $check {
            $(
                #[test]
                fn $test() {
                    super::$check(harness::FtlKind::$kind);
                }
            )+
        }
    };
}

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

/// The FIO read protocol (four streams) on a `shards`-way frontend, with
/// tracing set for the measured phase.
fn warmed(kind: FtlKind, shards: usize, traced: bool) -> (ShardedFtl<Box<dyn Ftl>>, FioWorkload) {
    let mut ftl = kind.build_sharded(device(kind), shards);
    let wl = fio_read(&mut ftl, FioPattern::RandRead, 4, ExperimentScale::quick());
    ftl.set_tracing(traced);
    (ftl, wl)
}

fn traced_sim(kind: FtlKind, shards: usize) -> ShardedRunResult {
    let (mut ftl, mut wl) = warmed(kind, shards, true);
    let run = Runner::new().run_sharded_qd(&mut ftl, &mut wl, 8);
    profile_counts_trace(run, &format!("{kind} shards={shards} simulated"))
}

fn same_seed_produces_byte_identical_artifacts(kind: FtlKind) {
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
per_ftl!(same_seed_produces_byte_identical_artifacts);

fn traced_threaded(kind: FtlKind, shards: usize) -> ShardedRunResult {
    let (mut ftl, mut wl) = warmed(kind, shards, true);
    let run = Runner::new().run_threaded_qd(&mut ftl, &mut wl, 8, shards.clamp(2, 4));
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

fn threaded_backend_produces_the_identical_trace(kind: FtlKind) {
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
per_ftl!(threaded_backend_produces_the_identical_trace);

/// The submission windows themselves must be reproducible: two threaded runs
/// of the same seed agree on the rebased artifacts *with* the backend's
/// RingBatch counters left in — batch boundaries are a pure function of
/// dispatch history, never of worker-thread timing. (The artifacts hold
/// `SimTime`s rebased onto each shard's epoch; see `metrics::sim_trace`.)
fn threaded_traces_are_deterministic_including_ring_batches(kind: FtlKind) {
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
per_ftl!(threaded_traces_are_deterministic_including_ring_batches:
    dftl => Dftl, learnedftl => LearnedFtl);

#[test]
fn threaded_rings_coalesce_at_queue_depth_16() {
    // DFTL on 4 shards at QD16 with 4 workers and 16 streams, on the
    // quick-scale shard-scaling device: the batching exists for DFTL, whose
    // translation is so cheap that per-request channel traffic would
    // dominate. Batch boundaries are a pure function of dispatch history, so
    // this holds on every host.
    let device = SsdConfig::tiny()
        .with_geometry(Geometry::new(8, 2, 1, 16, 256, 4096))
        .with_op_ratio(0.4);
    let experiment = ExperimentScale {
        ops_per_stream: 2_000,
        ..ExperimentScale::quick()
    };
    let mut ftl = FtlKind::Dftl.build_sharded(device, 4);
    let mut wl = fio_read(&mut ftl, FioPattern::RandRead, 16, experiment);
    ftl.set_tracing(true);
    let traced = Runner::new().run_threaded_qd(&mut ftl, &mut wl, 16, 4);
    let ring = metrics::analyze(&traced.result.trace).ring_totals();
    assert!(ring.batches > 0, "no ring batches traced");
    assert!(
        ring.mean_entries() > 1.0,
        "mean submission batch {:.2} at QD16: the rings did not coalesce",
        ring.mean_entries()
    );
}

/// Asserts that a traced run measured exactly what its untraced twin did:
/// requests, simulated time, latencies, device counters, every simulated
/// FTL statistic and the GC event histories.
fn assert_unobserved(context: &str, plain: &RunResult, traced: &RunResult) {
    let (mut p, mut t) = (plain.clone(), traced.clone());
    assert!(p.trace.is_empty(), "{context}: untraced run has events");
    assert!(!t.trace.is_empty(), "{context}: traced run has no events");
    assert_eq!(p.requests, t.requests, "{context}: requests");
    assert_eq!(p.elapsed, t.elapsed, "{context}: simulated elapsed time");
    assert_eq!(p.latencies.count(), t.latencies.count(), "{context}");
    assert_eq!(p.latencies.mean(), t.latencies.mean(), "{context}: mean");
    assert_eq!(p.latencies.max(), t.latencies.max(), "{context}: max");
    assert_eq!(p.p99(), t.p99(), "{context}: p99");
    assert_eq!(p.device, t.device, "{context}: device counters");
    assert_eq!(
        p.stats.gc_events, t.stats.gc_events,
        "{context}: GC event history"
    );
    assert_eq!(
        p.stats.gc_complete_events, t.stats.gc_complete_events,
        "{context}: GC completion history"
    );
    // Every FTL statistic but the two host wall-clock ones.
    for stats in [&mut p.stats, &mut t.stats] {
        stats.sort_wall_time = std::time::Duration::ZERO;
        stats.train_wall_time = std::time::Duration::ZERO;
    }
    assert_eq!(
        format!("{:?}", p.stats),
        format!("{:?}", t.stats),
        "{context}: FTL statistics"
    );
}

fn tracing_has_zero_observer_effect(kind: FtlKind) {
    for shards in [1usize, 4] {
        let (mut ftl, mut wl) = warmed(kind, shards, false);
        let plain = Runner::new().run_sharded_qd(&mut ftl, &mut wl, 8);
        let traced = traced_sim(kind, shards);
        let context = format!("{kind} shards={shards}");
        assert_unobserved(&context, &plain.result, &traced.result);
    }
}
per_ftl!(tracing_has_zero_observer_effect);

/// The fig24 device and a short write-heavy phase: every FTL collects during
/// the measured window, so the post-run drain has work to fold.
fn gc_device() -> SsdConfig {
    SsdConfig::tiny()
        .with_geometry(Geometry::new(8, 2, 1, 16, 128, 4096))
        .with_op_ratio(0.4)
}

fn gc_interference_tracing_has_zero_observer_effect(kind: FtlKind) {
    for mode in [GcMode::Blocking, GcMode::Scheduled] {
        let run = |traced| {
            fio_gc_interference_run(
                kind,
                4,
                32,
                4,
                mode,
                Duration::from_micros(160),
                gc_device(),
                ExperimentScale::quick(),
                traced,
            )
        };
        let (plain, traced) = (run(false), run(true));
        let context = format!("{kind} {mode:?} GC interference");
        assert!(plain.stats.gc_count > 0, "{context}: no collections");
        assert_unobserved(&context, &plain, &traced);
    }
}
per_ftl!(gc_interference_tracing_has_zero_observer_effect);

#[test]
fn tenant_tracing_has_zero_observer_effect() {
    // fig28's line-up: one write-heavy aggressor, three read-mostly victims.
    let specs = || {
        let mut specs = vec![TenantSpec::write_heavy(Duration::from_micros(20), 400)];
        for _ in 0..3 {
            specs.push(TenantSpec::read_mostly(Duration::from_micros(60), 200).with_weight(8));
        }
        specs
    };
    for isolate in [false, true] {
        let run = |traced| {
            tenant_noisy_neighbour_run(
                FtlKind::Dftl,
                specs(),
                4,
                GcMode::Blocking,
                device(FtlKind::Dftl),
                ExperimentScale::quick(),
                isolate,
                traced,
            )
        };
        let (plain, traced) = (run(false), run(true));
        let context = format!("tenants isolate={isolate}");
        assert_unobserved(&context, &plain.result, &traced.result);
        assert_eq!(plain.tenants.len(), traced.tenants.len(), "{context}");
        for (p, t) in plain.tenants.iter().zip(&traced.tenants) {
            let lane = format!("{context} tenant {}", p.tenant);
            assert_eq!(p.requests, t.requests, "{lane}: requests");
            assert_eq!(p.read_pages, t.read_pages, "{lane}: read pages");
            assert_eq!(p.write_pages, t.write_pages, "{lane}: write pages");
            assert_eq!(p.latencies.mean(), t.latencies.mean(), "{lane}: mean");
            assert_eq!(p.latencies.max(), t.latencies.max(), "{lane}: max");
        }
    }
}
