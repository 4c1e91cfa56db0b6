//! Property tests for the trace-analysis engine (`metrics::analysis`):
//! arbitrary traced workloads over the full FTL matrix must satisfy the
//! latency-decomposition invariant, and the rendered report must be a
//! deterministic pure function of the trace — identical across repeated
//! analyses and across the simulated and thread-parallel backends.

use harness::experiments::{fio_read, ExperimentScale};
use learnedftl_suite::prelude::*;
use proptest::prelude::*;
use ssd_sim::{Geometry, TraceData, TraceEvent};

/// The threaded backend adds `RingBatch` submission-ring counters the
/// simulated backend has no notion of; drop them before the cross-backend
/// comparison (their own determinism is pinned by `trace_determinism`).
fn strip_ring_batches(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| !matches!(e.data, TraceData::RingBatch { .. }))
        .copied()
        .collect()
}

/// Same sizing rationale as the trace-determinism suite: a device every
/// swept shard count divides cleanly, deeper for LearnedFTL's group rows.
fn device(kind: FtlKind) -> SsdConfig {
    let blocks = if kind == FtlKind::LearnedFtl { 16 } else { 8 };
    SsdConfig::tiny()
        .with_geometry(Geometry::new(4, 2, 1, blocks, 256, 4096))
        .with_op_ratio(0.4)
}

/// A smaller-than-quick measured phase: each proptest case pays for a full
/// warm-up plus three measured runs, so the measured phase itself can be
/// short — the decomposition invariant is per-request, not statistical.
fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        warmup_io_pages: 32,
        warmup_overwrites: 1,
        ops_per_stream: 60,
        single_stream_ops: 500,
    }
}

/// The FIO read protocol on a `shards`-way frontend, tracing on.
fn warmed_traced(
    kind: FtlKind,
    threads: usize,
    shards: usize,
) -> (ShardedFtl<Box<dyn Ftl>>, FioWorkload) {
    let mut ftl = kind.build_sharded(device(kind), shards);
    let wl = fio_read(&mut ftl, FioPattern::RandRead, threads, tiny_scale());
    ftl.set_tracing(true);
    (ftl, wl)
}

fn kind_strategy() -> impl Strategy<Value = FtlKind> {
    prop_oneof![
        Just(FtlKind::Dftl),
        Just(FtlKind::Tpftl),
        Just(FtlKind::LeaFtl),
        Just(FtlKind::LearnedFtl),
        Just(FtlKind::Ideal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For an arbitrary (FTL, thread count, queue depth, shard count) traced
    /// workload: every request's decomposition components are individually
    /// bounded by and sum exactly to its measured latency, the analysis
    /// covers every completed request, and the rendered JSON is byte-stable
    /// across repeated analyses and across execution backends (which also
    /// pins the top-K exemplar selection as deterministic).
    #[test]
    fn prop_decomposition_sums_and_analysis_is_deterministic(
        kind in kind_strategy(),
        threads in 1usize..5,
        depth in 1usize..9,
        shards_idx in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shards_idx];
        let (mut ftl, mut wl) = warmed_traced(kind, threads, shards);
        let simulated = Runner::new().run_sharded_qd(&mut ftl, &mut wl, depth);

        let analysis = metrics::analyze(&simulated.result.trace);
        prop_assert_eq!(
            analysis.requests.len() as u64,
            simulated.result.requests,
            "{} shards={}: analysis must cover every completed request",
            kind, shards
        );
        for r in &analysis.requests {
            let latency = r.latency_ns();
            prop_assert_eq!(
                r.components_sum_ns(), latency,
                "{} req {}: components must sum to measured latency",
                kind, r.req
            );
            for (name, value) in [
                ("queue_wait", r.queue_wait_ns),
                ("translation", r.translation_ns),
                ("nand", r.nand_ns),
                ("bus", r.bus_ns),
                ("gc", r.gc_ns),
            ] {
                prop_assert!(
                    value <= latency,
                    "{} req {}: {} component exceeds latency", kind, r.req, name
                );
            }
        }

        let json = metrics::analysis_json(&simulated.result.trace, "property");
        let validated = metrics::validate_analysis_json(&json);
        prop_assert!(validated.is_ok(), "analysis must validate: {:?}", validated);
        prop_assert_eq!(
            &json,
            &metrics::analysis_json(&simulated.result.trace, "property"),
            "repeated analysis of the same trace must be byte-identical"
        );

        let (mut ftl, mut wl) = warmed_traced(kind, threads, shards);
        let threaded = Runner::new().run_threaded_qd(&mut ftl, &mut wl, depth, shards.clamp(2, 4));
        let threaded_device_events = strip_ring_batches(&threaded.result.trace);
        prop_assert!(
            threaded_device_events.len() < threaded.result.trace.len(),
            "{} shards={}: the threaded trace must carry RingBatch counters",
            kind, shards
        );
        prop_assert_eq!(
            &json,
            &metrics::analysis_json(&threaded_device_events, "property"),
            "{} shards={}: backends must analyse identically", kind, shards
        );
    }
}
