//! `repro`'s observability path: the `BenchArgs` export helper must write a
//! schema-valid Chrome trace and a well-formed metrics CSV, and the
//! GC-interference protocol, traced, must surface the scheduler's GC
//! activity in the trace. Both traced runs' self-profiles must
//! count the trace and the requests they returned.

use bench::{BenchArgs, Scale};
use ftl_base::Ftl;
use ftl_base::GcMode;
use harness::experiments::{fio_gc_interference_run, fio_read};
use harness::{FtlKind, RunResult, Runner};
use metrics::{chrome_trace_json, validate_analysis_json, validate_chrome_trace};
use ssd_sim::{Duration, SsdConfig};
use workloads::FioPattern;

/// The self-profile the export line prints counts what the run returned,
/// including GC instants a post-run drain appended to the trace.
fn assert_profile_counts_trace(result: &RunResult) {
    assert_eq!(result.profile.trace_events, result.trace.len() as u64);
    assert_eq!(result.profile.requests, result.requests);
}

#[test]
fn export_helper_writes_valid_artifacts() {
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!("bench_obs_{}.trace.json", std::process::id()));
    let metrics_path = dir.join(format!("bench_obs_{}.metrics.csv", std::process::id()));
    let analysis_path = dir.join(format!("bench_obs_{}.analysis.json", std::process::id()));
    let args = BenchArgs {
        trace_out: Some(trace_path.to_string_lossy().into_owned()),
        metrics_out: Some(metrics_path.to_string_lossy().into_owned()),
        analyze_out: Some(analysis_path.to_string_lossy().into_owned()),
        metrics_interval_us: Some(50),
        ..BenchArgs::default()
    };
    assert!(args.tracing());

    let mut ftl = FtlKind::LearnedFtl.build(SsdConfig::tiny());
    let mut wl = fio_read(
        ftl.as_mut(),
        FioPattern::RandRead,
        2,
        Scale::Quick.experiment(),
    );
    ftl.set_tracing(true);
    let result = Runner::new().run(ftl.as_mut(), &mut wl);
    assert!(result.profile.trace_events > 0);
    assert!(result.profile.requests_per_sec() > 0.0);
    assert_profile_counts_trace(&result);
    args.export_observability("observability-test", &result)
        .expect("export must succeed");

    let json = std::fs::read_to_string(&trace_path).expect("trace file written");
    let summary = validate_chrome_trace(&json).expect("exported trace must validate");
    assert!(summary.plane_spans > 0);
    assert!(summary.host_spans > 0);
    assert!(summary.flows > 0);

    let csv = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some(
            "t_us,plane_util,gc_plane_util,bus_util,host_qdepth,gc_qdepth,\
             gc_debt,cmt_hits,reads_classified,cmt_hit_rate"
        )
    );
    assert!(lines.next().is_some(), "metrics CSV must have data rows");

    // The analysis artifact must validate, carry the figure provenance, and
    // its exported export must be byte-stable against an in-process re-run.
    let analysis = std::fs::read_to_string(&analysis_path).expect("analysis file written");
    let summary = validate_analysis_json(&analysis).expect("exported analysis must validate");
    assert_eq!(summary.requests, result.requests);
    assert!(summary.exemplars > 0, "tail exemplars missing");
    assert!(analysis.contains("\"figure\":\"observability-test\""));
    assert_eq!(
        analysis,
        metrics::analysis_json(&result.trace, "observability-test"),
        "analysis export must be a pure function of the trace"
    );

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&metrics_path);
    let _ = std::fs::remove_file(&analysis_path);
}

#[test]
fn traced_gc_interference_surfaces_gc_activity() {
    // The fig24 protocol traced at its write-heavy scheduled-GC point: the
    // trace must contain GC instants/spans, not just host I/O.
    let result = fio_gc_interference_run(
        FtlKind::LearnedFtl,
        4,
        32,
        1,
        GcMode::Scheduled,
        Duration::from_micros(900),
        bench::shard_scaling_device(Scale::Quick),
        Scale::Quick.experiment(),
        true,
    );
    assert!(
        result.stats.gc_count > 0,
        "the write-heavy point must collect"
    );
    assert_profile_counts_trace(&result);
    let summary = validate_chrome_trace(&chrome_trace_json(&result.trace))
        .expect("traced GC run must validate");
    assert!(summary.gc_events > 0, "no GC events in the trace");
    assert!(summary.cmd_spans > 0, "no scheduler lifecycle spans");
    assert!(summary.counters > 0, "no queue-depth counter samples");
    assert!(summary.plane_spans > 0);
    assert!(summary.host_spans > 0);

    // The analysis engine must see the same GC activity as interference:
    // GC plane work exists, some host request time is attributed to it, and
    // the decomposition invariant holds under real GC contention.
    let analysis = metrics::analyze(&result.trace);
    let tax = analysis.gc_tax();
    assert!(tax.gc_plane_busy_ns > 0, "no GC plane work in the analysis");
    assert!(
        tax.host_wait_ns > 0,
        "write-heavy scheduled GC must charge some host time to GC"
    );
    assert!(tax.affected_requests > 0);
    for r in &analysis.requests {
        assert_eq!(
            r.components_sum_ns(),
            r.latency_ns(),
            "req {}: decomposition must sum to measured latency",
            r.req
        );
    }
}
