//! The benchmark's fixed vocabulary: workload names and reasons, metric names
//! with unit, direction and regression bound. `BENCHMARK.json` at the repo
//! root repeats these for the driver; a unit test keeps the two identical.

/// The eight workloads. Later issues cite these names; do not rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RandreadLearned,
    RandreadTpftl,
    HotreadDftl,
    RandwriteLearned,
    VarmailShard4Sim,
    VarmailShard4Thr,
    TenantsOpen,
    RandreadLearnedTraced,
}

impl Workload {
    pub const ALL: [Workload; 8] = [
        Workload::RandreadLearned,
        Workload::RandreadTpftl,
        Workload::HotreadDftl,
        Workload::RandwriteLearned,
        Workload::VarmailShard4Sim,
        Workload::VarmailShard4Thr,
        Workload::TenantsOpen,
        Workload::RandreadLearnedTraced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RandreadLearned => "randread_learned",
            Workload::RandreadTpftl => "randread_tpftl",
            Workload::HotreadDftl => "hotread_dftl",
            Workload::RandwriteLearned => "randwrite_learned",
            Workload::VarmailShard4Sim => "varmail_shard4_sim",
            Workload::VarmailShard4Thr => "varmail_shard4_thr",
            Workload::TenantsOpen => "tenants_open",
            Workload::RandreadLearnedTraced => "randread_learned_traced",
        }
    }

    /// One line on why the workload exists (which layers it loads, which
    /// optimisations it exercises or bypasses).
    pub fn why(self) -> &'static str {
        match self {
            Workload::RandreadLearned => {
                "LearnedFTL QD16 uniform 4K reads, working set >> 1.5% CMT: the paper's headline path (CMT miss, model predict, bitmap), no GC"
            }
            Workload::RandreadTpftl => {
                "TPFTL on the same reads: the paper's baseline and the PageNodeCmt/translation-page path; bypass for core/learned-index changes; slowest host path today"
            }
            Workload::HotreadDftl => {
                "DFTL reads over 1% of the space (CMT hit ~1): translation idle, so generator, host loop, histogram and device timelines dominate; bypass for translation work"
            }
            Workload::RandwriteLearned => {
                "LearnedFTL random 4K writes under scheduled GC: group allocation, group GC, PLR retraining, every flash op through IoScheduler"
            }
            Workload::VarmailShard4Sim => {
                "Varmail 16K mixed ops on 4 shards, simulated backend: ftl-shard dispatch, stats snapshot/merge and lane merging carry weight"
            }
            Workload::VarmailShard4Thr => {
                "Byte-identical inputs to varmail_shard4_sim on the threaded backend (2 workers): ring/channel/reorder cost; simulated results must match the sim backend"
            }
            Workload::TenantsOpen => {
                "Open-loop Poisson arrivals from 4 weighted tenants at ~60% of capacity on 4 DFTL shards: admission loop and TenantArbiter; only open-loop, multi-tenant path"
            }
            Workload::RandreadLearnedTraced => {
                "randread_learned with sim tracing on and analyze() inside the window: shows wins for untraced runs that cost traced ones, or the reverse"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

/// Host-time metrics carry the sandbox's noise: on the 2-vCPU reference
/// container ten runs of one workload spread (interquartile range over
/// median) by 2-20 % in `host_req_per_s` (the host drifts between speed modes
/// up to 20 % apart, for seconds to minutes at a time) and up to 11 % in
/// `peak_rss_mib`, so their bounds are wide. Simulated-time metrics are a pure function of the
/// seed: for a fixed seed any movement is a model change. Their bounds only
/// have to cover what the measured stream's sampling does to them when the
/// driver varies the seed (at most 1.7 % / 2 % / 2.5 % / 5 % observed).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "host_req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "host time: simulated host requests completed per wall-clock second (median of the densest half of the window's per-chunk rates)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host time: build + warm-up wall seconds (median of the run's three set-ups)",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
        what: "host memory: the measuring process's VmHWM at exit",
    },
    EndToEnd {
        name: "sim_iops",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
        what: "simulated time: requests per simulated second over the reference chunks",
    },
    EndToEnd {
        name: "sim_lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.06,
        what: "simulated time: median request latency over the reference chunks",
    },
    EndToEnd {
        name: "sim_lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.08,
        what: "simulated time: P99 request latency over the reference chunks",
    },
    EndToEnd {
        name: "sim_lat_p999_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        what: "simulated time: P99.9 request latency over the reference chunks (at least 128 samples beyond it)",
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Wall-clock spans recorded by the benchmark's decorators in the traced
    /// pass.
    Traced,
    /// Isolation kernel on the layer's public functions with a null
    /// neighbour.
    Kernel,
    /// Public counter read after the run.
    Counter,
    /// Derived from other numbers of the same traced pass.
    Derived,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::Traced => "T",
            Source::Kernel => "K",
            Source::Counter => "C",
            Source::Derived => "D",
        }
    }
}

/// A per-layer metric. The name's prefix before the first `.` is the layer
/// (crate) it belongs to. `moves` names the end-to-end metric and workloads
/// it should move, written down before anything was measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Counter, Derived, Kernel, Traced};

pub const PER_LAYER: [PerLayer; 53] = [
    layer("workloads.gen_ns_per_req", "ns", Lower, Traced, "host_req_per_s on hotread_dftl, tenants_open"),
    layer("harness.loop_ns_per_req", "ns", Lower, Traced, "host_req_per_s on hotread_dftl, tenants_open"),
    layer("harness.queue_wait_us_mean", "us", Lower, Counter, "sim_lat_p99_us on randread_*"),
    layer("harness.allocs_per_req", "count", Lower, Traced, "host_req_per_s everywhere, peak_rss_mib"),
    layer("harness.alloc_bytes_per_req", "B", Lower, Traced, "host_req_per_s everywhere, peak_rss_mib"),
    layer("harness.span_overhead_frac", "ratio", Lower, Derived, "cost of the benchmark's own spans: (decorated - plain) / plain ns per request"),
    layer("ftl-shard.dispatch_ns_per_req", "ns", Lower, Kernel, "host_req_per_s on varmail_shard4_sim"),
    layer("ftl-shard.thr_roundtrip_ns_per_req", "ns", Lower, Kernel, "host_req_per_s on varmail_shard4_thr"),
    layer("ftl-shard.ring_mean_batch", "count", Higher, Counter, "host_req_per_s on varmail_shard4_thr"),
    layer("ftl-shard.worker_busy_frac", "ratio", Higher, Traced, "host_req_per_s on varmail_shard4_thr"),
    layer("ftl-shard.thr_vs_sim_speed", "ratio", Higher, Derived, "host_req_per_s of varmail_shard4_thr over varmail_shard4_sim"),
    layer("ftl-shard.lane_imbalance", "ratio", Lower, Counter, "sim_iops on varmail_*"),
    layer("ssd-sched.cmd_ns", "ns", Lower, Kernel, "host_req_per_s on randwrite_learned"),
    layer("ssd-sched.arbiter_decide_ns", "ns", Lower, Kernel, "host_req_per_s on tenants_open"),
    layer("ssd-sched.gc_yields", "count", Lower, Counter, "sim_lat_p99_us on randwrite_learned"),
    layer("ssd-sched.gc_forced", "count", Lower, Counter, "sim_lat_p99_us on randwrite_learned"),
    layer("ssd-sched.engine_wait_us_mean", "us", Lower, Counter, "sim_lat_p99_us on varmail_*"),
    layer("ftl-base.submit_ns_per_req", "ns", Lower, Traced, "host_req_per_s everywhere; largest share on randread_tpftl, randwrite_learned"),
    layer("ftl-base.submit_self_ns_per_req", "ns", Lower, Derived, "submit minus the kernel estimates of device and scheduler time"),
    layer("ftl-base.entry_cmt_op_ns", "ns", Lower, Kernel, "host_req_per_s on hotread_dftl"),
    layer("ftl-base.node_cmt_op_ns", "ns", Lower, Kernel, "host_req_per_s on randread_tpftl"),
    layer("ftl-base.cmt_hit_ratio", "ratio", Higher, Counter, "sim_lat_p99_us, sim_iops on randread_*"),
    layer("ftl-base.double_read_frac", "ratio", Lower, Counter, "sim_lat_p99_us, sim_iops on randread_*"),
    layer("ftl-base.translation_reads_per_read", "ratio", Lower, Counter, "sim_lat_p99_us, sim_iops on randread_*"),
    layer("ftl-base.waf", "ratio", Lower, Counter, "sim_iops on randwrite_learned, varmail_*, tenants_open"),
    layer("ftl-base.gc_count", "count", Lower, Counter, "sim_iops, sim_lat_p999_us on randwrite_learned, varmail_*, tenants_open"),
    layer("ftl-base.gc_pages_per_gc", "count", Lower, Counter, "sim_lat_p999_us on randwrite_learned, varmail_*, tenants_open"),
    layer("ftl-base.gc_flash_time_frac", "ratio", Lower, Counter, "sim_iops on randwrite_learned, varmail_*, tenants_open"),
    layer("ftl-base.gc_stalled_exits", "count", Lower, Counter, "counted as failed operations"),
    layer("core.model_hit_ratio", "ratio", Higher, Counter, "ftl-base.double_read_frac, then sim_lat_p99_us on randread_learned"),
    layer("core.predict_ns", "ns", Lower, Kernel, "host_req_per_s on randread_learned"),
    layer("core.models_trained", "count", Lower, Counter, "host_req_per_s on randwrite_learned"),
    layer("core.train_ns_per_model", "ns", Lower, Counter, "host_req_per_s on randwrite_learned"),
    layer("core.sort_ns_per_model", "ns", Lower, Counter, "host_req_per_s on randwrite_learned"),
    layer("core.train_wall_frac", "ratio", Lower, Counter, "host_req_per_s on randwrite_learned"),
    layer("learned-index.plr_fit_ns_per_point", "ns", Lower, Kernel, "core.train_ns_per_model"),
    layer("learned-index.bitmap_get_ns", "ns", Lower, Kernel, "core.predict_ns"),
    layer("ssd-sim.read_ns", "ns", Lower, Kernel, "host_req_per_s on hotread_dftl"),
    layer("ssd-sim.program_ns", "ns", Lower, Kernel, "host_req_per_s on randwrite_learned, varmail_*"),
    layer("ssd-sim.erase_ns", "ns", Lower, Kernel, "host_req_per_s on randwrite_learned, varmail_*"),
    layer("ssd-sim.flash_reads_per_req", "count", Lower, Counter, "sim_iops"),
    layer("ssd-sim.flash_programs_per_req", "count", Lower, Counter, "sim_iops"),
    layer("ssd-sim.erases", "count", Lower, Counter, "sim_iops"),
    layer("ssd-sim.trace_events_per_req", "count", Lower, Counter, "host_req_per_s on randread_learned_traced"),
    layer("ssd-sim.trace_ns_per_event", "ns", Lower, Derived, "host_req_per_s on randread_learned_traced"),
    layer("ssd-sim.plane_util", "ratio", Higher, Counter, "sim_iops"),
    layer("metrics.hist_record_ns", "ns", Lower, Kernel, "host_req_per_s on hotread_dftl"),
    layer("metrics.hist_finalize_ns_per_sample", "ns", Lower, Kernel, "host_req_per_s on hotread_dftl, peak_rss_mib"),
    layer("metrics.analyze_ns_per_event", "ns", Lower, Traced, "host_req_per_s on randread_learned_traced"),
    layer("ledger.run_span_ns_per_req", "ns", Lower, Traced, "the root span; workloads.gen + harness.loop + ftl-base.submit add up to it on single-threaded workloads"),
    layer("ledger.timer_ns", "ns", Lower, Kernel, "one wall-clock read; each timed call costs two"),
    layer("ledger.unexplained_frac", "ratio", Lower, Derived, "share of the run span no layer kernel or counter accounts for"),
    layer("ledger.time_travel_completions", "count", Lower, Traced, "completions earlier than their issue time; counted as failed operations"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry lacks string field {key}"))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_spec() {
        let doc = benchmark_json();
        let list = |key: &str| -> Vec<Json> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks array {key}"))
                .to_vec()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(entry, "name"), w.name());
            assert_eq!(field(entry, "why"), w.why());
        }

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, m) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.label());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert_eq!(setup.map(|m| m.bound), Some(largest));

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, m) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.label());
        }
    }
}
