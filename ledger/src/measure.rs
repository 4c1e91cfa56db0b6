//! One measuring process: a single workload, either the end-to-end pass or
//! the traced pass. This is what the driver's command runs, and what
//! `ledger run` re-executes once per (workload, repetition).

use std::collections::BTreeMap;
use std::path::PathBuf;

use harness::wallclock::WallTimer;

use crate::alloc;
use crate::drive::timed::Clock;
use crate::drive::{self, kernels, Chunk, ChunkOptions, Scale};
use crate::json::{num, obj, text, Json};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{densest_half_median, median};

/// Set-ups per full-scale end-to-end run; `setup_s` is their median. Quick
/// runs set up once.
const SETUP_REPS: usize = 3;
/// The shortest measured window a full-scale result may come from.
pub const MIN_WINDOW_S: f64 = 1.0;
/// `tenants_open` may finish at most this much later than its last arrival;
/// more means the open loop's backlog was growing.
const BACKLOG_SLACK: f64 = 1.05;

/// What one measuring process was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where the traced pass writes its sampled spans (JSON lines).
    pub spans_out: Option<PathBuf>,
}

/// What it found. `metrics` holds every end-to-end metric (untraced) or
/// every per-layer metric (traced), in spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else a reader of `ledger run` wants: digest, window,
    /// per-chunk rates, checks.
    pub detail: Json,
}

impl Outcome {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    obj([("value", num(*value)), ("unit", text(unit))]),
                )
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The line printed before the result line, for `ledger run`.
    pub fn detail_line(&self) -> String {
        obj([("ledger_detail", self.detail.clone())]).render()
    }
}

pub fn measure(request: &Request) -> Result<Outcome, String> {
    if !(request.seconds.is_finite() && request.seconds > 0.0) {
        return Err(format!(
            "--seconds must be positive, got {}",
            request.seconds
        ));
    }
    let outcome = if request.trace {
        traced(request)?
    } else {
        end_to_end(request)
    };
    let window_s = outcome
        .detail
        .get("window_s")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    check_window(request.scale, window_s)?;
    Ok(outcome)
}

/// No speed is claimed from less than a second of measurement: a full-scale
/// result from a shorter window is refused (quick runs claim nothing).
fn check_window(scale: Scale, window_s: f64) -> Result<(), String> {
    if scale == Scale::Full && window_s < MIN_WINDOW_S {
        return Err(format!(
            "measured window of {window_s:.3} s is shorter than {MIN_WINDOW_S} s; \
             refusing to report a full-scale result"
        ));
    }
    Ok(())
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Quick => "quick",
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`), the one number the
/// kernel keeps for us; 0 where `/proc` is not available.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn digest_text(digest: u64) -> Json {
    text(&format!("{digest:016x}"))
}

fn common_detail(request: &Request) -> Vec<(String, Json)> {
    vec![
        ("workload".to_string(), text(request.workload.name())),
        ("seed".to_string(), num(request.seed as f64)),
        ("trace".to_string(), Json::Bool(request.trace)),
        ("scale".to_string(), text(scale_label(request.scale))),
        ("host_cores".to_string(), num(host_cores() as f64)),
        (
            "chunk_requests".to_string(),
            num(drive::chunk_requests(request.workload, request.scale) as f64),
        ),
    ]
}

/// Running totals over the chunks of one pass.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    window_s: f64,
    growing_backlog: bool,
}

impl Tally {
    fn add(&mut self, chunk: &Chunk) {
        self.attempted += chunk.generated;
        self.failed += drive::failed_ops(chunk);
        self.window_s += chunk.wall_s;
        // `tenants_open` only: the open loop must keep up with its arrivals.
        self.growing_backlog |= chunk.tenants.is_some_and(|facts| {
            chunk.result.elapsed.as_secs_f64() > BACKLOG_SLACK * facts.last_arrival_s
        });
    }

    fn correct(&self) -> bool {
        self.failed == 0 && !self.growing_backlog
    }
}

/// Set-up several times (timed), then chunks until `seconds` of measured
/// window have accumulated. Simulated numbers come from the first
/// `reference_chunks` chunks merged, a fixed number of requests, so they are
/// a pure function of the seed.
fn end_to_end(request: &Request) -> Outcome {
    let setup_reps = match request.scale {
        Scale::Full => SETUP_REPS,
        Scale::Quick => 1,
    };
    let mut setups = Vec::with_capacity(setup_reps);
    let mut prepared = None;
    for _ in 0..setup_reps {
        // Drop the previous frontend first so peak memory is one set-up's.
        drop(prepared.take());
        let timer = WallTimer::start();
        prepared = Some(drive::prepare_plain(
            request.workload,
            request.scale,
            request.seed,
        ));
        setups.push(timer.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up ran");

    let (_, reference_chunks) = drive::chunk_plan(request.workload, request.scale);
    let mut rates = Vec::new();
    let mut tally = Tally::default();
    let mut reference = None;
    // The reference chunks always run, however short the window.
    while tally.window_s < request.seconds || rates.len() < reference_chunks {
        let chunk = drive::run_chunk(&mut prepared, ChunkOptions::default(), None);
        rates.push(chunk.result.requests as f64 / chunk.wall_s);
        tally.add(&chunk);
        if rates.len() <= reference_chunks {
            drive::merge_into_reference(&mut reference, &chunk.result);
        }
    }
    let mut reference = reference.expect("the plan has at least one reference chunk");
    let sim = drive::sim_numbers(&mut reference);

    let values = [
        // The mode of the chunk rates: the reference container drifts between
        // speed modes and suffers slow bursts, and this ignores a minority of
        // either (see `densest_half_median`).
        densest_half_median(&rates),
        median(&setups),
        peak_rss_mib(),
        sim.iops,
        sim.p50_us,
        sim.p99_us,
        sim.p999_us,
    ];
    let mut detail = common_detail(request);
    detail.extend([
        ("digest".to_string(), digest_text(sim.digest)),
        ("window_s".to_string(), num(tally.window_s)),
        ("chunks".to_string(), num(rates.len() as f64)),
        (
            "chunk_req_per_s".to_string(),
            Json::Arr(rates.iter().map(|r| num(*r)).collect()),
        ),
        (
            "setups_s".to_string(),
            Json::Arr(setups.iter().map(|s| num(*s)).collect()),
        ),
        ("reference_chunks".to_string(), num(reference_chunks as f64)),
        ("sim_elapsed_s".to_string(), num(sim.elapsed_s)),
        (
            "no_growing_backlog".to_string(),
            Json::Bool(!tally.growing_backlog),
        ),
    ]);
    Outcome {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        detail: Json::Obj(detail),
    }
}

/// What the simulator's own tracing and `analyze` cost: two small chunks
/// (a full chunk's trace would dominate peak memory), tracing off then on.
fn trace_cost<F: drive::Ftl>(
    prepared: &mut drive::Prepared<F>,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let requests = drive::chunk_requests(prepared.workload, prepared.scale).clamp(1_000, 50_000);
    let mut small = |sim_trace: bool| {
        let options = ChunkOptions {
            requests: Some(requests),
            sim_trace: Some(sim_trace),
            ..ChunkOptions::default()
        };
        let chunk = drive::run_chunk(prepared, options, None);
        tally.add(&chunk);
        chunk
    };
    let (quiet, loud) = (small(false), small(true));
    let facts = loud
        .sim_trace
        .ok_or("a sim-traced chunk kept no trace facts")?;
    let events = facts.events.max(1) as f64;
    let events_per_request = events / loud.result.requests.max(1) as f64;
    let loud_run_ns =
        ns_per_request(&loud) - facts.analyze_s * 1e9 / loud.result.requests.max(1) as f64;
    Ok(vec![
        ("ssd-sim.trace_events_per_req", events_per_request),
        (
            "ssd-sim.trace_ns_per_event",
            ((loud_run_ns - ns_per_request(&quiet)) / events_per_request).max(0.0),
        ),
        (
            "metrics.analyze_ns_per_event",
            facts.analyze_s * 1e9 / events,
        ),
        ("ssd-sim.plane_util", facts.plane_util),
        ("ftl-shard.ring_mean_batch", facts.ring_mean_batch),
    ])
}

/// Writes the sampled spans as JSON lines. A `run` span is a root with an
/// id; every other span names the run it happened under as its parent.
fn write_spans(path: &std::path::Path, spans: &[drive::timed::Span]) -> Result<(), String> {
    let mut lines = String::new();
    for span in spans {
        let (id, parent) = if span.name == drive::ROOT_SPAN {
            (num(f64::from(span.run)), Json::Null)
        } else {
            (Json::Null, num(f64::from(span.run)))
        };
        let line = obj([
            ("name", text(span.name)),
            ("id", id),
            ("parent", parent),
            ("start_ns", num(span.start_ns as f64)),
            ("end_ns", num(span.end_ns as f64)),
            ("request", num(span.request as f64)),
            ("track", num(f64::from(span.track))),
        ]);
        lines.push_str(&line.render());
        lines.push('\n');
    }
    std::fs::write(path, lines).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Nanoseconds per request of a chunk's measured window.
fn ns_per_request(chunk: &Chunk) -> f64 {
    chunk.wall_s * 1e9 / chunk.result.requests.max(1) as f64
}

/// The traced pass. One set-up with decorated FTLs, then, until about 60 %
/// of `seconds` is used, pairs of a decorated chunk (spans and allocation
/// counting on) and a plain chunk (both off); then two small chunks that
/// price the simulator's own tracing and `analyze`; on the varmail
/// workloads one chunk per backend; and last the isolation kernels.
fn traced(request: &Request) -> Result<Outcome, String> {
    let workload = request.workload;
    let threaded = drive::is_threaded(workload);
    let clock = Clock::new();
    let setup = WallTimer::start();
    let mut prepared = drive::prepare_timed(workload, request.scale, request.seed, &clock);
    let setup_s = setup.elapsed().as_secs_f64();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut tally = Tally::default();

    // The reference chunks run decorated, so the pass's digest can be held
    // against the end-to-end pass's; then plain and decorated chunks
    // alternate until the budget is used.
    let (_, reference_chunks) = drive::chunk_plan(workload, request.scale);
    let mut attributions: Vec<drive::Attribution> = Vec::new();
    let (mut decorated_ns, mut plain_ns) = (vec![], vec![]);
    let mut reference = None;
    let mut reference_allocs = alloc::AllocCount::default();
    // Nanoseconds under `Ftl` and under the root span over the reference.
    let (mut reference_submit_ns, mut reference_run_ns) = (0.0, 0.0);
    let mut decorated_chunks: Vec<Chunk> = Vec::new();
    let mut time_travel;
    loop {
        let in_reference = decorated_chunks.len() < reference_chunks;
        if !in_reference {
            let plain = drive::run_chunk(&mut prepared, ChunkOptions::default(), None);
            tally.add(&plain);
            plain_ns.push(ns_per_request(&plain));
        }

        let before = drive::part_totals(&prepared);
        clock.set_on(true);
        let (chunk, allocs) = alloc::counted(|| {
            drive::run_chunk(&mut prepared, ChunkOptions::default(), Some(&clock))
        });
        clock.set_on(false);
        tally.add(&chunk);
        let attribution = drive::attribute(&prepared, &before, &chunk, threaded)
            .ok_or("a decorated chunk recorded no spans")?;
        decorated_ns.push(ns_per_request(&chunk));
        time_travel = attribution.time_travel;
        if in_reference {
            drive::merge_into_reference(&mut reference, &chunk.result);
            reference_allocs.allocations += allocs.allocations;
            reference_allocs.bytes += allocs.bytes;
            let requests = attribution.requests as f64;
            reference_submit_ns += attribution.submit_ns * requests;
            reference_run_ns += attribution.run_ns * requests;
        }
        attributions.push(attribution);
        decorated_chunks.push(chunk);
        if !in_reference && tally.window_s >= 0.6 * request.seconds {
            break;
        }
    }
    let mut reference = reference.ok_or("the traced pass ran no reference chunk")?;
    let sim = drive::sim_numbers(&mut reference);
    let below = drive::below_ftl(&prepared, &reference);
    let requests = reference.requests.max(1) as f64;
    values.insert(
        "harness.allocs_per_req",
        reference_allocs.allocations as f64 / requests,
    );
    values.insert(
        "harness.alloc_bytes_per_req",
        reference_allocs.bytes as f64 / requests,
    );
    let reference_wall_s: f64 = decorated_chunks[..reference_chunks]
        .iter()
        .map(|c| c.wall_s)
        .sum();
    values.extend(drive::counter_metrics(
        &reference,
        reference_wall_s,
        &decorated_chunks[0],
    ));
    tally.failed += time_travel;
    let plain = median(&plain_ns);
    let typical = |field: fn(&drive::Attribution) -> f64| {
        median(&attributions.iter().map(field).collect::<Vec<_>>())
    };
    values.insert("ledger.run_span_ns_per_req", typical(|a| a.run_ns));
    values.insert("workloads.gen_ns_per_req", typical(|a| a.gen_ns));
    values.insert("harness.loop_ns_per_req", typical(|a| a.loop_ns));
    values.insert("ftl-base.submit_ns_per_req", typical(|a| a.submit_ns));
    values.insert(
        "ftl-shard.worker_busy_frac",
        typical(|a| a.worker_busy_frac),
    );
    values.insert(
        "harness.span_overhead_frac",
        (median(&decorated_ns) - plain) / plain,
    );
    values.insert("ledger.time_travel_completions", time_travel as f64);

    values.extend(trace_cost(&mut prepared, &mut tally)?);

    // The same inputs through both backends, back to back.
    if matches!(
        workload,
        Workload::VarmailShard4Sim | Workload::VarmailShard4Thr
    ) {
        let mut rate = |threaded: bool| {
            let chunk = drive::run_chunk(
                &mut prepared,
                ChunkOptions {
                    threaded: Some(threaded),
                    ..ChunkOptions::default()
                },
                None,
            );
            tally.add(&chunk);
            chunk.result.requests as f64 / chunk.wall_s
        };
        let (sim_rate, thr_rate) = (rate(false), rate(true));
        values.insert("ftl-shard.thr_vs_sim_speed", thr_rate / sim_rate);
    }

    let kernel_timer = WallTimer::start();
    values.extend(kernels::run_all(request.scale));
    let kernel_s = kernel_timer.elapsed().as_secs_f64();

    // Split the time below `Ftl` with the kernels' prices. An estimate: its
    // residue is the unexplained share.
    let price = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let device_ns = below.flash_reads * price("ssd-sim.read_ns")
        + below.flash_programs * price("ssd-sim.program_ns")
        + below.erases * price("ssd-sim.erase_ns");
    let sched_ns = below.sched_commands * price("ssd-sched.cmd_ns");
    let cmt_price = if below.node_cmt {
        price("ftl-base.node_cmt_op_ns")
    } else {
        price("ftl-base.entry_cmt_op_ns")
    };
    let translate_ns = below.cmt_ops * cmt_price
        + below.predictions * price("core.predict_ns")
        + below.train_sort_ns;
    let (submit_total_ns, run_total_ns) = (reference_submit_ns, reference_run_ns);
    values.insert(
        "ftl-base.submit_self_ns_per_req",
        (submit_total_ns - device_ns - sched_ns) / requests,
    );
    values.insert(
        "ledger.unexplained_frac",
        (submit_total_ns - device_ns - sched_ns - translate_ns) / run_total_ns,
    );

    let spans = drive::collect_spans(&prepared, &decorated_chunks.iter().collect::<Vec<_>>());
    if let Some(path) = &request.spans_out {
        write_spans(path, &spans)?;
    }

    let mut detail = common_detail(request);
    detail.extend([
        ("digest".to_string(), digest_text(sim.digest)),
        ("window_s".to_string(), num(tally.window_s)),
        ("setup_s".to_string(), num(setup_s)),
        ("kernel_s".to_string(), num(kernel_s)),
        (
            "decorated_chunks".to_string(),
            num(decorated_chunks.len() as f64),
        ),
        ("sampled_spans".to_string(), num(spans.len() as f64)),
        (
            "no_growing_backlog".to_string(),
            Json::Bool(!tally.growing_backlog),
        ),
    ]);
    Ok(Outcome {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                // A ratio over an empty count is "nothing to report", not NaN.
                let value = values.get(m.name).copied().filter(|v| v.is_finite());
                (m.name, value.unwrap_or(0.0), m.unit)
            })
            .collect(),
        detail: Json::Obj(detail),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_refuses_a_window_under_a_second() {
        assert!(check_window(Scale::Full, 0.999).is_err());
        assert!(check_window(Scale::Full, 1.0).is_ok());
        assert!(check_window(Scale::Quick, 0.01).is_ok());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s")],
            detail: Json::Null,
        };
        assert_eq!(
            outcome.result_line(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }
}
