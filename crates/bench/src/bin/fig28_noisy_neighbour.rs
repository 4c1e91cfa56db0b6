//! Noisy-neighbour isolation: one write-heavy aggressor tenant vs three
//! read-mostly victim tenants sharing a sharded FTL, with and without the
//! scheduler's weighted per-tenant arbitration.
//!
//! This extends the paper: its evaluation runs one workload at a time, but
//! production SSDs serve several namespaces at once, and a single
//! write-heavy tenant — whose writes drag blocking GC into every shard's
//! timeline — inflates the read tails of everyone else. PR 9 generalises the
//! two-class host/GC arbitration into weighted per-tenant queues; this
//! binary measures what that buys.
//!
//! Four tenants split the logical space into disjoint quarters (LPNs stripe
//! round-robin across shards, so every tenant's traffic crosses every
//! shard): tenant 0 offers 95%-write traffic at a high arrival rate with
//! weight 1, tenants 1–3 offer 95%-read traffic with weight 8. Each tenant's
//! Poisson arrivals queue in per-shard backlogs; a shard serves one request
//! at a time, picking the next tenant either by weighted round-robin with
//! per-tenant starvation bounds (*isolated*) or in plain arrival order
//! (*FIFO* — what a namespace-oblivious host does). Latencies count from the
//! true arrival, so queueing behind the aggressor's backlog is measured —
//! that is precisely the interference isolation removes.
//!
//! Shape check (enforced at exit): at shards=4, the victims' aggregate p99
//! under weighted isolation is strictly better than under FIFO admission.

use ftl_base::GcMode;
use harness::experiments::tenant_noisy_neighbour_run;
use harness::{FtlKind, TenantRunResult};
use metrics::{LatencyHistogram, Table};
use ssd_sim::Duration;
use workloads::TenantSpec;

use bench::{print_header, print_table_with_verdict, shard_scaling_device, times, BenchArgs};

/// The aggressor's weighted-round-robin share (one contended slot per
/// victim-weight × victims).
const AGGRESSOR_WEIGHT: u32 = 1;
/// Each victim's weighted-round-robin share.
const VICTIM_WEIGHT: u32 = 8;
/// Read-mostly victim tenants sharing the device with the aggressor.
const VICTIMS: usize = 3;

/// The tenant line-up: one flooding write-heavy aggressor, `VICTIMS`
/// read-mostly victims at a moderate rate. Arrival gaps are sized against
/// the quick/standard devices' single-page service times so backlogs
/// actually form — with idle shards, admission order cannot matter.
fn tenant_specs(requests: u64) -> Vec<TenantSpec> {
    let mut specs =
        vec![TenantSpec::write_heavy(Duration::from_micros(20), requests)
            .with_weight(AGGRESSOR_WEIGHT)];
    for _ in 0..VICTIMS {
        specs.push(
            TenantSpec::read_mostly(Duration::from_micros(60), requests / 2)
                .with_weight(VICTIM_WEIGHT),
        );
    }
    specs
}

/// The victims' aggregate p99: their per-tenant histograms merged.
fn victim_p99(run: &TenantRunResult) -> Duration {
    let mut merged = LatencyHistogram::new();
    for lane in &run.tenants[1..] {
        merged.merge(&lane.latencies);
    }
    merged.p99()
}

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    let device = shard_scaling_device(scale);
    let shards = 4;
    print_header(
        "Fig. 28 (extension) — noisy neighbour: weighted per-tenant arbitration vs FIFO admission",
        "weighted per-tenant queues at the shard admission point shield read-mostly \
         tenants' tails from a write-heavy aggressor the FIFO baseline lets through",
        scale,
    );
    println!("device: {}, shards: {shards}", device.geometry);

    let experiment = scale.experiment();
    let requests = experiment.single_stream_ops;
    let kind = FtlKind::Dftl;

    let mut table = Table::new(vec![
        "admission",
        "tenant",
        "mix",
        "weight",
        "requests",
        "mean (us)",
        "P99 (ms)",
        "max (ms)",
    ]);

    let mut runs: Vec<(bool, TenantRunResult)> = Vec::new();
    for isolate in [false, true] {
        let mut run = tenant_noisy_neighbour_run(
            kind,
            tenant_specs(requests),
            shards,
            GcMode::Blocking,
            device,
            experiment,
            isolate,
            false,
        );
        let specs = tenant_specs(requests);
        for lane in &mut run.tenants {
            let spec = &specs[lane.tenant as usize];
            table.add_row(vec![
                if isolate { "weighted" } else { "FIFO" }.to_string(),
                format!(
                    "{} ({})",
                    lane.tenant,
                    if lane.tenant == 0 {
                        "aggressor"
                    } else {
                        "victim"
                    }
                ),
                format!("{}% read", (spec.read_fraction * 100.0).round()),
                spec.weight.to_string(),
                lane.requests.to_string(),
                format!("{:.0}", lane.latencies.mean().as_micros_f64()),
                format!("{:.2}", lane.latencies.p99().as_micros_f64() / 1000.0),
                format!("{:.2}", lane.latencies.max().as_micros_f64() / 1000.0),
            ]);
        }
        runs.push((isolate, run));
    }

    // ---- shape check -------------------------------------------------------
    let fifo = &runs[0].1;
    let isolated = &runs[1].1;
    let p99_fifo = victim_p99(fifo);
    let p99_isolated = victim_p99(isolated);
    let ok = p99_isolated < p99_fifo;
    let verdict = format!(
        "victims' aggregate p99: weighted {:.2} ms vs FIFO {:.2} ms ({} better) — {}",
        p99_isolated.as_micros_f64() / 1000.0,
        p99_fifo.as_micros_f64() / 1000.0,
        times(p99_fifo.as_micros_f64() / p99_isolated.as_micros_f64().max(f64::MIN_POSITIVE)),
        if ok {
            "weighted isolation shields the victims"
        } else {
            "ISOLATION DID NOT HELP"
        }
    );
    print_table_with_verdict(&table, &verdict);

    // Observability: re-run the weighted point with tracing on and export it
    // — the analysis document's per-tenant section breaks the victims' and
    // the aggressor's latency into queue-wait / translation / NAND / bus /
    // GC components.
    if args.tracing() {
        let traced = tenant_noisy_neighbour_run(
            kind,
            tenant_specs(requests),
            shards,
            GcMode::Blocking,
            device,
            experiment,
            true,
            true,
        );
        println!("traced run: DFTL, weighted isolation, shards={shards}");
        args.export_observability("fig28_noisy_neighbour", &traced.result)
            .expect("writing observability output failed");
    }

    if !ok {
        std::process::exit(1);
    }
}
