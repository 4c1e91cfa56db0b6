//! Cross-crate integration tests for the queue-depth path: the bounded-queue
//! runner against every FTL design, and the acceptance anchor of the
//! `ssd-sched` subsystem (QD16 beats QD1 on random reads).

use learnedftl_suite::prelude::*;
use workloads::{warmup, FioPattern, FioWorkload};

fn warmed(kind: FtlKind) -> Box<dyn Ftl> {
    let mut ftl = kind.build(SsdConfig::tiny());
    warmup::paper_warmup(ftl.as_mut(), 32, 1, 5);
    ftl
}

#[test]
fn qd16_beats_qd1_for_every_ftl_on_randread() {
    for kind in FtlKind::all() {
        let run = |depth: usize| {
            let mut ftl = warmed(kind);
            let mut wl = FioWorkload::new(FioPattern::RandRead, ftl.logical_pages(), 16, 1, 60, 7);
            Runner::new().run_qd(ftl.as_mut(), &mut wl, depth)
        };
        let qd1 = run(1);
        let qd16 = run(16);
        assert_eq!(
            qd1.requests, qd16.requests,
            "{kind}: same work at both depths"
        );
        assert!(
            qd16.iops() > qd1.iops(),
            "{kind}: QD16 must beat QD1 on random reads ({} vs {})",
            qd16.iops(),
            qd1.iops()
        );
        assert!(
            qd1.mean_queueing() > qd16.mean_queueing(),
            "{kind}: the shallow queue must accumulate more queueing delay"
        );
    }
}

#[test]
fn queueing_latency_decomposition_is_consistent() {
    let mut ftl = warmed(FtlKind::LearnedFtl);
    let mut wl = FioWorkload::new(FioPattern::RandRead, ftl.logical_pages(), 8, 1, 100, 13);
    let result = Runner::new().run_qd(ftl.as_mut(), &mut wl, 2);
    assert_eq!(result.latencies.count(), result.queueing.count());
    // Total latency dominates queueing for every percentile we report.
    let mut totals = result.latencies.clone();
    let mut queueing = result.queueing.clone();
    for q in [0.5, 0.99, 0.999] {
        assert!(totals.percentile(q) >= queueing.percentile(q));
    }
}

#[test]
fn scheduler_prelude_types_are_usable_end_to_end() {
    use ssd_sim::{OobData, SimTime};

    // Drive the IoScheduler directly over a device, mixing host and GC work.
    let mut dev = FlashDevice::new(SsdConfig::tiny());
    let mut t = SimTime::ZERO;
    for ppn in 0..8 {
        t = dev.program_page(ppn, OobData::mapped(ppn), t).unwrap();
    }
    let mut sched = IoScheduler::new(*dev.geometry(), SchedConfig::with_queue_depth(8));
    // Apply the reads' state now; the scheduler charges their flash time.
    dev.begin_staging();
    for ppn in [0, 1, 2, 3, 7] {
        dev.read_page(ppn, t).unwrap();
    }
    let staged = dev.end_staging();
    let (host, gc) = staged.split_at(4);
    sched
        .submit_charges(host, ssd_sched::Priority::Host, t)
        .unwrap();
    sched
        .submit_charges(gc, ssd_sched::Priority::Gc, t)
        .unwrap();
    sched.drain(&mut dev);
    let done = sched.pop_completions();
    assert_eq!(done.len(), 5);
    assert!(done.iter().all(|c| c.completed > t));

    // And the host-side QueuePair standalone.
    let mut qp = QueuePair::new(2);
    let service = ssd_sim::Duration::from_micros(40);
    let (_, c1) = qp.submit(SimTime::ZERO, |issue| issue + service);
    let (_, _c2) = qp.submit(SimTime::ZERO, |issue| issue + service);
    let (i3, _) = qp.submit(SimTime::ZERO, |issue| issue + service);
    assert_eq!(i3, c1, "third command waits for the first slot");
}
