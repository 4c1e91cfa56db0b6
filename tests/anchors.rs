//! Closed-form anchors: runs whose every simulated number follows from the
//! latency model by hand, held with zero tolerance. A change to the device's
//! timing rules or to the runner's accounting moves them; nothing else may.

use harness::experiments::{self, ExperimentScale};
use learnedftl_suite::prelude::*;
use ssd_sim::Duration;

/// FEMU's read rule: a page read holds its plane for the NAND read and then
/// for the channel burst that moves the page out, so on an idle device one
/// read completes `read + channel_transfer` after it is issued (40 µs + 5 µs
/// with FEMU's latencies). The ideal FTL reads exactly one data page per
/// 4 KiB request and nothing else, and at queue depth 1 every request is
/// issued on an idle device, so each latency is that sum and the run takes
/// requests × that sum — at one plane per chip and at two alike.
#[test]
fn ideal_qd1_random_reads_take_one_read_and_one_burst_each() {
    for planes in [1, 2] {
        let device = SsdConfig::tiny().with_planes(planes);
        let lat = device.latency;
        let one_read = lat.read + lat.channel_transfer;
        assert_eq!(one_read, Duration::from_micros(45));
        let mut ftl = FtlKind::Ideal.build(device);
        let mut wl = experiments::fio_read(
            ftl.as_mut(),
            FioPattern::RandRead,
            1,
            ExperimentScale::quick(),
        );
        let run = Runner::new().run_qd(ftl.as_mut(), &mut wl, 1);

        assert_eq!(run.requests, ExperimentScale::quick().ops_per_stream);
        // The mean equals the maximum only when every sample does.
        assert_eq!(run.latencies.mean(), one_read, "planes {planes}");
        assert_eq!(run.latencies.max(), one_read, "planes {planes}");
        assert_eq!(
            run.elapsed,
            Duration::from_nanos(run.requests * one_read.as_nanos()),
            "planes {planes}"
        );
    }
}
