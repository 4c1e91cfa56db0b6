//! Plane-scaling sweep: write throughput for 1/2/4 planes per chip at equal
//! raw capacity, for DFTL / TPFTL / LearnedFTL / ideal.
//!
//! This goes beyond the paper: its FEMU platform models one plane per chip,
//! so the plane field of the geometry is dead weight and all intra-chip
//! parallelism is lost. The simulator now keeps one timeline per plane,
//! forms multi-plane program groups out of plane-aligned allocation stripes
//! (`ftl-base`'s `DynamicDataPool::allocate_stripe`), and lets the
//! LearnedFTL group allocator's VPPN-order rows cover every plane — so
//! splitting a chip's blocks into more planes must buy write throughput at
//! identical capacity. Two shape checks anchor the sweep (enforced, CI exits
//! non-zero on failure):
//!
//! * planes=2 must deliver strictly more write MiB/s than planes=1 for DFTL
//!   and LearnedFTL (the enforced acceptance pair; the other FTLs are
//!   reported),
//! * planes=1 runs the exact historical single-timeline model — the
//!   workspace equivalence suites pin that bit-for-bit, this binary only
//!   reports the throughput next to the multi-plane columns.

use bench::{plane_scaling_device, print_header, print_table_with_verdict, times, BenchArgs};
use harness::experiments::fio_write;
use harness::{FtlKind, Runner};
use metrics::Table;
use workloads::FioPattern;

/// Pages per write request: enough to fan one request out across several
/// planes of a chip once the chips are saturated.
const PAGES_PER_REQUEST: u32 = 8;
/// Host queue depth of the measured phase.
const DEPTH: usize = 16;

fn main() {
    let args = BenchArgs::from_env();
    let scale = args.scale();
    let base = plane_scaling_device(scale);
    print_header(
        "Fig. 26 (extension) — plane-scaling sweep, FIO randwrite 32 KiB, QD16",
        "per-plane timelines + plane-striped allocation turn planes into real \
         parallel units: planes=2 beats planes=1 write throughput at equal capacity",
        scale,
    );
    println!(
        "base device: {} (planes swept at equal capacity)",
        base.geometry
    );
    let plane_counts = [1u32, 2, 4];
    println!("plane counts swept: {plane_counts:?}");
    println!();

    let experiment = scale.experiment();
    let threads = scale.fio_threads().min(8);
    let kinds = [
        FtlKind::Dftl,
        FtlKind::Tpftl,
        FtlKind::LearnedFtl,
        FtlKind::Ideal,
    ];

    let mut table = Table::new(vec![
        "FTL",
        "planes",
        "write MiB/s",
        "IOPS",
        "P99 (us)",
        "programs",
    ]);
    // mibs[kind][plane_index]
    let mut mibs = vec![vec![0.0f64; plane_counts.len()]; kinds.len()];
    for (ki, &kind) in kinds.iter().enumerate() {
        for (pi, &planes) in plane_counts.iter().enumerate() {
            let mut ftl = kind.build(base.with_planes(planes));
            let mut wl = fio_write(
                ftl.as_mut(),
                FioPattern::RandWrite,
                threads,
                PAGES_PER_REQUEST,
                experiment,
            );
            let mut r = Runner::new().run_qd(ftl.as_mut(), &mut wl, DEPTH);
            mibs[ki][pi] = r.mib_per_sec();
            table.add_row(vec![
                kind.label().to_string(),
                planes.to_string(),
                format!("{:.1}", r.mib_per_sec()),
                format!("{:.0}", r.iops()),
                format!("{:.1}", r.p99().as_micros_f64()),
                r.device.programs.to_string(),
            ]);
        }
    }

    // planes=2 (the second swept count) vs planes=1.
    let gain = |ki: usize| mibs[ki][1] / mibs[ki][0].max(f64::MIN_POSITIVE);
    let enforced = [FtlKind::Dftl, FtlKind::LearnedFtl];
    let mut scaling_holds = true;
    for &kind in &enforced {
        let ki = kinds.iter().position(|&k| k == kind).expect("kind swept");
        if mibs[ki][1] <= mibs[ki][0] {
            scaling_holds = false;
        }
    }
    let dftl = kinds
        .iter()
        .position(|&k| k == FtlKind::Dftl)
        .expect("DFTL is always swept");
    let learned = kinds
        .iter()
        .position(|&k| k == FtlKind::LearnedFtl)
        .expect("LearnedFTL is always swept");
    print_table_with_verdict(
        &table,
        &format!(
            "planes={} vs planes=1 write throughput: DFTL {}, LearnedFTL {} \
             (must be > 1.0 for both): {}",
            plane_counts[1],
            times(gain(dftl)),
            times(gain(learned)),
            if scaling_holds {
                "yes"
            } else {
                "NO — planes did not scale"
            }
        ),
    );

    bench::export_default_observability(&args, "fig26_plane_scaling");

    if !scaling_holds {
        std::process::exit(1);
    }
}
