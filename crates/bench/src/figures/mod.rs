//! The rows of the reproduction, in table order: the paper's figures and
//! tables first (`paper`), then the experiments that go beyond the paper
//! (`extensions`).

use harness::FtlKind;

use crate::{Figure, TracedRun};

mod extensions;
mod paper;

/// Every row `repro` knows, in the order it runs them when no name is given.
pub static FIGURES: [Figure; 20] = [
    Figure {
        name: "fig02_motivation",
        title: "Fig. 2 — TPFTL read throughput and CMT hit ratio vs thread count",
        claim: "random reads are up to ~60% slower than sequential reads and their CMT hit ratio is ~0%",
        run: paper::fig02_motivation,
        traced: None,
    },
    Figure {
        name: "fig03_cmt_sweep",
        title: "Fig. 3 — TPFTL CMT hit ratio vs CMT space under random reads",
        claim: "hit ratio grows only to ~26% even with a CMT holding 50% of all mappings",
        run: paper::fig03_cmt_sweep,
        traced: None,
    },
    Figure {
        name: "fig06_leaftl_randread",
        title: "Fig. 6 — LeaFTL vs TPFTL under random reads",
        claim: "LeaFTL ~29% slower than TPFTL; LeaFTL reads split ~5% single / 52% double / 43% triple",
        run: paper::fig06_leaftl_randread,
        traced: None,
    },
    Figure {
        name: "fig07_leaftl_filebench",
        title: "Fig. 7 — TPFTL vs LeaFTL under Filebench",
        claim: "LeaFTL is equal or worse than TPFTL on locality-heavy workloads",
        run: paper::fig07_leaftl_filebench,
        traced: None,
    },
    Figure {
        name: "table02_traces",
        title: "Table II — trace characteristics (paper vs synthetic stand-ins)",
        claim: "the synthetic traces must match the paper's I/O counts, mean sizes and read ratios",
        run: paper::table02_traces,
        traced: None,
    },
    Figure {
        name: "fig14_fio",
        title: "Fig. 14 — FIO throughput, hit ratios and write amplification (all FTLs)",
        claim: "LearnedFTL wins random reads by 1.4-1.6x over the baselines and approaches the ideal FTL",
        run: paper::fig14_fio,
        traced: None,
    },
    Figure {
        name: "fig15_train_cost",
        title: "Fig. 15 — cost of sorting / training / prediction per GTD entry",
        claim: "sorting+training cost tens of microseconds per entry; a prediction costs well under a microsecond",
        run: paper::fig15_train_cost,
        traced: None,
    },
    Figure {
        name: "fig16_gc_frequency",
        title: "Fig. 16 — GC frequency under FIO random and sequential writes",
        claim: "LearnedFTL triggers no more GCs than the baselines (slightly fewer in the paper)",
        run: paper::fig16_gc_frequency,
        traced: None,
    },
    Figure {
        name: "fig17_gc_breakdown",
        title: "Fig. 17 — sorting + training share of GC execution time (LearnedFTL)",
        claim: "sorting and training account for at most ~3% of GC time",
        run: paper::fig17_gc_breakdown,
        traced: None,
    },
    Figure {
        name: "fig18_overhead",
        title: "Fig. 18 — cost of training (writes) and of model prediction (reads)",
        claim: "both with/without gaps are below ~1%",
        run: paper::fig18_overhead,
        traced: None,
    },
    Figure {
        name: "fig19_rocksdb",
        title: "Fig. 19 — RocksDB readrandom / readseq on each FTL",
        claim: "LearnedFTL beats the baselines by 1.3-1.4x on readrandom",
        run: paper::fig19_rocksdb,
        traced: None,
    },
    Figure {
        name: "fig20_filebench",
        title: "Fig. 20 — Filebench normalized throughput (all FTLs); Table I configurations",
        claim: "LearnedFTL outperforms the other schemes by 1.1-2.3x",
        run: paper::fig20_filebench,
        traced: None,
    },
    Figure {
        name: "fig21_tail_latency",
        title: "Fig. 21 — P99 / P99.9 tail latency under the four traces",
        claim: "LearnedFTL cuts P99 latency by ~5.5x vs TPFTL and ~8.2x vs LeaFTL on average",
        run: paper::fig21_tail_latency,
        traced: Some(TracedRun {
            label: "LearnedFTL, WS1 replay",
            run: paper::fig21_tail_latency_traced,
        }),
    },
    Figure {
        name: "fig21_qd_sweep",
        title: "Fig. 21 extension — queue-depth sweep, FIO randread 4 KiB",
        claim: "deeper queues expose chip parallelism: IOPS rises with QD while per-request \
                latency absorbs the queueing delay; LearnedFTL holds its lead at every depth",
        run: extensions::fig21_qd_sweep,
        traced: Some(TracedRun {
            label: "LearnedFTL, FIO randread, QD 16",
            run: extensions::fig21_qd_sweep_traced,
        }),
    },
    Figure {
        name: "fig22_energy",
        title: "Fig. 22 — normalized energy under the four traces",
        claim: "LearnedFTL saves 1.09-1.2x energy on the read-intensive traces; Systor is a wash",
        run: paper::fig22_energy,
        traced: None,
    },
    Figure {
        name: "fig23_shard_scaling",
        title: "Fig. 23 (extension) — shard-scaling sweep, FIO randread 4 KiB",
        claim: "per-channel-group FTL shards multiply translation throughput at deep queues: \
                shards=4 beats shards=1 at QD16 while QD1 stays flat",
        run: extensions::fig23_shard_scaling,
        traced: Some(TracedRun {
            label: "LearnedFTL, FIO randread, QD 16, shards=8",
            run: extensions::fig23_shard_scaling_traced,
        }),
    },
    Figure {
        name: "fig24_gc_interference",
        title: "Fig. 24 (extension) — GC interference: blocking vs scheduled GC, FIO randwrite 128 KiB",
        claim: "routing GC flash traffic through the scheduler's GC priority class bounds \
                host-vs-GC interference per chip: same total flash work, better write-heavy p99",
        run: extensions::fig24_gc_interference,
        traced: Some(TracedRun {
            label: "LearnedFTL, scheduled GC, shards=4, write-heavy point",
            run: extensions::fig24_gc_interference_traced,
        }),
    },
    Figure {
        name: "fig26_plane_scaling",
        title: "Fig. 26 (extension) — plane-scaling sweep, FIO randwrite 32 KiB, QD16",
        claim: "per-plane timelines + plane-striped allocation turn planes into real \
                parallel units: planes=2 beats planes=1 write throughput at equal capacity",
        run: extensions::fig26_plane_scaling,
        traced: None,
    },
    Figure {
        name: "fig28_noisy_neighbour",
        title: "Fig. 28 (extension) — noisy neighbour: weighted per-tenant arbitration vs FIFO admission",
        claim: "weighted per-tenant queues at the shard admission point shield read-mostly \
                tenants' tails from a write-heavy aggressor the FIFO baseline lets through",
        run: extensions::fig28_noisy_neighbour,
        traced: Some(TracedRun {
            label: "DFTL, weighted isolation, shards=4",
            run: extensions::fig28_noisy_neighbour_traced,
        }),
    },
    Figure {
        name: "ablation_learnedftl",
        title: "Ablation — pieces per model, CMT share, sequential initialisation",
        claim: "8 pieces + 1.5% CMT + sequential init is the paper's configuration; each knob contributes",
        run: paper::ablation_learnedftl,
        traced: None,
    },
];

/// The demand-based FTLs and LearnedFTL: the line-up of the read sweeps.
const DEMAND_LINEUP: [FtlKind; 4] = [
    FtlKind::Dftl,
    FtlKind::Tpftl,
    FtlKind::LeaFtl,
    FtlKind::LearnedFtl,
];

/// The paper's line-up for the trace figures (21 and 22): TPFTL first, as
/// the baseline the others are normalised to.
const TRACE_LINEUP: [FtlKind; 4] = [
    FtlKind::Tpftl,
    FtlKind::LeaFtl,
    FtlKind::LearnedFtl,
    FtlKind::Ideal,
];

/// `num / den`, or 0 when `den` is not positive (an empty run).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The position of `kind` in a line-up.
fn slot(lineup: &[FtlKind], kind: FtlKind) -> usize {
    lineup
        .iter()
        .position(|&k| k == kind)
        .expect("the FTL is in the line-up")
}
