//! # harness
//!
//! The experiment harness that binds a workload to an FTL over the simulated
//! device and measures what the paper's figures report.
//!
//! * [`FtlKind`] — the five FTL designs under comparison, buildable by name,
//!   plain or sharded across per-channel-group partitions
//!   ([`FtlKind::build_sharded`]),
//! * [`Runner`] — the host models: one closed loop behind a bounded host
//!   queue (`run_qd`; `run` is it at a depth no stream waits for), with
//!   per-shard lanes on a sharded frontend (`run_sharded_qd`), open-loop
//!   Poisson arrivals (`run_open_loop`) and multi-tenant admission
//!   (`run_tenants`),
//! * [`RunResult`] — throughput, latency percentiles, hit ratios, multi-read
//!   breakdown, write amplification, GC and energy inputs for one run
//!   ([`ShardedRunResult`] adds the per-shard breakdown),
//! * [`experiments`] — the paper's warm-up protocols, one per experiment,
//!   each preparing any FTL for its measured workload; shared by the
//!   `repro` figures and the integration tests.
//!
//! ```
//! use harness::{FtlKind, Runner};
//! use ssd_sim::SsdConfig;
//! use workloads::{FioPattern, FioWorkload};
//!
//! let mut ftl = FtlKind::LearnedFtl.build(SsdConfig::tiny());
//! let mut workload = FioWorkload::new(FioPattern::SeqWrite, 1000, 2, 4, 50, 7);
//! let result = Runner::new().run(ftl.as_mut(), &mut workload);
//! assert_eq!(result.requests, 100);
//! assert!(result.throughput().mib_per_sec() > 0.0);
//! ```

pub mod experiments;
mod kind;
mod result;
mod runner;
pub mod wallclock;

pub use kind::FtlKind;
pub use result::{
    RunResult, SelfProfile, ShardLane, ShardedRunResult, TenantLane, TenantRunResult,
};
pub use runner::Runner;
// Re-exported so harness callers (the `repro` figures) can name the sharded
// frontend `FtlKind::build_sharded` returns without depending on ftl-shard
// directly.
pub use ftl_shard::ShardedFtl;
