//! # learnedftl
//!
//! A from-scratch Rust implementation of **LearnedFTL** (Wang et al.,
//! HPCA 2024): a learning-based page-level flash translation layer that
//! reduces the address-translation-induced *double reads* of flash SSDs.
//!
//! LearnedFTL keeps TPFTL's demand-based cached mapping table for workloads
//! with locality and adds, for random accesses, one tiny learned model per
//! GTD entry — small enough (128 bytes) that **every** model stays in DRAM:
//!
//! * [`InPlaceModel`] — the in-place-update piecewise linear model with its
//!   bitmap filter (paper § III-B); the bitmap guarantees that a prediction is
//!   only used when it is exact, so there is never a misprediction penalty,
//! * virtual PPNs (provided by [`ssd_sim::ppn_to_vppn`]) make the physically
//!   scattered pages of parallel writes look contiguous to the models
//!   (paper § III-C),
//! * [`GroupAllocator`] — group-based allocation with opportunistic
//!   cross-group borrowing (paper § III-D), which lets garbage collection
//!   gather a whole GTD entry group into one VPPN-contiguous block row,
//! * [`LearnedFtl`] — the full FTL: CMT → model → double-read fallback on
//!   reads; group allocation, sequential initialisation and training-via-GC
//!   on writes (paper § III-E).
//!
//! ```
//! use ftl_base::Ftl;
//! use learnedftl::{LearnedFtl, LearnedFtlConfig};
//! use ssd_sim::{SimTime, SsdConfig};
//!
//! let mut ftl = LearnedFtl::new(SsdConfig::tiny(), LearnedFtlConfig::default());
//! let t = ftl.write(0, 8, SimTime::ZERO);
//! let t = ftl.read(0, 8, t);
//! assert!(t > SimTime::ZERO);
//! assert!(ftl.stats().double_reads == 0);
//! ```

mod config;
mod ftl;
mod group;
mod model;

pub use config::LearnedFtlConfig;
pub use ftl::{training_charge, LearnedFtl, TRAINING_CHARGE_PER_MODEL};
pub use group::{GcRequest, GroupAllocator, GroupSlot};
pub use model::InPlaceModel;

/// Simulator observability, re-exported for downstream users of this crate:
/// the structured trace stream types ([`ssd_sim::trace`]) and the exporters /
/// schema checker over them ([`metrics::sim_trace`]). Enable collection with
/// [`ftl_base::Ftl::set_tracing`], take the merged stream with
/// [`ftl_base::Ftl::take_trace`], then render it with
/// [`sim_trace::chrome_trace_json`] or [`sim_trace::metrics_csv`].
pub mod sim_trace {
    pub use metrics::sim_trace::{
        chrome_trace_json, metrics_csv, validate_chrome_trace, ChromeTraceSummary,
    };
    pub use ssd_sim::trace::{
        merge_shard_traces, TraceBuffer, TraceData, TraceEvent, TraceReadClass, TraceSink,
    };
}
