//! # metrics
//!
//! Measurement and reporting utilities for the LearnedFTL experiments:
//!
//! * [`LatencyHistogram`] — per-request latency collection with P50/P99/P99.9
//!   percentiles (Figure 21),
//! * [`Throughput`] — bytes-over-simulated-time throughput (Figures 2, 14,
//!   19, 20),
//! * [`EnergyModel`] — a NANDFlashSim-style per-operation energy model
//!   (Figure 22),
//! * [`GcTimeline`] — GC-frequency-over-time bucketing (Figure 16),
//! * [`Table`] — plain-text table formatting for the `repro` figures,
//! * [`sim_trace`] — exporters (Chrome trace-event JSON, interval-sampled
//!   CSV) and a schema checker for the simulator's structured trace stream,
//! * [`analysis`] — the in-memory trace analysis engine: per-request latency
//!   decomposition, GC-interference attribution, utilisation/idle-gap
//!   accounting, tail exemplars, and the deterministic `analysis.json`
//!   artifact.

pub mod analysis;
mod energy;
mod gc_timeline;
mod histogram;
mod json;
pub mod sim_trace;
mod table;
mod throughput;

pub use analysis::{analysis_json, analyze, validate_analysis_json, TraceAnalysis};
pub use energy::EnergyModel;
pub use gc_timeline::GcTimeline;
pub use histogram::LatencyHistogram;
pub use sim_trace::{chrome_trace_json, metrics_csv, validate_chrome_trace, ChromeTraceSummary};
pub use table::Table;
pub use throughput::Throughput;
