//! # ssd-sched
//!
//! An event-driven multi-queue I/O scheduler for the simulated SSD.
//!
//! The seed simulator models each chip as a single `busy_until` timestamp and
//! drives FTLs one request at a time, so queueing delay, channel contention
//! and host-vs-GC interference are invisible. This crate adds the missing
//! layer:
//!
//! * [`EventQueue`] — a deterministic binary-heap event loop keyed on
//!   [`ssd_sim::SimTime`] (ties break in insertion order),
//! * [`QueuePair`] — an NVMe-style bounded submission/completion queue pair
//!   modelling the host interface at a configurable queue depth; the
//!   experiment harness threads this through its `run_qd` mode,
//! * [`SerialEngine`] / [`ShardEngine`] — one FTL translation core: busy
//!   from each request's issue to its completion, requests queueing FIFO
//!   behind it; the seam shared by the simulated and the thread-parallel
//!   execution backends,
//! * [`SubmissionBatch`] / [`CompletionBatch`] — the SQ/CQ ring images the
//!   batch entry point [`ShardEngine::dispatch_batch`] consumes and
//!   produces: one channel round-trip per eligible window instead of per
//!   request, serially identical to N single dispatches,
//! * [`MultiIssuer`] — a bank of serial issue engines modelling the FTL
//!   frontend's translation cores: one issuer per FTL shard, each processing
//!   one request at a time (the `ftl-shard` crate routes every shard's
//!   traffic through one of these),
//! * [`IoScheduler`] — per-chip command queues with out-of-order completion
//!   and weighted per-tenant arbitration ([`TenantPolicy`]): host tenant
//!   classes share contended slots by weighted round-robin with per-class
//!   starvation bounds, and the background GC class yields to host commands
//!   on the same chip, but never more than
//!   [`SchedConfig::gc_starvation_bound`] times in a row (the degenerate
//!   [`TenantPolicy::two_class`] default),
//! * [`CmdKind`] / [`Completion`] — the command lifecycle with the three
//!   timestamps (submitted, issued, completed) that tail-latency analysis
//!   needs, split into queueing and service components.
//!
//! A command replays the flash time of an operation whose state was applied
//! under [`ssd_sim::FlashDevice::begin_staging`], through
//! [`ssd_sim::FlashDevice::charge_op`], so its timing model is *identical* to
//! the blocking calls: at queue depth 1 the scheduled path reproduces the
//! blocking path bit for bit (see this crate's property tests).
//!
//! ## Example
//!
//! ```
//! use ssd_sched::{CmdKind, IoScheduler, Priority, SchedConfig};
//! use ssd_sim::{FlashDevice, OobData, SimTime, SsdConfig};
//!
//! let mut dev = FlashDevice::new(SsdConfig::tiny());
//! let mut sched = IoScheduler::new(*dev.geometry(), SchedConfig::with_queue_depth(16));
//! // Apply four programs' state now; their flash time is charged below.
//! dev.begin_staging();
//! for ppn in 0..4 {
//!     dev.program_page(ppn, OobData::mapped(ppn), SimTime::ZERO).unwrap();
//! }
//! for op in dev.end_staging() {
//!     sched.submit(CmdKind::charge(op), Priority::Host, SimTime::ZERO).unwrap();
//! }
//! sched.drain(&mut dev);
//! let done = sched.pop_completions();
//! assert_eq!(done.len(), 4);
//! assert!(done.windows(2).all(|w| w[0].completed < w[1].completed));
//! ```

mod cmd;
mod engine;
mod event;
mod multi;
mod queue;
mod ring;
mod sched;
mod tenant;

pub use cmd::{CmdId, CmdKind, Completion, Priority};
pub use engine::{SerialEngine, ShardEngine};
pub use event::EventQueue;
pub use multi::{MultiIssuer, MultiIssuerStats};
pub use queue::QueuePair;
pub use ring::{CompletionBatch, SubmissionBatch};
pub use sched::{ClassStats, DurationSummary, IoScheduler, SchedConfig, SchedError, SchedStats};
pub use tenant::{Arbitration, TenantArbiter, TenantClass, TenantId, TenantPolicy};
