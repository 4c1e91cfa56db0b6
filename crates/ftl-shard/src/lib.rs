//! # ftl-shard
//!
//! A sharded FTL frontend: static partitioning of the logical page space
//! across `N` independent per-channel-group FTL shards.
//!
//! Every FTL in this workspace is a single monolithic instance — one CMT,
//! one GTD, one allocator — so no matter how many chips the device exposes,
//! translation is fed from one serial path. Production FTLs scale the other
//! way: they partition the logical space so each partition owns a full
//! translation stack and a slice of the hardware, and partitions proceed
//! independently. This crate adds that layer on top of *any* [`ftl_base::Ftl`]:
//!
//! * [`ShardMap`] — the routing function: global LPNs stripe round-robin
//!   across shards, so sequential runs split evenly and stay sequential
//!   *within* each shard,
//! * [`ShardedFtl`] — the frontend: `N` complete FTL instances (one per
//!   channel group of the base geometry), each behind its own serial
//!   translation engine ([`ssd_sched::MultiIssuer`]), completing out of
//!   order across shards while aggregate statistics stay exact
//!   ([`ftl_base::FtlStats::merge_delta`], [`ssd_sim::DeviceStats::merge`]).
//!
//! `ShardedFtl` implements [`ftl_base::Ftl`], so the experiment harness's
//! runners and the `repro` figures drive it unchanged; with one shard it is a
//! transparent wrapper (bit-for-bit identical to the wrapped FTL — enforced
//! by this crate's tests). The `fig23_shard_scaling` row of `repro` sweeps
//! shard counts against queue depth.
//!
//! Two execution backends drive the shards:
//!
//! * the *simulated* backend — every shard's engine advanced from the
//!   calling thread ([`ShardedFtl`]'s `Ftl` impl; what `run_sharded_qd`
//!   uses),
//! * the *thread-parallel* backend ([`ShardedFtl::run_threaded`] /
//!   [`ThreadedDispatcher`]) — each shard's FTL and engine owned by a
//!   dedicated worker thread, fed batched SQ/CQ-ring submission windows
//!   over bounded channels ([`RingConfig`] sets the depths), with
//!   bit-for-bit identical simulated-time results (the workspace
//!   `threaded_equivalence` suite enforces this).

mod map;
mod par;
mod sharded;

pub use map::{ShardMap, ShardSegment};
pub use par::{ReqId, RingConfig, ThreadedDispatcher};
pub use sharded::ShardedFtl;
