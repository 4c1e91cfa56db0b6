//! The harness's profiling seam over the host wall clock.
//!
//! `RunResult::profile` timing and `repro`'s trainer-cost timings (fig15)
//! measure host time through this one module instead of calling
//! `Instant::now` inline, which `clippy.toml` disallows everywhere but the
//! seam itself. None of them feeds simulated time.
//!
//! The implementation lives in [`ssd_sim::wallclock`] (the one crate every
//! sim-path crate can reach, so `learnedftl`'s trainer can share the same
//! seam); this re-export is the name the harness and bench layers use.

pub use ssd_sim::wallclock::WallTimer;
