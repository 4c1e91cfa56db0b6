//! The workspace's only gateway to the host wall clock.
//!
//! Simulated time must be a pure function of the workload: the threaded
//! backend, the ring dispatcher and the trace artifacts are all gated on
//! bit-for-bit equality, so a stray `Instant::now()` in sim-path code is a
//! determinism bug waiting to happen. This module is the single place the
//! workspace reads the host clock: `clippy.toml` disallows
//! `Instant::now`/`SystemTime::now` everywhere, and [`WallTimer::start`] is
//! the one call site that carries an `#[expect]` for it.
//! `harness::wallclock` re-exports it as the profiling seam the runners and
//! the `repro` figures use.
//!
//! Legitimate wall-clock uses are *measurements about the simulator*, never
//! inputs to it: self-profiling rates (`RunResult::profile`), fig15's
//! trainer-cost timings and LearnedFTL's `FtlStats::{sort_wall_time,
//! train_wall_time}`. Its training charge is a fixed cost per model.
//!
//! ```
//! use ssd_sim::wallclock::WallTimer;
//!
//! let timer = WallTimer::start();
//! let elapsed: std::time::Duration = timer.elapsed();
//! assert!(elapsed >= std::time::Duration::ZERO);
//! ```

/// A monotonic stopwatch over the host clock.
///
/// The inner `Instant` is private on purpose: callers can only measure
/// elapsed host time, never obtain an absolute timestamp to feed into
/// simulation state.
#[derive(Debug, Clone, Copy)]
pub struct WallTimer {
    started: std::time::Instant,
}

impl WallTimer {
    /// Starts a stopwatch at the current host time.
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's one host-clock seam: it measures the simulator and never feeds simulation state"
    )]
    pub fn start() -> WallTimer {
        WallTimer {
            started: std::time::Instant::now(),
        }
    }

    /// Host time elapsed since [`WallTimer::start`].
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let timer = WallTimer::start();
        let a = timer.elapsed();
        let b = timer.elapsed();
        assert!(b >= a);
    }
}
