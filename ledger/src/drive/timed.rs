//! Host-time spans recorded from outside the layers.
//!
//! Two decorators sit on the two trait seams a request crosses between the
//! harness and the rest of the stack: [`TimedWorkload`] around
//! `Workload::next_request` (layer `workloads`) and [`TimedFtl`] around
//! `Ftl::read`/`Ftl::write` (everything from `ftl-base` down). Every call is
//! timed into a count and a busy-nanosecond total; one request in
//! [`SAMPLE_EVERY`] also keeps its full span (name, start, end, parent,
//! request id) in memory. The root `run` span is recorded by the caller
//! around the `Runner` call; a layer's self time is its span minus its
//! children, so on a single-threaded run `gen + loop + submit` equals the
//! run span by construction.
//!
//! Counters are plain fields that only grow: a decorator buried inside a
//! `ShardedFtl` can be read through `ShardedFtl::shard(i)` (a shared
//! reference) and compared with an earlier reading, and the one thing that
//! must change after construction — whether timing is on — is a shared
//! atomic flag.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use ftl_base::{Ftl, FtlStats, GcMode, HostRequest, Lpn};
use harness::wallclock::WallTimer;
use ssd_sim::{DeviceStats, FlashDevice, SimTime, TraceEvent};
use workloads::Workload;

/// One request in this many keeps its full spans.
pub const SAMPLE_EVERY: u64 = 256;
/// Request id of a span whose request is not known (threaded workers).
pub const NO_REQUEST: i64 = -1;

/// State shared by the decorators of one traced pass.
#[derive(Debug)]
pub struct Clock {
    epoch: WallTimer,
    /// Whether [`TimedFtl`]s time their calls. Off during warm-up and the
    /// undecorated comparison chunks. `Relaxed`: the flag publishes no data,
    /// and it only changes while no run is in flight.
    on: AtomicBool,
    /// Sequence number of the request most recently generated, so the
    /// `submit` span of a request carries the id of its `gen` span. Exact on
    /// the simulated backends, where generation and submission alternate on
    /// one thread. `Relaxed`: a label, not a synchronisation point.
    current_request: AtomicU64,
    /// Ordinal of the `run` span in flight: the parent of every span recorded
    /// meanwhile. Set between runs, so `Relaxed` as well.
    current_run: AtomicU32,
}

impl Clock {
    pub fn new() -> Arc<Clock> {
        Arc::new(Clock {
            epoch: WallTimer::start(),
            on: AtomicBool::new(false),
            current_request: AtomicU64::new(0),
            current_run: AtomicU32::new(0),
        })
    }

    /// Nanoseconds since the pass began: the time base of every span.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Opens the next `run` span and returns its ordinal.
    pub fn begin_run(&self) -> u32 {
        self.current_run.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn run(&self) -> u32 {
        self.current_run.load(Ordering::Relaxed)
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Ordinal of the `run` span this span belongs to: its own id for a
    /// `run` span, its parent's for every other.
    pub run: u32,
    /// Sequence number of the request, or [`NO_REQUEST`].
    pub request: i64,
    /// Shard the span ran on (0 for unsharded frontends and the generator).
    pub track: u32,
}

/// Calls and busy time of one decorator. Monotonic; subtract two readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub busy_ns: u64,
}

impl Totals {
    pub fn since(self, earlier: Totals) -> Totals {
        Totals {
            calls: self.calls - earlier.calls,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    pub fn add(self, other: Totals) -> Totals {
        Totals {
            calls: self.calls + other.calls,
            busy_ns: self.busy_ns + other.busy_ns,
        }
    }
}

/// Times `Workload::next_request`. Built per run around the generator.
pub struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    clock: &'a Clock,
    totals: Totals,
    spans: Vec<Span>,
}

impl<'a> TimedWorkload<'a> {
    pub fn new(inner: &'a mut dyn Workload, clock: &'a Clock) -> Self {
        TimedWorkload {
            inner,
            clock,
            totals: Totals::default(),
            spans: Vec::new(),
        }
    }

    pub fn finish(self) -> (Totals, Vec<Span>) {
        (self.totals, self.spans)
    }
}

impl Workload for TimedWorkload<'_> {
    fn streams(&self) -> usize {
        self.inner.streams()
    }

    fn next_request(&mut self, stream: usize) -> Option<HostRequest> {
        let start_ns = self.clock.now_ns();
        let request = self.inner.next_request(stream);
        let end_ns = self.clock.now_ns();
        // The exhausted-stream probe (`None`) is generator work too.
        let seq = self.totals.calls;
        self.totals.calls += 1;
        self.totals.busy_ns += end_ns - start_ns;
        self.clock.current_request.store(seq, Ordering::Relaxed);
        if seq.is_multiple_of(SAMPLE_EVERY) {
            self.spans.push(Span {
                name: "workloads.gen",
                start_ns,
                end_ns,
                run: self.clock.run(),
                request: seq as i64,
                track: 0,
            });
        }
        request
    }

    fn total_requests(&self) -> Option<u64> {
        self.inner.total_requests()
    }
}

/// Times `Ftl::read` / `Ftl::write` and forwards everything else untouched.
/// With the clock off it is a flag load and a branch in front of the inner
/// FTL, so the same frontend serves the decorated and the plain chunks of a
/// traced pass.
pub struct TimedFtl<F: Ftl> {
    inner: F,
    clock: Arc<Clock>,
    /// Whether `clock.current_request` names the request being served: true
    /// on the simulated backends, false where worker threads run behind the
    /// generator.
    exact_ids: bool,
    track: u32,
    totals: Totals,
    /// Completions earlier than their issue time (a simulator bug the
    /// harness's saturating subtraction would hide).
    time_travel: u64,
    spans: Vec<Span>,
}

impl<F: Ftl> TimedFtl<F> {
    pub fn new(inner: F, clock: Arc<Clock>, track: u32, exact_ids: bool) -> Self {
        TimedFtl {
            inner,
            clock,
            exact_ids,
            track,
            totals: Totals::default(),
            time_travel: 0,
            spans: Vec::new(),
        }
    }

    pub fn totals(&self) -> Totals {
        self.totals
    }

    pub fn time_travel(&self) -> u64 {
        self.time_travel
    }

    /// Spans recorded so far; callers remember the length to read a window.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn timed(&mut self, now: SimTime, op: impl FnOnce(&mut F) -> SimTime) -> SimTime {
        if !self.clock.is_on() {
            return op(&mut self.inner);
        }
        let start_ns = self.clock.now_ns();
        let done = op(&mut self.inner);
        let end_ns = self.clock.now_ns();
        let seq = self.totals.calls;
        self.totals.calls += 1;
        self.totals.busy_ns += end_ns - start_ns;
        if done < now {
            self.time_travel += 1;
        }
        if seq.is_multiple_of(SAMPLE_EVERY) {
            let request = if self.exact_ids {
                self.clock.current_request.load(Ordering::Relaxed) as i64
            } else {
                NO_REQUEST
            };
            self.spans.push(Span {
                name: "ftl-base.submit",
                start_ns,
                end_ns,
                run: self.clock.run(),
                request,
                track: self.track,
            });
        }
        done
    }
}

impl<F: Ftl> Ftl for TimedFtl<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn read(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.timed(now, |f| f.read(lpn, pages, now))
    }

    fn write(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.timed(now, |f| f.write(lpn, pages, now))
    }

    // `submit` keeps the trait's default (dispatch to `read`/`write`), so a
    // caller using either entry point is timed exactly once.

    fn stats(&self) -> &FtlStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn logical_pages(&self) -> u64 {
        self.inner.logical_pages()
    }

    fn device(&self) -> &FlashDevice {
        self.inner.device()
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        self.inner.device_mut()
    }

    fn drain_time(&self) -> SimTime {
        self.inner.drain_time()
    }

    fn device_stats(&self) -> DeviceStats {
        self.inner.device_stats()
    }

    fn reset_device_stats(&mut self) {
        self.inner.reset_device_stats()
    }

    fn gc_mode(&self) -> GcMode {
        self.inner.gc_mode()
    }

    fn drain_gc(&mut self) -> SimTime {
        self.inner.drain_gc()
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on)
    }

    fn tracing(&self) -> bool {
        self.inner.tracing()
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.inner.take_trace()
    }
}
