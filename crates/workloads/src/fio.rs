//! FIO-style synthetic workloads.

use ftl_base::HostRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Workload;

/// The four FIO access patterns used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FioPattern {
    /// Sequential reads (each stream walks its own contiguous region).
    SeqRead,
    /// Uniformly random reads over the whole logical space.
    RandRead,
    /// Sequential writes (each stream walks its own contiguous region).
    SeqWrite,
    /// Uniformly random writes over the whole logical space.
    RandWrite,
}

impl FioPattern {
    /// Whether the pattern issues reads.
    pub fn is_read(self) -> bool {
        matches!(self, FioPattern::SeqRead | FioPattern::RandRead)
    }

    /// Whether the pattern is sequential.
    pub fn is_sequential(self) -> bool {
        matches!(self, FioPattern::SeqRead | FioPattern::SeqWrite)
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            FioPattern::SeqRead => "SeqRead",
            FioPattern::RandRead => "RandRead",
            FioPattern::SeqWrite => "SeqWrite",
            FioPattern::RandWrite => "RandWrite",
        }
    }
}

/// An FIO-like workload: `streams` closed loops, each issuing `ops_per_stream`
/// requests of `io_pages` pages, either sequentially within its own slice of
/// the logical space or uniformly at random over the whole space.
#[derive(Debug, Clone)]
pub struct FioWorkload {
    pattern: FioPattern,
    logical_pages: u64,
    io_pages: u32,
    ops_per_stream: u64,
    issued: Vec<u64>,
    cursors: Vec<u64>,
    rngs: Vec<StdRng>,
}

impl FioWorkload {
    /// Creates a workload.
    ///
    /// * `logical_pages` — size of the addressable space,
    /// * `streams` — number of concurrent threads,
    /// * `io_pages` — request size in pages (1 page = 4 KiB),
    /// * `ops_per_stream` — how many requests each stream issues,
    /// * `seed` — RNG seed (random patterns are reproducible per stream).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        pattern: FioPattern,
        logical_pages: u64,
        streams: usize,
        io_pages: u32,
        ops_per_stream: u64,
        seed: u64,
    ) -> Self {
        assert!(logical_pages > 0, "logical space must be non-empty");
        assert!(streams > 0, "at least one stream required");
        assert!(io_pages > 0, "io size must be non-zero");
        assert!(
            ops_per_stream > 0,
            "each stream must issue at least one request"
        );
        let region = logical_pages / streams as u64;
        let cursors = (0..streams as u64).map(|s| s * region).collect();
        let rngs = (0..streams as u64)
            .map(|s| StdRng::seed_from_u64(seed ^ (s.wrapping_mul(0x9E3779B97F4A7C15))))
            .collect();
        FioWorkload {
            pattern,
            logical_pages,
            io_pages,
            ops_per_stream,
            issued: vec![0; streams],
            cursors,
            rngs,
        }
    }

    /// The access pattern.
    pub fn pattern(&self) -> FioPattern {
        self.pattern
    }

    /// The request size in pages.
    pub fn io_pages(&self) -> u32 {
        self.io_pages
    }

    fn region_bounds(&self, stream: usize) -> (u64, u64) {
        let streams = self.issued.len() as u64;
        let region = self.logical_pages / streams;
        let start = stream as u64 * region;
        let end = if stream as u64 == streams - 1 {
            self.logical_pages
        } else {
            start + region
        };
        (start, end)
    }
}

impl Workload for FioWorkload {
    fn streams(&self) -> usize {
        self.issued.len()
    }

    fn next_request(&mut self, stream: usize) -> Option<HostRequest> {
        if self.issued[stream] >= self.ops_per_stream {
            return None;
        }
        self.issued[stream] += 1;
        let io = u64::from(self.io_pages);
        let lpn = if self.pattern.is_sequential() {
            let (start, end) = self.region_bounds(stream);
            let span = (end - start).max(io);
            let lpn = start + (self.cursors[stream] - start) % span;
            self.cursors[stream] = lpn + io;
            lpn.min(self.logical_pages.saturating_sub(io))
        } else {
            let max_start = self.logical_pages.saturating_sub(io).max(1);
            self.rngs[stream].gen_range(0..max_start)
        };
        let req = if self.pattern.is_read() {
            HostRequest::read(lpn, self.io_pages)
        } else {
            HostRequest::write(lpn, self.io_pages)
        };
        Some(req)
    }

    fn total_requests(&self) -> Option<u64> {
        Some(self.ops_per_stream * self.issued.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_base::HostOp;

    #[test]
    fn sequential_streams_stay_in_their_regions() {
        let mut wl = FioWorkload::new(FioPattern::SeqWrite, 1000, 4, 2, 50, 1);
        for stream in 0..4 {
            let (start, end) = wl.region_bounds(stream);
            for _ in 0..50 {
                let req = wl.next_request(stream).unwrap();
                assert_eq!(req.op, HostOp::Write);
                assert!(
                    req.lpn >= start.min(end - 2) && req.lpn < end,
                    "lpn {} not in [{start},{end})",
                    req.lpn
                );
            }
            assert!(
                wl.next_request(stream).is_none(),
                "stream exhausted after its ops"
            );
        }
    }

    #[test]
    fn sequential_requests_are_consecutive() {
        let mut wl = FioWorkload::new(FioPattern::SeqRead, 10_000, 1, 4, 10, 1);
        let mut prev_end = None;
        for _ in 0..10 {
            let req = wl.next_request(0).unwrap();
            if let Some(pe) = prev_end {
                assert_eq!(req.lpn, pe);
            }
            prev_end = Some(req.lpn + u64::from(req.pages));
        }
    }

    #[test]
    fn random_requests_cover_the_space_and_are_reproducible() {
        let collect = || {
            let mut wl = FioWorkload::new(FioPattern::RandRead, 100_000, 2, 1, 200, 99);
            let mut lpns = Vec::new();
            for _ in 0..200 {
                lpns.push(wl.next_request(0).unwrap().lpn);
                lpns.push(wl.next_request(1).unwrap().lpn);
            }
            lpns
        };
        let a = collect();
        let b = collect();
        assert_eq!(a, b, "same seed must reproduce the same request stream");
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() > 300, "random reads must be spread out");
        assert!(a.iter().all(|&l| l < 100_000));
    }

    #[test]
    fn total_requests_reported() {
        let wl = FioWorkload::new(FioPattern::RandWrite, 1000, 8, 1, 25, 3);
        assert_eq!(wl.total_requests(), Some(200));
        assert_eq!(wl.streams(), 8);
    }

    #[test]
    fn sequential_wraps_around_its_region() {
        let mut wl = FioWorkload::new(FioPattern::SeqWrite, 64, 1, 4, 40, 1);
        let mut lpns = Vec::new();
        for _ in 0..40 {
            lpns.push(wl.next_request(0).unwrap().lpn);
        }
        // After 16 requests of 4 pages the 64-page region is exhausted and the
        // stream wraps back to the start.
        assert_eq!(lpns[0], lpns[16]);
    }
}
