//! Synthetic stand-ins for the paper's real-world traces (Table II).
//!
//! The UMass WebSearch traces and the Systor '17 VDI trace are not
//! redistributable, so this module generates synthetic traces with the
//! characteristics the paper reports and relies on: the I/O count, the mean
//! I/O size, the read ratio, and — crucially for the tail-latency experiment —
//! a strong locality structure (a Zipfian working set). A CSV replayer is also
//! provided so real traces can be dropped in when available.

use ftl_base::HostRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipfian;
use crate::Workload;

/// The four traces of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// WebSearch1: 1,055,235 I/Os, 15.5 KiB average, 100 % reads.
    WebSearch1,
    /// WebSearch2: 1,200,964 I/Os, 15.3 KiB average, 99.98 % reads.
    WebSearch2,
    /// WebSearch3: 793,073 I/Os, 15.7 KiB average, 99.96 % reads.
    WebSearch3,
    /// Systor '17: 1,253,423 I/Os, 10.25 KiB average, 61.6 % reads.
    Systor17,
}

impl TraceKind {
    /// Paper Table II: total number of I/Os in the trace.
    pub fn io_count(self) -> u64 {
        match self {
            TraceKind::WebSearch1 => 1_055_235,
            TraceKind::WebSearch2 => 1_200_964,
            TraceKind::WebSearch3 => 793_073,
            TraceKind::Systor17 => 1_253_423,
        }
    }

    /// Paper Table II: average I/O size in KiB.
    pub fn average_io_kib(self) -> f64 {
        match self {
            TraceKind::WebSearch1 => 15.5,
            TraceKind::WebSearch2 => 15.3,
            TraceKind::WebSearch3 => 15.7,
            TraceKind::Systor17 => 10.25,
        }
    }

    /// Paper Table II: fraction of I/Os that are reads.
    pub fn read_ratio(self) -> f64 {
        match self {
            TraceKind::WebSearch1 => 1.0,
            TraceKind::WebSearch2 => 0.9998,
            TraceKind::WebSearch3 => 0.9996,
            TraceKind::Systor17 => 0.616,
        }
    }

    /// Short label used in experiment tables ("WS1", ... as in the figures).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::WebSearch1 => "WS1",
            TraceKind::WebSearch2 => "WS2",
            TraceKind::WebSearch3 => "WS3",
            TraceKind::Systor17 => "Systor",
        }
    }

    /// All traces in the order the paper plots them.
    pub fn all() -> [TraceKind; 4] {
        [
            TraceKind::WebSearch1,
            TraceKind::WebSearch2,
            TraceKind::WebSearch3,
            TraceKind::Systor17,
        ]
    }
}

/// One request of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// First logical page touched.
    pub lpn: u64,
    /// Number of pages touched.
    pub pages: u32,
    /// Whether the request is a read.
    pub is_read: bool,
}

impl TraceRecord {
    /// Converts the record into a host request.
    pub fn to_request(self) -> HostRequest {
        if self.is_read {
            HostRequest::read(self.lpn, self.pages)
        } else {
            HostRequest::write(self.lpn, self.pages)
        }
    }
}

/// A synthetic trace generator matching Table II.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    kind: TraceKind,
    records: Vec<TraceRecord>,
}

impl SyntheticTrace {
    /// Generates a trace of `length` requests (pass [`TraceKind::io_count`]
    /// for the paper-sized trace, or something smaller for quick runs) over a
    /// device with `logical_pages` pages.
    ///
    /// The address stream mixes a hot Zipfian working set (strong locality —
    /// all four traces "have strong locality" per the paper) with a small
    /// uniform component, and I/O sizes are drawn so their mean matches
    /// Table II.
    pub fn generate(kind: TraceKind, logical_pages: u64, length: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mean_pages = (kind.average_io_kib() / 4.0).max(1.0);
        // Working set: 10 % of the device, accessed with Zipfian popularity.
        let working_set = (logical_pages / 10).max(1);
        let zipf = Zipfian::new(working_set, 0.99);
        let mut records = Vec::with_capacity(length as usize);
        for _ in 0..length {
            let is_read = rng.gen::<f64>() < kind.read_ratio();
            // Draw a size around the mean (geometric-ish mixture of small and
            // large requests so the mean matches while sizes vary).
            let pages = if rng.gen::<f64>() < 0.5 {
                rng.gen_range(1..=(mean_pages.ceil() as u32).max(1))
            } else {
                rng.gen_range(1..=(2.0 * mean_pages).ceil() as u32)
            }
            .max(1);
            // 90 % of accesses hit the hot working set, 10 % roam uniformly.
            let lpn = if rng.gen::<f64>() < 0.9 {
                zipf.sample(&mut rng) * 8 % logical_pages
            } else {
                rng.gen_range(0..logical_pages)
            };
            let lpn = lpn.min(logical_pages.saturating_sub(u64::from(pages)));
            records.push(TraceRecord {
                lpn,
                pages,
                is_read,
            });
        }
        SyntheticTrace { kind, records }
    }

    /// The trace kind.
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// The generated records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Measured read fraction of the generated trace.
    pub fn measured_read_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.is_read).count() as f64 / self.records.len() as f64
    }

    /// Measured mean I/O size of the generated trace, in KiB.
    pub fn measured_mean_io_kib(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let pages: u64 = self.records.iter().map(|r| u64::from(r.pages)).sum();
        pages as f64 * 4.0 / self.records.len() as f64
    }

    /// Wraps the trace in a replayer with `streams` concurrent streams.
    pub fn into_workload(self, streams: usize) -> TraceWorkload {
        TraceWorkload::new(self.records, streams)
    }

    /// Parses a simple CSV trace (`lpn,pages,R|W` per line), so real
    /// WebSearch/Systor traces can be used when available.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for the first malformed line.
    pub fn from_csv(kind: TraceKind, text: &str) -> Result<Self, String> {
        let mut records = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split(',');
            let lpn: u64 = parts
                .next()
                .ok_or_else(|| format!("line {}: missing lpn", lineno + 1))?
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad lpn: {e}", lineno + 1))?;
            let pages: u32 = parts
                .next()
                .ok_or_else(|| format!("line {}: missing page count", lineno + 1))?
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad page count: {e}", lineno + 1))?;
            let op = parts
                .next()
                .ok_or_else(|| format!("line {}: missing op", lineno + 1))?
                .trim();
            let is_read = match op {
                "R" | "r" => true,
                "W" | "w" => false,
                other => return Err(format!("line {}: unknown op {other:?}", lineno + 1)),
            };
            records.push(TraceRecord {
                lpn,
                pages: pages.max(1),
                is_read,
            });
        }
        Ok(SyntheticTrace { kind, records })
    }
}

/// Replays a trace with a fixed number of closed-loop streams: requests are
/// dealt to streams round-robin, preserving per-stream order.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    records: Vec<TraceRecord>,
    streams: usize,
    cursors: Vec<usize>,
}

impl TraceWorkload {
    /// Creates a replayer over `records` with `streams` streams.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is zero.
    pub fn new(records: Vec<TraceRecord>, streams: usize) -> Self {
        assert!(streams > 0, "at least one stream required");
        TraceWorkload {
            cursors: (0..streams).collect(),
            records,
            streams,
        }
    }
}

impl Workload for TraceWorkload {
    fn streams(&self) -> usize {
        self.streams
    }

    fn next_request(&mut self, stream: usize) -> Option<HostRequest> {
        let cursor = self.cursors[stream];
        if cursor >= self.records.len() {
            return None;
        }
        self.cursors[stream] = cursor + self.streams;
        Some(self.records[cursor].to_request())
    }

    fn total_requests(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_characteristics() {
        assert_eq!(TraceKind::WebSearch1.io_count(), 1_055_235);
        assert!((TraceKind::Systor17.read_ratio() - 0.616).abs() < 1e-9);
        assert!((TraceKind::WebSearch2.average_io_kib() - 15.3).abs() < 1e-9);
        assert_eq!(TraceKind::all().len(), 4);
    }

    #[test]
    fn generated_trace_matches_read_ratio_and_size() {
        let trace = SyntheticTrace::generate(TraceKind::Systor17, 100_000, 20_000, 7);
        assert_eq!(trace.len(), 20_000);
        let rr = trace.measured_read_ratio();
        assert!((rr - 0.616).abs() < 0.02, "read ratio {rr} off Table II");
        let mean = trace.measured_mean_io_kib();
        assert!(
            (mean - 10.25).abs() < 4.0,
            "mean I/O size {mean} KiB too far from Table II"
        );
        let websearch = SyntheticTrace::generate(TraceKind::WebSearch1, 100_000, 5_000, 7);
        assert!((websearch.measured_read_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn generated_trace_has_locality() {
        let trace = SyntheticTrace::generate(TraceKind::WebSearch2, 1_000_000, 20_000, 9);
        let mut counts = std::collections::BTreeMap::new();
        for r in trace.records() {
            *counts.entry(r.lpn).or_insert(0u64) += 1;
        }
        let hot: u64 = {
            let mut v: Vec<u64> = counts.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(counts.len() / 100 + 1).sum()
        };
        assert!(
            hot as f64 / trace.len() as f64 > 0.1,
            "top 1% of addresses must absorb a large share of accesses"
        );
    }

    #[test]
    fn replayer_preserves_all_requests() {
        let trace = SyntheticTrace::generate(TraceKind::WebSearch3, 10_000, 1000, 3);
        let total = trace.len();
        let mut wl = trace.into_workload(8);
        let mut count = 0;
        loop {
            let mut any = false;
            for s in 0..8 {
                if wl.next_request(s).is_some() {
                    count += 1;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        assert_eq!(count, total);
    }

    #[test]
    fn csv_parsing_roundtrip_and_errors() {
        let text = "# comment\n10,4,R\n20,1,W\n\n30,2,r\n";
        let trace = SyntheticTrace::from_csv(TraceKind::Systor17, text).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(
            trace.records()[0],
            TraceRecord {
                lpn: 10,
                pages: 4,
                is_read: true
            }
        );
        assert!(!trace.records()[1].is_read);
        assert!(SyntheticTrace::from_csv(TraceKind::Systor17, "1,2,X").is_err());
        assert!(SyntheticTrace::from_csv(TraceKind::Systor17, "oops").is_err());
    }
}
