//! Filebench-like synthetic workloads (Table I of the paper).

use ftl_base::HostRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipfian;
use crate::Workload;

/// The three Filebench personalities the paper evaluates (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilebenchPreset {
    /// `fileserver`: 225,000 × 128 KiB files, write heavy, 50 threads.
    Fileserver,
    /// `webserver`: 825,000 × 16 KiB files, read heavy, 64 threads.
    Webserver,
    /// `varmail`: 475,000 × 16 KiB files, read:write ≈ 1:1, 64 threads.
    Varmail,
}

impl FilebenchPreset {
    /// Paper Table I: number of files in the fileset.
    pub fn file_count(self) -> u64 {
        match self {
            FilebenchPreset::Fileserver => 225_000,
            FilebenchPreset::Webserver => 825_000,
            FilebenchPreset::Varmail => 475_000,
        }
    }

    /// Paper Table I: mean file size in flash pages (4 KiB each).
    pub fn file_pages(self) -> u32 {
        match self {
            FilebenchPreset::Fileserver => 32, // 128 KiB
            FilebenchPreset::Webserver => 4,   // 16 KiB
            FilebenchPreset::Varmail => 4,     // 16 KiB
        }
    }

    /// Paper Table I: thread count.
    pub fn threads(self) -> usize {
        match self {
            FilebenchPreset::Fileserver => 50,
            FilebenchPreset::Webserver => 64,
            FilebenchPreset::Varmail => 64,
        }
    }

    /// Fraction of operations that are reads.
    pub fn read_fraction(self) -> f64 {
        match self {
            FilebenchPreset::Fileserver => 0.33, // write heavy
            FilebenchPreset::Webserver => 0.95,  // read heavy, few log appends
            FilebenchPreset::Varmail => 0.5,     // read:write = 1:1
        }
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            FilebenchPreset::Fileserver => "fileserver",
            FilebenchPreset::Webserver => "webserver",
            FilebenchPreset::Varmail => "varmail",
        }
    }

    /// All presets, in the order the paper plots them.
    pub fn all() -> [FilebenchPreset; 3] {
        [
            FilebenchPreset::Fileserver,
            FilebenchPreset::Webserver,
            FilebenchPreset::Varmail,
        ]
    }
}

/// A Filebench-like workload over a fileset mapped onto the logical space.
///
/// The fileset is scaled down to fit the simulated device: files keep their
/// per-file size from Table I, but only as many files are instantiated as fit
/// in the addressable space. File popularity follows a Zipfian distribution
/// (file-level locality), which is what gives these workloads the "high
/// locality" character the paper relies on.
#[derive(Debug, Clone)]
pub struct FilebenchWorkload {
    preset: FilebenchPreset,
    file_pages: u32,
    file_count: u64,
    ops_per_stream: u64,
    issued: Vec<u64>,
    rngs: Vec<StdRng>,
    popularity: Zipfian,
}

impl FilebenchWorkload {
    /// Creates a workload for `preset` over a device with `logical_pages`
    /// pages, issuing `ops_per_stream` operations per thread.
    ///
    /// # Panics
    ///
    /// Panics if the device cannot hold even one file.
    pub fn new(
        preset: FilebenchPreset,
        logical_pages: u64,
        ops_per_stream: u64,
        seed: u64,
    ) -> Self {
        let file_pages = preset.file_pages();
        let max_files = logical_pages / u64::from(file_pages);
        assert!(max_files > 0, "device too small for the fileset");
        let file_count = preset.file_count().min(max_files);
        let threads = preset.threads();
        let rngs = (0..threads as u64)
            .map(|s| StdRng::seed_from_u64(seed ^ (s.wrapping_mul(0x9E3779B97F4A7C15))))
            .collect();
        FilebenchWorkload {
            preset,
            file_pages,
            file_count,
            ops_per_stream,
            issued: vec![0; threads],
            rngs,
            popularity: Zipfian::new(file_count, 0.9),
        }
    }

    /// The preset this workload models.
    pub fn preset(&self) -> FilebenchPreset {
        self.preset
    }

    /// Number of files actually instantiated on the device.
    pub fn file_count(&self) -> u64 {
        self.file_count
    }

    /// First LPN of a file.
    pub fn file_lpn(&self, file: u64) -> u64 {
        file * u64::from(self.file_pages)
    }
}

impl Workload for FilebenchWorkload {
    fn streams(&self) -> usize {
        self.issued.len()
    }

    fn next_request(&mut self, stream: usize) -> Option<HostRequest> {
        if self.issued[stream] >= self.ops_per_stream {
            return None;
        }
        self.issued[stream] += 1;
        let file = self.popularity.sample(&mut self.rngs[stream]);
        let lpn = self.file_lpn(file);
        let is_read = self.rngs[stream].gen::<f64>() < self.preset.read_fraction();
        let req = if is_read {
            // Whole-file read (webserver/varmail read whole small files;
            // fileserver reads whole 128 KiB files too).
            HostRequest::read(lpn, self.file_pages)
        } else {
            // Appends / rewrites touch a subset of the file.
            let pages = self.rngs[stream].gen_range(1..=self.file_pages);
            HostRequest::write(lpn, pages)
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
    fn presets_match_table_1() {
        assert_eq!(FilebenchPreset::Fileserver.file_count(), 225_000);
        assert_eq!(FilebenchPreset::Fileserver.file_pages(), 32);
        assert_eq!(FilebenchPreset::Fileserver.threads(), 50);
        assert_eq!(FilebenchPreset::Webserver.file_count(), 825_000);
        assert_eq!(FilebenchPreset::Webserver.threads(), 64);
        assert_eq!(FilebenchPreset::Varmail.file_count(), 475_000);
        assert_eq!(FilebenchPreset::Varmail.file_pages(), 4);
    }

    #[test]
    fn fileset_scales_down_to_the_device() {
        let wl = FilebenchWorkload::new(FilebenchPreset::Webserver, 10_000, 10, 1);
        assert_eq!(wl.file_count(), 2500);
        assert_eq!(wl.streams(), 64);
    }

    #[test]
    fn read_write_mix_matches_preset() {
        let mut wl = FilebenchWorkload::new(FilebenchPreset::Webserver, 100_000, 500, 2);
        let mut reads = 0;
        let mut writes = 0;
        for _ in 0..500 {
            match wl.next_request(0).unwrap().op {
                HostOp::Read => reads += 1,
                HostOp::Write => writes += 1,
            }
        }
        let frac = reads as f64 / (reads + writes) as f64;
        assert!(frac > 0.85, "webserver must be read heavy, got {frac}");

        let mut wl = FilebenchWorkload::new(FilebenchPreset::Fileserver, 100_000, 500, 2);
        let mut reads = 0;
        for _ in 0..500 {
            if wl.next_request(0).unwrap().op == HostOp::Read {
                reads += 1;
            }
        }
        assert!(
            (reads as f64) / 500.0 < 0.5,
            "fileserver must be write heavy"
        );
    }

    #[test]
    fn requests_stay_inside_the_fileset() {
        let logical = 50_000;
        let mut wl = FilebenchWorkload::new(FilebenchPreset::Varmail, logical, 1000, 3);
        for _ in 0..1000 {
            let req = wl.next_request(5).unwrap();
            assert!(req.lpn + u64::from(req.pages) <= logical);
        }
        assert!(wl.next_request(5).is_none());
    }

    #[test]
    fn popular_files_are_reaccessed() {
        let mut wl = FilebenchWorkload::new(FilebenchPreset::Webserver, 100_000, 2000, 4);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..2000 {
            let req = wl.next_request(0).unwrap();
            *counts.entry(req.lpn).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(
            max > 20,
            "zipfian popularity must concentrate accesses, max={max}"
        );
    }
}
