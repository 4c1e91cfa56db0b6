//! A RocksDB / db_bench-shaped workload (Figure 19 of the paper).

use ftl_base::HostRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Workload;

/// The db_bench phases the paper runs (Section IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RocksDbPhase {
    /// `fillseq`: the LSM tree is bulk-loaded with sequentially increasing
    /// keys — at the device this is large sequential SSTable writes.
    FillSeq,
    /// `overwrite`: random-key updates; memtable flushes and compactions turn
    /// them into large sequential writes at rotating offsets plus rewrites of
    /// existing SSTables.
    Overwrite,
    /// `readrandom`: uniformly random point lookups (single-page reads).
    ReadRandom,
    /// `readseq`: a full sequential scan of the database.
    ReadSeq,
}

impl RocksDbPhase {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            RocksDbPhase::FillSeq => "fillseq",
            RocksDbPhase::Overwrite => "overwrite",
            RocksDbPhase::ReadRandom => "readrandom",
            RocksDbPhase::ReadSeq => "readseq",
        }
    }
}

/// A db_bench-like workload over an LSM-tree whose SSTables occupy `db_pages`
/// logical pages (80 % of the device in the paper's setup).
///
/// The paper runs db_bench with a single thread; [`Workload::streams`] is 1.
#[derive(Debug, Clone)]
pub struct RocksDbWorkload {
    phase: RocksDbPhase,
    db_pages: u64,
    sstable_pages: u32,
    ops: u64,
    issued: u64,
    cursor: u64,
    rng: StdRng,
}

impl RocksDbWorkload {
    /// SSTable size in flash pages (2 MiB SSTables of 4 KiB pages).
    pub const SSTABLE_PAGES: u32 = 512;

    /// Creates a workload for one phase over a database spanning `db_pages`
    /// logical pages, issuing `ops` requests.
    ///
    /// # Panics
    ///
    /// Panics if the database is empty or `ops` is zero.
    pub fn new(phase: RocksDbPhase, db_pages: u64, ops: u64, seed: u64) -> Self {
        assert!(db_pages > 0, "database must span at least one page");
        assert!(ops > 0, "at least one operation required");
        let sstable_pages = Self::SSTABLE_PAGES.min(db_pages.max(1) as u32).max(1);
        RocksDbWorkload {
            phase,
            db_pages,
            sstable_pages,
            ops,
            issued: 0,
            cursor: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The phase this workload models.
    pub fn phase(&self) -> RocksDbPhase {
        self.phase
    }

    /// The database footprint in pages.
    pub fn db_pages(&self) -> u64 {
        self.db_pages
    }
}

impl Workload for RocksDbWorkload {
    fn streams(&self) -> usize {
        1
    }

    fn next_request(&mut self, stream: usize) -> Option<HostRequest> {
        debug_assert_eq!(stream, 0, "db_bench runs single-threaded");
        if self.issued >= self.ops {
            return None;
        }
        self.issued += 1;
        let sst = u64::from(self.sstable_pages);
        let req = match self.phase {
            RocksDbPhase::FillSeq => {
                // Bulk load: SSTable-sized sequential writes marching forward.
                let lpn = self.cursor % self.db_pages.saturating_sub(sst).max(1);
                self.cursor += sst;
                HostRequest::write(lpn, self.sstable_pages)
            }
            RocksDbPhase::Overwrite => {
                // Compaction-shaped traffic: an SSTable-sized sequential write
                // at a random SSTable-aligned offset.
                let slots = (self.db_pages / sst).max(1);
                let slot = self.rng.gen_range(0..slots);
                HostRequest::write(slot * sst, self.sstable_pages)
            }
            RocksDbPhase::ReadRandom => {
                // Point lookup: one page, uniformly random — LSM trees give
                // random reads no locality, which is exactly the case the
                // paper's Figure 19 exercises.
                let lpn = self.rng.gen_range(0..self.db_pages);
                HostRequest::read(lpn, 1)
            }
            RocksDbPhase::ReadSeq => {
                // Sequential scan in 64 KiB chunks.
                let chunk = 16u32;
                let lpn = self.cursor % self.db_pages.saturating_sub(u64::from(chunk)).max(1);
                self.cursor += u64::from(chunk);
                HostRequest::read(lpn, chunk)
            }
        };
        Some(req)
    }

    fn total_requests(&self) -> Option<u64> {
        Some(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_base::HostOp;

    #[test]
    fn fillseq_marches_forward_in_sstable_units() {
        let mut wl = RocksDbWorkload::new(RocksDbPhase::FillSeq, 100_000, 10, 1);
        let mut prev = None;
        for _ in 0..10 {
            let req = wl.next_request(0).unwrap();
            assert_eq!(req.op, HostOp::Write);
            assert_eq!(req.pages, RocksDbWorkload::SSTABLE_PAGES);
            if let Some(p) = prev {
                assert_eq!(req.lpn, p + u64::from(RocksDbWorkload::SSTABLE_PAGES));
            }
            prev = Some(req.lpn);
        }
    }

    #[test]
    fn overwrite_is_sstable_aligned() {
        let mut wl = RocksDbWorkload::new(RocksDbPhase::Overwrite, 100_000, 50, 2);
        for _ in 0..50 {
            let req = wl.next_request(0).unwrap();
            assert_eq!(req.op, HostOp::Write);
            assert_eq!(req.lpn % u64::from(RocksDbWorkload::SSTABLE_PAGES), 0);
        }
    }

    #[test]
    fn readrandom_is_single_page_and_in_range() {
        let mut wl = RocksDbWorkload::new(RocksDbPhase::ReadRandom, 5000, 200, 3);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let req = wl.next_request(0).unwrap();
            assert_eq!(req.op, HostOp::Read);
            assert_eq!(req.pages, 1);
            assert!(req.lpn < 5000);
            distinct.insert(req.lpn);
        }
        assert!(distinct.len() > 100, "random reads must be spread out");
        assert!(wl.next_request(0).is_none());
    }

    #[test]
    fn readseq_scans_forward() {
        let mut wl = RocksDbWorkload::new(RocksDbPhase::ReadSeq, 100_000, 20, 4);
        let mut prev = None;
        for _ in 0..20 {
            let req = wl.next_request(0).unwrap();
            assert_eq!(req.op, HostOp::Read);
            if let Some(p) = prev {
                assert!(req.lpn > p);
            }
            prev = Some(req.lpn);
        }
    }

    #[test]
    fn small_database_clamps_request_sizes() {
        let mut wl = RocksDbWorkload::new(RocksDbPhase::FillSeq, 64, 5, 5);
        for _ in 0..5 {
            let req = wl.next_request(0).unwrap();
            assert!(u64::from(req.pages) <= 64);
        }
    }
}
