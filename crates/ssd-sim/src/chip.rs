//! Per-chip (LUN) state: blocks and the per-plane timelines.

use crate::block::Block;
use crate::clock::SimTime;

/// One NAND chip (die/LUN): a set of blocks plus one timeline per plane.
///
/// A plane is the unit of operation-level parallelism inside a chip: two
/// operations on the same plane serialise, operations on different planes of
/// the same chip overlap (subject to the shared channel bus), and operations
/// on different chips overlap fully. Multi-plane commands occupy several
/// planes of a chip with a single NAND slot.
#[derive(Debug, Clone)]
pub struct Chip {
    blocks: Vec<Block>,
    /// When each plane (NAND array and page register) goes idle.
    plane_free: Vec<SimTime>,
}

impl Chip {
    /// Creates a chip with `blocks` erased blocks of `pages_per_block` pages
    /// spread over `planes` planes (the block list is flat; the device maps
    /// plane-local block indices onto it).
    pub fn new(blocks: u32, pages_per_block: u32, planes: u32) -> Self {
        assert!(planes > 0, "a chip needs at least one plane");
        Chip {
            blocks: (0..blocks).map(|_| Block::new(pages_per_block)).collect(),
            plane_free: vec![SimTime::ZERO; planes as usize],
        }
    }

    /// Number of planes on the chip.
    pub fn plane_count(&self) -> u32 {
        self.plane_free.len() as u32
    }

    /// Shared access to the block at `index` (chip-local index).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn block(&self, index: u32) -> &Block {
        &self.blocks[index as usize]
    }

    /// Mutable access to the block at `index` (chip-local index).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn block_mut(&mut self, index: u32) -> &mut Block {
        &mut self.blocks[index as usize]
    }

    /// The simulated time at which the *whole* chip becomes idle (the latest
    /// plane timeline — drain semantics).
    pub fn busy_until(&self) -> SimTime {
        self.plane_free
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// The earliest time any plane of this chip is free — the time the chip
    /// can next *accept* an operation (issuability semantics: a chip is
    /// issuable as soon as one plane is free).
    pub fn next_plane_free(&self) -> SimTime {
        self.plane_free
            .iter()
            .copied()
            .min()
            .expect("a chip has at least one plane")
    }

    /// The time plane `plane` becomes fully idle (NAND array and register).
    pub fn plane_free(&self, plane: u32) -> SimTime {
        self.plane_free[plane as usize]
    }

    /// Reserves plane `plane` for an operation issued at `issue` that takes
    /// `latency` once the plane is free. Returns the completion time. This is
    /// the generic whole-op reservation (erases, program NAND phases).
    pub fn occupy_plane(
        &mut self,
        plane: u32,
        issue: SimTime,
        latency: crate::Duration,
    ) -> SimTime {
        let free = &mut self.plane_free[plane as usize];
        *free = issue.max(*free) + latency;
        *free
    }

    /// Records that plane `plane` goes idle at `free` (the end of its
    /// channel burst for reads, of its NAND phase for programs). The device
    /// computes the phases; the chip only stores the result.
    pub fn reserve_plane(&mut self, plane: u32, free: SimTime) {
        self.plane_free[plane as usize] = free;
    }

    /// Total number of free (programmable) pages across all blocks.
    pub fn free_pages(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.free_pages())).sum()
    }

    /// Total number of valid pages across all blocks.
    pub fn valid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.valid_pages())).sum()
    }

    /// Sum of erase counts across all blocks (wear indicator).
    pub fn total_erases(&self) -> u64 {
        self.blocks.iter().map(Block::erase_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;

    #[test]
    fn occupy_serialises_operations_on_one_plane() {
        let mut chip = Chip::new(2, 4, 1);
        let d = Duration::from_micros(40);
        let t1 = chip.occupy_plane(0, SimTime::ZERO, d);
        assert_eq!(t1, SimTime::from_micros(40));
        // Issued "in the past" relative to the plane: must queue.
        let t2 = chip.occupy_plane(0, SimTime::from_micros(10), d);
        assert_eq!(t2, SimTime::from_micros(80));
        // Issued after the plane is idle: starts immediately.
        let t3 = chip.occupy_plane(0, SimTime::from_micros(200), d);
        assert_eq!(t3, SimTime::from_micros(240));
    }

    #[test]
    fn planes_have_independent_timelines() {
        let mut chip = Chip::new(4, 4, 2);
        let d = Duration::from_micros(100);
        let t0 = chip.occupy_plane(0, SimTime::ZERO, d);
        let t1 = chip.occupy_plane(1, SimTime::ZERO, d);
        assert_eq!(t0, t1, "independent planes overlap fully");
        assert_eq!(chip.busy_until(), t0);
        assert_eq!(chip.next_plane_free(), t0);
        let t2 = chip.occupy_plane(1, SimTime::ZERO, d);
        assert_eq!(t2, t1 + d, "same plane serialises");
        assert_eq!(chip.next_plane_free(), t0, "plane 0 frees first");
        assert_eq!(chip.busy_until(), t2, "drain waits for the busiest plane");
    }

    #[test]
    fn page_counters_aggregate_blocks() {
        let mut chip = Chip::new(2, 4, 1);
        assert_eq!(chip.free_pages(), 8);
        chip.block_mut(0).program(0);
        chip.block_mut(1).program(0);
        chip.block_mut(1).program(1);
        assert_eq!(chip.free_pages(), 5);
        assert_eq!(chip.valid_pages(), 3);
        chip.block_mut(1).invalidate(0);
        assert_eq!(chip.valid_pages(), 2);
    }

    #[test]
    fn erase_counter_aggregates() {
        let mut chip = Chip::new(3, 2, 1);
        chip.block_mut(0).erase();
        chip.block_mut(0).erase();
        chip.block_mut(2).erase();
        assert_eq!(chip.total_erases(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one plane")]
    fn zero_planes_rejected() {
        Chip::new(1, 1, 0);
    }
}
