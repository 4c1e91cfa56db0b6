//! The flash device: page/block state plus the discrete-event timing model.

use crate::address::{AddrCodec, PhysAddr, Ppn};
use crate::block::Block;
use crate::chip::Chip;
use crate::clock::SimTime;
use crate::config::SsdConfig;
use crate::error::{DeviceError, DeviceResult};
use crate::geometry::Geometry;
use crate::oob::{OobData, OobTable};
use crate::stats::{DeviceStats, FlashOp};
use crate::trace::{TraceBuffer, TraceData, TraceEvent, TraceReadClass, TraceSink};
use crate::PageState;

/// A simulated NAND flash device.
///
/// The device models:
///
/// * **state** — every page is free, valid or invalid; blocks are programmed
///   in order and erased as a whole,
/// * **timing** — each *plane* executes one NAND operation at a time and each
///   channel transfers one page at a time, so operations issued concurrently
///   against different chips (or different planes of one chip) overlap while
///   operations against the same plane queue. Multi-plane reads and programs
///   ([`FlashDevice::read_pages`], [`FlashDevice::program_pages`]) execute
///   the NAND phase of several planes in a single slot when their addresses
///   align on (block, page) across planes. The rules are FEMU's LUN rules
///   (see [`crate::LatencyConfig`]): a read holds its plane busy until the
///   page has crossed the channel bus, and a program's burst crosses at
///   channel availability,
/// * **metadata** — the OOB area of every page,
/// * **accounting** — counts of reads/programs/erases, split into host-data
///   and translation-page traffic.
///
/// The device knows nothing about logical addresses: the FTL layers own the
/// mapping, allocation and garbage-collection policies.
///
/// # Example
///
/// ```
/// use ssd_sim::{FlashDevice, SsdConfig, SimTime, OobData};
///
/// let mut dev = FlashDevice::new(SsdConfig::tiny());
/// let done_w = dev.program_page(0, OobData::mapped(9), SimTime::ZERO)?;
/// let done_r = dev.read_page(0, done_w)?;
/// assert!(done_r > done_w);
/// assert_eq!(dev.stats().programs, 1);
/// assert_eq!(dev.stats().reads, 1);
/// # Ok::<(), ssd_sim::DeviceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlashDevice {
    config: SsdConfig,
    /// The geometry's PPN decode, precomputed: every flash operation decodes.
    codec: AddrCodec,
    chips: Vec<Chip>,
    channel_busy_until: Vec<SimTime>,
    oob: OobTable,
    stats: DeviceStats,
    staging: Option<Vec<StagedOp>>,
    /// The emptied buffer of an earlier staging window
    /// ([`FlashDevice::recycle_staged`]), which the next window records into.
    spare_staged: Vec<StagedOp>,
    /// Recording trace sink; `None` (the default) disables tracing and keeps
    /// every emission site down to a single branch.
    trace: Option<Box<TraceBuffer>>,
    /// Whether the current timing call replays a staged GC charge
    /// ([`FlashDevice::charge_op`]); marks the emitted spans as GC traffic.
    charge_replay: bool,
}

/// One flash operation whose state effects have been applied under
/// [`FlashDevice::begin_staging`] but whose flash *time* has not been charged
/// yet. The recorded parallel units let a scheduler replay the timing later
/// with [`FlashDevice::charge_op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedOp {
    /// The NAND operation that was staged.
    pub op: FlashOp,
    /// Flat index of the chip the operation occupies.
    pub chip: u64,
    /// Channel the operation's data crosses (the chip's channel for erases).
    pub channel: u32,
    /// Bitmask of the planes the operation occupies (bit `p` set ⇔ plane `p`
    /// participates). Single-plane operations set exactly one bit; a fused
    /// multi-plane read/program sets one bit per participating plane.
    pub planes: u32,
}

impl FlashDevice {
    /// Creates a fresh (fully erased) device.
    pub fn new(config: SsdConfig) -> Self {
        let g = config.geometry;
        let blocks_per_chip = g.blocks_per_chip() as u32;
        let chips = (0..g.total_chips())
            .map(|_| Chip::new(blocks_per_chip, g.pages_per_block, g.planes_per_chip))
            .collect();
        FlashDevice {
            config,
            codec: AddrCodec::new(&g),
            chips,
            channel_busy_until: vec![SimTime::ZERO; g.channels as usize],
            oob: OobTable::new(g.total_pages() as usize),
            stats: DeviceStats::new(),
            staging: None,
            spare_staged: Vec::new(),
            trace: None,
            charge_replay: false,
        }
    }

    /// Turns tracing on or off. Turning it on installs an empty
    /// [`TraceBuffer`]; turning it off drops any recorded events. Tracing
    /// never affects simulated timing — it only records it.
    pub fn set_tracing(&mut self, on: bool) {
        if on {
            if self.trace.is_none() {
                self.trace = Some(Box::default());
            }
        } else {
            self.trace = None;
        }
    }

    /// Whether tracing is currently enabled.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Takes every recorded trace event, leaving tracing enabled (if it was)
    /// with an empty buffer.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.as_mut().map(|t| t.take()).unwrap_or_default()
    }

    /// The active trace sink, or `None` when tracing is disabled. Layers
    /// above the device (the I/O scheduler, the FTLs, the harness) emit
    /// their events through this, so one buffer per device collects the
    /// whole stack's stream in execution order.
    #[inline]
    pub fn trace_sink(&mut self) -> Option<&mut TraceBuffer> {
        self.trace.as_deref_mut()
    }

    /// Records how one logical page read was resolved by the FTL's
    /// translation path (a point event; no-op when tracing is off).
    #[inline]
    pub fn trace_read_class(&mut self, at: SimTime, class: TraceReadClass) {
        if let Some(t) = self.trace.as_mut() {
            t.instant(at, TraceData::ReadClass { class });
        }
    }

    /// Enters *staging* mode: subsequent `read_page` / `program_page` /
    /// `erase_block` calls apply their state effects and statistics
    /// immediately but charge **no flash time** (they return their `issue`
    /// argument unchanged) and are recorded instead. [`FlashDevice::end_staging`]
    /// hands the recorded operations back so a scheduler can replay their
    /// timing later with [`FlashDevice::charge_op`] — this is how scheduled
    /// garbage collection commits a collection's logical outcome atomically
    /// while its flash traffic contends with host commands over time.
    ///
    /// # Panics
    ///
    /// Panics if the device is already staging.
    pub fn begin_staging(&mut self) {
        assert!(self.staging.is_none(), "staging windows must not nest");
        self.staging = Some(std::mem::take(&mut self.spare_staged));
    }

    /// Leaves staging mode, returning every operation staged since
    /// [`FlashDevice::begin_staging`] in execution order.
    ///
    /// # Panics
    ///
    /// Panics if the device is not staging.
    pub fn end_staging(&mut self) -> Vec<StagedOp> {
        self.staging
            .take()
            .expect("end_staging requires an open staging window")
    }

    /// Hands a buffer obtained from [`FlashDevice::end_staging`] back once its
    /// operations have been consumed, so the next staging window records into
    /// it instead of allocating (a scheduled-GC FTL opens one window per host
    /// flash operation).
    pub fn recycle_staged(&mut self, mut ops: Vec<StagedOp>) {
        ops.clear();
        self.spare_staged = ops;
    }

    /// Whether a staging window is open.
    pub fn is_staging(&self) -> bool {
        self.staging.is_some()
    }

    /// Number of operations recorded in the open staging window (zero when
    /// not staging). Callers use this to mark boundaries inside a staged
    /// batch, e.g. the end of one GC victim's work.
    pub fn staged_len(&self) -> usize {
        self.staging.as_ref().map_or(0, Vec::len)
    }

    /// Occupies the timing resources of one flash operation — the planes in
    /// `planes` (a bitmask) for the NAND phase and the channel for the
    /// transfer phase(s), in the same order as the blocking calls — without
    /// touching page state or statistics. This is the replay half of the
    /// stage/charge split: state was already applied under
    /// [`FlashDevice::begin_staging`], so replaying lands on exactly the
    /// completion time the blocking call would have produced.
    pub fn charge_op(
        &mut self,
        op: FlashOp,
        chip: u64,
        channel: u32,
        planes: u32,
        issue: SimTime,
    ) -> SimTime {
        assert!(
            planes != 0,
            "charge_op needs at least one plane in the mask"
        );
        self.charge_replay = true;
        let done = self.time_op(
            StagedOp {
                op,
                chip,
                channel,
                planes,
            },
            issue,
        );
        self.charge_replay = false;
        done
    }

    /// The one exit of every state-changing call, once its state effects and
    /// statistics are applied: inside a staging window the operation is
    /// recorded and takes no time (`issue` comes back), otherwise its timing
    /// is charged now.
    fn finish_op(&mut self, op: StagedOp, issue: SimTime) -> SimTime {
        if let Some(staged) = &mut self.staging {
            staged.push(op);
            return issue;
        }
        self.time_op(op, issue)
    }

    /// Charges the timing of `op`, issued at `issue`.
    fn time_op(&mut self, op: StagedOp, issue: SimTime) -> SimTime {
        let chip = op.chip as usize;
        match op.op {
            FlashOp::Read => self.time_read(chip, op.channel, op.planes, issue),
            FlashOp::Program => self.time_program(chip, op.channel, op.planes, issue),
            FlashOp::Erase => self.time_erase(chip, op.planes.trailing_zeros(), issue),
        }
    }

    /// Charges the timing of a (possibly multi-plane) page read: one NAND
    /// slot covering every plane in the `planes` mask, then one channel
    /// burst per page in ascending plane order, with each plane held busy
    /// until its own burst completes.
    fn time_read(&mut self, chip: usize, channel: u32, planes: u32, issue: SimTime) -> SimTime {
        let lat = self.config.latency;
        let base = plane_indices(planes)
            .map(|p| self.chips[chip].plane_free(p))
            .fold(SimTime::ZERO, SimTime::max);
        let start = issue.max(base);
        let mut done = start + lat.read;
        for p in plane_indices(planes) {
            done = self.occupy_channel(channel, FlashOp::Read, done, lat.channel_transfer);
            self.chips[chip].reserve_plane(p, done);
            if let Some(t) = self.trace.as_mut() {
                t.span(
                    start,
                    done,
                    TraceData::PlaneOp {
                        chip: chip as u32,
                        plane: p,
                        op: FlashOp::Read,
                        gc: self.charge_replay,
                    },
                );
            }
        }
        done
    }

    /// Charges the timing of a (possibly multi-plane) page program: one
    /// channel burst per page in ascending plane order, then one NAND slot
    /// covering every plane in the `planes` mask. A burst crosses the bus at
    /// channel availability even while its plane still programs a previous
    /// page.
    fn time_program(&mut self, chip: usize, channel: u32, planes: u32, issue: SimTime) -> SimTime {
        let lat = self.config.latency;
        let mut last_bus = issue;
        for _ in 0..planes.count_ones() {
            last_bus = self.occupy_channel(channel, FlashOp::Program, issue, lat.channel_transfer);
        }
        let planes_free = plane_indices(planes)
            .map(|p| self.chips[chip].plane_free(p))
            .fold(SimTime::ZERO, SimTime::max);
        let nand_start = last_bus.max(planes_free);
        let done = nand_start + lat.program;
        for p in plane_indices(planes) {
            self.chips[chip].reserve_plane(p, done);
            if let Some(t) = self.trace.as_mut() {
                t.span(
                    nand_start,
                    done,
                    TraceData::PlaneOp {
                        chip: chip as u32,
                        plane: p,
                        op: FlashOp::Program,
                        gc: self.charge_replay,
                    },
                );
            }
        }
        done
    }

    /// Charges the timing of a block erase on one plane: the plane is held
    /// for the erase latency, no channel traffic.
    fn time_erase(&mut self, chip: usize, plane: u32, issue: SimTime) -> SimTime {
        let lat = self.config.latency;
        let start = issue.max(self.chips[chip].plane_free(plane));
        let done = self.chips[chip].occupy_plane(plane, issue, lat.erase);
        debug_assert_eq!(done, start + lat.erase);
        if let Some(t) = self.trace.as_mut() {
            t.span(
                start,
                done,
                TraceData::PlaneOp {
                    chip: chip as u32,
                    plane,
                    op: FlashOp::Erase,
                    gc: self.charge_replay,
                },
            );
        }
        done
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.config.geometry
    }

    /// Operation statistics accumulated so far.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Resets the operation statistics to zero (state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = DeviceStats::new();
    }

    /// Reads the page at `ppn`, issued at `issue`. Returns the completion time.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::PpnOutOfRange`] if `ppn` does not exist and
    /// [`DeviceError::ReadOnFreePage`] if the page has never been programmed.
    pub fn read_page(&mut self, ppn: Ppn, issue: SimTime) -> DeviceResult<SimTime> {
        let addr = self.check_ppn(ppn)?;
        if self.state_at(&addr) == PageState::Free {
            return Err(DeviceError::ReadOnFreePage { ppn });
        }
        let translation = self.oob.is_translation(ppn as usize);
        self.stats.record(FlashOp::Read, translation);
        // NAND array read on the plane, then the page crosses the channel
        // bus; the plane's register holds the page until the burst completes,
        // so the plane stays busy through its bus slot.
        let op = StagedOp {
            op: FlashOp::Read,
            chip: addr.chip_index(&self.config.geometry),
            channel: addr.channel,
            planes: 1 << addr.plane,
        };
        Ok(self.finish_op(op, issue))
    }

    /// Reads several pages of one chip as a single **multi-plane** read: the
    /// NAND phase of every page executes in one
    /// [`crate::LatencyConfig::read`] slot, then the pages cross
    /// the channel bus one after another. Returns the completion time of the
    /// last transfer.
    ///
    /// A single-page group degenerates to [`FlashDevice::read_page`].
    ///
    /// # Errors
    ///
    /// Returns the per-page errors of [`FlashDevice::read_page`], and
    /// [`DeviceError::MultiPlaneMisaligned`] unless the pages live on the
    /// same chip, on strictly ascending planes, at the same (block, page)
    /// offset within their plane. No state is modified on error.
    pub fn read_pages(&mut self, ppns: &[Ppn], issue: SimTime) -> DeviceResult<SimTime> {
        assert!(!ppns.is_empty(), "read_pages needs at least one page");
        if ppns.len() == 1 {
            return self.read_page(ppns[0], issue);
        }
        let addrs = self.check_multi_plane_group(ppns)?;
        for &ppn in ppns {
            if self.page_state(ppn)? == PageState::Free {
                return Err(DeviceError::ReadOnFreePage { ppn });
            }
        }
        for &ppn in ppns {
            let translation = self.oob.is_translation(ppn as usize);
            self.stats.record(FlashOp::Read, translation);
        }
        let op = StagedOp {
            op: FlashOp::Read,
            chip: addrs[0].chip_index(&self.config.geometry),
            channel: addrs[0].channel,
            planes: Self::group_mask(&addrs),
        };
        Ok(self.finish_op(op, issue))
    }

    /// Programs the page at `ppn` with `oob` metadata, issued at `issue`.
    /// Returns the completion time.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::PpnOutOfRange`] if `ppn` does not exist and
    /// [`DeviceError::ProgramOnUsedPage`] if the page is not the next free
    /// page of its block (NAND requires in-order programming).
    pub fn program_page(
        &mut self,
        ppn: Ppn,
        oob: OobData,
        issue: SimTime,
    ) -> DeviceResult<SimTime> {
        let addr = self.check_ppn(ppn)?;
        let g = self.config.geometry;
        let chip_idx = addr.chip_index(&g) as usize;
        let local_block = Self::local_block(&addr, &g);
        {
            let block = self.chips[chip_idx].block_mut(local_block);
            if !block.program(addr.page) {
                return Err(DeviceError::ProgramOnUsedPage { ppn });
            }
        }
        self.oob.set(ppn as usize, oob);
        self.stats.record(FlashOp::Program, oob.is_translation);
        // Data crosses the channel bus first, then the NAND array programs it.
        let op = StagedOp {
            op: FlashOp::Program,
            chip: chip_idx as u64,
            channel: addr.channel,
            planes: 1 << addr.plane,
        };
        Ok(self.finish_op(op, issue))
    }

    /// Programs several pages of one chip as a single **multi-plane**
    /// program: each page's data crosses the channel bus in turn, then the
    /// NAND phase of every plane executes in one
    /// [`crate::LatencyConfig::program`] slot. Returns the
    /// completion time of the shared slot.
    ///
    /// A single-page group degenerates to [`FlashDevice::program_page`].
    ///
    /// # Errors
    ///
    /// Returns the per-page errors of [`FlashDevice::program_page`], and
    /// [`DeviceError::MultiPlaneMisaligned`] unless the pages live on the
    /// same chip, on strictly ascending planes, at the same (block, page)
    /// offset within their plane. No state is modified on error.
    pub fn program_pages(
        &mut self,
        writes: &[(Ppn, OobData)],
        issue: SimTime,
    ) -> DeviceResult<SimTime> {
        assert!(!writes.is_empty(), "program_pages needs at least one page");
        if writes.len() == 1 {
            let (ppn, oob) = writes[0];
            return self.program_page(ppn, oob, issue);
        }
        let ppns: Vec<Ppn> = writes.iter().map(|&(ppn, _)| ppn).collect();
        let addrs = self.check_multi_plane_group(&ppns)?;
        let g = self.config.geometry;
        // Validate the whole group before committing any page state.
        for (addr, &(ppn, _)) in addrs.iter().zip(writes) {
            let block = self.chips[addr.chip_index(&g) as usize].block(Self::local_block(addr, &g));
            if block.write_pointer() != Some(addr.page) {
                return Err(DeviceError::ProgramOnUsedPage { ppn });
            }
        }
        for (addr, &(ppn, oob)) in addrs.iter().zip(writes) {
            let chip_idx = addr.chip_index(&g) as usize;
            let programmed = self.chips[chip_idx]
                .block_mut(Self::local_block(addr, &g))
                .program(addr.page);
            debug_assert!(programmed, "group was validated above");
            self.oob.set(ppn as usize, oob);
            self.stats.record(FlashOp::Program, oob.is_translation);
        }
        let op = StagedOp {
            op: FlashOp::Program,
            chip: addrs[0].chip_index(&g),
            channel: addrs[0].channel,
            planes: Self::group_mask(&addrs),
        };
        Ok(self.finish_op(op, issue))
    }

    /// Validates a multi-plane group: every page on the same chip, strictly
    /// ascending planes, identical (block, page) offsets. Returns the decoded
    /// addresses.
    fn check_multi_plane_group(&self, ppns: &[Ppn]) -> DeviceResult<Vec<PhysAddr>> {
        let addrs: Vec<PhysAddr> = ppns
            .iter()
            .map(|&ppn| self.check_ppn(ppn))
            .collect::<DeviceResult<_>>()?;
        let first = addrs[0];
        for (addr, &ppn) in addrs.iter().zip(ppns).skip(1) {
            let aligned = addr.channel == first.channel
                && addr.chip == first.chip
                && addr.block == first.block
                && addr.page == first.page;
            if !aligned {
                return Err(DeviceError::MultiPlaneMisaligned { ppn });
            }
        }
        for (pair, &ppn) in addrs.windows(2).zip(&ppns[1..]) {
            if pair[1].plane <= pair[0].plane {
                return Err(DeviceError::MultiPlaneMisaligned { ppn });
            }
        }
        Ok(addrs)
    }

    /// The plane bitmask of an aligned group.
    fn group_mask(addrs: &[PhysAddr]) -> u32 {
        addrs.iter().fold(0u32, |m, a| m | (1 << a.plane))
    }

    /// Marks the page at `ppn` invalid (superseded). This is a metadata-only
    /// operation with no timing cost.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::PpnOutOfRange`] if `ppn` does not exist. It is
    /// not an error to invalidate a page twice or to invalidate a free page —
    /// the call is then a no-op — because FTL write paths routinely overwrite
    /// logical pages whose previous physical location is already stale.
    pub fn invalidate_page(&mut self, ppn: Ppn) -> DeviceResult<()> {
        let addr = self.check_ppn(ppn)?;
        let g = self.config.geometry;
        let chip_idx = addr.chip_index(&g) as usize;
        let local_block = Self::local_block(&addr, &g);
        self.chips[chip_idx]
            .block_mut(local_block)
            .invalidate(addr.page);
        Ok(())
    }

    /// Erases the block identified by the device-wide flat block index.
    /// Returns the completion time.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BlockOutOfRange`] if the block does not exist
    /// and [`DeviceError::EraseWithValidPages`] if the block still holds valid
    /// pages (the FTL must relocate them first).
    pub fn erase_block(&mut self, flat_block: u64, issue: SimTime) -> DeviceResult<SimTime> {
        let g = self.config.geometry;
        let total_blocks = g.total_blocks();
        if flat_block >= total_blocks {
            return Err(DeviceError::BlockOutOfRange {
                block: flat_block,
                total: total_blocks,
            });
        }
        let blocks_per_chip = g.blocks_per_chip();
        let chip_idx = (flat_block / blocks_per_chip) as usize;
        let local_block = (flat_block % blocks_per_chip) as u32;
        let valid = self.chips[chip_idx].block(local_block).valid_pages();
        if valid > 0 {
            return Err(DeviceError::EraseWithValidPages {
                block: flat_block,
                valid,
            });
        }
        self.chips[chip_idx].block_mut(local_block).erase();
        // Clear the OOB of every page in the block.
        let first_ppn = self.first_ppn_of_flat_block(flat_block);
        self.oob
            .erase(first_ppn as usize, g.pages_per_block as usize);
        self.stats.record(FlashOp::Erase, false);
        let op = StagedOp {
            op: FlashOp::Erase,
            chip: chip_idx as u64,
            channel: (chip_idx as u64 / u64::from(g.chips_per_channel)) as u32,
            planes: 1 << (local_block / g.blocks_per_plane),
        };
        Ok(self.finish_op(op, issue))
    }

    /// The state of the page at `ppn`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::PpnOutOfRange`] if `ppn` does not exist.
    pub fn page_state(&self, ppn: Ppn) -> DeviceResult<PageState> {
        Ok(self.state_at(&self.check_ppn(ppn)?))
    }

    /// The state of the page at an already-checked address.
    fn state_at(&self, addr: &PhysAddr) -> PageState {
        let g = self.config.geometry;
        self.chips[addr.chip_index(&g) as usize]
            .block(Self::local_block(addr, &g))
            .page_state(addr.page)
    }

    /// The OOB metadata of the page at `ppn`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::PpnOutOfRange`] if `ppn` does not exist.
    pub fn oob(&self, ppn: Ppn) -> DeviceResult<OobData> {
        self.check_ppn(ppn)?;
        Ok(self.oob.get(ppn as usize))
    }

    /// Shared access to the block metadata at a flat block index.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BlockOutOfRange`] if the block does not exist.
    pub fn block_info(&self, flat_block: u64) -> DeviceResult<&Block> {
        let g = self.config.geometry;
        if flat_block >= g.total_blocks() {
            return Err(DeviceError::BlockOutOfRange {
                block: flat_block,
                total: g.total_blocks(),
            });
        }
        let blocks_per_chip = g.blocks_per_chip();
        let chip_idx = (flat_block / blocks_per_chip) as usize;
        let local_block = (flat_block % blocks_per_chip) as u32;
        Ok(self.chips[chip_idx].block(local_block))
    }

    /// The first PPN that belongs to the block with the given flat index.
    pub fn first_ppn_of_flat_block(&self, flat_block: u64) -> Ppn {
        flat_block * u64::from(self.config.geometry.pages_per_block)
    }

    /// The flat plane index of `ppn` (`chip · planes_per_chip + plane`, as in
    /// [`FlashDevice::busy_until_per_plane`]).
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is outside the device.
    pub fn plane_of_ppn(&self, ppn: Ppn) -> usize {
        self.codec.plane_of_ppn(ppn) as usize
    }

    /// The flat block index that contains `ppn`.
    pub fn flat_block_of_ppn(&self, ppn: Ppn) -> u64 {
        ppn / u64::from(self.config.geometry.pages_per_block)
    }

    /// The next programmable page (as a PPN) inside the block with the given
    /// flat index, or `None` if the block is full.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BlockOutOfRange`] if the block does not exist.
    pub fn next_free_ppn_in_block(&self, flat_block: u64) -> DeviceResult<Option<Ppn>> {
        let block = self.block_info(flat_block)?;
        Ok(block
            .write_pointer()
            .map(|page| self.first_ppn_of_flat_block(flat_block) + u64::from(page)))
    }

    /// The simulated time at which the **plane** holding `ppn` becomes idle.
    ///
    /// Plane-resolved on purpose: the whole-chip maximum would over-report
    /// availability for an address whose plane is already free, which made
    /// any scheduler lookahead built on this value non-conservative on
    /// multi-plane geometries. With one plane per chip the two notions
    /// coincide (regression-tested).
    pub fn chip_busy_until(&self, ppn: Ppn) -> SimTime {
        let g = self.config.geometry;
        let addr = PhysAddr::from_ppn(ppn, &g);
        self.chips[addr.chip_index(&g) as usize].plane_free(addr.plane)
    }

    /// The busiest (largest) plane timeline across all chips: the time at
    /// which the entire device has drained.
    pub fn drain_time(&self) -> SimTime {
        self.chips
            .iter()
            .map(Chip::busy_until)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Per-chip availability, indexed by flat chip index: the time each chip
    /// can next *accept* an operation, i.e. its earliest-free plane. A chip
    /// with any idle plane reports that plane's time, not the whole-chip
    /// maximum — plane-resolved availability for plane-aware dispatch. With
    /// one plane per chip this is the classic per-chip busy-until.
    pub fn busy_until_per_chip(&self) -> Vec<SimTime> {
        self.chips.iter().map(Chip::next_plane_free).collect()
    }

    /// One element of [`FlashDevice::busy_until_per_chip`]: the time the chip
    /// with flat index `chip` can next accept an operation.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn busy_until_of_chip(&self, chip: usize) -> SimTime {
        self.chips[chip].next_plane_free()
    }

    /// Per-plane busy-until times, indexed by flat plane index
    /// (`chip * planes_per_chip + plane`).
    pub fn busy_until_per_plane(&self) -> Vec<SimTime> {
        self.chips
            .iter()
            .flat_map(|c| (0..c.plane_count()).map(|p| c.plane_free(p)))
            .collect()
    }

    /// Number of fully erased blocks in the whole device.
    pub fn free_block_count(&self) -> u64 {
        let g = self.config.geometry;
        (0..g.total_blocks())
            .filter(|&b| {
                self.block_info(b)
                    .map(|blk| blk.state() == crate::BlockState::Free)
                    .unwrap_or(false)
            })
            .count() as u64
    }

    /// Total erase operations executed (wear indicator).
    pub fn total_erases(&self) -> u64 {
        self.chips.iter().map(Chip::total_erases).sum()
    }

    fn occupy_channel(
        &mut self,
        channel: u32,
        op: FlashOp,
        issue: SimTime,
        transfer: crate::Duration,
    ) -> SimTime {
        let busy = &mut self.channel_busy_until[channel as usize];
        let start = issue.max(*busy);
        let done = start + transfer;
        *busy = done;
        if let Some(t) = self.trace.as_mut() {
            t.span(
                start,
                done,
                TraceData::BusXfer {
                    channel,
                    op,
                    gc: self.charge_replay,
                },
            );
        }
        done
    }

    fn check_ppn(&self, ppn: Ppn) -> DeviceResult<PhysAddr> {
        let total = self.codec.total_pages();
        if ppn >= total {
            return Err(DeviceError::PpnOutOfRange { ppn, total });
        }
        Ok(self.codec.from_ppn(ppn))
    }

    fn local_block(addr: &PhysAddr, g: &Geometry) -> u32 {
        addr.plane * g.blocks_per_plane + addr.block
    }
}

/// The plane indices set in the bitmask `planes`, ascending.
fn plane_indices(planes: u32) -> impl Iterator<Item = u32> {
    let mut rest = planes;
    std::iter::from_fn(move || {
        let plane = (rest != 0).then(|| rest.trailing_zeros())?;
        rest &= rest - 1;
        Some(plane)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;

    fn dev() -> FlashDevice {
        FlashDevice::new(SsdConfig::tiny())
    }

    #[test]
    fn program_then_read_roundtrips_oob() {
        let mut d = dev();
        d.program_page(0, OobData::mapped(123), SimTime::ZERO)
            .unwrap();
        assert_eq!(d.oob(0).unwrap().lpn, Some(123));
        assert_eq!(d.page_state(0).unwrap(), PageState::Valid);
        let done = d.read_page(0, SimTime::ZERO).unwrap();
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn read_free_page_is_error() {
        let mut d = dev();
        assert_eq!(
            d.read_page(5, SimTime::ZERO),
            Err(DeviceError::ReadOnFreePage { ppn: 5 })
        );
    }

    #[test]
    fn program_out_of_order_is_error() {
        let mut d = dev();
        // Page 1 of block 0 without programming page 0 first.
        assert_eq!(
            d.program_page(1, OobData::mapped(1), SimTime::ZERO),
            Err(DeviceError::ProgramOnUsedPage { ppn: 1 })
        );
    }

    #[test]
    fn reprogram_is_error() {
        let mut d = dev();
        d.program_page(0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            d.program_page(0, OobData::mapped(2), SimTime::ZERO),
            Err(DeviceError::ProgramOnUsedPage { ppn: 0 })
        );
    }

    #[test]
    fn erase_requires_no_valid_pages() {
        let mut d = dev();
        d.program_page(0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            d.erase_block(0, SimTime::ZERO),
            Err(DeviceError::EraseWithValidPages { .. })
        ));
        d.invalidate_page(0).unwrap();
        let done = d.erase_block(0, SimTime::ZERO).unwrap();
        assert!(done >= SimTime::from_millis(2));
        assert_eq!(d.page_state(0).unwrap(), PageState::Free);
        assert_eq!(d.oob(0).unwrap().lpn, None);
        // The block is programmable again.
        d.program_page(0, OobData::mapped(9), SimTime::ZERO)
            .unwrap();
    }

    #[test]
    fn operations_on_same_chip_queue() {
        let mut d = dev();
        let g = *d.geometry();
        // Two pages on the same chip (channel 0, chip 0): block 0 page 0 and 1.
        d.program_page(0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        d.program_page(1, OobData::mapped(2), SimTime::ZERO)
            .unwrap();
        let t1 = d.read_page(0, SimTime::ZERO).unwrap();
        let t2 = d.read_page(1, SimTime::ZERO).unwrap();
        assert!(t2 > t1, "same-chip reads must serialise");
        // Two pages on different chips overlap: read completion times differ
        // by less than a full read latency.
        let other_chip_ppn = g.pages_per_chip(); // first page of chip 1
        let addr = PhysAddr::from_ppn(other_chip_ppn, &g);
        assert_ne!(addr.chip_index(&g), 0);
    }

    #[test]
    fn operations_on_different_chips_overlap() {
        let cfg = SsdConfig::tiny();
        let g = cfg.geometry;
        let mut d = FlashDevice::new(cfg);
        let chip0_ppn = 0;
        let chip1_ppn = g.pages_per_chip();
        d.program_page(chip0_ppn, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        d.program_page(chip1_ppn, OobData::mapped(2), SimTime::ZERO)
            .unwrap();
        let base = d.drain_time();
        let t1 = d.read_page(chip0_ppn, base).unwrap();
        let t2 = d.read_page(chip1_ppn, base).unwrap();
        // Both reads finish within ~one read latency + transfers of each other.
        let spread = if t1 > t2 { t1 - t2 } else { t2 - t1 };
        assert!(spread < Duration::from_micros(40));
    }

    #[test]
    fn stats_track_translation_traffic() {
        let mut d = dev();
        d.program_page(0, OobData::translation(), SimTime::ZERO)
            .unwrap();
        d.program_page(1, OobData::mapped(4), SimTime::ZERO)
            .unwrap();
        d.read_page(0, SimTime::ZERO).unwrap();
        d.read_page(1, SimTime::ZERO).unwrap();
        let s = d.stats();
        assert_eq!(s.programs, 2);
        assert_eq!(s.translation_programs, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.translation_reads, 1);
        assert_eq!(s.data_reads(), 1);
    }

    #[test]
    fn next_free_ppn_walks_the_block() {
        let mut d = dev();
        assert_eq!(d.next_free_ppn_in_block(0).unwrap(), Some(0));
        d.program_page(0, OobData::mapped(0), SimTime::ZERO)
            .unwrap();
        assert_eq!(d.next_free_ppn_in_block(0).unwrap(), Some(1));
        let pages = d.geometry().pages_per_block;
        for p in 1..pages {
            d.program_page(u64::from(p), OobData::mapped(u64::from(p)), SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(d.next_free_ppn_in_block(0).unwrap(), None);
    }

    #[test]
    fn free_block_count_decreases_with_programs() {
        let mut d = dev();
        let total = d.geometry().total_blocks();
        assert_eq!(d.free_block_count(), total);
        d.program_page(0, OobData::mapped(0), SimTime::ZERO)
            .unwrap();
        assert_eq!(d.free_block_count(), total - 1);
    }

    #[test]
    fn staging_applies_state_without_charging_time() {
        let mut d = dev();
        d.begin_staging();
        let t = d
            .program_page(0, OobData::mapped(7), SimTime::from_micros(5))
            .unwrap();
        assert_eq!(t, SimTime::from_micros(5), "staged ops take no time");
        let t = d.read_page(0, t).unwrap();
        assert_eq!(t, SimTime::from_micros(5));
        d.invalidate_page(0).unwrap();
        let t = d.erase_block(0, t).unwrap();
        assert_eq!(t, SimTime::from_micros(5));
        let ops = d.end_staging();
        assert_eq!(
            ops.iter().map(|o| o.op).collect::<Vec<_>>(),
            vec![FlashOp::Program, FlashOp::Read, FlashOp::Erase]
        );
        assert!(ops
            .iter()
            .all(|o| o.chip == 0 && o.channel == 0 && o.planes == 1));
        // State and statistics were applied eagerly...
        assert_eq!(d.page_state(0).unwrap(), PageState::Free);
        assert_eq!(d.stats().programs, 1);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().erases, 1);
        // ...but no chip time was consumed.
        assert_eq!(d.drain_time(), SimTime::ZERO);
    }

    #[test]
    fn charge_op_matches_blocking_timing() {
        // Replaying a staged sequence through charge_op lands on the same
        // completion times as the blocking calls on a twin device.
        let mut staged_dev = dev();
        let mut blocking_dev = dev();
        staged_dev.begin_staging();
        staged_dev
            .program_page(0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        staged_dev
            .program_page(1, OobData::mapped(2), SimTime::ZERO)
            .unwrap();
        staged_dev.read_page(0, SimTime::ZERO).unwrap();
        let ops = staged_dev.end_staging();

        let mut t_charge = SimTime::ZERO;
        for op in &ops {
            t_charge = staged_dev.charge_op(op.op, op.chip, op.channel, op.planes, t_charge);
        }
        let mut t_block = SimTime::ZERO;
        t_block = blocking_dev
            .program_page(0, OobData::mapped(1), t_block)
            .unwrap();
        t_block = blocking_dev
            .program_page(1, OobData::mapped(2), t_block)
            .unwrap();
        t_block = blocking_dev.read_page(0, t_block).unwrap();
        assert_eq!(t_charge, t_block, "charge replay must equal blocking time");
        assert_eq!(staged_dev.drain_time(), blocking_dev.drain_time());
    }

    #[test]
    #[should_panic(expected = "must not nest")]
    fn nested_staging_rejected() {
        let mut d = dev();
        d.begin_staging();
        d.begin_staging();
    }

    #[test]
    fn out_of_range_errors() {
        let mut d = dev();
        let total = d.geometry().total_pages();
        assert!(matches!(
            d.read_page(total, SimTime::ZERO),
            Err(DeviceError::PpnOutOfRange { .. })
        ));
        assert!(matches!(
            d.erase_block(d.geometry().total_blocks(), SimTime::ZERO),
            Err(DeviceError::BlockOutOfRange { .. })
        ));
    }

    /// A device with two planes per chip (same capacity as `tiny`).
    fn dev2() -> FlashDevice {
        FlashDevice::new(SsdConfig::tiny().with_planes(2))
    }

    /// PPN of (chip 0, plane `plane`, block 0, page `page`) on `dev2`.
    fn plane_ppn(d: &FlashDevice, plane: u32, page: u32) -> Ppn {
        PhysAddr {
            channel: 0,
            chip: 0,
            plane,
            block: 0,
            page,
        }
        .to_ppn(d.geometry())
    }

    // Regression for the read-path channel accounting bug: the chip used to
    // be freed at `nand_done` while its page still crossed the bus, so a
    // queued read on the same chip started its NAND phase under an occupied
    // channel for free. The plane must be held through its bus slot.
    #[test]
    fn two_reads_one_channel_hold_the_chip_through_the_bus_slot() {
        let mut d = dev();
        d.program_page(0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        d.program_page(1, OobData::mapped(2), SimTime::ZERO)
            .unwrap();
        let t0 = d.drain_time();
        // femu defaults: 40us NAND read, 5us transfer.
        let t1 = d.read_page(0, t0).unwrap();
        assert_eq!(t1 - t0, Duration::from_micros(45), "nand + burst");
        let t2 = d.read_page(1, t0).unwrap();
        assert_eq!(
            t2 - t0,
            Duration::from_micros(90),
            "the second NAND read must wait for the first burst to free the plane"
        );
        // Two chips of the same channel overlap their NAND phases and only
        // serialise on the bus.
        let mut d = dev();
        let g = *d.geometry();
        let other = g.pages_per_chip(); // chip 1, same channel as chip 0
        d.program_page(0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        d.program_page(other, OobData::mapped(2), SimTime::ZERO)
            .unwrap();
        let t0 = d.drain_time();
        let ta = d.read_page(0, t0).unwrap();
        let tb = d.read_page(other, t0).unwrap();
        assert_eq!(ta - t0, Duration::from_micros(45));
        assert_eq!(tb - t0, Duration::from_micros(50), "bus-serialised only");
    }

    #[test]
    fn independent_planes_overlap_their_nand_phases() {
        let mut d = dev2();
        let p0 = plane_ppn(&d, 0, 0);
        let p1 = plane_ppn(&d, 1, 0);
        // bursts serialise on the channel (5us each); the 200us NAND
        // programs overlap across planes.
        let t0 = d
            .program_page(p0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        let t1 = d
            .program_page(p1, OobData::mapped(2), SimTime::ZERO)
            .unwrap();
        assert_eq!(t0, SimTime::from_micros(205));
        assert_eq!(t1, SimTime::from_micros(210), "planes overlap, not queue");
        // Same plane still serialises.
        let t2 = d
            .program_page(p0 + 1, OobData::mapped(3), SimTime::ZERO)
            .unwrap();
        assert!(t2 > SimTime::from_micros(400), "same plane must serialise");
    }

    #[test]
    fn multi_plane_program_and_read_share_one_nand_slot() {
        let mut d = dev2();
        let p0 = plane_ppn(&d, 0, 0);
        let p1 = plane_ppn(&d, 1, 0);
        let done = d
            .program_pages(
                &[(p0, OobData::mapped(1)), (p1, OobData::mapped(2))],
                SimTime::ZERO,
            )
            .unwrap();
        // Transfers [0,5] and [5,10], one shared 200us program slot.
        assert_eq!(done, SimTime::from_micros(210));
        assert_eq!(d.stats().programs, 2);
        assert_eq!(d.page_state(p0).unwrap(), PageState::Valid);
        assert_eq!(d.page_state(p1).unwrap(), PageState::Valid);
        let read_done = d.read_pages(&[p0, p1], done).unwrap();
        // One 40us slot, then two 5us bursts.
        assert_eq!(read_done, done + Duration::from_micros(50));
        assert_eq!(d.stats().reads, 2);
        // Plane 0 frees at its own burst, plane 1 at the later one.
        assert_eq!(d.chip_busy_until(p0), done + Duration::from_micros(45));
        assert_eq!(d.chip_busy_until(p1), read_done);
    }

    #[test]
    fn misaligned_multi_plane_groups_are_rejected_without_state_change() {
        let mut d = dev2();
        let p0 = plane_ppn(&d, 0, 0);
        let p1 = plane_ppn(&d, 1, 0);
        // Different page offsets.
        assert_eq!(
            d.program_pages(
                &[(p0, OobData::mapped(1)), (p1 + 1, OobData::mapped(2))],
                SimTime::ZERO,
            ),
            Err(DeviceError::MultiPlaneMisaligned { ppn: p1 + 1 })
        );
        // Same plane twice.
        assert_eq!(
            d.program_pages(
                &[(p0, OobData::mapped(1)), (p0, OobData::mapped(2))],
                SimTime::ZERO,
            ),
            Err(DeviceError::MultiPlaneMisaligned { ppn: p0 })
        );
        // Descending planes.
        assert_eq!(
            d.program_pages(
                &[(p1, OobData::mapped(1)), (p0, OobData::mapped(2))],
                SimTime::ZERO,
            ),
            Err(DeviceError::MultiPlaneMisaligned { ppn: p0 })
        );
        assert_eq!(d.page_state(p0).unwrap(), PageState::Free);
        assert_eq!(d.page_state(p1).unwrap(), PageState::Free);
        assert_eq!(d.stats().programs, 0);
        assert_eq!(d.drain_time(), SimTime::ZERO);
    }

    #[test]
    fn plane_resolved_availability_is_not_the_chip_maximum() {
        let mut d = dev2();
        let p0 = plane_ppn(&d, 0, 0);
        let p1 = plane_ppn(&d, 1, 0);
        let done = d
            .program_page(p0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        // Plane 1 is idle even though plane 0 is busy until `done`.
        assert_eq!(d.chip_busy_until(p1), SimTime::ZERO);
        assert_eq!(d.chip_busy_until(p0), done);
        assert_eq!(d.busy_until_per_chip()[0], SimTime::ZERO, "earliest plane");
        assert_eq!(d.busy_until_per_plane()[0], done);
        assert_eq!(d.busy_until_per_plane()[1], SimTime::ZERO);
        assert_eq!(d.drain_time(), done, "drain waits for the busiest plane");
    }

    // Pins the planes=1 equivalence of the plane-resolved availability APIs:
    // with one plane per chip, chip_busy_until and busy_until_per_chip must
    // coincide with the whole-chip drain semantics the pre-plane model
    // reported, so scheduler lookahead built on them stays conservative.
    #[test]
    fn single_plane_availability_matches_whole_chip_semantics() {
        let mut d = dev();
        let done = d
            .program_page(0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(d.chip_busy_until(0), done);
        assert_eq!(d.busy_until_per_chip()[0], done);
        assert_eq!(d.busy_until_per_plane()[0], done);
        assert_eq!(
            d.busy_until_per_chip().len() as u64,
            d.geometry().total_chips()
        );
        assert_eq!(
            d.busy_until_per_plane(),
            d.busy_until_per_chip(),
            "one plane per chip: the two views are identical"
        );
    }

    #[test]
    fn staged_multi_plane_ops_charge_like_blocking_calls() {
        let mut staged_dev = dev2();
        let mut blocking_dev = dev2();
        let p0 = plane_ppn(&staged_dev, 0, 0);
        let p1 = plane_ppn(&staged_dev, 1, 0);
        let writes = [(p0, OobData::mapped(1)), (p1, OobData::mapped(2))];

        staged_dev.begin_staging();
        staged_dev.program_pages(&writes, SimTime::ZERO).unwrap();
        staged_dev.read_pages(&[p0, p1], SimTime::ZERO).unwrap();
        let ops = staged_dev.end_staging();
        assert_eq!(ops.len(), 2, "each fused group stages one operation");
        assert_eq!(ops[0].planes, 0b11);

        let mut t_charge = SimTime::ZERO;
        for op in &ops {
            t_charge = staged_dev.charge_op(op.op, op.chip, op.channel, op.planes, t_charge);
        }
        let mut t_block = blocking_dev.program_pages(&writes, SimTime::ZERO).unwrap();
        t_block = blocking_dev.read_pages(&[p0, p1], t_block).unwrap();
        assert_eq!(t_charge, t_block, "charge replay must equal blocking time");
        assert_eq!(staged_dev.drain_time(), blocking_dev.drain_time());
    }

    #[test]
    fn tracing_records_spans_without_changing_timing() {
        let mut plain = dev();
        let mut traced = dev();
        traced.set_tracing(true);
        assert!(traced.tracing());
        for d in [&mut plain, &mut traced] {
            let t = d
                .program_page(0, OobData::mapped(1), SimTime::ZERO)
                .unwrap();
            let t = d.read_page(0, t).unwrap();
            d.invalidate_page(0).unwrap();
            d.erase_block(0, t).unwrap();
        }
        assert_eq!(plain.drain_time(), traced.drain_time());
        assert_eq!(plain.stats(), traced.stats());
        let events = traced.take_trace();
        // program: 1 bus + 1 plane; read: 1 bus + 1 plane; erase: 1 plane.
        assert_eq!(events.len(), 5);
        let plane_ops: Vec<FlashOp> = events
            .iter()
            .filter_map(|e| match e.data {
                TraceData::PlaneOp { op, gc, .. } => {
                    assert!(!gc, "blocking calls are not charge replay");
                    Some(op)
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            plane_ops,
            vec![FlashOp::Program, FlashOp::Read, FlashOp::Erase]
        );
        assert!(events.iter().all(|e| e.end >= e.start && e.shard == 0));
        // Buffer was drained but tracing stays on.
        assert!(traced.tracing());
        assert!(traced.take_trace().is_empty());
    }

    #[test]
    fn charge_replay_marks_spans_as_gc() {
        let mut d = dev();
        d.begin_staging();
        d.program_page(0, OobData::mapped(1), SimTime::ZERO)
            .unwrap();
        let ops = d.end_staging();
        d.set_tracing(true);
        for op in &ops {
            d.charge_op(op.op, op.chip, op.channel, op.planes, SimTime::ZERO);
        }
        let events = d.take_trace();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| match e.data {
            TraceData::PlaneOp { gc, .. } | TraceData::BusXfer { gc, .. } => gc,
            _ => false,
        }));
    }

    #[test]
    fn erase_occupies_only_its_plane() {
        let mut d = dev2();
        let g = *d.geometry();
        // Block 0 of plane 1 on chip 0 has flat index blocks_per_plane.
        let flat = u64::from(g.blocks_per_plane);
        let done = d.erase_block(flat, SimTime::ZERO).unwrap();
        assert_eq!(done, SimTime::ZERO + Duration::from_millis(2));
        let p0 = plane_ppn(&d, 0, 0);
        assert_eq!(d.chip_busy_until(p0), SimTime::ZERO, "plane 0 untouched");
        let p1 = plane_ppn(&d, 1, 0);
        assert_eq!(d.chip_busy_until(p1), done);
    }
}
