//! # ssd-sim
//!
//! A discrete-event NAND flash SSD device simulator.
//!
//! This crate is the substrate that replaces FEMU (the QEMU-based SSD emulator
//! used by the LearnedFTL paper). It models exactly the properties the paper's
//! evaluation depends on:
//!
//! * the **geometry tree** of an SSD (channels → chips → planes → blocks →
//!   pages) and the physical page number (PPN) codec over it
//!   ([`Geometry`], [`PhysAddr`]),
//! * **per-chip and per-channel timelines** so that concurrent flash
//!   operations queue on parallel units exactly like the paper's 8×8-chip
//!   device ([`FlashDevice`]),
//! * the **latency model** (40 µs read / 200 µs program / 2 ms erase by
//!   default, [`LatencyConfig`]),
//! * the **page/block state machine** (free → valid → invalid → erased) and
//!   per-page **OOB metadata** used by the FTLs ([`OobData`]),
//! * **operation and energy accounting** ([`DeviceStats`]).
//!
//! The device is purely a mechanism: it does not know anything about logical
//! addresses, mapping tables or garbage collection. Flash translation layers
//! built on top (see the `ftl-base`, `baselines` and `learnedftl` crates) drive
//! it through [`FlashDevice::read_page`], [`FlashDevice::program_page`] and
//! [`FlashDevice::erase_block`].
//!
//! ## Example
//!
//! ```
//! use ssd_sim::{FlashDevice, SsdConfig, SimTime, OobData};
//!
//! let mut dev = FlashDevice::new(SsdConfig::tiny());
//! let ppn = 0;
//! let t0 = SimTime::ZERO;
//! let done = dev.program_page(ppn, OobData::mapped(42), t0).unwrap();
//! let done = dev.read_page(ppn, done).unwrap();
//! assert!(done > t0);
//! assert_eq!(dev.oob(ppn).unwrap().lpn, Some(42));
//! ```

mod address;
mod block;
mod chip;
mod clock;
mod config;
mod device;
mod error;
mod geometry;
mod latency;
mod oob;
mod stats;
pub mod trace;
pub mod wallclock;

pub use address::{ppn_to_vppn, vppn_to_ppn, AddrCodec, PhysAddr, Ppn, Vppn};
pub use block::{Block, BlockState};
pub use chip::Chip;
pub use clock::{Duration, SimTime};
pub use config::SsdConfig;
pub use device::{FlashDevice, StagedOp};
pub use error::{DeviceError, DeviceResult};
pub use geometry::Geometry;
pub use latency::LatencyConfig;
pub use oob::OobData;
pub use stats::{DeviceStats, FlashOp};
pub use trace::{TraceBuffer, TraceData, TraceEvent, TraceReadClass, TraceSink};

/// The page state of a single physical flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageState {
    /// The page has been erased and never programmed since.
    #[default]
    Free,
    /// The page holds live data referenced by the mapping table.
    Valid,
    /// The page was programmed but its data has since been superseded.
    Invalid,
}

impl std::fmt::Display for PageState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PageState::Free => "free",
            PageState::Valid => "valid",
            PageState::Invalid => "invalid",
        };
        f.write_str(s)
    }
}
