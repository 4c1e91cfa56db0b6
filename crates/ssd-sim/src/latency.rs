//! Flash operation latency model.

use crate::clock::Duration;

/// Latency of each NAND operation plus the per-page channel transfer cost.
///
/// [`LatencyConfig::femu_default`] is the single source of the defaults; the
/// `Default` impl delegates to it. The values mirror FEMU's defaults used by
/// the paper — 40 µs NAND read, 200 µs NAND program, 2 ms block erase — and
/// the device applies FEMU's LUN rules to them:
///
/// * a **read** holds its plane (LUN) busy through the channel burst that
///   moves the page out: the page register is occupied until the data has
///   left the die,
/// * a **program**'s data burst may cross the channel while the plane is
///   still busy programming the previous page: FEMU charges the transfer at
///   channel availability, not LUN availability,
/// * a **multi-plane** read or program executes the NAND phase of every
///   participating plane in one slot that costs the single-plane latency.
///
/// ```
/// use ssd_sim::LatencyConfig;
/// let lat = LatencyConfig::femu_default();
/// assert_eq!(lat, LatencyConfig::default());
/// assert_eq!(lat.read.as_micros_f64(), 40.0);
/// assert_eq!(lat.program.as_micros_f64(), 200.0);
/// assert_eq!(lat.erase.as_millis_f64(), 2.0);
/// assert_eq!(lat.channel_transfer.as_micros_f64(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyConfig {
    /// Time to read one page (or one multi-plane group) out of the NAND
    /// array.
    pub read: Duration,
    /// Time to program one page (or one multi-plane group) into the NAND
    /// array.
    pub program: Duration,
    /// Time to erase one block.
    pub erase: Duration,
    /// Time to move one page across the channel bus.
    pub channel_transfer: Duration,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::femu_default()
    }
}

impl LatencyConfig {
    /// The FEMU default NVMe SSD latencies used throughout the paper. This is
    /// the one place the default numbers live; `LatencyConfig::default()`
    /// delegates here.
    pub fn femu_default() -> Self {
        LatencyConfig {
            read: Duration::from_micros(40),
            program: Duration::from_micros(200),
            erase: Duration::from_millis(2),
            channel_transfer: Duration::from_micros(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let l = LatencyConfig::femu_default();
        assert_eq!(l.read, Duration::from_micros(40));
        assert_eq!(l.program, Duration::from_micros(200));
        assert_eq!(l.erase, Duration::from_millis(2));
    }

    #[test]
    fn default_is_femu_default() {
        assert_eq!(LatencyConfig::default(), LatencyConfig::femu_default());
    }
}
