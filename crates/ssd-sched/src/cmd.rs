//! Flash commands as their submitter sees them: identity, payload, priority
//! class and the completion record handed back.

use ssd_sim::{Duration, FlashOp, SimTime};

use crate::tenant::TenantId;

/// Scheduler-assigned command identifier, unique for a scheduler's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CmdId(pub u64);

impl std::fmt::Display for CmdId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cmd#{}", self.0)
    }
}

/// The arbitration class of a command.
///
/// Host traffic is latency-critical; garbage-collection traffic is bandwidth
/// work the FTL can defer. The scheduler lets GC yield to host commands on the
/// same chip, bounded by [`crate::SchedConfig::gc_starvation_bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// A command serving a host request.
    Host,
    /// A command issued by garbage collection or other background work.
    Gc,
}

/// The operation a command performs, with its target. Every command replays
/// timing only: page state is applied when the operation is staged, so the
/// scheduler never changes it and a command cannot be rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CmdKind {
    /// Charge the flash *time* of an operation whose state effects were
    /// already applied under [`ssd_sim::FlashDevice::begin_staging`]. This is
    /// how scheduled garbage collection replays a staged collection's page
    /// reads, page programs and erases through the scheduler's GC priority
    /// class: the command occupies the recorded chip (and channel) for the
    /// operation's latency but touches no page state.
    Charge {
        /// The NAND operation whose timing is charged.
        op: FlashOp,
        /// Flat index of the chip the operation occupies.
        chip: u64,
        /// Channel the operation's data crosses.
        channel: u32,
        /// Bitmask of the planes the operation occupies (one bit for
        /// single-plane operations, several for a fused multi-plane group).
        planes: u32,
    },
}

impl CmdKind {
    /// The charge command replaying `staged`'s timing.
    pub fn charge(staged: ssd_sim::StagedOp) -> Self {
        CmdKind::Charge {
            op: staged.op,
            chip: staged.chip,
            channel: staged.channel,
            planes: staged.planes,
        }
    }
}

/// The completion record for one command: what ran, where, and the three
/// timestamps the tail-latency analysis needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The command's identity.
    pub id: CmdId,
    /// Operation and target, echoed back.
    pub kind: CmdKind,
    /// Arbitration class, echoed back.
    pub priority: Priority,
    /// The tenant the command served, echoed back.
    pub tenant: TenantId,
    /// Flat index of the chip that executed the command.
    pub chip: u64,
    /// When the command entered the scheduler.
    pub submitted: SimTime,
    /// When the scheduler issued the command to the device.
    pub issued: SimTime,
    /// When the device completed the command.
    pub completed: SimTime,
}

impl Completion {
    /// Time spent queued in the scheduler before reaching the device.
    pub fn queueing(&self) -> Duration {
        self.issued - self.submitted
    }

    /// Time spent in the device (NAND operation plus channel transfer plus
    /// chip-level serialisation).
    pub fn service(&self) -> Duration {
        self.completed - self.issued
    }

    /// End-to-end latency: submission to completion.
    pub fn total(&self) -> Duration {
        self.completed - self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_latency_decomposes() {
        let c = Completion {
            id: CmdId(3),
            kind: CmdKind::Charge {
                op: FlashOp::Read,
                chip: 1,
                channel: 0,
                planes: 1,
            },
            priority: Priority::Host,
            tenant: TenantId(0),
            chip: 1,
            submitted: SimTime::from_micros(10),
            issued: SimTime::from_micros(25),
            completed: SimTime::from_micros(70),
        };
        assert_eq!(c.queueing(), Duration::from_micros(15));
        assert_eq!(c.service(), Duration::from_micros(45));
        assert_eq!(c.total(), Duration::from_micros(60));
        assert_eq!(c.id.to_string(), "cmd#3");
    }
}
