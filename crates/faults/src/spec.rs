//! Individual fault events.

use std::fmt;

/// What a single fault does to the simulated hardware.
///
/// Every variant names the component it hits; cycle stamps live on the
/// enclosing [`FaultSpec`](crate::FaultSpec). The `Display` form is the
/// spec-grammar atom accepted by [`FaultPlan::parse`](crate::FaultPlan::parse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Set the number of healthy lanes on socket `socket`'s link (both
    /// directions pooled). Values below the nominal lane count degrade the
    /// link; restoring the nominal count heals it.
    LinkLanes {
        /// Socket whose link is affected.
        socket: u8,
        /// Healthy lanes remaining across both directions.
        healthy_lanes: u8,
    },
    /// Hold socket `socket`'s link in a retrain window: both directions
    /// are busy (transfer nothing) for `window_cycles`.
    LinkRetrain {
        /// Socket whose link is affected.
        socket: u8,
        /// Length of the retrain window in cycles.
        window_cycles: u32,
    },
    /// Stall socket `socket`'s DRAM interface for `window_cycles` and
    /// apply ECC-retry latency to requests landing inside the window.
    DramStall {
        /// Socket whose DRAM is affected.
        socket: u8,
        /// Length of the stall/ECC window in cycles.
        window_cycles: u32,
    },
    /// Disable the inclusive global SM index range `first_sm..=last_sm`.
    /// Resident CTAs are requeued and re-dispatched on surviving SMs.
    SmDisable {
        /// First global SM index disabled.
        first_sm: u16,
        /// Last global SM index disabled (inclusive).
        last_sm: u16,
    },
}

impl FaultKind {
    /// Human-readable description for timelines and trace instants.
    pub fn describe(&self) -> String {
        match self {
            FaultKind::LinkLanes {
                socket,
                healthy_lanes,
            } => format!("link s{socket}: {healthy_lanes} healthy lanes"),
            FaultKind::LinkRetrain {
                socket,
                window_cycles,
            } => format!("link s{socket}: retrain {window_cycles} cycles"),
            FaultKind::DramStall {
                socket,
                window_cycles,
            } => format!("dram s{socket}: ECC stall {window_cycles} cycles"),
            FaultKind::SmDisable { first_sm, last_sm } => {
                format!("sm {first_sm}-{last_sm}: disabled")
            }
        }
    }
}

/// One cycle-stamped fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Kernel-relative cycle at which the fault strikes. Plans are applied
    /// per run, so cycle 0 is the start of the run.
    pub cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Creates a fault at `cycle`.
    pub fn new(cycle: u64, kind: FaultKind) -> Self {
        FaultSpec { cycle, kind }
    }
}

impl fmt::Display for FaultSpec {
    /// The spec-grammar atom: `lanes:s1@5000=8`, `retrain:s2@100+400`,
    /// `dram:s0@2000+300`, `sm:0-63@1000`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::LinkLanes {
                socket,
                healthy_lanes,
            } => write!(f, "lanes:s{socket}@{}={healthy_lanes}", self.cycle),
            FaultKind::LinkRetrain {
                socket,
                window_cycles,
            } => write!(f, "retrain:s{socket}@{}+{window_cycles}", self.cycle),
            FaultKind::DramStall {
                socket,
                window_cycles,
            } => write!(f, "dram:s{socket}@{}+{window_cycles}", self.cycle),
            FaultKind::SmDisable { first_sm, last_sm } => {
                if first_sm == last_sm {
                    write!(f, "sm:{first_sm}@{}", self.cycle)
                } else {
                    write!(f, "sm:{first_sm}-{last_sm}@{}", self.cycle)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_grammar() {
        let s = FaultSpec::new(
            5000,
            FaultKind::LinkLanes {
                socket: 1,
                healthy_lanes: 8,
            },
        );
        assert_eq!(s.to_string(), "lanes:s1@5000=8");
        let r = FaultSpec::new(
            100,
            FaultKind::LinkRetrain {
                socket: 2,
                window_cycles: 400,
            },
        );
        assert_eq!(r.to_string(), "retrain:s2@100+400");
        let d = FaultSpec::new(
            2000,
            FaultKind::DramStall {
                socket: 0,
                window_cycles: 300,
            },
        );
        assert_eq!(d.to_string(), "dram:s0@2000+300");
        let m = FaultSpec::new(
            1000,
            FaultKind::SmDisable {
                first_sm: 0,
                last_sm: 63,
            },
        );
        assert_eq!(m.to_string(), "sm:0-63@1000");
        let one = FaultSpec::new(
            9,
            FaultKind::SmDisable {
                first_sm: 7,
                last_sm: 7,
            },
        );
        assert_eq!(one.to_string(), "sm:7@9");
    }

    #[test]
    fn describe_names_the_component() {
        let k = FaultKind::DramStall {
            socket: 3,
            window_cycles: 10,
        };
        assert!(k.describe().contains("dram s3"));
    }
}
