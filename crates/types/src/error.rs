//! Error types.

use std::error::Error;
use std::fmt;

/// Returned when a [`SystemConfig`](crate::SystemConfig) is internally
/// inconsistent.
///
/// # Examples
///
/// ```
/// use numa_gpu_types::SystemConfig;
/// let mut cfg = SystemConfig::pascal_single();
/// cfg.num_sockets = 0;
/// let err = cfg.validate().unwrap_err();
/// assert!(err.to_string().contains("num_sockets"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }

    /// The human-readable description of what is invalid.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// A simulation run failed before producing a report.
///
/// Returned by `NumaGpuSystem::run` and the `run_workload*` entry points.
/// Every variant is diagnosable from its fields alone: the cycle at which
/// the run stopped plus the progress counters needed to tell a scheduler
/// deadlock from a fault-induced stall or an exhausted cycle budget.
/// A run is a pure function of its inputs, so a re-run fails the same way.
///
/// # Examples
///
/// ```
/// use numa_gpu_types::SimError;
///
/// let e = SimError::Deadlock {
///     cycle: 1_234,
///     outstanding_ctas: 7,
///     inflight_mem: 0,
/// };
/// assert!(e.to_string().contains("deadlock"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The [`SystemConfig`](crate::SystemConfig) failed validation.
    Config(ConfigError),
    /// The event loop ran dry (or stopped making forward progress) while
    /// CTAs were still outstanding: a scheduler deadlock.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// CTAs that had not retired when progress stopped.
        outstanding_ctas: u32,
        /// Memory operations still in flight (0 for a true deadlock).
        inflight_mem: u64,
    },
    /// The watchdog cycle budget (`--max-cycles`) was exhausted.
    CycleLimit {
        /// The configured budget, in cycles.
        limit_cycles: u64,
        /// Cycle at which the budget check tripped.
        at_cycle: u64,
    },
    /// A fault plan could not be parsed or referenced hardware that does
    /// not exist in the configured system (e.g. a socket out of range).
    InvalidFaultPlan {
        /// What was wrong with the plan.
        message: String,
    },
    /// A fabric transfer was requested between endpoints the topology
    /// cannot route (socket out of range, or a self-transfer that must
    /// never reach the fabric).
    InvalidRoute {
        /// What was wrong with the requested route.
        message: String,
    },
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::Deadlock {
                cycle,
                outstanding_ctas,
                inflight_mem,
            } => write!(
                f,
                "scheduler deadlock at cycle {cycle}: {outstanding_ctas} CTA(s) \
                 outstanding, {inflight_mem} memory op(s) in flight, no forward progress"
            ),
            SimError::CycleLimit {
                limit_cycles,
                at_cycle,
            } => write!(
                f,
                "cycle budget exhausted: limit {limit_cycles} cycles, reached cycle {at_cycle}"
            ),
            SimError::InvalidFaultPlan { message } => {
                write!(f, "invalid fault plan: {message}")
            }
            SimError::InvalidRoute { message } => {
                write!(f, "invalid route: {message}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_describes() {
        let e = ConfigError::new("ways must be nonzero");
        assert_eq!(e.to_string(), "invalid configuration: ways must be nonzero");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<ConfigError>();
        assert_bounds::<SimError>();
    }

    #[test]
    fn sim_error_display_is_diagnosable() {
        let d = SimError::Deadlock {
            cycle: 10,
            outstanding_ctas: 3,
            inflight_mem: 0,
        };
        let s = d.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("cycle 10"));
        assert!(s.contains("3 CTA"));

        let b = SimError::CycleLimit {
            limit_cycles: 500,
            at_cycle: 501,
        };
        assert!(b.to_string().contains("limit 500"));

        let p = SimError::InvalidFaultPlan {
            message: "socket 9 out of range".into(),
        };
        assert!(p.to_string().contains("socket 9"));

        let r = SimError::InvalidRoute {
            message: "source socket 7 out of range (4 sockets)".into(),
        };
        let s = r.to_string();
        assert!(s.contains("invalid route"));
        assert!(s.contains("socket 7"));
    }

    #[test]
    fn config_error_converts_and_sources() {
        let c = ConfigError::new("bad");
        let s: SimError = c.clone().into();
        assert_eq!(s, SimError::Config(c));
        assert!(s.source().is_some());
        let d = SimError::Deadlock {
            cycle: 0,
            outstanding_ctas: 1,
            inflight_mem: 0,
        };
        assert!(d.source().is_none());
    }
}
