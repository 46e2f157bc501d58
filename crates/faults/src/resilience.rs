//! What actually happened under fault: applied-fault timeline plus
//! resilience metrics folded into `SimReport`.

use numa_gpu_testkit::Json;

/// One fault the simulator actually applied, in application order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedFault {
    /// Cycle at which the fault was applied.
    pub cycle: u64,
    /// Human-readable description (see `FaultKind::describe`).
    pub description: String,
}

/// Per-socket link resilience over one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkResilience {
    /// Socket whose link this row describes.
    pub socket: u8,
    /// Lane-cycles the link would have had with every lane healthy.
    pub nominal_lane_cycles: u64,
    /// Lane-cycles actually available (integral of healthy lanes).
    pub available_lane_cycles: u64,
    /// Cycles from the start of the link's open degradation to the lane
    /// balancer's first rebalance after it. A degradation starts at the
    /// first lane loss since the last full restore, so a restore followed
    /// by a new loss restarts the clock; only the first response per link
    /// is recorded (`None`: never degraded, or the balancer never reacted
    /// before the run ended).
    pub recovery_cycles: Option<u64>,
}

impl LinkResilience {
    /// Achieved-vs-nominal link bandwidth capacity, in `0.0..=1.0`.
    pub fn availability(&self) -> f64 {
        if self.nominal_lane_cycles == 0 {
            1.0
        } else {
            self.available_lane_cycles as f64 / self.nominal_lane_cycles as f64
        }
    }
}

/// Fault timeline plus resilience metrics for one run.
///
/// Only present on a report when a non-empty [`FaultPlan`](crate::FaultPlan)
/// was installed, so fault-free reports stay byte-identical to pre-fault
/// builds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceReport {
    /// Faults applied, in application order.
    pub applied: Vec<AppliedFault>,
    /// Per-socket link availability, in socket order.
    pub links: Vec<LinkResilience>,
    /// SMs disabled by the end of the run.
    pub disabled_sms: u32,
    /// CTAs requeued off disabled SMs and re-dispatched elsewhere.
    pub requeued_ctas: u32,
}

impl ResilienceReport {
    /// Byte-stable JSON (insertion-ordered; used inside
    /// `SimReport::to_json`).
    pub fn to_json(&self) -> Json {
        let applied = self
            .applied
            .iter()
            .map(|f| {
                Json::obj([
                    ("cycle", Json::UInt(f.cycle)),
                    ("fault", Json::Str(f.description.clone())),
                ])
            })
            .collect();
        let links = self
            .links
            .iter()
            .map(|l| {
                Json::obj([
                    ("socket", Json::UInt(l.socket as u64)),
                    ("nominal_lane_cycles", Json::UInt(l.nominal_lane_cycles)),
                    ("available_lane_cycles", Json::UInt(l.available_lane_cycles)),
                    ("availability", Json::Float(l.availability())),
                    (
                        "recovery_cycles",
                        match l.recovery_cycles {
                            Some(c) => Json::UInt(c),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("applied", Json::Arr(applied)),
            ("links", Json::Arr(links)),
            ("disabled_sms", Json::UInt(self.disabled_sms as u64)),
            ("requeued_ctas", Json::UInt(self.requeued_ctas as u64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_is_fractional_and_total_on_empty() {
        let l = LinkResilience {
            socket: 0,
            nominal_lane_cycles: 1000,
            available_lane_cycles: 750,
            recovery_cycles: Some(40),
        };
        assert!((l.availability() - 0.75).abs() < 1e-12);
        let idle = LinkResilience {
            socket: 1,
            nominal_lane_cycles: 0,
            available_lane_cycles: 0,
            recovery_cycles: None,
        };
        assert!((idle.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_insertion_ordered_and_stable() {
        let r = ResilienceReport {
            applied: vec![AppliedFault {
                cycle: 5000,
                description: "link s1: 8 healthy lanes".into(),
            }],
            links: vec![LinkResilience {
                socket: 1,
                nominal_lane_cycles: 160_000,
                available_lane_cycles: 120_000,
                recovery_cycles: None,
            }],
            disabled_sms: 0,
            requeued_ctas: 0,
        };
        let a = r.to_json().to_string();
        let b = r.to_json().to_string();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"applied\":"));
        assert!(a.contains("\"recovery_cycles\":null"));
        assert!(a.contains("\"availability\":0.75"));
    }
}
