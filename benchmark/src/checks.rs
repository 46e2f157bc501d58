//! Output checks. An operation (one simulation repetition, one sweep
//! simulation, one submission) fails if it errors or trips any check; each
//! failed check is printed by name and workload, and the failed operations
//! are counted against the attempted ones.

use numa_gpu_bench::codec::{decode_report, encode_report};
use numa_gpu_core::SimReport;

/// Attempted and failed operations of one workload.
#[derive(Debug)]
pub struct Checks {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn new(workload: &'static str) -> Checks {
        Checks {
            workload,
            attempted: 0,
            failed: 0,
        }
    }

    /// Starts the checks of one operation; it is counted when dropped.
    pub fn operation(&mut self) -> Operation<'_> {
        Operation {
            checks: self,
            failed: false,
        }
    }
}

/// The checks of one operation.
pub struct Operation<'a> {
    checks: &'a mut Checks,
    failed: bool,
}

impl Operation<'_> {
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("CHECK FAILED {name} on {}", self.checks.workload);
            self.failed = true;
        }
    }

    /// The checks every simulation report must pass on its own.
    pub fn report_invariants(&mut self, report: &SimReport) {
        // The first kernel starts after the launch-time invalidate
        // broadcast, so the kernels tile the run from there.
        let first_start = report.kernel_start_cycles.first().copied().unwrap_or(0);
        self.check(
            "kernel_cycles_sum_to_total",
            first_start + report.kernel_cycles.iter().sum::<u64>() == report.total_cycles,
        );
        let egress: u64 = report.sockets.iter().map(|s| s.egress_bytes).sum();
        let ingress: u64 = report.sockets.iter().map(|s| s.ingress_bytes).sum();
        self.check("link_egress_equals_ingress", egress == ingress);
        self.check("codec_round_trip", codec_round_trips(report));
    }
}

impl Drop for Operation<'_> {
    fn drop(&mut self) {
        self.checks.attempted += 1;
        self.checks.failed += u64::from(self.failed);
    }
}

/// `decode_report(encode_report(r)) == r`.
pub fn codec_round_trips(report: &SimReport) -> bool {
    encode_report(report)
        .ok()
        .and_then(|doc| decode_report(&doc).ok())
        .is_some_and(|back| back == *report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_operations_are_counted_once_each() {
        let mut checks = Checks::new("test");
        checks.operation().check("fine", true);
        {
            let mut op = checks.operation();
            op.check("first", false);
            op.check("second", false);
        }
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }

    #[test]
    fn default_report_passes_its_invariants() {
        let mut checks = Checks::new("test");
        checks.operation().report_invariants(&SimReport::default());
        assert_eq!(checks.failed, 0);
    }
}
