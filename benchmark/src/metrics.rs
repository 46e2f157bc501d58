//! The benchmark's metric names and units — the single list that
//! `BENCHMARK.json`, the README glossary and every output agree with —
//! and the result line a workload process prints.

use crate::checks::Checks;
use crate::harness::MIN_PASSES;
use crate::stats;
use numa_gpu_testkit::json::Json;

/// The workloads, in the order `run` and `trace` execute them.
pub const WORKLOADS: [&str; 7] = [
    "remote_irregular",
    "local_stream",
    "hit_tiled",
    "sweep_cold",
    "sweep_warm",
    "serve_cold",
    "serve_warm",
];

/// A metric's direction and the share of the baseline median by which it
/// may get worse before `compare` calls it a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
    /// Samples a run must hold before `compare` gives a verdict on it:
    /// 3 for a timing, computed from its samples; 1 for the memory
    /// high-water mark, which is one reading of a maximum.
    pub min_samples: usize,
}

/// End-to-end metrics, measured with tracing off on every workload. One
/// throughput per workload: the time one caller waits is its reciprocal on
/// five of the seven, so it is not gated a second time (the service
/// workloads' median latencies are per-layer metrics).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        min_samples: MIN_PASSES,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
        min_samples: 1,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        min_samples: MIN_PASSES,
    },
];

/// Per-layer metrics (`<crate>.<metric>`), from the traced run. A metric a
/// workload does not measure is reported as 0; the README says which
/// workload measures what.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("engine.events_popped", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.queue_rebuilds", "count"),
    ("engine.queue_overflow_pushes", "count"),
    ("engine.queue_promotions", "count"),
    ("engine.queue_rebases", "count"),
    ("engine.queue_peak_len", "count"),
    ("engine.event_queue_near_ns_per_op", "ns"),
    ("engine.queue_rebuild_ns_at_peak", "ns"),
    ("engine.cross_msgs_merged", "count"),
    ("engine.window_barriers", "count"),
    ("engine.merge_ns_per_msg", "ns"),
    ("engine.service_queue_ns_per_req", "ns"),
    ("sm.warp_ops_issued", "count"),
    ("sm.ctas_completed", "count"),
    ("sm.issue_ns_per_op", "ns"),
    ("sm.mshr_stall_parks", "count"),
    ("cache.l1_accesses", "count"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l2_accesses", "count"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.hit_ns_per_access", "ns"),
    ("cache.l1_fills", "count"),
    ("cache.l2_fills", "count"),
    ("cache.l2_evictions", "count"),
    ("cache.miss_fill_ns_per_access", "ns"),
    ("cache.mshr_ns_per_op", "ns"),
    ("cache.partitioned_ns_per_access", "ns"),
    ("mem.page_lookups", "count"),
    ("mem.pages_placed", "count"),
    ("mem.page_table_ns_per_lookup", "ns"),
    ("mem.dram_reads", "count"),
    ("mem.dram_writes", "count"),
    ("mem.dram_ns_per_req", "ns"),
    ("interconnect.noc_requests", "count"),
    ("interconnect.link_bytes", "bytes"),
    ("interconnect.lane_turns", "count"),
    ("interconnect.link_send_ns", "ns"),
    ("interconnect.route_ns_per_msg", "ns"),
    ("workloads.tracegen_ns_per_op", "ns"),
    ("runtime.launch_ns_per_cta", "ns"),
    ("workloads.catalog_build_ms", "ms"),
    ("core.construct_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.total_cycles", "cycles"),
    ("core.remote_read_fraction", "ratio"),
    ("core.report_bytes", "bytes"),
    ("core.attributed_share", "ratio"),
    ("core.residual_share", "ratio"),
    ("core.rebuild_share_at_most", "ratio"),
    ("obs.profile_overhead_ratio", "ratio"),
    ("obs.full_overhead_ratio", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("exec.pool_us_per_job", "us"),
    ("bench.runner_overhead_share", "ratio"),
    ("exec.sim_threads_2_ratio", "ratio"),
    ("bench.store_key_us", "us"),
    ("bench.codec_encode_us", "us"),
    ("bench.store_save_us", "us"),
    ("bench.codec_decode_us", "us"),
    ("bench.store_load_us", "us"),
    ("serve.daemon_start_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.journal_us_per_record", "us"),
    ("exec.dispatcher_us_per_job", "us"),
    ("serve.ack_ms_p50", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p95_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.warm_p99_ms", "ms"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.retries", "count"),
    ("serve.failed", "count"),
];

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The median of `samples` (`work_per_s`: the largest); 0 for a
    /// per-layer metric this workload does not measure.
    pub value: f64,
    /// What the value was computed from, in the metric's own unit: one
    /// entry per timed pass, or a single count or reading.
    pub samples: Vec<f64>,
}

/// What one workload process reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Whether the record keeps every sample (the end-to-end run does, so
    /// that two records can be compared sample by sample).
    keep_samples: bool,
}

impl Outcome {
    /// An outcome holding every end-to-end metric, unset.
    pub fn end_to_end() -> Outcome {
        Outcome::with(END_TO_END.iter().map(|m| (m.name, m.unit)), true)
    }

    /// An outcome holding every per-layer metric, unset.
    pub fn per_layer() -> Outcome {
        Outcome::with(PER_LAYER.iter().copied(), false)
    }

    fn with(defs: impl Iterator<Item = (&'static str, &'static str)>, keep: bool) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: defs
                .map(|(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: Vec::new(),
                })
                .collect(),
            keep_samples: keep,
        }
    }

    /// Sets a single reading or a count.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_median(name, &[value]);
    }

    fn slot(&mut self, name: &str) -> &mut Metric {
        self.metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not a metric of this mode"))
    }

    /// Sets a metric to the median of `samples`.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        let m = self.slot(name);
        m.value = stats::median(samples);
        m.samples = samples.to_vec();
    }

    /// Fills the end-to-end timings from `work` units of work per pass, the
    /// wall seconds of every timed pass and the seconds of every set-up.
    ///
    /// `work_per_s` is that of the fastest pass. Interference from the
    /// shared box only ever adds time to a pass, so the fastest pass is the
    /// one closest to the program's own cost, and it reads at least as
    /// steadily from run to run as the median pass on every workload
    /// (README, "How steady the numbers are"). `setup_s` is the median of
    /// the set-up samples, which are taken back to back, each a mean over a
    /// few milliseconds of set-ups. The record keeps every sample.
    pub fn timings(&mut self, work: u64, walls: &[f64], setups: &[f64]) {
        if !walls.is_empty() {
            let rates: Vec<f64> = walls.iter().map(|w| work as f64 / w).collect();
            self.set_median("work_per_s", &rates);
            self.slot("work_per_s").value = rates.iter().copied().fold(0.0, f64::max);
        }
        if !setups.is_empty() {
            self.set_median("setup_s", setups);
        }
    }

    /// Takes over the attempted and failed operations of `checks`.
    pub fn counted(mut self, checks: &Checks) -> Outcome {
        self.attempted = checks.attempted;
        self.failed = checks.failed;
        self
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value with all its digits.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj([
                                    ("value", Json::Float(m.value)),
                                    ("unit", Json::Str(m.unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// The richer record kept in `benchmark/out/` and in baselines.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "failed_share",
                Json::Float(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let mut fields = vec![
                                ("value", Json::Float(m.value)),
                                ("unit", Json::Str(m.unit.to_string())),
                                ("n", Json::UInt(m.samples.len() as u64)),
                                ("spread", Json::Float(stats::spread(&m.samples))),
                            ];
                            if self.keep_samples {
                                let all = m.samples.iter().map(|&v| Json::Float(v)).collect();
                                fields.push(("samples", Json::Arr(all)));
                            }
                            (m.name.to_string(), Json::obj(fields))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// One line per metric, for people.
    pub fn print_table(&self, workload: &str, tag: &str) {
        for m in &self.metrics {
            if m.samples.is_empty() {
                continue;
            }
            let median = match m.samples.len() {
                1 => String::new(),
                _ => format!(" median={:.4}", stats::median(&m.samples)),
            };
            println!(
                "{tag}{workload:<17} {:<38} {:>16.4} {:<6} n={}{median}",
                m.name,
                m.value,
                m.unit,
                m.samples.len()
            );
        }
        println!(
            "{tag}{workload:<17} {:<38} {:>16.4} {:<6} ({} of {} operations failed)",
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.failed,
            self.attempted
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS);
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate name");
    }

    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names("per_layer"), layers);
        for (m, decl) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").unwrap().as_array().unwrap())
        {
            assert_eq!(decl.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(decl.get("bound").unwrap().as_f64(), Some(m.bound));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(decl.get("better").unwrap().as_str(), Some(better));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::end_to_end();
        o.attempted = 3;
        o.set_median("setup_s", &[1.0, 3.0, 2.0]);
        let doc = Json::parse(&o.result_line()).unwrap();
        let Json::Obj(fields) = &doc else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
