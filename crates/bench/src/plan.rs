//! The declarative sim-job plane: experiments *declare* the simulations
//! they need as a [`SimPlan`], and the plan *executes* them — possibly in
//! parallel — before any table is assembled.
//!
//! Splitting declaration from execution buys three things:
//!
//! 1. **Dedup by structured key.** Jobs are identified by [`JobKey`]
//!    (configuration label, workload name, timeline flag), so figures
//!    sharing baselines enqueue them once and string-concatenation key
//!    collisions (`"x+timeline"` vs a config literally labelled
//!    `x+timeline`) are impossible.
//! 2. **Determinism under parallelism.** Each job is an independent pure
//!    simulation; results are memoized in submission order regardless of
//!    completion order, and the serial table-assembly phase reads only the
//!    memo. Output is byte-identical at every `--jobs` count.
//! 3. **Throughput.** Plans fan out over [`ThreadPool`]; a sweep of
//!    hundreds of
//!    independent `(config, workload)` runs scales with cores.

use crate::store::KeyedJob;
use numa_gpu_core::{NumaGpuSystem, SimReport};
use numa_gpu_exec::{Job, Reporter, ThreadPool};
use numa_gpu_runtime::Workload;
use numa_gpu_types::{SimError, SystemConfig};
use numa_gpu_workloads::Scale;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Structured identity of one simulation: which configuration, which
/// workload, and whether link-timeline recording is on.
///
/// Replaces the old `(String, String)` cache key whose `"{label}+timeline"`
/// convention collided with configurations literally labelled that way.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey {
    /// Configuration label (e.g. `"loc4"`); must uniquely identify the
    /// [`SystemConfig`] within a sweep.
    pub label: String,
    /// Workload name (from [`Workload`] metadata).
    pub workload: String,
    /// Whether the run records per-sample link timelines (Figure 5).
    pub timeline: bool,
}

impl JobKey {
    /// Creates a key.
    pub fn new(label: impl Into<String>, workload: impl Into<String>, timeline: bool) -> Self {
        JobKey {
            label: label.into(),
            workload: workload.into(),
            timeline,
        }
    }

    /// Canonical byte encoding for cross-process identity: a sorted-field
    /// JSON document. Every string field goes through the JSON writer's
    /// escaping, so no label or workload can forge another key by
    /// concatenation, and the byte form is pinned by a regression test in
    /// [`crate::store`] — the on-disk store hashes exactly these bytes.
    pub fn canonical_json(&self) -> String {
        use numa_gpu_testkit::json::Json;
        Json::obj([
            ("label", Json::Str(self.label.clone())),
            ("timeline", Json::Bool(self.timeline)),
            ("workload", Json::Str(self.workload.clone())),
        ])
        .to_string()
    }

    /// Human-readable form used in progress lines and panic labels.
    pub fn display(&self) -> String {
        let tl = if self.timeline { " (timeline)" } else { "" };
        format!("[{}]{} {}", self.label, tl, self.workload)
    }
}

/// One planned simulation: its identity plus everything needed to run it.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Structured identity (also the memoization key).
    pub key: JobKey,
    /// System configuration to simulate under.
    pub cfg: SystemConfig,
    /// Workload to run (cheap to clone: kernels are shared `Arc`s).
    pub workload: Workload,
}

impl SimJob {
    /// Runs the simulation this job describes — the one place a job
    /// becomes a [`NumaGpuSystem`].
    ///
    /// # Errors
    ///
    /// The configuration fails validation or the simulation errors out.
    /// Callers decide what that means:
    /// [`Runner::execute`](crate::Runner::execute) panics (experiment plans
    /// are statically valid), `simulate` exits 3, the daemon fails the job
    /// fast (a re-run would fail the same way).
    pub fn try_run(&self) -> Result<SimReport, SimError> {
        let mut sys = NumaGpuSystem::new(self.cfg.clone())?;
        if self.key.timeline {
            sys.enable_link_timeline();
        }
        sys.run(&self.workload)
    }
}

/// An ordered, deduplicated batch of simulations to execute.
///
/// Build one per experiment (or share across experiments), then hand it to
/// [`Runner::execute`](crate::Runner::execute).
#[derive(Debug, Clone, Default)]
pub struct SimPlan {
    jobs: Vec<SimJob>,
    seen: BTreeSet<JobKey>,
}

impl SimPlan {
    /// An empty plan.
    pub fn new() -> Self {
        SimPlan::default()
    }

    /// A plan running every `(label, config)` variant against every
    /// workload — the shape of most paper figures.
    pub fn cross(variants: &[(String, SystemConfig)], workloads: &[Workload]) -> Self {
        let mut plan = SimPlan::new();
        for wl in workloads {
            for (label, cfg) in variants {
                plan.job(label, cfg.clone(), wl);
            }
        }
        plan
    }

    /// Adds a simulation of `workload` under `cfg`. Duplicate keys (same
    /// label, workload and timeline flag) are dropped silently — that is
    /// the cross-figure dedup.
    pub fn job(&mut self, label: &str, cfg: SystemConfig, workload: &Workload) -> &mut Self {
        self.push(
            JobKey::new(label, workload.meta.name.clone(), false),
            cfg,
            workload,
        )
    }

    /// Adds a timeline-recording simulation (Figure 5). Cached under a
    /// distinct key from the plain run of the same label and workload.
    pub fn timeline_job(
        &mut self,
        label: &str,
        cfg: SystemConfig,
        workload: &Workload,
    ) -> &mut Self {
        self.push(
            JobKey::new(label, workload.meta.name.clone(), true),
            cfg,
            workload,
        )
    }

    /// Adds a job under an explicit key — the general form behind the
    /// helpers above, for a label of the caller's own (`simulate` keys its
    /// run as `cli`, timeline or not). `key.workload` must name `workload`.
    pub fn push(&mut self, key: JobKey, cfg: SystemConfig, workload: &Workload) -> &mut Self {
        if self.seen.insert(key.clone()) {
            self.jobs.push(SimJob {
                key,
                cfg,
                workload: workload.clone(),
            });
        }
        self
    }

    /// Enables the self-profiler on every planned configuration. This is
    /// *not* part of the job key: the profile is assembled at report time
    /// from counters the simulation maintains unconditionally, so every
    /// other report field is byte-identical with it on or off and a
    /// memoized report still answers every table lookup.
    pub fn override_profile(&mut self, on: bool) {
        for job in &mut self.jobs {
            job.cfg.obs.profile = on;
        }
    }

    /// Drops every job whose key fails `keep` (used to skip already-cached
    /// work).
    pub fn retain(&mut self, mut keep: impl FnMut(&JobKey) -> bool) {
        self.jobs.retain(|j| keep(&j.key));
        self.seen = self.jobs.iter().map(|j| j.key.clone()).collect();
    }

    /// Number of planned jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The planned jobs, in submission order.
    pub fn jobs(&self) -> &[SimJob] {
        &self.jobs
    }

    /// Seals every planned job with its store key at `scale`, in
    /// submission order: the form [`execute`] and the store take.
    pub fn into_keyed(self, scale: &Scale) -> Vec<KeyedJob> {
        let seal = |job| KeyedJob::new(job, scale);
        self.jobs.into_iter().map(seal).collect()
    }
}

/// Executes every job on `pool` and returns each job with its outcome, in
/// submission order — the one executor behind [`Runner`](crate::Runner).
///
/// Worker progress (one line per simulation) goes through `reporter`, so
/// lines from concurrent jobs cannot shear.
///
/// # Panics
///
/// Panics (with the job's key in the message) if any simulation panics;
/// see [`ThreadPool::run`].
pub fn execute(
    jobs: Vec<KeyedJob>,
    pool: ThreadPool,
    reporter: &Arc<Reporter>,
) -> Vec<(KeyedJob, Result<Arc<SimReport>, SimError>)> {
    let pool_jobs = jobs
        .into_iter()
        .map(|keyed| {
            let reporter = reporter.clone();
            let label = keyed.job().key.display();
            Job::new(label.clone(), move || {
                reporter.line(&format!("  sim {label}"));
                let outcome = keyed.job().try_run().map(Arc::new);
                (keyed, outcome)
            })
        })
        .collect();
    pool.run(pool_jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use numa_gpu_workloads::{by_name, Scale};

    fn wl() -> Workload {
        by_name("Other-Bitcoin-Crypto", &Scale::quick()).unwrap()
    }

    #[test]
    fn duplicate_jobs_collapse() {
        let w = wl();
        let mut plan = SimPlan::new();
        plan.job("single", configs::single(), &w);
        plan.job("single", configs::single(), &w);
        plan.timeline_job("single", configs::single(), &w);
        assert_eq!(plan.len(), 2, "plain run deduped; timeline is distinct");
    }

    #[test]
    fn timeline_flag_separates_keys() {
        let a = JobKey::new("x", "w", false);
        let b = JobKey::new("x", "w", true);
        assert_ne!(a, b);
        assert!(b.display().contains("timeline"));
    }

    #[test]
    fn cross_covers_the_product() {
        let w = wl();
        let variants = vec![
            ("single".to_string(), configs::single()),
            ("loc4".to_string(), configs::locality(4)),
        ];
        let plan = SimPlan::cross(&variants, std::slice::from_ref(&w));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.jobs()[0].key.label, "single");
        assert_eq!(plan.jobs()[1].key.label, "loc4");
    }

    #[test]
    fn retain_filters_jobs() {
        let w = wl();
        let mut plan = SimPlan::new();
        plan.job("a", configs::single(), &w);
        plan.job("b", configs::locality(4), &w);
        plan.retain(|k| k.label == "b");
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.jobs()[0].key.label, "b");
        assert!(!plan.is_empty());
        // The dedup set follows the survivors: a dropped key can be
        // planned again, a kept one still collapses.
        plan.job("a", configs::single(), &w);
        plan.job("b", configs::locality(4), &w);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.jobs()[1].key.label, "a");
    }
}
