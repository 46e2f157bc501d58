//! A caching simulation runner shared by all experiments.
//!
//! Since the job-plane refactor the runner is the *memo* side of a
//! two-phase model: experiments declare their simulations as a
//! [`SimPlan`], [`Runner::execute`] fans the plan out over a worker pool
//! ([`numa_gpu_exec::ThreadPool`]) and memoizes each report, and the
//! table-assembly code then reads reports back with [`Runner::lookup`].
//! `execute` (and its fallible twin [`Runner::try_execute`]) is the only
//! way a simulation runs — for `figures` and for `simulate` alike — and the
//! only place a plan meets the on-disk store: a lookup of a job no plan
//! declared panics naming its key, so a mistyped label fails loudly
//! instead of silently simulating a second configuration.

use crate::plan::{execute, JobKey, SimPlan};
use crate::store::{DiskStore, StoreEvent, StoreHit, StoreStats};
use numa_gpu_core::{ProfileReport, SimReport};
use numa_gpu_exec::{Reporter, ThreadPool};
use numa_gpu_runtime::Workload;
use numa_gpu_types::SimError;
use numa_gpu_workloads::Scale;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Runs simulations and memoizes their reports by [`JobKey`]
/// (configuration label, workload name, timeline flag), so experiments
/// sharing baselines (every figure reuses the single-GPU and locality
/// runs) pay for them once.
pub struct Runner {
    scale: Scale,
    cache: BTreeMap<JobKey, Arc<SimReport>>,
    store: Option<DiskStore>,
    runs: u64,
    pool: ThreadPool,
    profile: bool,
    reporter: Arc<Reporter>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("cached", &self.cache.len())
            .field("runs", &self.runs)
            .field("jobs", &self.pool.workers())
            .finish_non_exhaustive()
    }
}

impl Runner {
    /// Creates a runner at the given workload scale. Plans execute on a
    /// single worker (the exact pre-pool behavior) until
    /// [`Runner::jobs`] raises the count.
    pub fn new(scale: Scale) -> Self {
        Runner {
            scale,
            cache: BTreeMap::new(),
            store: None,
            runs: 0,
            pool: ThreadPool::new(1),
            profile: false,
            reporter: Arc::new(Reporter::stderr(false)),
        }
    }

    /// Backs the in-memory memo with the on-disk content-addressed store
    /// rooted at `dir` (created if absent): cache misses first try the
    /// store, fresh results are written through to it, and corrupt entries
    /// self-heal (see [`DiskStore`]). The directory is deliberately not
    /// part of any cache key — where results live cannot change what they
    /// are.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating the store's directory tree.
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.store = Some(DiskStore::open(dir)?);
        Ok(self)
    }

    /// Logs each fresh simulation to stderr (progress feedback for the long
    /// full-scale sweeps). Lines are routed through a mutexed line-buffered
    /// reporter so concurrent workers cannot shear them.
    pub fn verbose(mut self) -> Self {
        self.reporter = Arc::new(Reporter::stderr(true));
        self
    }

    /// Sets the worker-thread count used by [`Runner::execute`] (the pool
    /// clamps it to at least 1). `1` executes plans serially on the calling
    /// thread.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.pool = ThreadPool::new(jobs);
        self
    }

    /// Enables the self-profiler on every simulation this runner executes.
    /// The profile is assembled at report time from counters the
    /// simulation maintains unconditionally, so every other report field
    /// is byte-identical with it on or off — which is why it is not part
    /// of the cache key. Read the accumulated attribution back with
    /// [`Runner::aggregate_profile`].
    pub fn profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// The scale this runner simulates at.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// Number of actual (non-cached) simulations executed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Worker threads used per plan execution.
    pub fn job_count(&self) -> usize {
        self.pool.workers()
    }

    /// Reads served warm from the on-disk store (0 without a cache dir).
    pub fn warm_hits(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.stats().hits)
    }

    /// Lifetime counters of the backing store, if one is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// The backing store's ordered decision log, if one is attached.
    pub fn store_events(&self) -> Option<Vec<StoreEvent>> {
        self.store.as_ref().map(|s| s.events())
    }

    /// Executes every not-yet-cached job of `plan` on the worker pool and
    /// memoizes the reports. Jobs already in the cache (e.g. baselines
    /// shared with an earlier figure) are skipped, so cross-figure dedup
    /// falls out of the structured keys.
    ///
    /// Results are memoized in submission order regardless of completion
    /// order, keeping every downstream observation byte-identical at any
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics naming the failing job's key if a simulation fails or
    /// panics, e.g. on an invalid experiment configuration (experiment
    /// configurations and plans are all statically valid).
    pub fn execute(&mut self, plan: SimPlan) {
        if let Err((key, e)) = self.run_plan(plan) {
            panic!("experiment simulation {} failed: {e}", key.display());
        }
    }

    /// Fallible twin of [`Runner::execute`] for front ends whose jobs come
    /// from user input (`simulate` prints the error and exits 3).
    ///
    /// # Errors
    ///
    /// The error of the failing job with the lowest submission index —
    /// the same one at every worker count. Jobs submitted before it are
    /// memoized and stored; it and the jobs after it are not.
    pub fn try_execute(&mut self, plan: SimPlan) -> Result<(), SimError> {
        self.run_plan(plan).map_err(|(_, e)| e)
    }

    /// The one path a job takes: memo, then store, then simulate and
    /// write through.
    fn run_plan(&mut self, mut plan: SimPlan) -> Result<(), (JobKey, SimError)> {
        plan.retain(|key| !self.cache.contains_key(key));
        if plan.is_empty() {
            return Ok(());
        }
        if self.profile {
            plan.override_profile(true);
        }
        // Each entry derives its store key once, after the overrides, so
        // the store policy sees the job's *effective* config (`obs`
        // decides what a hit may carry; the canonicalized knobs are
        // hashed out either way) and the write after a cold run reuses
        // the key of the read that missed.
        let mut cold = plan.into_keyed(&self.scale);
        if let Some(store) = &self.store {
            cold.retain(|job| match store.load_job(job) {
                Some(StoreHit { report, .. }) => {
                    self.cache.insert(job.job().key.clone(), Arc::new(report));
                    false
                }
                None => true,
            });
        }
        for (job, outcome) in execute(cold, self.pool, &self.reporter) {
            let report = outcome.map_err(|e| (job.job().key.clone(), e))?;
            self.runs += 1;
            if let Some(store) = &self.store {
                // A failed write is reported, not fatal: the result is
                // still memoized in memory and the sweep continues.
                if let Err(err) = store.save_job(&job, &report) {
                    self.reporter.error(&format!(
                        "store: write failed for {}: {err}",
                        job.job().key.display()
                    ));
                }
            }
            self.cache.insert(job.job().key.clone(), report);
        }
        Ok(())
    }

    /// The memoized report for `key`, if that job has run.
    pub fn cached(&self, key: &JobKey) -> Option<Arc<SimReport>> {
        self.cache.get(key).cloned()
    }

    /// Sums the per-subsystem work attribution over every memoized report
    /// that carries one (i.e. every simulation run with
    /// [`Runner::profile`] enabled). Reports are folded in ascending key
    /// order, so the aggregate — and its rendered table — is byte-stable
    /// across run order and worker counts. Empty when profiling was off.
    pub fn aggregate_profile(&self) -> ProfileReport {
        let mut agg = ProfileReport::new();
        for report in self.cache.values() {
            let Some(p) = &report.profile else { continue };
            for scope in &p.scopes {
                let out = agg.scope(&scope.name);
                for (counter, value) in &scope.counters {
                    out.count(counter, *value);
                }
            }
        }
        agg
    }

    /// Every memoized job key in ascending key order. The order depends
    /// only on which jobs have run — never on execution or completion
    /// order — so diagnostics and summaries built from it are stable
    /// across runs and worker counts.
    pub fn cached_keys(&self) -> impl Iterator<Item = &JobKey> {
        self.cache.keys()
    }

    /// The memoized report of the clean, timeline-less run of `workload`
    /// under the configuration a plan labelled `label`.
    ///
    /// # Panics
    ///
    /// Like [`Runner::lookup_key`], if no executed plan declared the job.
    pub fn lookup(&self, label: &str, workload: &Workload) -> Arc<SimReport> {
        self.lookup_key(&JobKey::new(label, workload.meta.name.clone(), false))
    }

    /// The memoized report for `key` (any timeline flag or fault
    /// scenario).
    ///
    /// # Panics
    ///
    /// Panics naming `key` if no executed plan declared it — the assembly
    /// phase never simulates.
    pub fn lookup_key(&self, key: &JobKey) -> Arc<SimReport> {
        self.cached(key).unwrap_or_else(|| {
            panic!(
                "no executed plan declared {}: add it to the experiment's SimPlan",
                key.display()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use numa_gpu_workloads::by_name;

    fn quick_workload() -> Workload {
        by_name("Other-Bitcoin-Crypto", &Scale::quick()).unwrap()
    }

    /// A runner that has executed one job per `(label, sockets)` pair of
    /// locality configurations, in the given order.
    fn executed(mut runner: Runner, jobs: &[(&str, u8)]) -> Runner {
        let wl = quick_workload();
        let mut plan = SimPlan::new();
        for &(label, sockets) in jobs {
            plan.job(label, configs::locality(sockets), &wl);
        }
        runner.execute(plan);
        runner
    }

    #[test]
    fn execute_memoizes_and_dedups_against_cache() {
        let wl = quick_workload();
        let mut r = Runner::new(Scale::quick()).jobs(2);
        let mut plan = SimPlan::new();
        plan.job("single", configs::single(), &wl);
        plan.job("loc4", configs::locality(4), &wl);
        r.execute(plan);
        assert_eq!(r.runs(), 2);

        // Lookups are pure memo reads: same Arc every time, no new run.
        let a = r.lookup("single", &wl);
        let b = r.lookup("single", &wl);
        assert_eq!(r.runs(), 2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(
            &a,
            &r.cached(&JobKey::new("single", wl.meta.name.clone(), false))
                .unwrap()
        ));

        // Re-executing an overlapping plan only runs the new job.
        let mut plan = SimPlan::new();
        plan.job("single", configs::single(), &wl);
        plan.job("trad4", configs::traditional(4), &wl);
        r.execute(plan);
        assert_eq!(r.runs(), 3);
    }

    #[test]
    #[should_panic(expected = "no executed plan declared [loc8] Other-Bitcoin-Crypto")]
    fn unplanned_lookup_panics_naming_the_key() {
        let r = executed(Runner::new(Scale::quick()), &[("loc4", 4)]);
        r.lookup("loc8", &quick_workload());
    }

    /// Regression: with the old string keys, a configuration labelled
    /// `"x+timeline"` aliased the timeline run of `"x"` and the two
    /// distinct simulations shared one cache slot. Structured [`JobKey`]s
    /// keep them separate.
    #[test]
    fn timeline_key_cannot_collide_with_label_concatenation() {
        let wl = quick_workload();
        let mut r = Runner::new(Scale::quick());
        let mut plan = SimPlan::new();
        plan.timeline_job("x", configs::locality(4), &wl);
        plan.job("x+timeline", configs::locality(4), &wl);
        r.execute(plan);
        assert_eq!(r.runs(), 2, "the two keys must be distinct simulations");
        let timeline = r.lookup_key(&JobKey::new("x", wl.meta.name.clone(), true));
        let plain = r.lookup("x+timeline", &wl);
        assert!(!Arc::ptr_eq(&timeline, &plain));
        // The timeline flag alone never answers for the plain key.
        assert!(r
            .cached(&JobKey::new("x", wl.meta.name.clone(), false))
            .is_none());
        // Only the timeline run may record link samples (a quick-scale run
        // can end before the first sample tick, so `plain` being empty is
        // the invariant we can always assert).
        assert!(plain.link_timelines.iter().all(|t| t.is_empty()));
    }

    /// Regression, mirroring `timeline_key_cannot_collide_with_label_concatenation`:
    /// a fault-injected run must never share a memo slot with the clean
    /// baseline of the same label and workload — the scenario string is
    /// part of the structured key, so the memo cannot hand a faulted
    /// report to a figure asking for the clean one (or vice versa).
    #[test]
    fn fault_scenario_cannot_collide_with_clean_baseline() {
        use numa_gpu_faults::FaultPlan;

        let wl = quick_workload();
        let faults = FaultPlan::parse("lanes:s1@200=8").unwrap();
        let mut r = Runner::new(Scale::quick());
        let mut plan = SimPlan::new();
        plan.job("loc4", configs::locality(4), &wl);
        plan.fault_job("loc4", configs::locality(4), &wl, &faults);
        r.execute(plan);
        assert_eq!(
            r.runs(),
            2,
            "clean and faulted must be distinct simulations"
        );
        let clean_key = JobKey::new("loc4", wl.meta.name.clone(), false);
        let fault_key = clean_key.clone().with_scenario(faults.to_string());
        let clean = r.cached(&clean_key).unwrap();
        let faulted = r.cached(&fault_key).unwrap();
        assert!(!Arc::ptr_eq(&clean, &faulted));
        // Only the faulted run carries resilience data; the clean baseline
        // must be untouched by the fault machinery.
        assert!(clean.resilience.is_none());
        assert!(faulted.resilience.is_some());
    }

    #[test]
    fn cached_keys_enumerate_in_key_order_regardless_of_run_order() {
        // Populate two runners with the same jobs in opposite orders; the
        // memo enumeration must come out identical. This is the
        // determinism property the BTreeMap backing guarantees (hash maps
        // are banned in `clippy.toml`) — a hash map would enumerate in a
        // process-varying order and leak run order into anything built
        // from it.
        let fill = |jobs: &[(&str, u8)]| {
            let r = executed(Runner::new(Scale::quick()), jobs);
            r.cached_keys().cloned().collect::<Vec<_>>()
        };
        let a = fill(&[("loc4", 4), ("loc2", 2), ("loc1", 1)]);
        let b = fill(&[("loc1", 1), ("loc4", 4), ("loc2", 2)]);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted, "cached_keys must enumerate in key order");
    }

    #[test]
    fn profile_runner_aggregates_without_changing_tables() {
        let wl = quick_workload();
        let plain = executed(Runner::new(Scale::quick()), &[("loc4", 4)]);
        let base = plain.lookup("loc4", &wl);
        assert!(base.profile.is_none(), "profiling defaults off");

        let profiled = executed(
            Runner::new(Scale::quick()).profile(),
            &[("loc4", 4), ("loc2", 2)],
        );
        let report = profiled.lookup("loc4", &wl);
        assert!(report.profile.is_some(), "execute applied the override");

        // Every field the tables read is identical with profiling on.
        let mut stripped = (*report).clone();
        stripped.profile = None;
        assert_eq!(*base, stripped, "profiling must not perturb the report");

        // The aggregate folds both runs and renders deterministically.
        let agg = profiled.aggregate_profile();
        let solo = report.profile.as_ref().unwrap();
        let popped = |p: &ProfileReport| p.get("engine", "events_popped").unwrap();
        assert!(popped(&agg) > popped(solo), "second run must contribute");
        assert_eq!(
            agg.render_table(),
            profiled.aggregate_profile().render_table()
        );
    }

    #[test]
    fn parallel_execute_matches_serial_reports() {
        let wl = quick_workload();
        let jobs = [("loc2", 2), ("loc4", 4)];
        let serial = executed(Runner::new(Scale::quick()), &jobs);
        let parallel = executed(Runner::new(Scale::quick()).jobs(4), &jobs);
        for (label, _) in jobs {
            assert_eq!(
                *serial.lookup(label, &wl),
                *parallel.lookup(label, &wl),
                "reports must be identical at any worker count"
            );
        }
    }
}
