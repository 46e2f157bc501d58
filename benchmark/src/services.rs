//! Outside spans and small drivers for the sweep and service planes:
//! store key, codec and disk store step by step, the batch pool, the
//! dispatcher, the line protocol and the journal.

use crate::drivers::Batch;
use crate::metrics::Outcome;
use crate::spans::Tracer;
use numa_gpu_bench::codec::{decode_report, encode_report};
use numa_gpu_bench::{DiskStore, JobKey, SimJob, StoreKey};
use numa_gpu_core::{NumaGpuSystem, SimReport};
use numa_gpu_exec::{Dispatcher, Job, ThreadPool};
use numa_gpu_serve::{JobSpec, Journal, Request};
use numa_gpu_testkit::json::Json;
use numa_gpu_types::{SimError, SystemConfig};
use numa_gpu_workloads::Scale;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Samples of the step-by-step path (c), by the metric they report to.
#[derive(Debug, Default)]
pub struct JobSamples(BTreeMap<&'static str, Vec<f64>>);

impl JobSamples {
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.0.entry(metric).or_default().push(value);
    }

    /// The sum of one metric's samples.
    pub fn total(&self, metric: &str) -> f64 {
        self.0.get(metric).map_or(0.0, |v| v.iter().sum())
    }

    /// Medians over the jobs sampled, of every metric that was.
    pub fn report(&self, out: &mut Outcome) {
        for (metric, samples) in &self.0 {
            out.set_median(metric, samples);
        }
    }

    /// `StoreKey::new` → `encode_report` → `DiskStore::save` → `load` →
    /// `decode_report` for one report, a span around each call. Returns
    /// whether the report came back equal from both the store and the
    /// codec.
    pub fn store_steps(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        store: &mut DiskStore,
        key: &JobKey,
        cfg: &SystemConfig,
        report: &SimReport,
    ) -> bool {
        let (skey, secs) = tracer.timed("bench.store_key", id, || {
            StoreKey::new(key, cfg, &Scale::quick())
        });
        self.push("bench.store_key_us", secs * 1e6);
        let (doc, secs) = tracer.timed("bench.codec_encode", id, || encode_report(report));
        self.push("bench.codec_encode_us", secs * 1e6);
        let (saved, secs) = tracer.timed("bench.store_save", id, || store.save(&skey, report));
        self.push("bench.store_save_us", secs * 1e6);
        saved.is_ok() && self.load_steps(tracer, id, store, &skey, doc.ok(), report)
    }

    /// The warm half: `DiskStore::load` of an entry saved earlier and
    /// `decode_report` of its document, a span around each call. Returns
    /// whether both gave `report` back.
    pub fn load_steps(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        store: &mut DiskStore,
        skey: &StoreKey,
        doc: Option<Json>,
        report: &SimReport,
    ) -> bool {
        let (loaded, secs) = tracer.timed("bench.store_load", id, || store.load(skey));
        self.push("bench.store_load_us", secs * 1e6);
        let (decoded, secs) =
            tracer.timed("bench.codec_decode", id, || doc.as_ref().map(decode_report));
        self.push("bench.codec_decode_us", secs * 1e6);
        loaded.as_ref() == Some(report) && matches!(decoded, Some(Ok(ref back)) if back == report)
    }

    /// Runs one job step by step under a `job` span: `NumaGpuSystem::new`
    /// → `run` → the store steps, a span around each call. Returns its
    /// report and whether the store gave back what was saved.
    pub fn job(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        store: &mut DiskStore,
        job: &SimJob,
        profile: bool,
    ) -> Result<(SimReport, bool), SimError> {
        let span = tracer.enter("job", id);
        let mut cfg = job.cfg.clone();
        cfg.obs.profile = profile;
        let (sys, secs) = tracer.timed("core.construct", id, || NumaGpuSystem::new(cfg));
        self.push("core.construct_ms", secs * 1e3);
        let report = sys.map_err(SimError::from).and_then(|mut sys| {
            let (report, secs) = tracer.timed("core.run", id, || sys.run(&job.workload));
            self.push("core.run_ms", secs * 1e3);
            report
        });
        let stepped = report.map(|report| {
            let stored = self.store_steps(tracer, id, store, &job.key, &job.cfg, &report);
            (report, stored)
        });
        tracer.exit(span);
        stepped
    }
}

/// `ThreadPool::run` over trivial jobs on one worker, as `--jobs 1` runs a
/// sweep.
pub fn pool() -> Batch {
    const JOBS: u64 = 20_000;
    let jobs: Vec<Job<u64>> = (0..JOBS).map(|i| Job::new("trivial", move || i)).collect();
    let start = Instant::now();
    black_box(ThreadPool::new(1).run(jobs));
    Batch {
        calls: JOBS,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// `Dispatcher::submit` of trivial jobs on two workers, then `drain`.
pub fn dispatcher() -> Batch {
    const JOBS: u64 = 20_000;
    let dispatcher = Dispatcher::new(2);
    let start = Instant::now();
    for i in 0..JOBS {
        dispatcher.submit(move || i, |outcome| drop(black_box(outcome)));
    }
    dispatcher.drain();
    let secs = start.elapsed().as_secs_f64();
    dispatcher.shutdown();
    Batch { calls: JOBS, secs }
}

/// `Request::parse` of a SUBMIT line plus `JobSpec::to_line` of the result.
pub fn parse(jobs: &[JobSpec]) -> Batch {
    let lines: Vec<String> = jobs
        .iter()
        .map(|j| format!("SUBMIT {}", j.to_line()))
        .collect();
    let rounds = (20_000 / lines.len().max(1)).max(1);
    let start = Instant::now();
    for _ in 0..rounds {
        for line in &lines {
            if let Ok(Request::Submit(spec)) = Request::parse(line) {
                black_box(spec.to_line());
            }
        }
    }
    Batch {
        calls: (rounds * lines.len()) as u64,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// `Journal::record_queued` + `record_done`, each an fsynced append.
pub fn journal(dir: &Path, jobs: &[JobSpec]) -> std::io::Result<Batch> {
    let (mut journal, _) = Journal::open(dir)?;
    let sample = &jobs[..jobs.len().min(40)];
    let start = Instant::now();
    for spec in sample {
        journal.record_queued(spec)?;
        journal.record_done(spec)?;
    }
    Ok(Batch {
        calls: 2 * sample.len() as u64,
        secs: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scratch;
    use crate::inputs::serve_jobs;

    #[test]
    fn store_steps_round_trip_a_report() {
        let scratch = Scratch::new("services-test").unwrap();
        let report = SimReport {
            workload: "w".into(),
            total_cycles: 9,
            kernel_cycles: vec![9],
            kernel_start_cycles: vec![0],
            ..SimReport::default()
        };
        let mut tracer = Tracer::new();
        let cfg = SystemConfig::pascal_single();
        let mut store = DiskStore::open(scratch.sub("s")).unwrap();
        let key = JobKey::new("bench", "w", false);
        let mut samples = JobSamples::default();
        assert!(samples.store_steps(&mut tracer, 3, &mut store, &key, &cfg, &report));
        assert_eq!(samples.0.len(), 5);
        let spans = tracer.finish();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "workload",
                "bench.store_key",
                "bench.codec_encode",
                "bench.store_save",
                "bench.store_load",
                "bench.codec_decode"
            ]
        );
        assert!(spans[1..].iter().all(|s| s.id == 3 && s.parent == Some(0)));
    }

    #[test]
    fn small_drivers_count_their_calls() {
        let jobs = serve_jobs(1, true);
        assert_eq!(pool().calls, 20_000);
        assert_eq!(dispatcher().calls, 20_000);
        assert_eq!(parse(&jobs).calls % jobs.len() as u64, 0);
        let scratch = Scratch::new("journal-test").unwrap();
        assert_eq!(journal(&scratch.sub("j"), &jobs).unwrap().calls, 52);
    }
}
