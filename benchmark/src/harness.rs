//! What every workload body shares: its arguments, the measuring loop's
//! stop rule, repeated set-up, scratch directories and the process's
//! memory high-water mark.

use crate::stats;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where the benchmark writes: `out/` inside its own directory of the
/// checkout, reached from the checkout's root (how the driver and the
/// README run it) or from the package directory (how `cargo test` does).
pub fn out_dir() -> &'static Path {
    if Path::new("benchmark/Cargo.toml").exists() {
        Path::new("benchmark/out")
    } else {
        Path::new("out")
    }
}

/// Arguments of one workload process.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// About 1/20 of the work, to exercise every body, driver and check
    /// quickly; its numbers are marked and are not a record.
    pub smoke: bool,
}

/// Timed passes a run makes at least, however short `--seconds` is; what
/// `compare` needs to give a verdict.
pub const MIN_PASSES: usize = 3;

/// Whether to time another pass: always up to [`MIN_PASSES`], then only
/// while a typical pass still fits before `seconds` have passed since
/// `started`. Every body passes the instant it began setting up, so a run
/// ends `--seconds` after it began and what set-up took is not available
/// for measuring.
pub fn keep_going(started: Instant, seconds: f64, walls: &[f64]) -> bool {
    walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() + stats::median(walls) <= seconds
}

/// `f`'s result and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Set-up samples a workload takes, back to back, before its first pass.
/// All are taken there because that is where a set-up happens: the same
/// set-up repeated after the passes reads a third slower on the sweep and
/// service workloads (the process's heap has aged), which is a different
/// quantity and would make the samples bimodal.
const SETUP_SAMPLES: usize = 25;
/// A set-up sample lasts at least this long. The set-ups range from 60 us
/// (a sweep plan) to 25 ms (a simulation's traces). Single timings of the
/// short ones vary by half their size, so a sample repeats the set-up until
/// this much time has gone into it and reports the mean; and in three runs
/// of ten everything ran a half slower for the first 40 ms and more of the
/// process (the vCPU coming out of idle), so the samples together span a
/// quarter of a second and their median falls after that.
const SAMPLE_SECONDS: f64 = 0.01;

/// The [`SETUP_SAMPLES`] set-up samples of a run: a sample runs `setup`
/// until [`SAMPLE_SECONDS`] have gone into it and is the mean seconds of
/// one set-up. Returns the last set-up's result and every sample.
pub fn setup_burst<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    loop {
        let (mut total, mut runs) = (0.0, 0.0);
        let last = loop {
            let (out, secs) = timed(&mut setup);
            total += secs;
            runs += 1.0;
            if total >= SAMPLE_SECONDS {
                break out;
            }
        };
        samples.push(total / runs);
        if samples.len() == SETUP_SAMPLES {
            return (last, samples);
        }
    }
}

/// A fresh scratch directory under `benchmark/out/tmp`, removed on drop.
/// The path stays relative so a Unix socket inside it fits `sun_path` no
/// matter where the checkout lives.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_rule_honours_minimum_and_budget() {
        let started = Instant::now();
        assert!(keep_going(started, 0.0, &[]));
        assert!(keep_going(started, 0.0, &[1.0, 1.0]));
        assert!(!keep_going(started, 0.0, &[1.0, 1.0, 1.0]));
        assert!(keep_going(started, 100.0, &[1.0, 1.0, 1.0]));
    }

    #[test]
    fn a_burst_repeats_short_setups_and_keeps_the_last_result() {
        let short = std::time::Duration::from_secs_f64(SAMPLE_SECONDS / 3.0);
        let mut runs = 0;
        let (last, samples) = setup_burst(|| {
            std::thread::sleep(short);
            runs += 1;
            runs
        });
        assert_eq!((last, samples.len()), (runs, SETUP_SAMPLES));
        assert!(
            runs > SETUP_SAMPLES,
            "a sample is more than one short set-up"
        );
        assert!(samples.iter().all(|&s| s >= short.as_secs_f64()));
    }

    #[test]
    fn peak_rss_reads_something() {
        assert!(peak_rss_mib() > 0.0);
    }
}
