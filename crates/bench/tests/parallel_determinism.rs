//! The job-plane determinism contract: every observable artifact —
//! individual reports, assembled tables, CSV timelines — is byte-identical
//! whether a sweep runs on one worker or many.
//!
//! The fast tests sweep a small config × workload product; the `#[ignore]`d
//! ones regenerate full quick-scale figures at both worker counts (run with
//! `cargo test -p numa-gpu-bench --test parallel_determinism -- --ignored`).

use numa_gpu_bench::{configs, experiments, Runner, SimPlan};
use numa_gpu_workloads::{by_name, Scale};

const SMALL_SET: [&str; 3] = ["Other-Bitcoin-Crypto", "Rodinia-BFS", "HPC-CoMD-Ta"];

fn small_sweep(jobs: usize) -> Vec<String> {
    let mut runner = Runner::new(Scale::quick()).jobs(jobs);
    let wls: Vec<_> = SMALL_SET
        .iter()
        .map(|n| by_name(n, runner.scale()).expect("catalog workload"))
        .collect();
    let variants = vec![
        ("single".to_string(), configs::single()),
        ("loc4".to_string(), configs::locality(4)),
    ];
    runner.execute(SimPlan::cross(&variants, &wls));
    // Serialize every report in a fixed order: any nondeterminism in the
    // parallel path (result misordering, cross-job state leaks) shows up as
    // a byte difference.
    let mut out = Vec::new();
    for wl in &wls {
        for (label, _) in &variants {
            out.push(runner.lookup(label, wl).to_json().to_string());
        }
    }
    out
}

#[test]
fn small_sweep_reports_are_byte_identical_across_worker_counts() {
    let serial = small_sweep(1);
    let four = small_sweep(4);
    assert_eq!(serial, four, "--jobs 4 must reproduce --jobs 1 exactly");
}

#[test]
fn worker_count_does_not_leak_into_run_accounting() {
    let wl = by_name("Rodinia-BFS", &Scale::quick()).unwrap();
    let mut plan = SimPlan::new();
    plan.job("single", configs::single(), &wl);
    plan.job("loc4", configs::locality(4), &wl);
    let mut r = Runner::new(Scale::quick()).jobs(4);
    r.execute(plan.clone());
    assert_eq!(r.runs(), 2);
    // Re-executing the identical plan is a no-op at any worker count.
    r.execute(plan);
    assert_eq!(r.runs(), 2);
}

#[test]
#[ignore = "slow: full quick-scale Figure 3 at two worker counts"]
fn fig3_table_is_byte_identical_across_worker_counts() {
    let mut serial = Runner::new(Scale::quick()).jobs(1);
    let mut four = Runner::new(Scale::quick()).jobs(4);
    assert_eq!(
        experiments::fig3(&mut serial).to_string(),
        experiments::fig3(&mut four).to_string()
    );
}

#[test]
#[ignore = "slow: full quick-scale Figure 5 timeline at two worker counts"]
fn fig5_csv_is_byte_identical_across_worker_counts() {
    let mut serial = Runner::new(Scale::quick()).jobs(1);
    let mut four = Runner::new(Scale::quick()).jobs(4);
    assert_eq!(experiments::fig5(&mut serial), experiments::fig5(&mut four));
}
