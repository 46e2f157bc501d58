//! Timing invariance of the self-profiler: enabling `obs.profile` must
//! change exactly one thing — the report's `profile` field — and nothing
//! else. The profile is assembled at report
//! time from counters the simulation maintains unconditionally, so these
//! tests pin the "cannot perturb timing" contract end to end.

use numa_gpu_core::run_workload;
use numa_gpu_types::SystemConfig;
use numa_gpu_workloads::{by_name, Scale};

fn cfg(profile: bool) -> SystemConfig {
    let mut cfg = SystemConfig::numa_aware_sockets(4);
    cfg.obs.profile = profile;
    cfg
}

#[test]
fn profile_on_changes_only_the_profile_field() {
    for name in ["Rodinia-Euler3D", "Other-Stream-Triad"] {
        let wl = by_name(name, &Scale::quick()).unwrap();
        let off = run_workload(cfg(false), &wl).unwrap();
        let on = run_workload(cfg(true), &wl).unwrap();

        assert!(off.profile.is_none(), "{name}: profiling defaults off");
        assert!(on.profile.is_some(), "{name}: profile requested but absent");

        // Field-for-field identity once the profile itself is removed.
        let mut stripped = on.clone();
        stripped.profile = None;
        assert_eq!(off, stripped, "{name}: profiling perturbed the report");

        // Same invariant at the byte level: the encodings differ only in
        // the `profile` value, which is `null` when profiling is off.
        let off_json = off.to_json().to_string();
        let on_json = on.to_json().to_string();
        let profile_json = on.profile.as_ref().unwrap().to_json().to_string();
        assert_eq!(
            off_json.replace("\"profile\":null", &format!("\"profile\":{profile_json}")),
            on_json,
            "{name}: encodings diverge outside the profile field"
        );
    }
}

#[test]
fn profile_counters_reconcile_with_the_report() {
    let wl = by_name("Rodinia-Euler3D", &Scale::quick()).unwrap();
    let report = run_workload(cfg(true), &wl).unwrap();
    let p = report.profile.as_ref().unwrap();

    // The attribution is drawn from the same counters the report itself
    // aggregates, so the two views must agree where they overlap.
    let scheduled = p.get("engine", "events_scheduled").unwrap();
    let popped = p.get("engine", "events_popped").unwrap();
    assert!(popped > 0, "a real run pops events");
    assert!(popped <= scheduled, "cannot pop more than was scheduled");

    let l1 = p.get("cache", "l1_accesses").unwrap();
    assert_eq!(
        l1,
        report.l1.local_hits.get()
            + report.l1.local_misses.get()
            + report.l1.remote_hits.get()
            + report.l1.remote_misses.get(),
        "L1 attribution disagrees with the report's own stats"
    );

    let dram_bytes = p.get("mem", "dram_bytes").unwrap();
    assert_eq!(
        dram_bytes,
        report.dram_bytes(),
        "DRAM attribution disagrees"
    );

    // Work conservation on the queue-path split: every scheduled event
    // took exactly one push path.
    let paths: u64 = [
        "queue_bucket_pushes",
        "queue_sorted_pushes",
        "queue_overflow_pushes",
        "queue_rebases",
        "queue_rebuilds",
    ]
    .iter()
    .map(|name| p.get("engine", name).unwrap())
    .sum();
    assert_eq!(paths, scheduled, "push-path split is not a partition");
}

/// The event queue's window is anchored at simulated *now*, so a backlog
/// deeper than the window never makes a handler's follow-up rebase or
/// rebuild the calendar. HPC-AMG on 8 sockets has such a backlog (1,626
/// rebuilds and 6,041 rebases when the window was anchored at the earliest
/// pending event); the simulation itself is pinned alongside, since only
/// the path a push takes may change, never what pops next.
#[test]
fn backlog_never_rebuilds_the_event_calendar() {
    let wl = by_name("HPC-AMG", &Scale::quick()).unwrap();
    let mut cfg = SystemConfig::numa_aware_sockets(8);
    cfg.obs.profile = true;
    let report = run_workload(cfg, &wl).unwrap();
    let p = report.profile.as_ref().unwrap();
    assert_eq!(report.total_cycles, 9_422);
    assert_eq!(p.get("engine", "events_popped"), Some(169_295));
    assert!(
        p.get("engine", "queue_overflow_pushes").unwrap() > 0,
        "the workload no longer schedules past the calendar window"
    );
    assert_eq!(p.get("engine", "queue_rebuilds"), Some(0));
    assert_eq!(p.get("engine", "queue_rebases"), Some(0));
}

#[test]
fn profile_rides_along_in_metrics_when_both_are_on() {
    let wl = by_name("Other-Stream-Triad", &Scale::quick()).unwrap();
    let mut with_both = cfg(true);
    with_both.obs.metrics = true;
    let report = run_workload(with_both, &wl).unwrap();
    let snap = report.metrics.as_ref().unwrap();
    let p = report.profile.as_ref().unwrap();
    assert_eq!(
        snap.counter("profile.engine.events_popped"),
        p.get("engine", "events_popped"),
        "published metric and profile counter must agree"
    );
}
