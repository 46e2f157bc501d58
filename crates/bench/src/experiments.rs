//! One entry point per paper artifact (tables, figures, sensitivity
//! studies). Each returns a [`Table`] (or a CSV string for the Figure 5
//! timeline) ready to print or diff against `EXPERIMENTS.md`.
//!
//! Every experiment is two-phase: it first *declares* the simulations it
//! needs as a [`SimPlan`] and hands them to [`Runner::execute`] (which
//! fans not-yet-cached jobs out over the worker pool), then *assembles*
//! its table serially from the memoized reports ([`Runner::lookup`]
//! panics on a job the plan never declared rather than simulating it).
//! Most paper figures are one declaration: a baseline `(label, config)`
//! and its variants, which `speedups` turns into the plan and into one
//! row per workload of each variant's speedup over the baseline. So each
//! `(label, config)` pairing is stated once, and tables are byte-identical
//! at every `--jobs` count.

use crate::{configs, geomean, JobKey, Row, Runner, SimPlan, Table};
use numa_gpu_runtime::Workload;
use numa_gpu_types::{CacheMode, SystemConfig, WritePolicy};
use numa_gpu_workloads::{catalog, study_set};

/// A labelled configuration: one design point of a sweep.
type Variant = (String, SystemConfig);

/// Sample times (cycles) swept in Figure 6.
pub const FIG6_SAMPLE_TIMES: [u32; 4] = [1_000, 5_000, 10_000, 50_000];

/// Lane switch times (cycles) swept in the §4.1 sensitivity study.
pub const SWITCH_TIMES: [u32; 3] = [10, 100, 500];

fn workloads(runner: &Runner) -> Vec<Workload> {
    catalog(runner.scale())
}

fn study(runner: &Runner) -> Vec<Workload> {
    study_set(runner.scale())
}

/// Labels a config for a [`SimPlan::cross`] variant list.
fn v(label: impl Into<String>, cfg: SystemConfig) -> Variant {
    (label.into(), cfg)
}

/// Runs `baseline` and `variants` over `wls` as one [`SimPlan::cross`]
/// and returns one row per workload, in `wls` order, of each variant's
/// speedup over the baseline.
fn speedups(
    runner: &mut Runner,
    wls: &[Workload],
    baseline: &Variant,
    variants: &[Variant],
) -> Vec<Row> {
    let mut all = vec![baseline.clone()];
    all.extend_from_slice(variants);
    runner.execute(SimPlan::cross(&all, wls));
    wls.iter()
        .map(|wl| {
            let base = runner.lookup(&baseline.0, wl);
            let values = variants
                .iter()
                .map(|(label, _)| runner.lookup(label, wl).speedup_over(&base))
                .collect();
            Row::new(wl.meta.name.clone(), values)
        })
        .collect()
}

/// The geomean of each column of `rows`.
fn geomeans(rows: &[Row]) -> Vec<f64> {
    let width = rows.first().map_or(0, |r| r.values.len());
    (0..width)
        .map(|i| geomean(&rows.iter().map(|r| r.values[i]).collect::<Vec<_>>()))
        .collect()
}

/// A per-workload figure: `rows` sorted by `key`, largest first (ties keep
/// their order), then the arithmetic- and geometric-mean rows.
fn ranked(title: &str, headers: &[&str], mut rows: Vec<Row>, key: fn(&Row) -> f64) -> Table {
    rows.sort_by(|a, b| key(b).partial_cmp(&key(a)).unwrap());
    let mut t = Table::new(title, headers);
    for r in rows {
        t.push(r);
    }
    t.push_means();
    t
}

/// Table 1: the simulation parameters actually in force (from
/// [`SystemConfig`] defaults).
pub fn table1() -> String {
    let c = SystemConfig::pascal_4_socket();
    let mut s = String::from("=== Table 1: Simulation parameters ===\n");
    let rows = [
        ("Num of GPU sockets", format!("{}", c.num_sockets)),
        ("Total number of SMs", format!("{} per GPU socket", c.sm.sms_per_socket)),
        ("GPU Frequency", "1GHz".to_string()),
        ("Max number of Warps", format!("{} per SM", c.sm.max_warps)),
        ("Warp Scheduler", "Greedy then Round Robin".to_string()),
        (
            "L1 Cache",
            format!(
                "Private, {}KB per SM, 128B lines, {}-way, Write-Through, GPU-side SW-based coherent",
                c.l1.size_bytes / 1024,
                c.l1.ways
            ),
        ),
        (
            "L2 Cache",
            format!(
                "Shared, Banked, {}MB per socket, 128B lines, {}-way, Write-Back, Mem-side non-coherent",
                c.l2.size_bytes / (1024 * 1024),
                c.l2.ways
            ),
        ),
        (
            "GPU-GPU Interconnect",
            format!(
                "{}GB/s per socket ({}GB/s each direction), {} lanes {}B wide each per direction, {}-cycle latency",
                2 * c.link.direction_bytes_per_cycle(),
                c.link.direction_bytes_per_cycle(),
                c.link.lanes_per_direction,
                c.link.lane_bytes_per_cycle,
                c.link.latency_cycles
            ),
        ),
        (
            "DRAM Bandwidth",
            format!("{}GB/s per GPU socket", c.dram.bytes_per_cycle),
        ),
        ("DRAM Latency", format!("{} ns", c.dram.latency_cycles)),
    ];
    for (k, v) in rows {
        s.push_str(&format!("{k:24} {v}\n"));
    }
    s
}

/// Table 2: per-workload time-weighted CTAs and footprint (paper values)
/// next to the simulated grid/footprint at this runner's scale.
pub fn table2(runner: &Runner) -> Table {
    let mut t = Table::new(
        "Table 2: workload inventory (paper vs simulated)",
        &[
            "paper-CTAs",
            "paper-MB",
            "sim-CTAs/kernel",
            "sim-MB",
            "kernels",
        ],
    );
    for w in workloads(runner) {
        let sim_ctas = w.kernels.first().map(|k| k.num_ctas()).unwrap_or(0);
        t.push(Row::new(
            w.meta.name.clone(),
            vec![
                w.meta.paper_avg_ctas as f64,
                w.meta.paper_footprint_mb as f64,
                sim_ctas as f64,
                (w.footprint_bytes / (1024 * 1024)) as f64,
                w.kernels.len() as f64,
            ],
        ));
    }
    t
}

/// Figure 2: percentage of the 41 workloads whose time-weighted average CTA
/// count fills GPUs 1–8× the size of today's (64-SM sockets).
pub fn fig2(runner: &Runner) -> Table {
    let all = workloads(runner);
    let mut t = Table::new(
        "Figure 2: % workloads able to fill larger GPUs",
        &["total-SMs", "pct-filling"],
    );
    for factor in 1..=8u32 {
        let sms = 64 * factor;
        let filling = all.iter().filter(|w| w.fills_gpu(sms)).count();
        t.push(Row::new(
            format!("{factor}x-GPU"),
            vec![sms as f64, 100.0 * filling as f64 / all.len() as f64],
        ));
    }
    t
}

/// Figure 3: 4-socket NUMA GPU under traditional vs locality-optimized
/// runtime policies, against the hypothetical 4× GPU. Sorted by the gap
/// between theoretical and locality speedup, as in the paper.
pub fn fig3(runner: &mut Runner) -> Table {
    let wls = workloads(runner);
    let sweep = fig3_variants();
    let (single, variants) = sweep.split_first().expect("fig3 has a baseline");
    ranked(
        "Figure 3: runtime policies on a 4-socket NUMA GPU (speedup vs 1 GPU)",
        &["traditional", "locality-opt", "hypothetical-4x"],
        speedups(runner, &wls, single, variants),
        |r| r.values[2] - r.values[1],
    )
}

/// The Figure-3 configuration sweep, single-GPU baseline first (also the
/// plan behind the repo benchmark's `sweep_cold` / `sweep_warm`
/// workloads).
pub fn fig3_variants() -> Vec<(String, SystemConfig)> {
    vec![
        v("single", configs::single()),
        v("trad4", configs::traditional(4)),
        v("loc4", configs::locality(4)),
        v("hypo4", configs::hypothetical(4)),
    ]
}

/// Figure 5: per-GPU link utilization timeline for HPC-HPGMG-UVM on the
/// locality-optimized 4-socket baseline. Returns CSV
/// (`cycle,gpu,egress_util,ingress_util,egress_lanes`) plus kernel-launch
/// marker rows (`kernel_start` lines).
pub fn fig5(runner: &mut Runner) -> String {
    let wl =
        numa_gpu_workloads::by_name("HPC-HPGMG-UVM", runner.scale()).expect("HPGMG-UVM exists");
    let mut plan = SimPlan::new();
    plan.timeline_job("loc4", configs::locality(4), &wl);
    runner.execute(plan);
    let r = runner.lookup_key(&JobKey::new("loc4", wl.meta.name.clone(), true));
    let mut csv = String::from("cycle,gpu,egress_util,ingress_util,egress_lanes,ingress_lanes\n");
    for (g, timeline) in r.link_timelines.iter().enumerate() {
        for s in timeline {
            csv.push_str(&format!(
                "{},{},{:.4},{:.4},{},{}\n",
                s.cycle, g, s.egress_util, s.ingress_util, s.egress_lanes, s.ingress_lanes
            ));
        }
    }
    for k in &r.kernel_start_cycles {
        csv.push_str(&format!("kernel_start,{k}\n"));
    }
    csv
}

/// Figure 6: dynamic link adaptivity speedup over the locality baseline for
/// each sample time, with the doubled-bandwidth upper bound. Sorted by the
/// upper bound (the paper's left-to-right order).
pub fn fig6(runner: &mut Runner) -> Table {
    let wls = study(runner);
    let mut variants: Vec<Variant> = FIG6_SAMPLE_TIMES
        .iter()
        .map(|&st| v(format!("dyn4-{st}"), configs::dynamic_link(4, st)))
        .collect();
    variants.push(v("2xbw4", configs::double_bandwidth(4)));
    ranked(
        "Figure 6: dynamic link adaptivity (speedup vs static symmetric links)",
        &["1K-cyc", "5K-cyc", "10K-cyc", "50K-cyc", "2x-BW"],
        speedups(runner, &wls, &v("loc4", configs::locality(4)), &variants),
        |r| r.values[4],
    )
}

/// §4.1 sensitivity: lane switch time 10/100/500 cycles at the 5K-cycle
/// sample time (geomean speedup over the static baseline).
pub fn fig6_switch_sensitivity(runner: &mut Runner) -> Table {
    let wls = study(runner);
    let variants: Vec<Variant> = SWITCH_TIMES
        .iter()
        .map(|&sw| {
            let mut cfg = configs::dynamic_link(4, 5_000);
            cfg.link.switch_time_cycles = sw;
            v(format!("dyn4-sw{sw}"), cfg)
        })
        .collect();
    let rows = speedups(runner, &wls, &v("loc4", configs::locality(4)), &variants);
    let mut t = Table::new(
        "S4.1 sensitivity: lane switch time (geomean speedup vs static links)",
        &["geomean-speedup"],
    );
    for (sw, gm) in SWITCH_TIMES.iter().zip(geomeans(&rows)) {
        t.push(Row::new(format!("switch-{sw}-cycles"), vec![gm]));
    }
    t
}

/// Figure 8: the four L2 organizations of Figure 7, as speedup over the
/// mem-side local-only baseline. Sorted by the NUMA-aware column.
pub fn fig8(runner: &mut Runner) -> Table {
    let wls = study(runner);
    let memside = v("loc4", configs::locality(4));
    let cache = |label: &str, mode| v(label, configs::cache(4, mode));
    let variants = [
        memside.clone(),
        cache("cache-static", CacheMode::StaticRemoteCache),
        cache("cache-shared", CacheMode::SharedCoherent),
        cache("cache-numa", CacheMode::NumaAwareDynamic),
    ];
    ranked(
        "Figure 8: NUMA-aware cache partitioning (speedup vs mem-side L2)",
        &["mem-side", "static-50/50", "shared-coherent", "numa-aware"],
        speedups(runner, &wls, &memside, &variants),
        |r| r.values[3],
    )
}

/// Figure 9: overhead of extending SW coherence into the L2 — performance
/// of the hypothetical invalidation-free L2 relative to the real one
/// (`>1` = the flush costs performance).
pub fn fig9(runner: &mut Runner) -> Table {
    let wls = study(runner);
    let mut ideal = configs::cache(4, CacheMode::NumaAwareDynamic);
    ideal.ideal_no_l2_invalidate = true;
    let real = v("cache-numa", configs::cache(4, CacheMode::NumaAwareDynamic));
    let mut rows = speedups(runner, &wls, &real, &[v("cache-numa-ideal", ideal)]);
    for r in &mut rows {
        r.values.push(100.0 * (r.values[0] - 1.0));
    }
    ranked(
        "Figure 9: SW coherence invalidation overhead in the L2",
        &["ideal-vs-real", "overhead-pct"],
        rows,
        |r| r.values[1],
    )
}

/// §5.2 sensitivity: write-back vs write-through L2 under the NUMA-aware
/// design (geomean of WB speedup over WT).
pub fn fig9_writeback(runner: &mut Runner) -> Table {
    let wls = study(runner);
    let mut wt = configs::cache(4, CacheMode::NumaAwareDynamic);
    wt.l2_write_policy = WritePolicy::WriteThrough;
    let wb = v("cache-numa", configs::cache(4, CacheMode::NumaAwareDynamic));
    let rows = speedups(runner, &wls, &v("cache-numa-wt", wt), &[wb]);
    let mut t = Table::new(
        "S5.2 sensitivity: write-back vs write-through L2 (NUMA-aware design)",
        &["geomean-WB-over-WT"],
    );
    t.push(Row::new("study-set", geomeans(&rows)));
    t
}

/// Figure 10: combined improvement — SW baseline, dynamic links only,
/// NUMA-aware caches only, both, and the 4× hypothetical, all vs one GPU.
pub fn fig10(runner: &mut Runner) -> Table {
    let wls = workloads(runner);
    let variants = [
        v("loc4", configs::locality(4)),
        v("dyn4-5000", configs::dynamic_link(4, 5_000)),
        v("cache-numa", configs::cache(4, CacheMode::NumaAwareDynamic)),
        v("aware4", configs::numa_aware(4)),
        v("hypo4", configs::hypothetical(4)),
    ];
    ranked(
        "Figure 10: combined NUMA-aware GPU (speedup vs 1 GPU)",
        &[
            "SW-baseline",
            "dyn-link",
            "numa-cache",
            "combined",
            "hypo-4x",
        ],
        speedups(runner, &wls, &v("single", configs::single()), &variants),
        |r| r.values[4] - r.values[3],
    )
}

/// Figure 11: 2/4/8-socket NUMA-aware scalability against the equally
/// scaled hypothetical single GPUs, over all 41 workloads.
pub fn fig11(runner: &mut Runner) -> Table {
    let wls = workloads(runner);
    let sockets = [2u8, 4, 8];
    let aware = sockets.map(|n| v(format!("aware{n}"), configs::numa_aware(n)));
    let hypo = sockets.map(|n| v(format!("hypo{n}"), configs::hypothetical(n)));
    let single = v("single", configs::single());
    let mut t = ranked(
        "Figure 11: 1-8 socket scalability (speedup vs 1 GPU)",
        &[
            "aware-2s", "aware-4s", "aware-8s", "hypo-2x", "hypo-4x", "hypo-8x",
        ],
        speedups(runner, &wls, &single, &[aware, hypo].concat()),
        // Smallest 8-socket speedup first.
        |r| -r.values[2],
    );
    // Efficiency vs theoretical scaling, from the geometric means.
    let gm = t.rows.last().expect("mean rows pushed").values.clone();
    let mut efficiency: Vec<f64> = (0..3).map(|i| 100.0 * gm[i] / gm[i + 3]).collect();
    efficiency.extend([100.0; 3]);
    t.push(Row::new("Efficiency-pct(aware/hypo)", efficiency));
    t
}

/// §6 power: average interconnect power (10 pJ/b) for the SW baseline vs
/// the NUMA-aware design, per workload plus means.
pub fn power(runner: &mut Runner) -> Table {
    let wls = workloads(runner);
    let variants = vec![
        v("loc4", configs::locality(4)),
        v("aware4", configs::numa_aware(4)),
    ];
    runner.execute(SimPlan::cross(&variants, &wls));

    let mut t = Table::new(
        "S6 power: average interconnect power (W, 10 pJ/b)",
        &["baseline-W", "numa-aware-W"],
    );
    for wl in &wls {
        let base = runner.lookup("loc4", wl);
        let aware = runner.lookup("aware4", wl);
        t.push(Row::new(
            wl.meta.name.clone(),
            vec![base.link_power_w, aware.link_power_w],
        ));
    }
    t.push_means();
    t
}

/// Design-choice ablations beyond the paper: partition sample time,
/// placement, CTA scheduling and warp memory-level parallelism under the
/// NUMA-aware design.
pub fn ablations(runner: &mut Runner) -> Table {
    use numa_gpu_types::{CtaSchedulingPolicy, PagePlacement};
    let aware = |label: &str, tweak: fn(&mut SystemConfig)| {
        let mut cfg = configs::numa_aware(4);
        tweak(&mut cfg);
        v(label, cfg)
    };
    let variants = [
        aware("aware4", |_| {}),
        aware("aware-sample-1k", |c| c.cache_sample_time_cycles = 1_000),
        aware("aware-sample-20k", |c| c.cache_sample_time_cycles = 20_000),
        aware("aware-page-interleave", |c| {
            c.placement = PagePlacement::PageInterleave
        }),
        aware("aware-cta-interleave", |c| {
            c.cta_policy = CtaSchedulingPolicy::Interleave
        }),
        aware("aware-mlp-1", |c| c.sm.max_pending_loads = 1),
        aware("aware-mlp-8", |c| c.sm.max_pending_loads = 8),
    ];
    let wls = study(runner);
    let rows = speedups(runner, &wls, &v("loc4", configs::locality(4)), &variants);
    let mut t = Table::new(
        "Ablations (geomean speedup vs SW baseline, study set)",
        &["geomean-speedup"],
    );
    for ((label, _), gm) in variants.iter().zip(geomeans(&rows)) {
        t.push(Row::new(label.clone(), vec![gm]));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_runner() -> Runner {
        Runner::new(numa_gpu_workloads::Scale::quick())
    }

    /// Pins an artifact's quick-scale text by its fnv1a64, recorded before
    /// figure assembly moved onto one declaration routine: a change to how
    /// tables are put together must not move a byte of them.
    fn assert_pinned(name: &str, text: &str, golden: u64) {
        let got = numa_gpu_testkit::fnv1a64(text.as_bytes());
        assert_eq!(got, golden, "{name} bytes moved (now {got:#018x})");
    }

    #[test]
    fn simulation_free_artifacts_are_pinned() {
        let r = quick_runner();
        assert_pinned("table1", &table1(), 0xe9b21d0f49604e6a);
        assert_pinned("table2", &table2(&r).to_string(), 0x19fb558a8fc3b926);
        assert_pinned("fig2", &fig2(&r).to_string(), 0x3a42266e2daa0ad3);
    }

    #[test]
    fn table1_mentions_key_parameters() {
        let s = table1();
        assert!(s.contains("768GB/s"));
        assert!(s.contains("128-cycle latency"));
        assert!(s.contains("4MB per socket"));
    }

    #[test]
    fn table2_has_41_rows() {
        let t = table2(&quick_runner());
        assert_eq!(t.rows.len(), 41);
    }

    #[test]
    fn fig2_is_monotone_decreasing() {
        let t = fig2(&quick_runner());
        assert_eq!(t.rows.len(), 8);
        let pct: Vec<f64> = t.rows.iter().map(|r| r.values[1]).collect();
        assert!(pct.windows(2).all(|w| w[0] >= w[1]));
        assert!((pct[0] - 95.12).abs() < 0.1); // 39/41 fill a 1x GPU
        assert!((pct[7] - 80.48).abs() < 0.1); // 33/41 fill an 8x GPU
    }

    /// The one full-catalog sweep that runs un-ignored: besides the table
    /// shape and bytes it pins that assembly is lookup-only — the
    /// simulations run are exactly the declared plan, no more.
    #[test]
    fn fig3_runs_at_quick_scale() {
        let mut r = quick_runner().jobs(numa_gpu_exec::ThreadPool::available().workers());
        let t = fig3(&mut r);
        assert_eq!(t.rows.len(), 41 + 2); // workloads + two mean rows
        assert!(t.rows.iter().all(|row| row.values.iter().all(|v| *v > 0.0)));
        let declared = SimPlan::cross(&fig3_variants(), &workloads(&r)).len();
        assert_eq!(r.runs(), declared as u64, "fig3 ran outside its plan");
        assert_pinned("fig3", &t.to_string(), 0xc48e61f74e338210);
    }

    // Full-harness smoke tests: run with `cargo test -- --ignored` (each
    // simulates dozens of quick-scale workloads; minutes in debug).
    #[test]
    #[ignore = "slow: simulates the study set under five link configs"]
    fn fig6_runs_at_quick_scale() {
        let mut r = quick_runner();
        let t = fig6(&mut r);
        assert_eq!(t.rows.len(), 32 + 2);
    }

    #[test]
    #[ignore = "slow: simulates the study set under four cache modes"]
    fn fig8_runs_at_quick_scale() {
        let mut r = quick_runner();
        let t = fig8(&mut r);
        assert_eq!(t.rows.len(), 32 + 2);
        // The mem-side column is the baseline of 1.0 by construction.
        assert!(t.rows[..32].iter().all(|row| row.values[0] == 1.0));
    }

    #[test]
    #[ignore = "slow: simulates the study set under seven ablation variants"]
    fn ablations_are_pinned() {
        let mut r = quick_runner().jobs(numa_gpu_exec::ThreadPool::available().workers());
        let text = ablations(&mut r).to_string();
        assert_pinned("ablations", &text, 0xe36436bcad12ab76);
    }

    #[test]
    #[ignore = "slow: full scalability sweep"]
    fn fig11_efficiency_row_present() {
        let mut r = quick_runner();
        let t = fig11(&mut r);
        let last = t.rows.last().unwrap();
        assert!(last.label.starts_with("Efficiency"));
        assert_eq!(last.values.len(), 6);
    }

    #[test]
    fn fig5_csv_has_header_and_markers() {
        let mut r = quick_runner();
        let csv = fig5(&mut r);
        assert!(csv.starts_with("cycle,gpu,"));
        assert!(csv.contains("kernel_start,"));
        assert_pinned("fig5", &csv, 0xf66539341c85f69a);
    }

    #[test]
    fn fig3_variants_cover_the_four_policies() {
        let labels: Vec<String> = fig3_variants().into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, ["single", "trad4", "loc4", "hypo4"]);
    }
}
