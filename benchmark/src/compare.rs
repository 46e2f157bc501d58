//! `compare A.json B.json`: two records written by `run`, side by side.
//!
//! For every workload × end-to-end metric it prints both values, the ratio
//! B ÷ A, the bound, and a verdict: `unresolved` when either run holds
//! fewer samples than the metric needs or its samples spread wider than the
//! bound (so one pair of runs cannot settle it), `regressed` when B's value
//! is worse than A's by more than the bound, `ok` otherwise. Any failed
//! operation in B is a regression of its own.

use crate::metrics::{EndToEnd, END_TO_END};
use numa_gpu_testkit::json::Json;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if metric.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// `samples` is the smaller sample count of the two runs and `spread` the
/// wider interquartile range ÷ median of their samples.
pub fn verdict(metric: &EndToEnd, a: f64, b: f64, samples: u64, spread: f64) -> Verdict {
    if samples < metric.min_samples as u64 || spread > metric.bound {
        Verdict::Unresolved
    } else if worse_by(metric, a, b) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&raw).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("mode").and_then(Json::as_str) != Some("run") {
        return Err(format!("{path}: not a record written by `run`"));
    }
    Ok(doc)
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads")
        .and_then(Json::as_array)
        .unwrap_or_default()
}

fn field(metric: Option<&Json>, key: &str) -> Option<f64> {
    metric?.get(key)?.as_f64()
}

pub fn compare(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<17} {:<13} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut regressed = false;
    for wa in workloads(&a) {
        let name = wa.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<17} missing from {path_b}");
            regressed = true;
            continue;
        };
        for metric in &END_TO_END {
            let of = |w: &Json| w.get("metrics").and_then(|m| m.get(metric.name)).cloned();
            let (ma, mb) = (of(wa), of(wb));
            let (Some(va), Some(vb)) = (field(ma.as_ref(), "value"), field(mb.as_ref(), "value"))
            else {
                println!("{name:<17} {:<13} missing", metric.name);
                regressed = true;
                continue;
            };
            let both = |key: &str| [&ma, &mb].map(|m| field(m.as_ref(), key).unwrap_or(0.0));
            let samples = both("n").into_iter().fold(f64::INFINITY, f64::min) as u64;
            let spread = both("spread").into_iter().fold(0.0, f64::max);
            let v = verdict(metric, va, vb, samples, spread);
            regressed |= v == Verdict::Regressed;
            println!(
                "{name:<17} {:<13} {va:>14.4} {vb:>14.4} {:>8.4} {:>5.0}%  {}",
                metric.name,
                vb / va,
                metric.bound * 100.0,
                match v {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regressed => "regressed".to_string(),
                    Verdict::Unresolved =>
                        format!("unresolved (n={samples}, spread {:.1}%)", spread * 100.0),
                }
            );
        }
        let failed = |w: &Json| w.get("failed").and_then(Json::as_u64).unwrap_or(1);
        let v = if failed(wb) == 0 { "ok" } else { "regressed" };
        regressed |= failed(wb) != 0;
        println!(
            "{name:<17} {:<13} {:>14} {:>14} {:>8} {:>6}  {v}",
            "failed",
            failed(wa),
            failed(wb),
            "-",
            "0"
        );
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_samples_and_spread() {
        let higher = &END_TO_END[0];
        assert!(higher.higher_is_better && higher.bound == 0.25 && higher.min_samples == 3);
        assert_eq!(verdict(higher, 100.0, 80.0, 10, 0.01), Verdict::Ok);
        assert_eq!(verdict(higher, 100.0, 70.0, 10, 0.01), Verdict::Regressed);
        assert_eq!(verdict(higher, 100.0, 140.0, 10, 0.01), Verdict::Ok);
        assert_eq!(verdict(higher, 100.0, 70.0, 10, 0.3), Verdict::Unresolved);
        assert_eq!(verdict(higher, 100.0, 70.0, 2, 0.0), Verdict::Unresolved);
        let lower = &END_TO_END[2];
        assert!(!lower.higher_is_better && lower.bound == 0.25);
        assert_eq!(verdict(lower, 10.0, 13.0, 3, 0.0), Verdict::Regressed);
        assert_eq!(verdict(lower, 10.0, 9.0, 3, 0.0), Verdict::Ok);
        let reading = &END_TO_END[1];
        assert_eq!(verdict(reading, 10.0, 10.5, 1, 0.0), Verdict::Ok);
    }
}
