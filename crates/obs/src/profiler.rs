//! Self-profiling: per-subsystem attribution of simulation work.
//!
//! The profiler answers "where does a run's wall-clock go?" without a
//! sampling profiler and without perturbing the run. Instead of timing
//! anything, it collects the *monotonic work counters* the simulator
//! maintains anyway — events popped, calendar-queue path splits,
//! service-queue requests, cross-socket merges, allocations avoided by
//! buffer recycling — and attributes each to the subsystem that did the
//! work (`engine`, `sm`, `cache`, `mem`, `interconnect`).
//!
//! # Timing invariance
//!
//! Every counter is a pure function of the simulated event sequence, which
//! is deterministic by construction. Assembling a [`ProfileReport`] happens
//! once, at report time, from values that exist whether or not profiling is
//! enabled — so turning the profile on cannot change simulated timing, the
//! event order, or any other report field. No wall clocks are read
//! anywhere (the in-tree `simlint` D002 rule forbids `Instant` outside the
//! bench harness).
//!
//! # Reading a profile
//!
//! Counters are *work volumes*, not seconds. The leverage of an
//! optimization is proportional to the counter it shrinks times the
//! per-unit cost it removes; see DESIGN.md §13 for a worked walkthrough.
//!
//! # Example
//!
//! ```
//! use numa_gpu_obs::{ProfileReport, ProfileScope};
//!
//! let mut p = ProfileReport::new();
//! p.scope("engine")
//!     .count("events_popped", 1_000)
//!     .count("queue_bucket_pushes", 900);
//! p.scope("sm").count("warp_ops_issued", 640);
//! assert_eq!(p.get("engine", "events_popped"), Some(1_000));
//! let table = p.render_table();
//! assert!(table.contains("engine"));
//! assert!(table.contains("events_popped"));
//! ```

use numa_gpu_testkit::json::Json;

/// Work counters attributed to one subsystem.
///
/// Counters keep insertion order, so a scope's JSON encoding and rendered
/// table are byte-stable across identical runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileScope {
    /// Subsystem name (`engine`, `sm`, `cache`, `mem`, `interconnect`).
    pub name: String,
    /// `(counter, value)` pairs in insertion order.
    pub counters: Vec<(String, u64)>,
}

impl ProfileScope {
    /// Adds (or accumulates into) a named counter and returns `self` for
    /// chaining.
    pub fn count(&mut self, name: &str, value: u64) -> &mut Self {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = v.saturating_add(value),
            None => self.counters.push((name.to_string(), value)),
        }
        self
    }

    /// Sum of this scope's counters — the scope's share in the summary
    /// table. Counters measure different units of work, so the sum is a
    /// rough volume indicator, not a precise cost.
    pub fn total(&self) -> u64 {
        self.counters.iter().map(|(_, v)| *v).sum()
    }
}

/// A per-subsystem work-attribution profile, assembled at report time from
/// the simulator's own monotonic counters.
///
/// Scopes and counters keep insertion order; construction code must add
/// them in a fixed order so the encoding is byte-stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Attribution scopes in insertion order.
    pub scopes: Vec<ProfileScope>,
}

impl ProfileReport {
    /// Creates an empty profile.
    pub fn new() -> Self {
        ProfileReport { scopes: Vec::new() }
    }

    /// Returns the scope named `name`, creating it at the end if absent.
    pub fn scope(&mut self, name: &str) -> &mut ProfileScope {
        if let Some(i) = self.scopes.iter().position(|s| s.name == name) {
            &mut self.scopes[i]
        } else {
            self.scopes.push(ProfileScope {
                name: name.to_string(),
                counters: Vec::new(),
            });
            let last = self.scopes.len() - 1;
            &mut self.scopes[last]
        }
    }

    /// Looks up one counter value.
    pub fn get(&self, scope: &str, counter: &str) -> Option<u64> {
        self.scopes
            .iter()
            .find(|s| s.name == scope)?
            .counters
            .iter()
            .find(|(n, _)| n == counter)
            .map(|(_, v)| *v)
    }

    /// Machine-readable form: `{"scopes": [{"name", "counters": {...}}]}`
    /// with scopes and counters in insertion order (byte-stable).
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "scopes",
            Json::Arr(
                self.scopes
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(s.name.clone())),
                            (
                                "counters".to_string(),
                                Json::Obj(
                                    s.counters
                                        .iter()
                                        .map(|(n, v)| (n.clone(), Json::UInt(*v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// Renders the human summary table printed by `simulate --profile`:
    /// one header line per scope with its work-volume total, one indented
    /// line per counter.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "self-profile (work units, not seconds):");
        for scope in &self.scopes {
            let _ = writeln!(out, "  {:<14} {:>14}", scope.name, scope.total());
            for (name, value) in &scope.counters {
                let _ = writeln!(out, "    {:<24} {:>12}", name, value);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileReport {
        let mut p = ProfileReport::new();
        p.scope("engine")
            .count("events_popped", 10)
            .count("queue_bucket_pushes", 7);
        p.scope("mem").count("dram_requests", 3);
        p
    }

    #[test]
    fn counters_accumulate_and_keep_order() {
        let mut p = sample();
        p.scope("engine").count("events_popped", 5);
        assert_eq!(p.get("engine", "events_popped"), Some(15));
        let names: Vec<_> = p.scopes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["engine", "mem"]);
        assert_eq!(p.scopes[0].total(), 22);
    }

    #[test]
    fn json_is_byte_stable_and_reparses() {
        let p = sample();
        let a = p.to_json().to_string();
        let b = p.to_json().to_string();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).unwrap();
        let scopes = parsed.get("scopes").unwrap().as_array().unwrap();
        assert_eq!(scopes.len(), 2);
        assert_eq!(
            scopes[0]
                .get("counters")
                .unwrap()
                .get("events_popped")
                .unwrap()
                .as_u64(),
            Some(10)
        );
    }

    #[test]
    fn table_lists_every_counter() {
        let table = sample().render_table();
        for needle in [
            "engine",
            "events_popped",
            "queue_bucket_pushes",
            "mem",
            "dram_requests",
        ] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }

    #[test]
    fn missing_lookups_are_none() {
        let p = sample();
        assert_eq!(p.get("engine", "nope"), None);
        assert_eq!(p.get("nope", "events_popped"), None);
    }
}
