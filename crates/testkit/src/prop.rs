//! Minimal property-based testing: deterministic case generation,
//! counterexample shrinking, and persisted regression seeds.
//!
//! Tests are written with [`crate::prop_check!`]; assertions inside a
//! property use [`crate::prop_assert!`] and friends, which report the
//! failing case back to the runner instead of unwinding immediately (plain
//! panics are caught and treated as failures too, so `unwrap` in a
//! property still shrinks).
//!
//! Every case is generated from a 64-bit *case seed* derived from a fixed
//! per-test stream, so runs are identical across machines. When a property
//! fails, the runner shrinks the counterexample and prints the case seed;
//! pinning that seed in [`Config::regressions`] re-runs the historical
//! counterexample before any fresh cases, which is how regression seeds
//! are persisted in source control.

use crate::gen::Gen;
use crate::rng::{DetRng, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-test harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fresh cases to generate (default 256; override with
    /// `TESTKIT_CASES`).
    pub cases: u32,
    /// Budget of property evaluations spent shrinking a failure.
    pub max_shrink_iters: u32,
    /// Abort if more than this many cases are discarded by
    /// [`crate::prop_assume!`].
    pub max_discards: u32,
    /// Case seeds of historical counterexamples, re-run before fresh
    /// cases.
    pub regressions: Vec<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            max_shrink_iters: 4096,
            max_discards: 65_536,
            regressions: Vec::new(),
        }
    }
}

impl Config {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the fresh-case count.
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Pins historical counterexample seeds (from a failure report).
    pub fn regressions(mut self, seeds: &[u64]) -> Self {
        self.regressions = seeds.to_vec();
        self
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Human-readable description of the violated expectation.
    pub message: String,
    /// `true` when the case was discarded by an assumption rather than
    /// failed.
    pub discard: bool,
}

impl Failure {
    /// A failed assertion.
    pub fn fail(message: impl Into<String>) -> Self {
        Failure {
            message: message.into(),
            discard: false,
        }
    }

    /// A discarded case ([`crate::prop_assume!`]).
    pub fn discard() -> Self {
        Failure {
            message: String::new(),
            discard: true,
        }
    }
}

/// Result type every property body produces.
pub type CaseResult = Result<(), Failure>;

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name} must be a u64 (decimal or 0x-hex), got `{raw}`"),
    }
}

/// Evaluates the property once, converting panics into failures so they
/// shrink like ordinary assertion failures.
fn eval_case<T, F>(prop: &F, value: T) -> CaseResult
where
    F: Fn(T) -> CaseResult,
{
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked".to_string());
            Err(Failure::fail(format!("panic: {msg}")))
        }
    }
}

/// Runs `prop` against values drawn from `gen` under `config`.
///
/// Drives the pinned regression seeds first, then `config.cases` fresh
/// cases. On failure the counterexample is shrunk greedily and the run
/// panics with the minimal case, its error, and the case seed to pin.
///
/// # Panics
///
/// Panics when the property fails (that is the test signal) or when the
/// discard budget is exhausted.
pub fn run<T, F>(name: &str, config: Config, gen: Gen<T>, prop: F)
where
    T: Clone + std::fmt::Debug + 'static,
    F: Fn(T) -> CaseResult,
{
    let cases = env_u64("TESTKIT_CASES")
        .map(|c| c as u32)
        .unwrap_or(config.cases);
    let mut schedule: Vec<(u64, bool)> = config.regressions.iter().map(|&s| (s, true)).collect();
    if let Some(repro) = env_u64("TESTKIT_REPRO") {
        schedule.push((repro, true));
    } else {
        let mut stream = SplitMix64::new(crate::fnv1a64(name.as_bytes()));
        schedule.extend((0..cases).map(|_| (stream.next_u64(), false)));
    }

    let mut discards = 0u32;
    let mut executed = 0u32;
    for (case_seed, pinned) in schedule {
        let value = gen.sample(&mut DetRng::seed_from_u64(case_seed));
        executed += 1;
        match eval_case(&prop, value.clone()) {
            Ok(()) => {}
            Err(f) if f.discard => {
                discards += 1;
                assert!(
                    discards <= config.max_discards,
                    "property `{name}`: exhausted discard budget \
                     ({discards} discards) — loosen the generators or the assumptions"
                );
            }
            Err(f) => {
                report_failure(
                    name, &config, &gen, &prop, value, f, case_seed, pinned, executed,
                );
            }
        }
    }
}

/// Shrinks a counterexample and panics with the final report.
#[allow(clippy::too_many_arguments)]
fn report_failure<T, F>(
    name: &str,
    config: &Config,
    gen: &Gen<T>,
    prop: &F,
    original: T,
    original_failure: Failure,
    case_seed: u64,
    pinned: bool,
    executed: u32,
) -> !
where
    T: Clone + std::fmt::Debug + 'static,
    F: Fn(T) -> CaseResult,
{
    // Shrink candidates routinely panic; silence the default hook so the
    // report below is the only output. (Restored before the final panic.)
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut minimal = original.clone();
    let mut message = original_failure.message.clone();
    let mut budget = config.max_shrink_iters;
    let mut steps = 0u32;
    'outer: loop {
        for cand in gen.shrinks(&minimal) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Err(f) = eval_case(prop, cand.clone()) {
                if !f.discard {
                    minimal = cand;
                    message = f.message;
                    steps += 1;
                    continue 'outer;
                }
            }
        }
        break;
    }

    std::panic::set_hook(hook);
    let origin = if pinned {
        "pinned regression seed".to_string()
    } else {
        format!("case {executed}")
    };
    panic!(
        "property `{name}` failed ({origin}, case seed {case_seed:#x}):\n\
         \x20 minimal counterexample ({steps} shrink steps): {minimal:?}\n\
         \x20 error: {message}\n\
         \x20 original counterexample: {original:?}\n\
         \x20 original error: {original_message}\n\
         persist it: Config::new().regressions(&[{case_seed:#x}]), \
         or reproduce with TESTKIT_REPRO={case_seed:#x}",
        original_message = original_failure.message,
    );
}

/// Defines property tests.
///
/// Each `fn` becomes a `#[test]`. Its arguments are written
/// `pattern in generator` (up to four); the body runs per generated case
/// and uses [`crate::prop_assert!`] / [`crate::prop_assert_eq!`] /
/// [`crate::prop_assert_ne!`] / [`crate::prop_assume!`]. An optional
/// leading `#![config = expr]` applies one [`Config`] to every test in the
/// block.
///
/// # Examples
///
/// ```
/// use numa_gpu_testkit::gen::{ints, vecs};
/// use numa_gpu_testkit::{prop_assert, prop_check};
///
/// prop_check! {
///     fn sort_is_idempotent(mut v in vecs(ints(0u32..100), 0..20)) {
///         v.sort();
///         let once = v.clone();
///         v.sort();
///         prop_assert!(v == once);
///     }
/// }
/// ```
#[macro_export]
macro_rules! prop_check {
    (@tests ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($pat:pat in $g:expr),+ $(,)? ) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __config = $cfg;
                let __gen = $crate::prop_check!(@gen $($g),+);
                $crate::prop::run(
                    concat!(module_path!(), "::", stringify!($name)),
                    __config,
                    __gen,
                    |$crate::prop_check!(@pat $($pat),+)| -> $crate::prop::CaseResult {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )+
    };

    (@gen $g:expr) => { $g };
    (@gen $g1:expr, $g2:expr) => { $crate::gen::pairs($g1, $g2) };
    (@gen $g1:expr, $g2:expr, $g3:expr) => { $crate::gen::triples($g1, $g2, $g3) };
    (@gen $g1:expr, $g2:expr, $g3:expr, $g4:expr) => {
        $crate::gen::quads($g1, $g2, $g3, $g4)
    };

    (@pat $p:pat) => { $p };
    (@pat $p1:pat, $p2:pat) => { ($p1, $p2) };
    (@pat $p1:pat, $p2:pat, $p3:pat) => { ($p1, $p2, $p3) };
    (@pat $p1:pat, $p2:pat, $p3:pat, $p4:pat) => { ($p1, $p2, $p3, $p4) };

    // Entry points: with or without a block-level config attribute.
    (
        #![config = $cfg:expr]
        $($rest:tt)+
    ) => {
        $crate::prop_check!(@tests ($cfg) $($rest)+);
    };
    ( $($rest:tt)+ ) => {
        $crate::prop_check!(@tests ($crate::prop::Config::default()) $($rest)+);
    };
}

/// Asserts a condition inside a property; on failure the case is reported
/// to the runner (and shrunk) instead of unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::prop::Failure::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{}: {:?} != {:?}", format!($($fmt)+), l, r);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{}: both {:?}", format!($($fmt)+), l, r);
    }};
}

/// Discards the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::prop::Failure::discard());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ints, vecs};

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        run(
            "testkit::pass",
            Config::new().cases(50),
            ints(0u64..100),
            |v| {
                counter.set(counter.get() + 1);
                if v < 100 {
                    Ok(())
                } else {
                    Err(Failure::fail("out of range"))
                }
            },
        );
        count += counter.get();
        assert_eq!(count, 50);
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // Fails for any v >= 10: must shrink exactly to 10.
        let result = catch_unwind(|| {
            run(
                "testkit::shrinks",
                Config::new().cases(200),
                ints(0u64..1000),
                |v| {
                    if v >= 10 {
                        Err(Failure::fail("too big"))
                    } else {
                        Ok(())
                    }
                },
            );
        });
        let msg = panic_message(result);
        assert!(msg.contains("minimal counterexample"), "{msg}");
        assert!(msg.contains(": 10\n"), "did not shrink to 10: {msg}");
        assert!(msg.contains("case seed 0x"), "{msg}");
    }

    #[test]
    fn vec_counterexamples_shrink_structurally() {
        // Fails when the vector holds two or more even values; minimal
        // counterexample is [0, 0].
        let result = catch_unwind(|| {
            run(
                "testkit::vec_shrink",
                Config::new().cases(300),
                vecs(ints(0u32..64), 0..30),
                |v| {
                    if v.iter().filter(|x| **x % 2 == 0).count() >= 2 {
                        Err(Failure::fail("two evens"))
                    } else {
                        Ok(())
                    }
                },
            );
        });
        let msg = panic_message(result);
        assert!(msg.contains("[0, 0]"), "not minimal: {msg}");
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let result = catch_unwind(|| {
            run(
                "testkit::panics",
                Config::new().cases(100),
                ints(0u64..100),
                |v| {
                    assert!(v < 5, "plain assert fired");
                    Ok(())
                },
            );
        });
        let msg = panic_message(result);
        assert!(msg.contains("panic: plain assert fired"), "{msg}");
        assert!(msg.contains(": 5\n"), "should shrink to 5: {msg}");
    }

    #[test]
    fn regression_seeds_run_first() {
        // Derive a case seed that fails, then pin it: the pinned run must
        // hit the failure even with zero fresh cases.
        let result = catch_unwind(|| {
            run(
                "testkit::regression",
                Config::new().cases(0).regressions(&[0xDEAD_BEEF]),
                ints(0u64..u64::MAX),
                |_| Err(Failure::fail("always fails")),
            );
        });
        let msg = panic_message(result);
        assert!(msg.contains("pinned regression seed"), "{msg}");
        assert!(msg.contains("0xdeadbeef"), "{msg}");
    }

    #[test]
    fn discards_do_not_fail_within_budget() {
        run(
            "testkit::discards",
            Config::new().cases(20),
            ints(0u64..100),
            |v| {
                if v % 2 == 0 {
                    Err(Failure::discard())
                } else {
                    Ok(())
                }
            },
        );
    }

    #[test]
    fn same_test_name_generates_identical_schedules() {
        let collect = |name: &str| {
            let seen = std::cell::RefCell::new(Vec::new());
            run(name, Config::new().cases(30), ints(0u64..1 << 60), |v| {
                seen.borrow_mut().push(v);
                Ok(())
            });
            seen.into_inner()
        };
        assert_eq!(collect("testkit::sched"), collect("testkit::sched"));
        assert_ne!(collect("testkit::sched"), collect("testkit::sched2"));
    }

    fn panic_message(result: std::thread::Result<()>) -> String {
        let payload = result.expect_err("property should have failed");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload should be a string")
    }

    mod macro_surface {
        use super::super::Config;
        use crate::gen::{bools, ints, pairs, vecs};

        crate::prop_check! {
            #![config = Config::new().cases(64)]

            fn addition_commutes(a in ints(0u64..1 << 30), b in ints(0u64..1 << 30)) {
                crate::prop_assert_eq!(a + b, b + a);
            }

            fn sorted_vecs_are_monotone(mut v in vecs(ints(0u32..1000), 0..50)) {
                v.sort_unstable();
                crate::prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
            }

            fn three_args(a in ints(0u8..10), flag in bools(), v in vecs(ints(0u8..4), 1..5)) {
                crate::prop_assume!(!v.is_empty());
                let bound = if flag { 10 } else { 11 };
                crate::prop_assert!(a < bound);
                crate::prop_assert_ne!(v.len(), 0);
            }

            fn tuple_patterns((x, y) in pairs(ints(0u16..50), ints(50u16..100))) {
                crate::prop_assert!(x < y);
            }
        }
    }
}
