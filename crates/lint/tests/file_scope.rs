//! Pinned units for `FileScope::classify`: the workspace walker hands in
//! every path shape below, and a misclassification either mutes a rule
//! pack or fires it on exempt code.

use numa_gpu_lint::rules::FileScope;

#[test]
fn classify_nested_bin_under_a_sim_crate() {
    // Determinism rules still apply to sim-crate binaries, but they are
    // not sim library code (S003 is off).
    let s = FileScope::classify("crates/core/src/bin/partition_probe.rs");
    assert!(s.d001_d003 && s.d002);
    assert!(!s.sim_lib);
}

#[test]
fn classify_tests_tree_under_a_crate_is_exempt() {
    for p in [
        "crates/engine/tests/determinism.rs",
        "crates/core/src/tests/helpers.rs",
        "crates/mem/benches/hbm.rs",
        "crates/sm/examples/demo.rs",
    ] {
        let s = FileScope::classify(p);
        assert!(
            !s.d001_d003 && !s.d002 && !s.sim_lib,
            "{p} must be exempt from every rule, got {s:?}"
        );
    }
}

#[test]
fn classify_root_binary_and_sim_libraries() {
    // Root `src/bin/simulate.rs` belongs to the top-level crate: not a
    // sim crate.
    let s = FileScope::classify("src/bin/simulate.rs");
    assert!(!s.d001_d003 && s.d002 && !s.sim_lib);
    // Plain sim-crate library code gets the full pack.
    let s = FileScope::classify("crates/engine/src/lib.rs");
    assert!(s.d001_d003 && s.d002 && s.sim_lib);
    // obs is deliberately outside the sim set: S003 does not fire there.
    let s = FileScope::classify("crates/obs/src/metrics.rs");
    assert!(!s.d001_d003 && s.d002 && !s.sim_lib);
}
