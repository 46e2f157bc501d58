//! The build is offline: every package in both lockfiles is a path crate
//! of this repository. A registry or git dependency would fail only at the
//! network boundary (CI builds with `CARGO_NET_OFFLINE=true`), far from the
//! edit that added it; Cargo writes a `source = ...` line for exactly those
//! packages, so a lockfile with none has no dependency from outside.

use std::path::Path;

fn assert_only_path_packages(lockfile: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(lockfile);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let packages = text.lines().filter(|l| *l == "[[package]]").count();
    assert!(packages > 1, "{lockfile} lists {packages} package(s)");
    let external: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("source ="))
        .collect();
    assert!(
        external.is_empty(),
        "{lockfile} has packages from outside the repository: {external:?}"
    );
}

#[test]
fn workspace_lockfile_lists_only_path_packages() {
    assert_only_path_packages("Cargo.lock");
}

#[test]
fn benchmark_lockfile_lists_only_path_packages() {
    assert_only_path_packages("benchmark/Cargo.lock");
}
