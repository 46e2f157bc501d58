//! The enforcement gate: plain `cargo test` fails if the workspace has
//! any unsuppressed simlint finding, so determinism regressions are
//! caught in the same run as everything else — no separate lint step
//! needed locally.

use numa_gpu_lint::lint_workspace;
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        report.files_scanned > 50 && report.manifests_scanned > 10,
        "scan looks truncated: {} files, {} manifests",
        report.files_scanned,
        report.manifests_scanned
    );
    assert!(
        report.is_clean(),
        "simlint found {} violation(s) — fix them or add a site-local \
         `simlint: allow(RULE, reason = ...)`:\n{}",
        report.findings.len(),
        report.render_text()
    );
}

#[test]
fn report_json_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = lint_workspace(&root)
        .expect("first scan")
        .to_json()
        .to_string();
    let b = lint_workspace(&root)
        .expect("second scan")
        .to_json()
        .to_string();
    assert_eq!(a, b, "lint report must be byte-stable across runs");
    assert!(a.starts_with("{\"simlint\":3,"));
}

/// Seeding a deliberate `HashMap` into a synthetic `crates/engine` makes
/// the gate fail with a span-accurate D001 — the canary for the whole
/// pipeline (walker → lexer → scope → rule → report).
#[test]
fn seeded_hashmap_in_engine_fails_with_span_accurate_d001() {
    let root = std::env::temp_dir().join(format!("simlint-canary-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let engine_src = root.join("crates/engine/src");
    fs::create_dir_all(&engine_src).expect("mkdir");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write root manifest");
    fs::write(
        root.join("crates/engine/Cargo.toml"),
        "[package]\nname = \"engine\"\n",
    )
    .expect("write crate manifest");
    fs::write(
        engine_src.join("queue.rs"),
        "//! Event queue.\n\nuse std::collections::HashMap;\n",
    )
    .expect("write seeded source");

    let report = lint_workspace(&root).expect("canary scan");
    assert!(!report.is_clean(), "seeded HashMap must be detected");
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(f.rule, "D001");
    assert_eq!(f.file, "crates/engine/src/queue.rs");
    // `use std::collections::HashMap` — the ident starts at column 23.
    assert_eq!((f.line, f.col), (3, 23));
    assert_eq!(
        f.render().split_whitespace().next().unwrap(),
        "crates/engine/src/queue.rs:3:23:"
    );

    // A site pragma with a reason silences it; a pragma without a reason
    // downgrades to a P001 instead of silencing.
    fs::write(
        engine_src.join("queue.rs"),
        "// simlint: allow(D001, reason = \"canary\")\nuse std::collections::HashMap;\n",
    )
    .expect("rewrite seeded source");
    assert!(lint_workspace(&root).expect("scan").is_clean());

    let _ = fs::remove_dir_all(&root);
}
