//! Every defect simlint has caught in this tree's history, rebuilt as a
//! minimal fixture that must keep firing at its exact span.
//!
//! Each fixture places the offending lines verbatim, at their original
//! path and line numbers, in a temp workspace and runs it through
//! [`lint_workspace`]. A rule that stops catching its own history fails
//! here before anyone relies on it.
//!
//! | Rule | Commit | What it caught | Fixture |
//! |---|---|---|---|
//! | D001 | a3ce225 (sources from its parent) | `HashMap`/`HashSet` in `mem/page_table.rs`, `bench/runner.rs`, `cache/mshr.rs`, `bench/plan.rs` | `d001_hash_collections_in_page_table_runner_mshr_and_plan` |
//! | D003 | a3ce225 (sources from its parent) | `.sum::<f64>()` in `bench::geomean` and `bench::amean` | `d003_float_sums_in_geomean_and_amean` |
//! | D002 | — | no historical catch | `rules::tests::d002_positive_and_negative` |
//! | Z001 | — | no historical catch | `manifest::tests::crate_deps_must_inherit_or_path` |
//! | S003 | — | no historical catch | `rules::tests::s003_flags_unsafe` |

use numa_gpu_lint::lint_workspace;
use std::fs;
use std::path::PathBuf;

/// One file of a fixture: its workspace-relative path and the lines it
/// holds, each at its 1-based line number (the lines between are blank).
type FixtureFile = (&'static str, &'static [(u32, &'static str)]);

/// Lints a temp workspace holding `files` (plus a manifest for every
/// crate they name) and returns its findings as `(file, line, col, rule)`.
fn lint_fixture(tag: &str, files: &[FixtureFile]) -> Vec<(String, u32, u32, &'static str)> {
    let root: PathBuf =
        std::env::temp_dir().join(format!("simlint-caught-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("mkdir temp root");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write root manifest");
    for (path, lines) in files {
        let mut src = String::new();
        let mut at = 1;
        for &(line, text) in lines.iter() {
            while at < line {
                src.push('\n');
                at += 1;
            }
            src.push_str(text);
            src.push('\n');
            at += 1;
        }
        let file = root.join(path);
        let crate_dir = file
            .parent()
            .and_then(|src| src.parent())
            .expect("crate dir");
        fs::create_dir_all(file.parent().expect("src dir")).expect("mkdir");
        fs::write(crate_dir.join("Cargo.toml"), "[package]\n").expect("write manifest");
        fs::write(&file, src).expect("write fixture");
    }
    let report = lint_workspace(&root).expect("fixture scan");
    let _ = fs::remove_dir_all(&root);
    report
        .findings
        .into_iter()
        .map(|f| (f.file, f.line, f.col, f.rule))
        .collect()
}

fn at(file: &str, line: u32, col: u32, rule: &'static str) -> (String, u32, u32, &'static str) {
    (file.to_string(), line, col, rule)
}

#[test]
fn d001_hash_collections_in_page_table_runner_mshr_and_plan() {
    let found = lint_fixture(
        "d001",
        &[
            (
                "crates/mem/src/page_table.rs",
                &[
                    (4, "use std::collections::HashMap;"),
                    (52, "pub struct PageTable {"),
                    (55, "    first_touch: HashMap<PageId, SocketId>,"),
                    (56, "    migration: HashMap<PageId, MigrationState>,"),
                    (58, "}"),
                ],
            ),
            (
                "crates/bench/src/runner.rs",
                &[
                    (19, "use std::collections::HashMap;"),
                    (26, "pub struct Runner {"),
                    (28, "    cache: HashMap<JobKey, Arc<SimReport>>,"),
                    (29, "}"),
                ],
            ),
            (
                "crates/cache/src/mshr.rs",
                &[
                    (4, "use std::collections::HashMap;"),
                    (36, "pub struct MshrFile<W> {"),
                    (38, "    entries: HashMap<LineAddr, Vec<W>>,"),
                    (39, "}"),
                ],
            ),
            (
                "crates/bench/src/plan.rs",
                &[
                    (24, "use std::collections::HashSet;"),
                    (94, "pub struct SimPlan {"),
                    (96, "    seen: HashSet<JobKey>,"),
                    (97, "}"),
                ],
            ),
        ],
    );
    assert_eq!(
        found,
        vec![
            at("crates/bench/src/plan.rs", 24, 23, "D001"),
            at("crates/bench/src/plan.rs", 96, 11, "D001"),
            at("crates/bench/src/runner.rs", 19, 23, "D001"),
            at("crates/bench/src/runner.rs", 28, 12, "D001"),
            at("crates/cache/src/mshr.rs", 4, 23, "D001"),
            at("crates/cache/src/mshr.rs", 38, 14, "D001"),
            at("crates/mem/src/page_table.rs", 4, 23, "D001"),
            at("crates/mem/src/page_table.rs", 55, 18, "D001"),
            at("crates/mem/src/page_table.rs", 56, 16, "D001"),
        ]
    );
}

#[test]
fn d003_float_sums_in_geomean_and_amean() {
    let found = lint_fixture(
        "d003",
        &[(
            "crates/bench/src/lib.rs",
            &[
                (29, "pub fn geomean(values: &[f64]) -> f64 {"),
                (
                    39,
                    "        (logs.iter().sum::<f64>() / logs.len() as f64).exp()",
                ),
                (41, "}"),
                (44, "pub fn amean(values: &[f64]) -> f64 {"),
                (
                    48,
                    "        values.iter().sum::<f64>() / values.len() as f64",
                ),
                (50, "}"),
            ],
        )],
    );
    assert_eq!(
        found,
        vec![
            at("crates/bench/src/lib.rs", 39, 22, "D003"),
            at("crates/bench/src/lib.rs", 48, 23, "D003"),
        ]
    );
}
