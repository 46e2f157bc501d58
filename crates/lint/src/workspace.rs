//! Deterministic workspace walker and two-pass orchestration.
//!
//! Scans, in sorted order:
//!
//! * the root `Cargo.toml` and every `crates/*/Cargo.toml` (Z001);
//! * every `.rs` file under the root package's `src/` and under each
//!   `crates/*/src/` (source rules).
//!
//! `tests/`, `benches/` and `examples/` directories are *not* scanned:
//! test and example code is exempt from every rule by design, exactly like
//! `#[cfg(test)]` items inside `src/`.
//!
//! Analysis runs in two passes. First the per-file phase
//! ([`rules::analyze_file`](crate::rules::analyze_file)) — token rules,
//! pragma collection, type parse. Then the cross-file S002
//! [`isolation`](crate::isolation) closure runs over *all* files' types
//! (a shard can hold a type declared in any crate), and pragma settlement
//! closes out each file.
//!
//! Paths are reported workspace-relative with `/` separators and the file
//! list is sorted before analysis, so the report is byte-identical across
//! runs and platforms.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::findings::{Finding, LintReport};
use crate::isolation::{run_isolation, SimFile};
use crate::manifest::analyze_manifest;
use crate::pragma::apply_pragmas;
use crate::rules::{analyze_file, FileAnalysis, FileScope};

fn rel(root: &Path, path: &Path) -> String {
    let r = path.strip_prefix(root).unwrap_or(path);
    let mut out = String::new();
    for comp in r.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&comp.as_os_str().to_string_lossy());
    }
    out
}

/// Collects every `.rs` file under `dir`, recursively, sorted by path.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            rust_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Sorted list of crate directories (`crates/*`) that contain a manifest.
fn crate_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Ok(Vec::new());
    }
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Lints the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();

    let mut manifests = Vec::new();
    if root.join("Cargo.toml").is_file() {
        manifests.push(root.join("Cargo.toml"));
    }
    for dir in crate_dirs(root)? {
        manifests.push(dir.join("Cargo.toml"));
    }
    for m in manifests {
        let src = fs::read_to_string(&m)?;
        report
            .findings
            .extend(analyze_manifest(&rel(root, &m), &src));
        report.manifests_scanned += 1;
    }

    let mut sources = Vec::new();
    rust_files(&root.join("src"), &mut sources)?;
    for dir in crate_dirs(root)? {
        rust_files(&dir.join("src"), &mut sources)?;
    }

    // Pass 1: per-file analysis.
    let mut analyses: Vec<(String, FileAnalysis)> = Vec::new();
    for s in sources {
        let path = rel(root, &s);
        let src = fs::read_to_string(&s)?;
        let fa = analyze_file(&path, &src);
        analyses.push((path, fa));
        report.files_scanned += 1;
    }

    // Pass 2: the cross-file S002 closure over every file's types.
    let sim_files: Vec<SimFile<'_>> = analyses
        .iter()
        .map(|(path, fa)| SimFile {
            path,
            sim_lib: FileScope::classify(path).sim_lib,
            types: &fa.types,
        })
        .collect();
    let mut iso_by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in run_isolation(&sim_files) {
        iso_by_file.entry(f.file.clone()).or_default().push(f);
    }

    // Pragma settlement per file.
    for (path, fa) in analyses.iter() {
        let mut raw = fa.raw.clone();
        if let Some(extra) = iso_by_file.remove(path.as_str()) {
            raw.extend(extra);
        }
        report
            .findings
            .extend(apply_pragmas(path, fa.pragmas.clone(), raw));
    }

    report.normalize();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(path: &Path, body: &str) {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, body).expect("write");
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simlint-ws-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir temp root");
        dir
    }

    #[test]
    fn walks_sorted_and_reports_relative_paths() {
        let root = temp_root("walk");
        write(
            &root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        );
        write(
            &root.join("crates/engine/Cargo.toml"),
            "[package]\nname = \"engine\"\n",
        );
        write(
            &root.join("crates/engine/src/lib.rs"),
            "use std::collections::HashMap;\n",
        );
        write(
            &root.join("crates/engine/tests/it.rs"),
            "use std::collections::HashMap;\n",
        );
        let report = lint_workspace(&root).expect("lint");
        assert_eq!(report.manifests_scanned, 2);
        // tests/ is not scanned.
        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!(f.rule, "D001");
        assert_eq!(f.file, "crates/engine/src/lib.rs");
        assert_eq!((f.line, f.col), (1, 23));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn report_is_byte_identical_across_runs() {
        let root = temp_root("stable");
        write(&root.join("Cargo.toml"), "[workspace]\n");
        write(
            &root.join("crates/sm/Cargo.toml"),
            "[dependencies]\nserde = \"1.0\"\n",
        );
        write(
            &root.join("crates/sm/src/lib.rs"),
            "pub fn f() { unsafe { g() } }\nuse std::collections::HashSet;\n",
        );
        let a = lint_workspace(&root).expect("lint").to_json().to_string();
        let b = lint_workspace(&root).expect("lint").to_json().to_string();
        assert_eq!(a, b);
        assert!(a.contains("\"Z001\"") && a.contains("\"S003\"") && a.contains("\"D001\""));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn isolation_rules_cross_crate_boundaries() {
        let root = temp_root("xcrate");
        write(&root.join("Cargo.toml"), "[workspace]\n");
        write(&root.join("crates/core/Cargo.toml"), "[package]\n");
        write(&root.join("crates/obs/Cargo.toml"), "[package]\n");
        write(
            &root.join("crates/core/src/lib.rs"),
            "pub struct SocketShard { h: Handle }\n",
        );
        // The interior-mutable field lives in a non-sim crate but is
        // reachable from SocketShard — S002 must still see it.
        write(
            &root.join("crates/obs/src/lib.rs"),
            "pub struct Handle { m: Mutex<u32> }\n",
        );
        let report = lint_workspace(&root).expect("lint");
        let s002: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "S002")
            .collect();
        assert_eq!(s002.len(), 1);
        assert_eq!(s002[0].file, "crates/obs/src/lib.rs");
        assert_eq!((s002[0].line, s002[0].col), (1, 24));
        let _ = fs::remove_dir_all(&root);
    }
}
