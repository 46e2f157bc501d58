//! Deterministic workspace walker.
//!
//! Scans, in sorted order:
//!
//! * the root `Cargo.toml` and every `crates/*/Cargo.toml` (Z001);
//! * every `.rs` file under the root package's `src/` and under each
//!   `crates/*/src/` (source rules).
//!
//! `tests/`, `benches/` and `examples/` directories are *not* scanned:
//! test and example code is exempt from every rule by design, exactly like
//! `#[cfg(test)]` items inside `src/`. Each file is linted on its own
//! ([`rules::analyze_source`](crate::rules::analyze_source)).
//!
//! Paths are reported workspace-relative with `/` separators and the file
//! list is sorted before analysis, so the report is byte-identical across
//! runs and platforms.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::findings::LintReport;
use crate::manifest::analyze_manifest;
use crate::rules::analyze_source;

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

    for s in sources {
        let src = fs::read_to_string(&s)?;
        report.findings.extend(analyze_source(&rel(root, &s), &src));
        report.files_scanned += 1;
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
}
