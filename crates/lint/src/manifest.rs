//! Z001: every dependency in every manifest must resolve inside the
//! workspace.
//!
//! The rule keeps the build hermetic: CI runs with `CARGO_NET_OFFLINE=true`
//! and a registry dependency sneaking into any `Cargo.toml` would only fail
//! at the network boundary, far from the edit that introduced it. Checked
//! shapes:
//!
//! * root `[workspace.dependencies]`: every entry's value must contain
//!   `path =`;
//! * `[dependencies]` / `[dev-dependencies]` / `[build-dependencies]`
//!   (and their `target.*` variants): every entry must inherit with
//!   `workspace = true` or give an explicit `path =`;
//! * `[dependencies.<name>]` subsections: the section body must contain a
//!   `workspace = true` or `path =` line.
//!
//! This is a line-oriented scan, not a full TOML parser — manifests here
//! are machine-regular, and the linter is deliberately dependency-free.
//! TOML comments may carry the same `simlint:` pragmas as Rust comments.

use crate::findings::Finding;
use crate::pragma::{apply_pragmas, parse_pragma, MARKER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    /// `[workspace.dependencies]` — entries must be path deps.
    WorkspaceDeps,
    /// A dependency table — entries must be workspace or path deps.
    Deps,
    /// `[dependencies.<name>]` — body must contain workspace/path.
    DepSubsection,
    Other,
}

fn classify_section(header: &str) -> Section {
    let h = header.trim();
    if h == "workspace.dependencies" {
        return Section::WorkspaceDeps;
    }
    let dep_tables = ["dependencies", "dev-dependencies", "build-dependencies"];
    for t in dep_tables {
        if h == t || h.ends_with(&format!(".{t}")) && h.starts_with("target.") {
            return Section::Deps;
        }
        if let Some(rest) = h.strip_prefix(t) {
            if rest.starts_with('.') && !rest[1..].is_empty() {
                return Section::DepSubsection;
            }
        }
    }
    Section::Other
}

fn z001(file: &str, line_no: u32, col: u32, what: String) -> Finding {
    Finding {
        file: file.to_string(),
        line: line_no,
        col,
        rule: "Z001",
        message: format!(
            "{what}; every dependency must stay inside the workspace \
             (`workspace = true` or an explicit `path = ...`) — the build is offline"
        ),
    }
}

/// Lints one `Cargo.toml`. `path` is workspace-relative.
pub fn analyze_manifest(path: &str, src: &str) -> Vec<Finding> {
    let mut raw = Vec::new();
    let mut pragmas = Vec::new();
    let mut section = Section::Other;
    // For `[dependencies.<name>]`: (header line, header col, name, satisfied).
    let mut open_sub: Option<(u32, u32, String, bool)> = None;

    let close_sub = |open: &mut Option<(u32, u32, String, bool)>, raw: &mut Vec<Finding>| {
        if let Some((line, col, name, ok)) = open.take() {
            if !ok {
                raw.push(z001(
                    path,
                    line,
                    col,
                    format!("`[dependencies.{name}]` section is not a workspace dependency"),
                ));
            }
        }
    };

    for (idx, full_line) in src.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        // Pragmas ride in TOML comments.
        if let Some(hash) = full_line.find('#') {
            let comment = full_line[hash + 1..].trim_start();
            if let Some(after) = comment.strip_prefix(MARKER) {
                let col = (hash + 1) as u32;
                pragmas.push(parse_pragma(after.trim(), path, line_no, col));
            }
        }
        let line = match full_line.find('#') {
            Some(h) => &full_line[..h],
            None => full_line,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('[') && trimmed.ends_with(']') {
            close_sub(&mut open_sub, &mut raw);
            let header = trimmed.trim_start_matches('[').trim_end_matches(']');
            section = classify_section(header);
            if section == Section::DepSubsection {
                let name = header
                    .rsplit('.')
                    .next()
                    .unwrap_or(header)
                    .trim()
                    .to_string();
                let col = (line.find('[').unwrap_or(0) + 1) as u32;
                open_sub = Some((line_no, col, name, false));
            }
            continue;
        }
        let Some(eq) = trimmed.find('=') else {
            continue;
        };
        let key = trimmed[..eq].trim();
        let value = trimmed[eq + 1..].trim();
        let col = (line.find(key.chars().next().unwrap_or('=')).unwrap_or(0) + 1) as u32;
        match section {
            Section::WorkspaceDeps => {
                if !value.contains("path") {
                    raw.push(z001(
                        path,
                        line_no,
                        col,
                        format!("workspace dependency `{key}` is not a path dependency"),
                    ));
                }
            }
            Section::Deps => {
                let inherited = key.ends_with(".workspace") && value == "true";
                let inline_ok = value.contains("workspace") || value.contains("path");
                if !inherited && !inline_ok {
                    raw.push(z001(
                        path,
                        line_no,
                        col,
                        format!("dependency `{key}` does not resolve inside the workspace"),
                    ));
                }
            }
            Section::DepSubsection => {
                if let Some(sub) = open_sub.as_mut() {
                    if (key == "workspace" && value == "true") || key == "path" {
                        sub.3 = true;
                    }
                }
            }
            Section::Other => {}
        }
    }
    close_sub(&mut open_sub, &mut raw);
    let mut out = apply_pragmas(path, pragmas, raw);
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(src: &str) -> Vec<(&'static str, u32)> {
        analyze_manifest("crates/x/Cargo.toml", src)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn workspace_deps_must_be_path_deps() {
        let ok = "[workspace.dependencies]\nfoo = { path = \"crates/foo\" }\n";
        assert!(hits(ok).is_empty());
        let bad = "[workspace.dependencies]\nserde = \"1.0\"\n";
        assert_eq!(hits(bad), vec![("Z001", 2)]);
    }

    #[test]
    fn crate_deps_must_inherit_or_path() {
        let ok = "[dependencies]\nfoo.workspace = true\nbar = { workspace = true }\nbaz = { path = \"../baz\" }\n";
        assert!(hits(ok).is_empty());
        let bad = "[dependencies]\nserde = \"1.0\"\nrand = { version = \"0.8\" }\n";
        assert_eq!(hits(bad), vec![("Z001", 2), ("Z001", 3)]);
        let dev_bad = "[dev-dependencies]\ncriterion = \"0.5\"\n";
        assert_eq!(hits(dev_bad), vec![("Z001", 2)]);
    }

    #[test]
    fn dep_subsections_checked() {
        let ok = "[dependencies.foo]\nworkspace = true\n";
        assert!(hits(ok).is_empty());
        let ok = "[dependencies.foo]\npath = \"../foo\"\n";
        assert!(hits(ok).is_empty());
        let bad = "[dependencies.serde]\nversion = \"1.0\"\nfeatures = [\"derive\"]\n";
        assert_eq!(hits(bad), vec![("Z001", 1)]);
        // Section closed by the next header still gets checked.
        let bad = "[dependencies.serde]\nversion = \"1.0\"\n\n[dev-dependencies]\n";
        assert_eq!(hits(bad), vec![("Z001", 1)]);
    }

    #[test]
    fn non_dependency_sections_ignored() {
        let src = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n\n[[bin]]\nname = \"tool\"\npath = \"src/bin/tool.rs\"\n";
        assert!(hits(src).is_empty());
        let src = "[features]\ndefault = []\n";
        assert!(hits(src).is_empty());
    }

    #[test]
    fn toml_pragma_suppresses_with_reason() {
        let src = "[dependencies]\nserde = \"1.0\" # simlint: allow(Z001, reason = \"vendored offline\")\n";
        assert!(hits(src).is_empty());
        let unused =
            "[dependencies]\nfoo.workspace = true # simlint: allow(Z001, reason = \"x\")\n";
        assert_eq!(hits(unused), vec![("P002", 2)]);
        let malformed = "[dependencies]\nserde = \"1.0\" # simlint: allow(Z001)\n";
        let h = hits(malformed);
        assert!(h.contains(&("P001", 2)));
        assert!(h.contains(&("Z001", 2)));
    }
}
