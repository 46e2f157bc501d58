//! The shard-isolation closure (S002), run over the type definitions of
//! the whole workspace.
//!
//! The partitioned event loop (`engine::partition`, `core::system`) gets
//! its determinism from an ownership discipline: every piece of mutable
//! simulation state is owned by exactly one `SocketShard`, and shards
//! exchange only plain-data messages at window barriers. The token-stream
//! rules cannot check that discipline — it is a property of the *type
//! graph*, not of any token window. This pass can: S002 forbids
//! interior-mutability types (`Cell`, `RefCell`, `Mutex`, atomics, …) in
//! fields of *shard-owned* types, the set of types transitively reachable
//! from `SocketShard`'s fields. No type opts out of the closure; an
//! audited field is excused where it stands, with `allow(S002, reason =
//! ...)`.
//!
//! Types resolve by name against every scanned file, sim crate or not —
//! a shard holding an `obs` type puts that type in the closure. Expansion
//! stops at types the parser cannot see: trait objects have no fields,
//! std containers are not in the graph (their generic arguments are, and
//! are expanded). A misparse therefore loses edges and findings, never
//! invents them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::findings::Finding;
use crate::items::TypeDef;

/// The type whose field closure is shard-owned.
const SHARD_ROOT: &str = "SocketShard";

/// Whether `name` is an interior-mutability type from std.
pub fn is_interior_mut(name: &str) -> bool {
    matches!(
        name,
        "Cell"
            | "RefCell"
            | "UnsafeCell"
            | "SyncUnsafeCell"
            | "OnceCell"
            | "LazyCell"
            | "Mutex"
            | "RwLock"
            | "Condvar"
            | "OnceLock"
            | "LazyLock"
    ) || (name.starts_with("Atomic") && name.len() > "Atomic".len())
}

/// One analyzed file, as the closure sees it.
pub struct SimFile<'a> {
    /// Workspace-relative `/`-separated path.
    pub path: &'a str,
    /// Whether a `SocketShard` declared here roots the closure (sim-crate
    /// library code). Every file's types can be *reached*.
    pub sim_lib: bool,
    /// The file's type definitions.
    pub types: &'a [TypeDef],
}

/// Runs S002 over the merged type definitions. Deterministic: maps are
/// ordered and traversal order is fixed by the (sorted) input file order.
pub fn run_isolation(files: &[SimFile<'_>]) -> Vec<Finding> {
    let mut defs: BTreeMap<&str, Vec<(&str, &TypeDef)>> = BTreeMap::new();
    for f in files {
        for t in f.types {
            defs.entry(&t.name).or_default().push((f.path, t));
        }
    }
    let rooted = files
        .iter()
        .any(|f| f.sim_lib && f.types.iter().any(|t| t.name == SHARD_ROOT));
    let mut work: VecDeque<&str> = VecDeque::new();
    if rooted {
        work.push_back(SHARD_ROOT);
    }
    let mut visited = BTreeSet::new();
    let mut out = Vec::new();
    while let Some(name) = work.pop_front() {
        if !visited.insert(name) {
            continue;
        }
        for &(path, def) in defs.get(name).into_iter().flatten() {
            for tr in def.fields.iter().flatten() {
                if is_interior_mut(&tr.name) {
                    out.push(Finding {
                        file: path.to_string(),
                        line: tr.line,
                        col: tr.col,
                        rule: "S002",
                        message: format!(
                            "interior-mutability type `{}` in a field of `{name}`, which is \
                             shard-owned (reachable from SocketShard); make it plain \
                             shard-local data",
                            tr.name
                        ),
                    });
                } else if defs.contains_key(tr.name.as_str()) {
                    work.push_back(&tr.name);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_types;
    use crate::lexer::lex;
    use crate::rules::mark_test_skipped;

    fn types_of(src: &str) -> Vec<TypeDef> {
        let toks = lex(src);
        let skip = mark_test_skipped(&toks);
        parse_types(&toks, &skip)
    }

    fn ids(findings: &[Finding]) -> Vec<(&'static str, u32, u32)> {
        findings.iter().map(|f| (f.rule, f.line, f.col)).collect()
    }

    #[test]
    fn s002_walks_the_closure_transitively() {
        let types = types_of(
            "pub struct SocketShard { sm: Sm }\n\
             pub struct Sm { obs: Obs }\n\
             pub struct Obs { hot: RefCell<u32> }\n\
             pub struct Unrelated { also: RefCell<u32> }\n",
        );
        let hits = run_isolation(&[SimFile {
            path: "crates/core/src/system.rs",
            sim_lib: true,
            types: &types,
        }]);
        // Only the closure member is flagged, at the exact RefCell span.
        assert_eq!(ids(&hits), vec![("S002", 3, 23)]);
        assert!(hits[0].message.contains("`Obs`"));
    }

    #[test]
    fn non_sim_files_contribute_items_but_no_findings() {
        let sim = types_of("pub struct SocketShard { h: Handle }\n");
        let obs =
            types_of("pub struct Handle { c: Mutex<u32> }\npub struct Registry { m: Mutex<u8> }\n");
        let files = [
            SimFile {
                path: "crates/core/src/system.rs",
                sim_lib: true,
                types: &sim,
            },
            SimFile {
                path: "crates/obs/src/metrics.rs",
                sim_lib: false,
                types: &obs,
            },
        ];
        let out = run_isolation(&files);
        // The closure reaches Handle in obs (S002 fires there: the field is
        // shard-reachable), but obs's own unreachable Registry is no finding.
        assert_eq!(ids(&out), vec![("S002", 1, 24)]);
        assert_eq!(out[0].file, "crates/obs/src/metrics.rs");
        // A SocketShard declared outside sim-crate library code roots
        // nothing.
        let only_obs = [SimFile {
            path: "crates/obs/src/metrics.rs",
            sim_lib: false,
            types: &types_of("pub struct SocketShard { m: Mutex<u8> }\n"),
        }];
        assert!(run_isolation(&only_obs).is_empty());
    }
}
