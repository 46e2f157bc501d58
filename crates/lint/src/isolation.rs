//! The shard-isolation rule pack (S001–S005), run over the merged item
//! graph of the whole workspace.
//!
//! The partitioned event loop (`engine::partition`, `core::system`) gets
//! its determinism from an ownership discipline: every piece of mutable
//! simulation state is owned by exactly one `SocketShard`, and shards
//! exchange only plain-data messages at window barriers. The token-stream
//! rules cannot check that discipline — it is a property of the *type
//! graph*, not of any token window. This pass can:
//!
//! * **S001** — no `static mut` / interior-mutable `static` items in sim
//!   crates: a global is reachable from every shard that can name it.
//! * **S002** — no interior-mutability types (`Cell`, `RefCell`,
//!   `Mutex`, atomics, …) in fields of *shard-owned* types: the set of
//!   types transitively reachable from `SocketShard`'s fields through the
//!   workspace type graph. No type opts out of the closure; an audited
//!   field is excused where it stands, with `allow(S002, reason = ...)`.
//! * **S003** — no `unsafe` in sim crates (keeps the crates'
//!   `#![forbid(unsafe_code)]` honest even if someone edits the attribute).
//! * **S004** — call-graph-aware panic audit, superseding the textual
//!   A001: a panic site (`panic!` family, `.unwrap()`, `.expect()`) is a
//!   finding only if reachable from a public entry point of its sim crate
//!   (a `pub` fn, or any fn callable through a trait). Reachability is a
//!   conservative over-approximation: method calls resolve by name to
//!   every same-named method in the crate.
//! * **S005** — cross-partition payload audit: types appearing in
//!   `CrossMessage<...>` payload position (or named `XMsg`/`CrossMsg`)
//!   must be `Copy` or own plain data — no `Rc`/`Arc`/reference fields —
//!   checked transitively, because a shared pointer in a message aliases
//!   shard state across the partition boundary.
//!
//! Closure expansion stops at types the parser cannot see: trait objects
//! have no fields, std containers are not in the graph (their generic
//! arguments are, and are expanded). A misparse therefore loses edges and
//! findings, never invents them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::findings::Finding;
use crate::items::FileItems;

/// Type names whose closure membership roots the S002 check.
pub const SHARD_SEEDS: &[&str] = &["SocketShard"];

/// Type names whose closure membership roots the S005 check (in addition
/// to `CrossMessage<...>` payload-position arguments).
pub const PAYLOAD_SEEDS: &[&str] = &["XMsg", "CrossMsg"];

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

/// One analyzed file, as the isolation pass sees it.
pub struct SimFile<'a> {
    /// Workspace-relative `/`-separated path.
    pub path: &'a str,
    /// Crate the file belongs to (`engine`, `core`, … or the root facade).
    pub crate_name: &'a str,
    /// Whether S-rules fire on findings in this file (sim-crate library
    /// code; bins and non-sim crates contribute items but no findings).
    pub sim_lib: bool,
    /// The file's item set.
    pub items: &'a FileItems,
}

struct Graph<'a> {
    files: &'a [SimFile<'a>],
    /// Type name → defining `(file index, type index)` sites, all files.
    types: BTreeMap<&'a str, Vec<(usize, usize)>>,
    /// Raw S-rule findings (pragma application happens per file, later).
    out: Vec<Finding>,
}

impl<'a> Graph<'a> {
    fn build(files: &'a [SimFile<'a>]) -> Graph<'a> {
        let mut types: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (ti, t) in f.items.types.iter().enumerate() {
                types.entry(&t.name).or_default().push((fi, ti));
            }
        }
        Graph {
            files,
            types,
            out: Vec::new(),
        }
    }

    fn push(&mut self, fi: usize, line: u32, col: u32, rule: &'static str, message: String) {
        self.out.push(Finding {
            file: self.files[fi].path.to_string(),
            line,
            col,
            rule,
            message,
        });
    }

    /// S001: `static mut` and interior-mutable statics in sim files.
    fn s001(&mut self) {
        for fi in 0..self.files.len() {
            if !self.files[fi].sim_lib {
                continue;
            }
            for s in self.files[fi].items.statics.clone() {
                if s.is_mut {
                    self.push(
                        fi,
                        s.line,
                        s.col,
                        "S001",
                        format!(
                            "`static mut {}` is global mutable state shared by every \
                             shard that can name it; move it into SocketShard or the \
                             serial control plane",
                            s.name
                        ),
                    );
                    continue;
                }
                if let Some(t) = s.types.iter().find(|t| is_interior_mut(&t.name)) {
                    self.push(
                        fi,
                        t.line,
                        t.col,
                        "S001",
                        format!(
                            "static `{}` has interior-mutability type `{}`: global \
                             mutable state bypassing the partition boundary; move it \
                             into SocketShard or the serial control plane",
                            s.name, t.name
                        ),
                    );
                }
            }
        }
    }

    /// S002: interior mutability in the shard-owned type closure.
    fn s002(&mut self) {
        let mut seeds: Vec<String> = Vec::new();
        for f in self.files {
            if !f.sim_lib {
                continue;
            }
            for t in &f.items.types {
                if SHARD_SEEDS.contains(&t.name.as_str()) {
                    seeds.push(t.name.clone());
                }
            }
        }
        let mut visited = BTreeSet::new();
        let mut work: VecDeque<String> = seeds.into_iter().collect();
        while let Some(name) = work.pop_front() {
            if !visited.insert(name.clone()) {
                continue;
            }
            let Some(defs) = self.types.get(name.as_str()).cloned() else {
                continue;
            };
            for (fi, ti) in defs {
                let fields = self.files[fi].items.types[ti].fields.clone();
                for field in fields {
                    for tr in &field.types {
                        if is_interior_mut(&tr.name) {
                            self.push(
                                fi,
                                tr.line,
                                tr.col,
                                "S002",
                                format!(
                                    "interior-mutability type `{}` in a field of `{}`, \
                                     which is shard-owned (reachable from SocketShard); \
                                     make it plain shard-local data",
                                    tr.name, name
                                ),
                            );
                        } else if self.types.contains_key(tr.name.as_str())
                            && !visited.contains(&tr.name)
                        {
                            work.push_back(tr.name.clone());
                        }
                    }
                }
            }
        }
    }

    /// S003: `unsafe` anywhere in sim files.
    fn s003(&mut self) {
        for fi in 0..self.files.len() {
            if !self.files[fi].sim_lib {
                continue;
            }
            for &(line, col) in &self.files[fi].items.unsafe_sites.clone() {
                self.push(
                    fi,
                    line,
                    col,
                    "S003",
                    "`unsafe` in a simulation crate; the shard-isolation rules cannot \
                     see past it — rewrite safely"
                        .to_string(),
                );
            }
        }
    }

    /// S004: panic sites reachable from public entry points, per crate.
    fn s004(&mut self) {
        // Group sim files by crate; the call graph is intra-crate.
        let mut crates: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, f) in self.files.iter().enumerate() {
            if f.sim_lib {
                crates.entry(f.crate_name).or_default().push(fi);
            }
        }
        for (_, file_idxs) in crates {
            self.s004_crate(&file_idxs);
        }
        // Panic sites outside any fn (const initializers) are evaluated at
        // compile/startup time — unconditionally reported.
        for fi in 0..self.files.len() {
            if !self.files[fi].sim_lib {
                continue;
            }
            for p in self.files[fi].items.top_panics.clone() {
                self.push(
                    fi,
                    p.line,
                    p.col,
                    "S004",
                    format!(
                        "`{}` outside any fn (const/static initializer) in a \
                         simulation crate; it is unconditionally reachable",
                        p.what
                    ),
                );
            }
        }
    }

    fn s004_crate(&mut self, file_idxs: &[usize]) {
        // Node list in (file, definition) order: deterministic.
        let nodes: Vec<(usize, usize)> = file_idxs
            .iter()
            .flat_map(|&fi| (0..self.files[fi].items.fns.len()).map(move |ni| (fi, ni)))
            .collect();
        let fun = |&(fi, ni): &(usize, usize)| &self.files[fi].items.fns[ni];
        let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            let f = fun(node);
            match &f.owner {
                Some(o) => {
                    by_owner.entry((o, &f.name)).or_default().push(i);
                    methods.entry(&f.name).or_default().push(i);
                }
                None => free.entry(&f.name).or_default().push(i),
            }
        }
        // BFS from every entry point at once; first (sorted) entry to reach
        // a node names it in the finding.
        let mut entry_of: Vec<Option<usize>> = vec![None; nodes.len()];
        let mut queue = VecDeque::new();
        for (i, node) in nodes.iter().enumerate() {
            let f = fun(node);
            if f.vis == crate::items::Vis::Pub || f.via_trait {
                entry_of[i] = Some(i);
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            let entry = entry_of[i].expect("queued nodes have an entry");
            for call in &fun(&nodes[i]).calls {
                let targets: &[usize] = match &call.qual {
                    Some(q) => by_owner
                        .get(&(q.as_str(), call.name.as_str()))
                        .map(Vec::as_slice)
                        // Module-qualified free call: `util::helper(...)`.
                        .or_else(|| free.get(call.name.as_str()).map(Vec::as_slice))
                        .unwrap_or(&[]),
                    None if call.method => methods
                        .get(call.name.as_str())
                        .map(Vec::as_slice)
                        .unwrap_or(&[]),
                    None => free
                        .get(call.name.as_str())
                        .map(Vec::as_slice)
                        .unwrap_or(&[]),
                };
                for &t in targets {
                    if entry_of[t].is_none() {
                        entry_of[t] = Some(entry);
                        queue.push_back(t);
                    }
                }
            }
        }
        let qualified = |f: &crate::items::FnDef| match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        };
        // Collect first: `fun` borrows the file table that `push` mutates
        // around.
        let mut pending: Vec<(usize, u32, u32, String)> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            let Some(entry) = entry_of[i] else { continue };
            let f = fun(node);
            if f.panics.is_empty() {
                continue;
            }
            let entry_name = qualified(fun(&nodes[entry]));
            let via = if entry == i {
                String::new()
            } else {
                format!(" via `{}`", qualified(f))
            };
            for p in &f.panics {
                pending.push((
                    node.0,
                    p.line,
                    p.col,
                    format!(
                        "`{}` is reachable from public entry `{entry_name}`{via}; \
                         return a typed error, or pragma the audited invariant",
                        p.what
                    ),
                ));
            }
        }
        for (fi, line, col, msg) in pending {
            self.push(fi, line, col, "S004", msg);
        }
    }

    /// S005: cross-partition payload closure must be plain data.
    fn s005(&mut self) {
        let mut work: VecDeque<String> = VecDeque::new();
        for f in self.files {
            if !f.sim_lib {
                continue;
            }
            for t in &f.items.types {
                if PAYLOAD_SEEDS.contains(&t.name.as_str()) {
                    work.push_back(t.name.clone());
                }
            }
            for arg in &f.items.payload_args {
                work.push_back(arg.name.clone());
            }
        }
        let mut visited = BTreeSet::new();
        while let Some(name) = work.pop_front() {
            if !visited.insert(name.clone()) {
                continue;
            }
            let Some(defs) = self.types.get(name.as_str()).cloned() else {
                continue;
            };
            for (fi, ti) in defs {
                let def = self.files[fi].items.types[ti].clone();
                if def.derives_copy {
                    // Copy types are plain data by construction (a Copy
                    // type cannot own an Rc/Arc).
                    continue;
                }
                for field in &def.fields {
                    if field.has_ref {
                        let at = field
                            .types
                            .first()
                            .map(|t| (t.line, t.col))
                            .unwrap_or((def.line, def.col));
                        self.push(
                            fi,
                            at.0,
                            at.1,
                            "S005",
                            format!(
                                "cross-partition payload type `{}` has a reference \
                                 field; payloads must be Copy or own plain data \
                                 (the barrier merge cannot see through aliases)",
                                name
                            ),
                        );
                    }
                    for tr in &field.types {
                        if tr.name == "Rc" || tr.name == "Arc" {
                            self.push(
                                fi,
                                tr.line,
                                tr.col,
                                "S005",
                                format!(
                                    "cross-partition payload type `{}` has a shared-\
                                     pointer field `{}`; send owned plain data (ids, \
                                     lines, ticks) and resolve lookups on the \
                                     receiving shard",
                                    name, tr.name
                                ),
                            );
                        } else if self.types.contains_key(tr.name.as_str())
                            && !visited.contains(&tr.name)
                        {
                            work.push_back(tr.name.clone());
                        }
                    }
                }
            }
        }
    }
}

/// Runs S001–S005 over the merged item graph. Deterministic: all maps are
/// ordered and traversal order is fixed by the (sorted) input file order.
pub fn run_isolation(files: &[SimFile<'_>]) -> Vec<Finding> {
    let mut g = Graph::build(files);
    g.s001();
    g.s002();
    g.s003();
    g.s004();
    g.s005();
    g.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;
    use crate::rules::mark_test_skipped;

    fn items_of(src: &str) -> FileItems {
        let toks = lex(src);
        let skip = mark_test_skipped(&toks);
        parse_items(&toks, &skip)
    }

    fn run_one(src: &str) -> Vec<Finding> {
        let items = items_of(src);
        let files = [SimFile {
            path: "crates/core/src/system.rs",
            crate_name: "core",
            sim_lib: true,
            items: &items,
        }];
        run_isolation(&files)
    }

    fn ids(findings: &[Finding]) -> Vec<(&'static str, u32, u32)> {
        findings.iter().map(|f| (f.rule, f.line, f.col)).collect()
    }

    #[test]
    fn s001_flags_static_mut_and_interior_statics() {
        let hits = run_one("static mut COUNT: u64 = 0;\nstatic OK: u32 = 1;\n");
        assert_eq!(ids(&hits), vec![("S001", 1, 1)]);
        let hits = run_one("static SLOT: AtomicU64 = AtomicU64::new(0);\n");
        assert_eq!(ids(&hits), vec![("S001", 1, 14)]);
        assert!(hits[0].message.contains("AtomicU64"));
    }

    #[test]
    fn s002_walks_the_closure_transitively() {
        let src = "pub struct SocketShard { sm: Sm }\n\
                   pub struct Sm { obs: Obs }\n\
                   pub struct Obs { hot: RefCell<u32> }\n\
                   pub struct Unrelated { also: RefCell<u32> }\n";
        let hits = run_one(src);
        // Only the closure member is flagged, at the exact RefCell span.
        assert_eq!(ids(&hits), vec![("S002", 3, 23)]);
        assert!(hits[0].message.contains("`Obs`"));
    }

    #[test]
    fn s003_flags_unsafe() {
        let hits = run_one("pub fn f() { unsafe { core::hint::spin_loop() } }\n");
        assert_eq!(ids(&hits), vec![("S003", 1, 14)]);
    }

    #[test]
    fn s004_reports_only_reachable_panics() {
        let src = "pub struct Shard;\n\
                   impl Shard {\n\
                       pub fn run(&mut self) { self.step(); }\n\
                       fn step(&mut self) { self.inner.unwrap(); }\n\
                       fn dead(&self) { panic!(\"never called\"); }\n\
                   }\n";
        let hits = run_one(src);
        assert_eq!(ids(&hits), vec![("S004", 4, 33)]);
        assert!(hits[0].message.contains("`Shard::run`"));
        assert!(hits[0].message.contains("via `Shard::step`"));
    }

    #[test]
    fn s004_counts_trait_impls_as_entries() {
        let src = "struct W;\n\
                   impl Workload for W {\n\
                       fn kick(&mut self) { helper(); }\n\
                   }\n\
                   fn helper() { todo!(); }\n";
        let hits = run_one(src);
        assert_eq!(ids(&hits), vec![("S004", 5, 15)]);
        assert!(hits[0].message.contains("`W::kick`"));
    }

    #[test]
    fn s005_flags_arc_fields_in_payload_closure() {
        let src = "#[derive(Clone, Copy)]\npub enum XMsg { Read(LineAddr), Ack }\n\
                   pub struct Holder { out: Vec<CrossMessage<Payload>> }\n\
                   pub struct Payload { data: Arc<Vec<u8>> }\n";
        let hits = run_one(src);
        assert_eq!(ids(&hits), vec![("S005", 4, 28)]);
        assert!(hits[0].message.contains("`Payload`"));
        // A Copy payload is clean even with the same shape.
        let src = "pub enum XMsg { Read(Tick) }\n";
        assert!(run_one(src).is_empty());
    }

    #[test]
    fn non_sim_files_contribute_items_but_no_findings() {
        let sim = items_of("pub struct SocketShard { h: Handle }\n");
        let obs = items_of("pub struct Handle { c: Mutex<u32> }\nstatic mut X: u8 = 0;\n");
        let files = [
            SimFile {
                path: "crates/core/src/system.rs",
                crate_name: "core",
                sim_lib: true,
                items: &sim,
            },
            SimFile {
                path: "crates/obs/src/metrics.rs",
                crate_name: "obs",
                sim_lib: false,
                items: &obs,
            },
        ];
        let out = run_isolation(&files);
        // The closure reaches Handle in obs (S002 fires there: the field is
        // shard-reachable), but obs's own static mut is out of scope.
        assert_eq!(ids(&out), vec![("S002", 1, 24)]);
        assert_eq!(out[0].file, "crates/obs/src/metrics.rs");
    }
}
