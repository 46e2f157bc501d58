//! The rule engine: walks one file's token stream and emits findings.
//!
//! ## Scope model
//!
//! Rules are scoped by *crate role*, derived from the workspace-relative
//! path:
//!
//! | Scope | Crates | Rules |
//! |---|---|---|
//! | simulation | engine, sm, cache, mem, interconnect, faults, core, runtime, workloads | D001, D003, S003 |
//! | artifact plane | bench (tables/figures flow through it) | D001, D003 |
//! | wall-clock-allowed | bench, exec, serve (timing/deadline/backoff paths) | exempt from D002 |
//! | bins (`src/bin/**`, `src/main.rs`) | any | exempt from S003 |
//! | everything else | all crates incl. the root facade | D002 |
//!
//! Test code is exempt from every source rule: integration tests,
//! benches and examples are not scanned at all, and `#[cfg(test)]` /
//! `#[test]`-gated items inside `src/` are skipped token-exactly (an
//! attribute whose argument list mentions `test` — but not `not(test)` —
//! skips the item it is attached to).
//!
//! Every rule needs only the file it reports on: [`analyze_source`] runs
//! the token-stream rules (D001–D003 and S003), collects pragmas with
//! statement-range widening, and settles suppressions with
//! [`pragma::apply_pragmas`](crate::pragma::apply_pragmas).

use crate::findings::Finding;
use crate::lexer::{lex, TokKind, Token};
use crate::pragma::{apply_pragmas, parse_pragma, Pragma, MARKER};

/// Crates whose simulation state must stay bit-deterministic.
pub const SIM_CRATES: &[&str] = &[
    "engine",
    "sm",
    "cache",
    "mem",
    "interconnect",
    "faults",
    "core",
    "runtime",
    "workloads",
];

/// Crate a workspace-relative path belongs to (the root facade package is
/// reported as `numa-gpu`).
fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("")
    } else {
        "numa-gpu"
    }
}

/// Where a file sits in the workspace, and therefore which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// D001 (hash collections) and D003 (float determinism) apply.
    pub d001_d003: bool,
    /// D002 (wall clock) applies.
    pub d002: bool,
    /// S003 applies (sim-crate library code).
    pub sim_lib: bool,
}

impl FileScope {
    /// Classifies a workspace-relative, `/`-separated path.
    pub fn classify(path: &str) -> FileScope {
        // `tests/`, `benches/` and `examples/` trees are exempt from
        // everything (the walker skips them; classify agrees for callers
        // that hand in such a path directly).
        let exempt = path
            .split('/')
            .any(|seg| matches!(seg, "tests" | "benches" | "examples"));
        if exempt {
            return FileScope {
                d001_d003: false,
                d002: false,
                sim_lib: false,
            };
        }
        let crate_name = crate_of(path);
        let is_bin = path.contains("/bin/") || path.ends_with("src/main.rs");
        let sim = SIM_CRATES.contains(&crate_name);
        FileScope {
            d001_d003: sim || crate_name == "bench",
            // serve is a non-SIM crate: wall-clock deadlines and retry
            // backoff are its whole point, so `Instant` is permitted
            // there; nothing in serve is reachable from sim crates.
            d002: !matches!(crate_name, "bench" | "exec" | "serve"),
            sim_lib: sim && !is_bin,
        }
    }
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Joint delimiter depth change of one punct token, counting `<`/`>` as
/// brackets (`<<`/`>>` twice).
fn depth_delta(t: &Token) -> i32 {
    if t.kind != TokKind::Punct {
        return 0;
    }
    match t.text.as_str() {
        "(" | "[" | "{" | "<" => 1,
        ")" | "]" | "}" | ">" => -1,
        "<<" => 2,
        ">>" => -2,
        _ => 0,
    }
}

/// Marks every token belonging to a `test`-gated item (attribute included)
/// so rules skip them. Conservative on `not(test)`: such items are *not*
/// skipped, since they are compiled into the library.
pub fn mark_test_skipped(toks: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let p = |i: usize, s: &str| toks.get(i).is_some_and(|t| is_punct(t, s));
    let mut i = 0;
    while i < toks.len() {
        let inner = p(i, "#") && p(i + 1, "!") && p(i + 2, "[");
        let outer = p(i, "#") && p(i + 1, "[");
        if !(inner || outer) {
            i += 1;
            continue;
        }
        let open = if inner { i + 2 } else { i + 1 };
        let mut depth = 0usize;
        let mut j = open;
        let mut has_test = false;
        let mut has_not = false;
        let mut end_attr = None;
        while j < toks.len() {
            if p(j, "[") {
                depth += 1;
            } else if p(j, "]") {
                depth -= 1;
                if depth == 0 {
                    end_attr = Some(j);
                    break;
                }
            } else if is_ident(&toks[j], "test") {
                has_test = true;
            } else if is_ident(&toks[j], "not") {
                has_not = true;
            }
            j += 1;
        }
        let Some(end_attr) = end_attr else { break };
        if has_test && !has_not {
            if inner {
                // `#![cfg(test)]` gates the whole enclosing scope — for a
                // file-level inner attribute that is the entire file.
                for s in skip.iter_mut() {
                    *s = true;
                }
                return skip;
            }
            for s in skip.iter_mut().take(end_attr + 1).skip(i) {
                *s = true;
            }
            // Skip the attached item: through further attributes and either
            // a top-level `;` or the matching close of its first brace.
            let mut braces = 0i64;
            let mut k = end_attr + 1;
            while k < toks.len() {
                skip[k] = true;
                if p(k, "{") {
                    braces += 1;
                } else if p(k, "}") {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                } else if p(k, ";") && braces == 0 {
                    break;
                }
                k += 1;
            }
            i = k + 1;
        } else {
            i = end_attr + 1;
        }
    }
    skip
}

/// Extracts pragma parses from comment tokens. A pragma comment must
/// *start* with the marker once comment sigils (`/`, `*`, `!`) and
/// whitespace are stripped, so prose that merely mentions the marker is
/// ignored.
fn collect_pragmas(toks: &[Token], skip: &[bool], file: &str) -> Vec<Result<Pragma, Finding>> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.kind.is_comment() || skip[i] {
            continue;
        }
        let body = t.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(after) = body.strip_prefix(MARKER) else {
            continue;
        };
        let after = if t.kind == TokKind::BlockComment {
            after.trim_end().trim_end_matches("*/").trim_end()
        } else {
            after.trim_end()
        };
        out.push(parse_pragma(after.trim_start(), file, t.line, t.col));
    }
    out
}

/// Widens each pragma's coverage from the historical two-line window to
/// the full statement that *starts* on the pragma's line or the line
/// directly below: through the terminating `;`, a field-list `,`, or the
/// close of the block the statement opens. A pragma with no statement
/// starting in its window keeps the two-line default (and most likely rots
/// to P002).
fn widen_pragmas(toks: &[Token], skip: &[bool], pragmas: &mut [Result<Pragma, Finding>]) {
    for p in pragmas.iter_mut().filter_map(|p| p.as_mut().ok()) {
        let Some(start) = toks.iter().enumerate().position(|(i, t)| {
            !t.kind.is_comment()
                && !skip.get(i).copied().unwrap_or(false)
                && (t.line == p.line || t.line == p.line + 1)
        }) else {
            continue;
        };
        let mut depth = 0i32;
        let mut braces = 0i32;
        let mut prev_line = p.line + 1;
        let mut end = None;
        for t in toks[start..].iter().filter(|t| !t.kind.is_comment()) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    ";" | "," if depth <= 0 => {
                        end = Some(t.line);
                        break;
                    }
                    "{" => braces += 1,
                    "}" => {
                        braces -= 1;
                        if braces == 0 {
                            // Closed the block the statement opened.
                            end = Some(t.line);
                            break;
                        }
                        if braces < 0 {
                            // Closed the *enclosing* block: the statement
                            // was a trailing expression / last field.
                            end = Some(prev_line);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            depth += depth_delta(t);
            prev_line = t.line;
        }
        p.cover_end = end.unwrap_or(prev_line).max(p.line + 1);
    }
}

struct Ctx<'a> {
    toks: &'a [Token],
    skip: &'a [bool],
    /// Indices of non-comment tokens.
    sig: Vec<usize>,
    file: &'a str,
    raw: Vec<Finding>,
}

impl<'a> Ctx<'a> {
    fn tok(&self, si: usize) -> Option<&'a Token> {
        self.sig.get(si).map(|&i| &self.toks[i])
    }

    fn active(&self, si: usize) -> bool {
        self.sig.get(si).is_some_and(|&i| !self.skip[i])
    }

    fn sig_is_punct(&self, si: usize, s: &str) -> bool {
        self.tok(si).is_some_and(|t| is_punct(t, s))
    }

    fn sig_is_ident(&self, si: usize, s: &str) -> bool {
        self.tok(si).is_some_and(|t| is_ident(t, s))
    }

    fn push(&mut self, rule: &'static str, si: usize, message: String) {
        if let Some(t) = self.tok(si) {
            self.raw.push(Finding {
                file: self.file.to_string(),
                line: t.line,
                col: t.col,
                rule,
                message,
            });
        }
    }
}

fn rule_d001(c: &mut Ctx<'_>) {
    for si in 0..c.sig.len() {
        if !c.active(si) {
            continue;
        }
        let Some(t) = c.tok(si) else { continue };
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            let alt = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            let text = t.text.clone();
            c.push(
                "D001",
                si,
                format!(
                    "`{text}` iterates in nondeterministic order in deterministic \
                     simulation code; use `{alt}` or drain through a sorted buffer"
                ),
            );
        }
    }
}

fn rule_d002(c: &mut Ctx<'_>) {
    let flagged = |t: &Token| is_ident(t, "Instant") || is_ident(t, "SystemTime");
    for si in 0..c.sig.len() {
        if !c.active(si) {
            continue;
        }
        let Some(t) = c.tok(si) else { continue };
        // `Instant::now` / `SystemTime::now` wherever the type came from.
        if flagged(t) && c.sig_is_punct(si + 1, "::") && c.sig_is_ident(si + 2, "now") {
            let text = t.text.clone();
            c.push(
                "D002",
                si,
                format!(
                    "wall-clock read `{text}::now()` outside bench/exec reporting \
                     paths; simulated time must come from the event queue"
                ),
            );
        }
        // Any `std :: time` path: flag Instant/SystemTime idents up to the
        // end of the statement (covers `use std::time::{Duration, Instant}`
        // and fully qualified types).
        if is_ident(t, "std") && c.sig_is_punct(si + 1, "::") && c.sig_is_ident(si + 2, "time") {
            let mut sj = si + 3;
            let mut steps = 0;
            while let Some(tj) = c.tok(sj) {
                if is_punct(tj, ";") || steps > 40 {
                    break;
                }
                if flagged(tj) {
                    let text = tj.text.clone();
                    c.push(
                        "D002",
                        sj,
                        format!(
                            "`std::time::{text}` outside bench/exec reporting paths; \
                             wall clock must never reach simulation state or a SimReport"
                        ),
                    );
                }
                sj += 1;
                steps += 1;
            }
        }
    }
}

fn rule_d003(c: &mut Ctx<'_>) {
    for si in 0..c.sig.len() {
        if !c.active(si) {
            continue;
        }
        let Some(t) = c.tok(si) else { continue };
        if is_punct(t, "==") || is_punct(t, "!=") {
            let prev_float = si > 0 && c.tok(si - 1).is_some_and(|p| p.kind == TokKind::Float);
            // Skip one unary minus on the right-hand side.
            let rhs = if c.sig_is_punct(si + 1, "-") {
                si + 2
            } else {
                si + 1
            };
            let next_float = c.tok(rhs).is_some_and(|n| n.kind == TokKind::Float);
            if prev_float || next_float {
                let op = t.text.clone();
                c.push(
                    "D003",
                    si,
                    format!(
                        "float compared with `{op}`; exact float equality is \
                         representation-dependent — compare against an epsilon or \
                         restructure the reduction"
                    ),
                );
            }
        }
        // `.sum::<f32|f64>()` / `.product::<f32|f64>()`.
        if is_punct(t, ".")
            && (c.sig_is_ident(si + 1, "sum") || c.sig_is_ident(si + 1, "product"))
            && c.sig_is_punct(si + 2, "::")
            && c.sig_is_punct(si + 3, "<")
            && (c.sig_is_ident(si + 4, "f32") || c.sig_is_ident(si + 4, "f64"))
        {
            let method = c.tok(si + 1).map(|t| t.text.clone()).unwrap_or_default();
            c.push(
                "D003",
                si + 1,
                format!(
                    "float accumulation via `Iterator::{method}` in a reduction path; \
                     use an explicit left fold so the summation order is part of the \
                     code, or pragma the ordering invariant"
                ),
            );
        }
    }
}

fn rule_s003(c: &mut Ctx<'_>) {
    for si in 0..c.sig.len() {
        if c.active(si) && c.sig_is_ident(si, "unsafe") {
            c.push(
                "S003",
                si,
                "`unsafe` in a simulation crate; the determinism rules cannot \
                 see past it — rewrite safely"
                    .to_string(),
            );
        }
    }
}

/// Lints one Rust source file: token rules, then pragma settlement.
/// `path` is workspace-relative and decides which token rules apply.
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    let toks = lex(src);
    let skip = mark_test_skipped(&toks);
    let scope = FileScope::classify(path);
    let sig: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.kind.is_comment())
        .map(|(i, _)| i)
        .collect();
    let mut ctx = Ctx {
        toks: &toks,
        skip: &skip,
        sig,
        file: path,
        raw: Vec::new(),
    };
    if scope.d001_d003 {
        rule_d001(&mut ctx);
        rule_d003(&mut ctx);
    }
    if scope.d002 {
        rule_d002(&mut ctx);
    }
    if scope.sim_lib {
        rule_s003(&mut ctx);
    }
    let raw = std::mem::take(&mut ctx.raw);
    let mut pragmas = collect_pragmas(&toks, &skip, path);
    widen_pragmas(&toks, &skip, &mut pragmas);
    let mut out = apply_pragmas(path, pragmas, raw);
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: &str = "crates/engine/src/lib.rs";
    const PLAIN: &str = "crates/obs/src/lib.rs";

    fn rules_at(path: &str, src: &str) -> Vec<(&'static str, u32, u32)> {
        analyze_source(path, src)
            .into_iter()
            .map(|f| (f.rule, f.line, f.col))
            .collect()
    }

    #[test]
    fn scope_classification() {
        assert!(FileScope::classify("crates/engine/src/event.rs").d001_d003);
        assert!(FileScope::classify("crates/bench/src/runner.rs").d001_d003);
        assert!(!FileScope::classify("crates/obs/src/lib.rs").d001_d003);
        assert!(!FileScope::classify("crates/bench/src/lib.rs").d002);
        assert!(!FileScope::classify("crates/exec/src/reporter.rs").d002);
        assert!(FileScope::classify("crates/engine/src/lib.rs").d002);
        assert!(FileScope::classify("src/lib.rs").d002);
        // serve: wall-clock allowed (deadlines/backoff), but not a sim
        // crate — D001/D003 and S003 stay off.
        let serve = FileScope::classify("crates/serve/src/daemon.rs");
        assert!(!serve.d002);
        assert!(!serve.d001_d003);
        assert!(!serve.sim_lib);
        assert!(FileScope::classify("crates/cache/src/mshr.rs").sim_lib);
        assert!(!FileScope::classify("crates/bench/src/lib.rs").sim_lib);
        assert!(!FileScope::classify("crates/sm/src/bin/tool.rs").sim_lib);
    }

    #[test]
    fn d001_positive_and_negative() {
        let hits = rules_at(SIM, "use std::collections::HashMap;\n");
        assert_eq!(hits, vec![("D001", 1, 23)]);
        let hits = rules_at(SIM, "let s: HashSet<u32> = HashSet::new();\n");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.0 == "D001"));
        // Negative: BTree collections, out-of-scope crates, test code.
        assert!(rules_at(SIM, "use std::collections::BTreeMap;\n").is_empty());
        assert!(rules_at(PLAIN, "use std::collections::HashMap;\n").is_empty());
        assert!(rules_at(
            SIM,
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n"
        )
        .is_empty());
        // `#[cfg(not(test))]` items compile into the library: still flagged.
        assert!(!rules_at(SIM, "#[cfg(not(test))]\nuse std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn d002_positive_and_negative() {
        let hits = rules_at(PLAIN, "let t = Instant::now();\n");
        assert_eq!(hits, vec![("D002", 1, 9)]);
        let hits = rules_at(PLAIN, "use std::time::{Duration, Instant};\n");
        assert_eq!(hits, vec![("D002", 1, 27)]);
        assert!(!rules_at(PLAIN, "let t = std::time::SystemTime::now();\n").is_empty());
        // Negative: bench/exec are the reporting paths; `Duration` alone is
        // fine (it carries no clock); an `Instant` enum variant is fine.
        assert!(rules_at("crates/bench/src/lib.rs", "let t = Instant::now();\n").is_empty());
        assert!(rules_at("crates/exec/src/lib.rs", "let t = Instant::now();\n").is_empty());
        assert!(rules_at(PLAIN, "use std::time::Duration;\n").is_empty());
        assert!(rules_at(PLAIN, "let p = TracePhase::Instant;\n").is_empty());
    }

    #[test]
    fn d003_positive_and_negative() {
        let hits = rules_at(SIM, "if x == 0.5 { }\n");
        assert_eq!(hits, vec![("D003", 1, 6)]);
        assert_eq!(rules_at(SIM, "if x != -1.0 { }\n"), vec![("D003", 1, 6)]);
        assert_eq!(rules_at(SIM, "if 2.0 == y { }\n"), vec![("D003", 1, 8)]);
        let hits = rules_at(SIM, "let s = v.iter().sum::<f64>();\n");
        assert_eq!(hits, vec![("D003", 1, 18)]);
        assert_eq!(
            rules_at(SIM, "let p = v.iter().product::<f32>();\n"),
            vec![("D003", 1, 18)]
        );
        // Negative: integer comparisons and sums, explicit folds, ranges.
        assert!(rules_at(SIM, "if x == 5 { }\n").is_empty());
        assert!(rules_at(SIM, "let s = v.iter().sum::<u64>();\n").is_empty());
        assert!(rules_at(SIM, "let s = v.iter().fold(0.0, |a, x| a + x);\n").is_empty());
        assert!(rules_at(SIM, "for i in 0..8 { }\n").is_empty());
    }

    #[test]
    fn s003_flags_unsafe() {
        assert_eq!(
            rules_at(SIM, "pub fn f() { unsafe { core::hint::spin_loop() } }\n"),
            vec![("S003", 1, 14)]
        );
        assert_eq!(
            rules_at(SIM, "unsafe impl Send for X {}\n"),
            vec![("S003", 1, 1)]
        );
        // Negative: non-sim crates, sim-crate bins, test code, the lint
        // attribute that forbids it.
        let src = "pub fn f() { unsafe { core::hint::spin_loop() } }\n";
        assert!(rules_at(PLAIN, src).is_empty());
        assert!(rules_at("crates/sm/src/bin/tool.rs", src).is_empty());
        assert!(rules_at(SIM, &format!("#[cfg(test)]\n{src}")).is_empty());
        assert!(rules_at(SIM, "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn pragma_suppression_end_to_end() {
        // Same line.
        let src =
            "use std::collections::HashMap; // simlint: allow(D001, reason = \"drained sorted\")\n";
        assert!(rules_at(SIM, src).is_empty());
        // Line above.
        let src = "// simlint: allow(D001, reason = \"drained sorted\")\nuse std::collections::HashMap;\n";
        assert!(rules_at(SIM, src).is_empty());
        // Two lines above: not covered; the finding and a P002 surface.
        let src =
            "// simlint: allow(D001, reason = \"too far\")\n\nuse std::collections::HashMap;\n";
        let hits = rules_at(SIM, src);
        assert!(hits.contains(&("D001", 3, 23)));
        assert!(hits.contains(&("P002", 1, 1)));
        // Malformed pragma → P001 plus the unsuppressed finding.
        let src = "use std::collections::HashMap; // simlint: allow(D001)\n";
        let hits = rules_at(SIM, src);
        assert!(hits.iter().any(|h| h.0 == "P001"));
        assert!(hits.iter().any(|h| h.0 == "D001"));
        // Prose that merely mentions the marker is not a pragma.
        let src = "// the simlint: marker is described in DESIGN.md\nlet x = 1;\n";
        assert!(rules_at(SIM, src).is_empty());
    }

    #[test]
    fn pragma_covers_the_full_following_statement() {
        // A rustfmt-split multi-line `use`: the finding sits three lines
        // below the pragma but inside the same statement.
        let src = "// simlint: allow(D001, reason = \"drained through sorted buffer\")\n\
                   use std::collections::{\n    BTreeMap,\n    HashMap,\n};\n";
        assert!(rules_at(SIM, src).is_empty(), "statement coverage");
        // A pragma above an attributed fn covers findings through the fn
        // body.
        let src = "// simlint: allow(D003, reason = \"sums in slice order\")\n\
                   #[inline]\npub fn total(v: &[f64]) -> f64 {\n    v.iter().sum::<f64>()\n}\n";
        assert!(rules_at(SIM, src).is_empty(), "fn body coverage");
        // Coverage stops at the statement end: a finding *after* it still
        // fires.
        let src = "// simlint: allow(D001, reason = \"first only\")\n\
                   use std::collections::{\n    HashMap,\n};\nuse std::collections::HashSet;\n";
        assert_eq!(rules_at(SIM, src), vec![("D001", 5, 23)]);
    }

    #[test]
    fn test_skip_handles_inner_attribute_and_items() {
        let src = "#![cfg(test)]\nuse std::collections::HashMap;\n\
                   pub fn f() -> f64 { v.iter().sum::<f64>() }\n";
        assert!(rules_at(SIM, src).is_empty());
        // An attributed fn with nested braces is skipped exactly.
        let src = "#[test]\nfn t() {\n    if x { let m: HashMap<u8, u8>; }\n}\n\
                   pub fn real() { let m: HashMap<u8, u8>; }\n";
        assert_eq!(rules_at(SIM, src), vec![("D001", 5, 24)]);
        // `#[cfg(test)] mod` skips the whole module body.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() -> f64 { v.iter().sum::<f64>() }\n}\n\
                   pub fn f() -> f64 { v.iter().sum::<f64>() }\n";
        assert_eq!(rules_at(SIM, src), vec![("D003", 5, 30)]);
    }
}
