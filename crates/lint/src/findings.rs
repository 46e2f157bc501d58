//! Diagnostics: the [`Finding`] type, the rule catalogue, and the
//! machine-readable report (JSON and SARIF).

use numa_gpu_testkit::json::Json;

/// One catalogue entry: stable ID, one-line summary, rationale, and fix
/// guidance. The latter two feed `simlint --explain RULE` and ride along
/// in the JSON/SARIF reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable rule ID (`D001`, `S003`, …).
    pub id: &'static str,
    /// One-line summary for `--list-rules` and the SARIF rule table.
    pub summary: &'static str,
    /// Why the rule exists (one line, embedded per-finding in JSON).
    pub rationale: &'static str,
    /// How to fix a finding.
    pub fix: &'static str,
}

/// The rule catalogue. A rule stays only while it guards determinism;
/// DESIGN.md §9 keeps the ledger of what each has caught.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D001",
        summary: "no HashMap/HashSet in deterministic simulation crates (iteration-order nondeterminism)",
        rationale: "hash iteration order varies per process and leaks straight into event order and reports",
        fix: "use BTreeMap/BTreeSet, or drain through an explicitly sorted buffer",
    },
    Rule {
        id: "D002",
        summary: "no std::time::Instant/SystemTime outside bench/exec reporting paths",
        rationale: "wall clock must never reach simulation state or a SimReport; simulated time comes from the event queue",
        fix: "derive timing from event-queue ticks, or move the measurement into bench/exec",
    },
    Rule {
        id: "D003",
        summary: "no float ==/!= comparisons and no f32/f64 Iterator::sum/product reductions",
        rationale: "float comparison and reduction order are representation-dependent; the optimizer may reassociate",
        fix: "compare against an epsilon, or use an explicit left fold so the order is part of the code",
    },
    Rule {
        id: "Z001",
        summary: "every Cargo.toml dependency must be a workspace path dependency",
        rationale: "the build is offline (CARGO_NET_OFFLINE); a registry dependency fails at the network boundary, far from the edit",
        fix: "inherit with `workspace = true` or give an explicit `path = ...`",
    },
    Rule {
        id: "S003",
        summary: "no `unsafe` in simulation-crate library code",
        rationale: "unsafe code can read uninitialized memory or alias mutable state, and no token rule can see what it does",
        fix: "rewrite safely; sim crates carry #![forbid(unsafe_code)] and simlint keeps the attribute honest",
    },
    Rule {
        id: "P001",
        summary: "malformed simlint pragma",
        rationale: "a pragma that fails to parse would otherwise silently suppress nothing",
        fix: "use `allow(RULE, reason = \"...\")` with a non-empty reason",
    },
    Rule {
        id: "P002",
        summary: "unused simlint pragma",
        rationale: "dead pragmas rot: they document suppressions that no longer exist",
        fix: "delete the pragma (or move it to the line it is meant to cover)",
    },
];

/// Rule IDs a pragma may suppress (the pragma meta-rules cannot suppress
/// themselves). A pragma naming anything else is a P001.
pub const ALLOWABLE_RULES: &[&str] = &["D001", "D002", "D003", "Z001", "S003"];

/// Resolves a user-supplied rule name to its catalogue entry.
pub fn rule_info(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == name)
}

/// One diagnostic: a rule violation (or pragma problem) at an exact span.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (characters).
    pub col: u32,
    /// Stable rule ID (`D001`, …).
    pub rule: &'static str,
    /// Human-readable explanation with a suggested fix.
    pub message: String,
}

impl Finding {
    /// `file:line:col: RULE message` — the text-format diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }

    /// JSON form (field order fixed so output is byte-stable). Carries the
    /// catalogue rationale so machine consumers need no side table.
    pub fn to_json(&self) -> Json {
        let rationale = rule_info(self.rule).map(|r| r.rationale).unwrap_or("");
        Json::obj([
            ("file", Json::Str(self.file.clone())),
            ("line", Json::UInt(self.line as u64)),
            ("col", Json::UInt(self.col as u64)),
            ("rule", Json::Str(self.rule.to_string())),
            ("message", Json::Str(self.message.clone())),
            ("rationale", Json::Str(rationale.to_string())),
        ])
    }

    /// SARIF `result` object for this finding.
    fn to_sarif(&self) -> Json {
        Json::obj([
            ("ruleId", Json::Str(self.rule.to_string())),
            ("level", Json::Str("error".to_string())),
            (
                "message",
                Json::obj([("text", Json::Str(self.message.clone()))]),
            ),
            (
                "locations",
                Json::Arr(vec![Json::obj([(
                    "physicalLocation",
                    Json::obj([
                        (
                            "artifactLocation",
                            Json::obj([("uri", Json::Str(self.file.clone()))]),
                        ),
                        (
                            "region",
                            Json::obj([
                                ("startLine", Json::UInt(self.line as u64)),
                                ("startColumn", Json::UInt(self.col as u64)),
                            ]),
                        ),
                    ]),
                )])]),
            ),
        ])
    }
}

/// Result of linting a whole workspace.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, sorted by `(file, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// Rust files scanned.
    pub files_scanned: usize,
    /// Manifests scanned.
    pub manifests_scanned: usize,
}

impl LintReport {
    /// Sorts and dedupes findings into the canonical deterministic order.
    pub fn normalize(&mut self) {
        self.findings.sort();
        self.findings.dedup();
    }

    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The full machine-readable report. Byte-identical across runs on
    /// identical inputs: ordering is canonical and nothing time- or
    /// environment-dependent is recorded.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("simlint", Json::UInt(3)),
            ("files_scanned", Json::UInt(self.files_scanned as u64)),
            (
                "manifests_scanned",
                Json::UInt(self.manifests_scanned as u64),
            ),
            (
                "findings",
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
        ])
    }

    /// SARIF 2.1.0 report for CI annotation. Byte-stable for the same
    /// reasons as [`Self::to_json`].
    pub fn to_sarif(&self) -> Json {
        let rules = RULES
            .iter()
            .map(|r| {
                Json::obj([
                    ("id", Json::Str(r.id.to_string())),
                    (
                        "shortDescription",
                        Json::obj([("text", Json::Str(r.summary.to_string()))]),
                    ),
                    (
                        "help",
                        Json::obj([("text", Json::Str(format!("{} Fix: {}", r.rationale, r.fix)))]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            (
                "$schema",
                Json::Str("https://json.schemastore.org/sarif-2.1.0.json".to_string()),
            ),
            ("version", Json::Str("2.1.0".to_string())),
            (
                "runs",
                Json::Arr(vec![Json::obj([
                    (
                        "tool",
                        Json::obj([(
                            "driver",
                            Json::obj([
                                ("name", Json::Str("simlint".to_string())),
                                ("rules", Json::Arr(rules)),
                            ]),
                        )]),
                    ),
                    (
                        "results",
                        Json::Arr(self.findings.iter().map(Finding::to_sarif).collect()),
                    ),
                ])]),
            ),
        ])
    }

    /// Text-format report: one diagnostic line per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_span_accurate() {
        let f = Finding {
            file: "crates/engine/src/lib.rs".into(),
            line: 7,
            col: 21,
            rule: "D001",
            message: "no".into(),
        };
        assert_eq!(f.render(), "crates/engine/src/lib.rs:7:21: D001 no");
    }

    #[test]
    fn normalize_sorts_and_dedupes() {
        let f = |file: &str, line| Finding {
            file: file.into(),
            line,
            col: 1,
            rule: "D001",
            message: String::new(),
        };
        let mut r = LintReport {
            findings: vec![f("b.rs", 2), f("a.rs", 9), f("b.rs", 2)],
            files_scanned: 2,
            manifests_scanned: 0,
        };
        r.normalize();
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].file, "a.rs");
    }

    #[test]
    fn json_is_reparsable_and_stable() {
        let r = LintReport {
            findings: vec![Finding {
                file: "x.rs".into(),
                line: 1,
                col: 2,
                rule: "D001",
                message: "msg".into(),
            }],
            files_scanned: 1,
            manifests_scanned: 1,
        };
        let a = r.to_json().to_string();
        let b = r.to_json().to_string();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("report JSON reparses");
        assert_eq!(parsed.get("simlint").and_then(Json::as_u64), Some(3));
        // Findings carry the catalogue rationale inline.
        let finding = &parsed
            .get("findings")
            .and_then(Json::as_array)
            .expect("arr")[0];
        assert!(finding
            .get("rationale")
            .and_then(Json::as_str)
            .is_some_and(|r| r.contains("iteration order")));
    }

    #[test]
    fn sarif_has_schema_rules_and_span_accurate_results() {
        let r = LintReport {
            findings: vec![Finding {
                file: "crates/engine/src/lib.rs".into(),
                line: 7,
                col: 21,
                rule: "S003",
                message: "unsafe block".into(),
            }],
            files_scanned: 1,
            manifests_scanned: 0,
        };
        let text = r.to_sarif().to_string();
        assert_eq!(text, r.to_sarif().to_string(), "SARIF must be byte-stable");
        let doc = Json::parse(&text).expect("SARIF reparses");
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
        let run = &doc.get("runs").and_then(Json::as_array).expect("runs")[0];
        let rules = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_array)
            .expect("rules");
        assert_eq!(rules.len(), RULES.len());
        let result = &run
            .get("results")
            .and_then(Json::as_array)
            .expect("results")[0];
        assert_eq!(result.get("ruleId").and_then(Json::as_str), Some("S003"));
        let region = result
            .get("locations")
            .and_then(Json::as_array)
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .expect("region");
        assert_eq!(region.get("startLine").and_then(Json::as_u64), Some(7));
        assert_eq!(region.get("startColumn").and_then(Json::as_u64), Some(21));
    }

    #[test]
    fn every_allowable_rule_is_in_the_catalogue() {
        for r in ALLOWABLE_RULES {
            assert!(rule_info(r).is_some(), "{r} missing from catalogue");
        }
        assert!(rule_info("D999").is_none());
        // Every catalogue entry has non-empty explain fields.
        for r in RULES {
            assert!(!r.summary.is_empty() && !r.rationale.is_empty() && !r.fix.is_empty());
        }
    }
}
