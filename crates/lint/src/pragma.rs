//! The `simlint:` pragma system: site-local `allow` suppressions.
//!
//! A violation is suppressed *at the site*, with a reason, by a comment of
//! the form (shown here split so this file does not pragma itself):
//!
//! ```text
//! <comment-start> simlint: allow(D001, reason = "waiters drain in insertion order")
//! ```
//!
//! Grammar, after the `simlint:` marker:
//!
//! ```text
//! pragma  := allow+
//! allow   := "allow" "(" rule ("," rule)* "," "reason" "=" string ")"
//! rule    := one of the allowable rule IDs (see findings::ALLOWABLE_RULES)
//! string  := '"' non-empty text '"'
//! ```
//!
//! An `allow` pragma covers findings on **its own line through the end of
//! the statement that starts on its line or the line directly below** —
//! the statement extends to its terminating `;`, a field-list `,`, or the
//! close of the block it opens, so a rustfmt-split multi-line `use` or a
//! whole attributed `fn` is covered by one pragma above it. Anything else
//! is an error:
//!
//! * malformed grammar, unknown rule (a deleted rule's ID included),
//!   empty reason → **P001**
//! * a pragma that suppresses nothing → **P002**
//!
//! There is deliberately no file-level or baseline suppression: every
//! pragma is local and carries its justification.

use crate::findings::{Finding, ALLOWABLE_RULES};

/// The marker that starts a pragma inside a comment.
pub const MARKER: &str = "simlint:";

/// One parsed pragma: one or more `allow` clauses.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rule IDs the `allow` clauses suppress.
    pub rules: Vec<&'static str>,
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// 1-based column of the pragma comment.
    pub col: u32,
    /// Last line the pragma covers: the end of the statement starting on
    /// `line` or `line + 1`. Defaults to `line + 1` (the historical
    /// two-line window) until the rule engine widens it from the token
    /// stream.
    pub cover_end: u32,
}

impl Pragma {
    /// Whether this pragma's `allow` clauses cover `finding` (same rule,
    /// within the covered statement).
    pub fn covers(&self, finding: &Finding) -> bool {
        self.rules.contains(&finding.rule)
            && finding.line >= self.line
            && finding.line <= self.cover_end
    }
}

fn p001(file: &str, line: u32, col: u32, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        col,
        rule: "P001",
        message,
    }
}

/// Splits a `reason = "..."` suffix off a clause body, validating that the
/// reason is a non-empty quoted string. Returns the text before `reason`.
fn split_reason(inner: &str) -> Result<&str, String> {
    let Some(pos) = inner.find("reason") else {
        return Err(format!(
            "clause is missing `reason = \"...\"` (every suppression must \
             carry its justification); clause body was `{inner}`"
        ));
    };
    let tail = inner[pos + "reason".len()..].trim_start();
    let Some(tail) = tail.strip_prefix('=') else {
        return Err("expected `=` after `reason`".to_string());
    };
    let tail = tail.trim();
    if tail.len() > 2 && tail.starts_with('"') && tail.ends_with('"') {
        Ok(&inner[..pos])
    } else {
        Err("reason must be a non-empty double-quoted string".to_string())
    }
}

/// Parses the pragma text that follows the marker inside one comment.
/// Returns the pragma or a P001 finding.
pub fn parse_pragma(
    after_marker: &str,
    file: &str,
    line: u32,
    col: u32,
) -> Result<Pragma, Finding> {
    let bad = |msg: String| p001(file, line, col, msg);
    let mut rules: Vec<&'static str> = Vec::new();
    let mut rest = after_marker.trim();
    if rest.is_empty() {
        return Err(bad(format!(
            "pragma has no clause; expected `allow(RULE, reason = \"...\")` \
             with RULE one of {ALLOWABLE_RULES:?}"
        )));
    }
    while !rest.is_empty() {
        let Some(tail) = rest.strip_prefix("allow") else {
            return Err(bad(format!(
                "expected `allow(...)`, found `{}`",
                rest.chars().take(30).collect::<String>()
            )));
        };
        let tail = tail.trim_start();
        let Some(tail) = tail.strip_prefix('(') else {
            return Err(bad("expected `(` after the clause keyword".to_string()));
        };
        let Some(close) = tail.find(')') else {
            return Err(bad("unclosed clause".to_string()));
        };
        let inner = &tail[..close];
        rest = tail[close + 1..]
            .trim_start()
            .trim_start_matches(',')
            .trim_start();

        // `RULE, RULE, reason = "..."` — the reason is the trailing quoted
        // string and may itself contain commas, so split it off before
        // splitting the rule list.
        let head = split_reason(inner).map_err(&bad)?;
        let mut named = 0usize;
        for part in head.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some(&id) = ALLOWABLE_RULES.iter().find(|r| **r == part) else {
                return Err(bad(format!(
                    "unknown or non-allowable rule `{part}`; allowable: {ALLOWABLE_RULES:?}"
                )));
            };
            rules.push(id);
            named += 1;
        }
        if named == 0 {
            return Err(bad("allow clause names no rule".to_string()));
        }
    }
    Ok(Pragma {
        rules,
        line,
        col,
        cover_end: line + 1,
    })
}

/// Applies pragmas to raw rule findings: suppressed findings are removed,
/// pragmas that suppress nothing become P002 findings, and parse failures
/// surface as P001. Returns the surviving findings.
pub fn apply_pragmas(
    file: &str,
    pragmas: Vec<Result<Pragma, Finding>>,
    raw: Vec<Finding>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut parsed = Vec::new();
    for p in pragmas {
        match p {
            Ok(p) => parsed.push((p, false)),
            Err(f) => out.push(f),
        }
    }
    for finding in raw {
        let mut suppressed = false;
        for (p, used) in parsed.iter_mut() {
            if p.covers(&finding) {
                *used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(finding);
        }
    }
    for (p, used) in parsed {
        if !used {
            out.push(Finding {
                file: file.to_string(),
                line: p.line,
                col: p.col,
                rule: "P002",
                message: format!(
                    "pragma allows {:?} but suppresses nothing in its covered statement; remove it",
                    p.rules
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, line: u32) -> Finding {
        Finding {
            file: "f.rs".into(),
            line,
            col: 5,
            rule,
            message: String::new(),
        }
    }

    #[test]
    fn parses_single_allow_with_reason() {
        let p =
            parse_pragma("allow(D001, reason = \"ok here\")", "f.rs", 3, 9).expect("valid pragma");
        assert_eq!(p.rules, vec!["D001"]);
        assert!(p.covers(&finding("D001", 3)));
        assert!(p.covers(&finding("D001", 4)));
        assert!(!p.covers(&finding("D001", 5)));
        assert!(!p.covers(&finding("D003", 3)));
    }

    #[test]
    fn widened_cover_end_extends_statement_coverage() {
        let mut p =
            parse_pragma("allow(D001, reason = \"split use\")", "f.rs", 3, 1).expect("valid");
        p.cover_end = 7; // the rule engine widened it to the statement end
        assert!(p.covers(&finding("D001", 6)));
        assert!(p.covers(&finding("D001", 7)));
        assert!(!p.covers(&finding("D001", 8)));
        assert!(!p.covers(&finding("D001", 2)));
    }

    #[test]
    fn parses_multi_rule_and_multi_clause() {
        let p = parse_pragma(
            "allow(D001, S003, reason = \"x\") allow(Z001, reason = \"y\")",
            "f.rs",
            1,
            1,
        )
        .expect("valid pragma");
        assert_eq!(p.rules, vec!["D001", "S003", "Z001"]);
    }

    #[test]
    fn missing_reason_is_p001() {
        let err = parse_pragma("allow(D001)", "f.rs", 2, 1).expect_err("must fail");
        assert_eq!(err.rule, "P001");
        assert!(err.message.contains("reason"));
    }

    #[test]
    fn unknown_rule_is_p001() {
        let err = parse_pragma("allow(D999, reason = \"x\")", "f.rs", 2, 1).expect_err("bad rule");
        assert_eq!(err.rule, "P001");
        let err = parse_pragma("allow(P002, reason = \"x\")", "f.rs", 2, 1).expect_err("meta rule");
        assert_eq!(err.rule, "P001");
        // A deleted rule's ID is just another unknown rule.
        for deleted in ["A001", "O001", "S001", "S002", "S004", "S005"] {
            let src = format!("allow({deleted}, reason = \"x\")");
            let err = parse_pragma(&src, "f.rs", 2, 1).expect_err("deleted rule");
            assert_eq!(err.rule, "P001");
        }
    }

    #[test]
    fn empty_reason_is_p001() {
        let err =
            parse_pragma("allow(D001, reason = \"\")", "f.rs", 2, 1).expect_err("empty reason");
        assert_eq!(err.rule, "P001");
    }

    #[test]
    fn garbage_is_p001() {
        assert_eq!(parse_pragma("", "f", 1, 1).expect_err("e").rule, "P001");
        for retired in ["deny(D001)", "shared(reason = \"x\")"] {
            assert_eq!(
                parse_pragma(retired, "f", 1, 1).expect_err("e").rule,
                "P001"
            );
        }
        assert_eq!(
            parse_pragma("allow(D001, reason = \"x\"", "f", 1, 1)
                .expect_err("e")
                .rule,
            "P001"
        );
    }

    #[test]
    fn apply_suppresses_and_reports_unused() {
        let p1 = parse_pragma("allow(D001, reason = \"x\")", "f.rs", 3, 1);
        let p2 = parse_pragma("allow(S003, reason = \"x\")", "f.rs", 90, 1);
        let out = apply_pragmas(
            "f.rs",
            vec![p1, p2],
            vec![finding("D001", 4), finding("D003", 7)],
        );
        // D001@4 suppressed; D003@7 survives; pragma@90 unused → P002.
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|f| f.rule == "D003" && f.line == 7));
        assert!(out.iter().any(|f| f.rule == "P002" && f.line == 90));
    }
}
