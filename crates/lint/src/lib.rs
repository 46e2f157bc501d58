//! `simlint` — in-tree determinism and model-invariant static analysis
//! for the numa-gpu workspace.
//!
//! The simulator's headline guarantee is bit-for-bit determinism: the same
//! configuration and seed must produce the same `SimReport` on every run,
//! every worker count, every platform. That guarantee is easy to break
//! silently — one `HashMap` iteration in a scheduler, one wall-clock read
//! in a hot path, one float reduction whose order the optimizer may pick —
//! and none of those show up as a test failure until long after the commit
//! that introduced them. `simlint` turns each class of breakage into a
//! span-accurate diagnostic that fails `cargo test` and CI.
//!
//! The catalogue ([`findings::RULES`]) holds only rules that guard
//! determinism; DESIGN.md §9 records what each has caught, and
//! `tests/caught.rs` keeps every historical catch firing.
//!
//! The analyzer is deliberately zero-dependency: a minimal hand-rolled
//! Rust [`lexer`] (comment-, string-, raw-string- and char-literal-aware —
//! no `syn`) feeds the token-stream [`rules`] engine (D001–D003, S003),
//! one file at a time. A line-oriented [`manifest`] check (Z001) and a
//! deterministic [`workspace`] walker complete the pipeline.
//! Findings can be suppressed only at the site via `simlint:` [`pragma`]s
//! that must name the rule and a reason.
//!
//! Run it as a CLI (`cargo run -p numa-gpu-lint`, binary name `simlint`;
//! `--format json|sarif`, `--explain RULE`) or let the integration-test
//! gate in `crates/lint/tests/` enforce it on every plain `cargo test`.

pub mod findings;
pub mod lexer;
pub mod manifest;
pub mod pragma;
pub mod rules;
pub mod workspace;

pub use findings::{Finding, LintReport, RULES};
pub use workspace::lint_workspace;
