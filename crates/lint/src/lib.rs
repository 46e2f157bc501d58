//! `simlint` — in-tree determinism and model-invariant static analysis
//! for the numa-gpu workspace.
//!
//! The simulator's headline guarantee is bit-for-bit determinism: the same
//! configuration and seed must produce the same `SimReport` on every run,
//! every thread count, every platform. That guarantee is easy to break
//! silently — one `HashMap` iteration in a scheduler, one wall-clock read
//! in a hot path, one float reduction whose order the optimizer may pick —
//! and none of those show up as a test failure until long after the commit
//! that introduced them. `simlint` turns each class of breakage into a
//! span-accurate diagnostic that fails `cargo test` and CI.
//!
//! The partitioned event loop raises the stakes: `SocketShard`s run
//! concurrently between window barriers, so shared mutable state reachable
//! from a shard, interior mutability smuggled across the partition
//! boundary, or a panic path inside shard code breaks determinism (or the
//! whole run) in ways the dynamic byte-compare in CI only catches after
//! the fact, on the inputs it happens to run. The S-rule pack makes that
//! isolation discipline machine-checked.
//!
//! The analyzer is deliberately zero-dependency and runs in two passes: a
//! minimal hand-rolled Rust [`lexer`] (comment-, string-, raw-string- and
//! char-literal-aware — no `syn`) feeds both the token-stream [`rules`]
//! engine and the [`items`] parser, which turns each file into an item
//! graph (types with field types, impl blocks, fns with call and panic
//! sites, statics). The [`isolation`] pass then runs the shard-isolation
//! rules S001–S005 over the merged graph. A line-oriented [`manifest`]
//! check and a deterministic [`workspace`] walker complete the pipeline.
//! Findings carry stable rule IDs (see [`findings::RULES`]) and can be
//! suppressed only at the site via `simlint:` [`pragma`]s that must name
//! the rule and a reason.
//!
//! Run it as a CLI (`cargo run -p numa-gpu-lint`, binary name `simlint`;
//! `--format json|sarif`, `--explain RULE`) or let the integration-test
//! gate in `crates/lint/tests/` enforce it on every plain `cargo test`.

pub mod findings;
pub mod isolation;
pub mod items;
pub mod lexer;
pub mod manifest;
pub mod pragma;
pub mod rules;
pub mod workspace;

pub use findings::{Finding, LintReport, RULES};
pub use workspace::lint_workspace;
