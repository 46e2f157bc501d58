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
//! concurrently between window barriers, so interior mutability reachable
//! from a shard, or `unsafe` code the type system cannot vouch for, breaks
//! determinism in ways the dynamic byte-compare in CI only catches after
//! the fact, on the inputs it happens to run. S002 and S003 make that
//! isolation discipline machine-checked.
//!
//! The catalogue ([`findings::RULES`]) holds only rules that guard
//! determinism or shard isolation; DESIGN.md §9 records what each has
//! caught, and `tests/caught.rs` keeps every historical catch firing.
//!
//! The analyzer is deliberately zero-dependency and runs in two passes: a
//! minimal hand-rolled Rust [`lexer`] (comment-, string-, raw-string- and
//! char-literal-aware — no `syn`) feeds both the token-stream [`rules`]
//! engine (D001–D003, S003) and the [`items`] parser, which recovers each
//! file's `struct`/`enum`/`union` definitions with their field types. The
//! [`isolation`] pass then walks the S002 closure from `SocketShard` over
//! the whole workspace's types. A line-oriented [`manifest`] check (Z001)
//! and a deterministic [`workspace`] walker complete the pipeline.
//! Findings can be suppressed only at the site via `simlint:` [`pragma`]s
//! that must name the rule and a reason.
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
