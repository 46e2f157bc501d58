//! Property + pinned-unit suite for the type-definition pass and file
//! scoping. The S002 closure is only as good as the types the parser
//! recovers, so the parser must stay total (never panic) and must keep
//! field types exact on the shapes the workspace actually uses: nested
//! generics and cfg-gated test modules.

use numa_gpu_lint::items::{parse_types, TypeDef};
use numa_gpu_lint::lexer::lex;
use numa_gpu_lint::rules::{mark_test_skipped, FileScope};
use numa_gpu_testkit::gen::{ints, pairs, select, strings, vecs};
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_check};

fn types_of(src: &str) -> Vec<TypeDef> {
    let toks = lex(src);
    let skip = mark_test_skipped(&toks);
    parse_types(&toks, &skip)
}

// ---------------------------------------------------------------------
// FileScope::classify pinned units — the walker hands in every path shape
// below, and a misclassification either mutes a rule pack or fires it on
// exempt code.
// ---------------------------------------------------------------------

#[test]
fn classify_nested_bin_under_a_sim_crate() {
    // Determinism rules still apply to sim-crate binaries, but they are
    // not shard library code (the S pack is off).
    let s = FileScope::classify("crates/core/src/bin/partition_probe.rs");
    assert!(s.d001_d003 && s.d002);
    assert!(!s.sim_lib);
}

#[test]
fn classify_tests_tree_under_a_crate_is_exempt() {
    for p in [
        "crates/engine/tests/determinism.rs",
        "crates/core/src/tests/helpers.rs",
        "crates/mem/benches/hbm.rs",
        "crates/sm/examples/demo.rs",
    ] {
        let s = FileScope::classify(p);
        assert!(
            !s.d001_d003 && !s.d002 && !s.sim_lib,
            "{p} must be exempt from every rule, got {s:?}"
        );
    }
}

#[test]
fn classify_root_binary_and_sim_libraries() {
    // Root `src/bin/simulate.rs` belongs to the top-level crate: not a
    // sim crate.
    let s = FileScope::classify("src/bin/simulate.rs");
    assert!(!s.d001_d003 && s.d002 && !s.sim_lib);
    // Plain sim-crate library code gets the full pack.
    let s = FileScope::classify("crates/engine/src/lib.rs");
    assert!(s.d001_d003 && s.d002 && s.sim_lib);
    // obs is deliberately outside the sim set: it still contributes
    // types to the S002 closure, but the S pack does not fire there.
    let s = FileScope::classify("crates/obs/src/metrics.rs");
    assert!(!s.d001_d003 && s.d002 && !s.sim_lib);
}

// ---------------------------------------------------------------------
// Type-parser properties.
// ---------------------------------------------------------------------

prop_check! {
    #![config = numa_gpu_testkit::prop::Config::new()
        .cases(96)
        .regressions(&[0x17E_14001, 0x17E_14002])]

    // Arbitrarily deep generic nesting — including the greedy `>>` lex at
    // the tail — must recover both every wrapper layer and the innermost
    // payload type.
    fn nested_generics_recover_every_layer(
        (depth, wrapper) in pairs(ints(1usize..6), select(vec!["Vec", "Box", "Option"])),
    ) {
        let mut ty = String::from("Payload");
        for _ in 0..depth {
            ty = format!("{wrapper}<{ty}>");
        }
        let src = format!("pub struct S {{ f: {ty} }}\n");
        let types = types_of(&src);
        prop_assert_eq!(types.len(), 1);
        prop_assert_eq!(types[0].fields.len(), 1);
        let names: Vec<&str> = types[0].fields[0].iter().map(|t| t.name.as_str()).collect();
        prop_assert_eq!(names.iter().filter(|n| **n == wrapper).count(), depth);
        prop_assert_eq!(names.iter().filter(|n| **n == "Payload").count(), 1);
    }

    // `#[cfg(test)]` modules contribute nothing no matter what they
    // contain — a cell in a test fixture must never reach S002.
    fn cfg_test_modules_contribute_nothing(
        n in ints(0usize..4),
    ) {
        let mut src = String::from("pub struct Live { n: u32 }\n#[cfg(test)]\nmod tests {\n");
        for i in 0..n {
            src.push_str(&format!("    struct T{i} {{ c: RefCell<u32> }}\n"));
        }
        src.push_str("}\n");
        let types = types_of(&src);
        prop_assert_eq!(types.len(), 1);
        prop_assert_eq!(types[0].name.as_str(), "Live");
    }

    // Totality: the parser must survive arbitrary interleavings of item
    // keywords, unbalanced brackets and raw byte soup. Misparses may lose
    // types or fields; they may never panic (the linter gates every build).
    fn parser_never_panics_on_keyword_and_byte_soup(
        (frags, soup) in pairs(
            vecs(
                select(vec![
                    "struct", "enum", "impl", "trait", "fn", "mod", "static",
                    "static mut", "unsafe", "const", "where", "for", "dyn",
                    "#[derive(", "#[cfg(test)]", "{", "}", "(", ")", "<", ">",
                    ">>", "->", "::", ";", ",", "&", "Self",
                ]),
                0..14,
            ),
            strings(0..48),
        ),
    ) {
        let src = format!("{} {soup}", frags.join(" "));
        let toks = lex(&src);
        let skip = mark_test_skipped(&toks);
        let types = parse_types(&toks, &skip);
        // The output is well-formed even when the input is not.
        prop_assert!(types.iter().all(|t| !t.name.is_empty()));
        prop_assert!(types.iter().flat_map(|t| t.fields.iter().flatten()).all(|r| !r.name.is_empty()));
    }
}
