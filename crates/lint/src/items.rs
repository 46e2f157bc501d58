//! The type-definition pass: parses one file's token stream into the
//! `struct`/`enum`/`union` definitions it declares.
//!
//! The token-stream rules see code one token window at a time; the S002
//! closure needs *structure*: which types a `SocketShard` field can reach.
//! This module turns the [`lexer`](crate::lexer) stream into that
//! structure — a deliberately small subset of a Rust parser, in the same
//! spirit as the lexer. It records every type definition with each
//! field's type identifiers and their exact spans, and skips everything
//! else: `impl`/`trait`/`fn` items from head to balanced body,
//! `use`/`type`/`static`/`const` items to their `;`, any other token one at
//! a time — which walks straight into inline `mod x { ... }` bodies.
//!
//! Like the lexer, the parser is panic-free on arbitrary token soup: every
//! loop advances the cursor and unbalanced delimiters terminate at end of
//! input (fuzzed in `tests/items_props.rs`). A misparse degrades to a
//! *missing* type or field, which can only lose an S002 finding inside an
//! already-malformed file — never invent one.
//!
//! Known approximations, all conservative for S002:
//!
//! * Trait objects (`dyn Kernel`) stop closure expansion — a trait has no
//!   fields to check.
//! * Types defined inside fn bodies are not recorded.
//! * `>>`/`<<` inside const-generic expressions can confuse angle-bracket
//!   depth; the parser resynchronizes at the next item keyword.

use crate::lexer::{TokKind, Token};

/// Keywords never collected as type identifiers.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "default", "dyn", "else",
    "enum", "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

/// One identifier appearing in type position, with its exact span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeRef {
    /// The identifier text.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One `struct`/`enum`/`union` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// One entry per field (for enums: per variant payload slot), each the
    /// identifiers of that field's type in source order.
    pub fields: Vec<Vec<TypeRef>>,
}

fn is_kw(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Joint delimiter depth change of one punct token. `angles` counts
/// `<`/`>` as brackets (`<<`/`>>` twice): right in type position, wrong in
/// expressions, where they compare.
pub(crate) fn depth_delta(t: &Token, angles: bool) -> i32 {
    if t.kind != TokKind::Punct {
        return 0;
    }
    match t.text.as_str() {
        "(" | "[" | "{" => 1,
        ")" | "]" | "}" => -1,
        "<" if angles => 1,
        ">" if angles => -1,
        "<<" if angles => 2,
        ">>" if angles => -2,
        _ => 0,
    }
}

struct Parser<'a> {
    toks: Vec<&'a Token>,
    i: usize,
    out: Vec<TypeDef>,
}

impl<'a> Parser<'a> {
    fn tok(&self, n: usize) -> Option<&'a Token> {
        self.toks.get(self.i + n).copied()
    }

    fn at_ident(&self, s: &str) -> bool {
        self.tok(0)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    fn at_punct(&self, s: &str) -> bool {
        self.tok(0)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }

    /// Consumes an identifier and returns it, or `None` without advancing.
    fn ident(&mut self) -> Option<&'a Token> {
        match self.tok(0) {
            Some(t) if t.kind == TokKind::Ident && !is_kw(&t.text) => {
                self.i += 1;
                Some(t)
            }
            _ => None,
        }
    }

    /// Consumes tokens until joint depth returns to zero after the opening
    /// delimiter the cursor sits on (angles count only when it is a `<`).
    /// Tolerates EOF.
    fn skip_balanced(&mut self) {
        let angles = self.at_punct("<");
        let mut depth = 0i32;
        while let Some(t) = self.tok(0) {
            self.i += 1;
            depth += depth_delta(t, angles);
            if depth <= 0 {
                return;
            }
        }
    }

    /// Advances to the first punct from `stops` at joint depth zero (or
    /// EOF), leaving the cursor on it; returns the identifiers passed,
    /// which in type position are the type's identifiers.
    fn scan(&mut self, stops: &[&str], angles: bool) -> Vec<TypeRef> {
        let mut refs = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.tok(0) {
            if depth <= 0 && t.kind == TokKind::Punct && stops.contains(&t.text.as_str()) {
                break;
            }
            if t.kind == TokKind::Ident && !is_kw(&t.text) {
                refs.push(TypeRef {
                    name: t.text.clone(),
                    line: t.line,
                    col: t.col,
                });
            }
            depth += depth_delta(t, angles);
            self.i += 1;
        }
        refs
    }

    /// Consumes tokens up to and including a `;` at joint depth zero.
    fn skip_to_semi(&mut self) {
        self.scan(&[";"], false);
        self.i += 1;
    }

    /// Consumes a leading run of attributes.
    fn attrs(&mut self) {
        while self.at_punct("#") {
            self.i += 1;
            if self.at_punct("!") {
                self.i += 1;
            }
            if self.at_punct("[") {
                self.skip_balanced();
            }
        }
    }

    /// Consumes a visibility marker if present.
    fn vis(&mut self) {
        if self.at_ident("pub") {
            self.i += 1;
            if self.at_punct("(") {
                self.skip_balanced();
            }
        }
    }

    /// `( T, U, ... )` tuple fields; the cursor sits on the `(`.
    fn tuple_fields(&mut self, out: &mut Vec<Vec<TypeRef>>) {
        self.i += 1;
        loop {
            self.vis();
            let f = self.scan(&[",", ")"], true);
            if !f.is_empty() {
                out.push(f);
            }
            let comma = self.at_punct(",");
            self.i += 1;
            if !comma {
                return;
            }
        }
    }

    /// `{ name: T, ... }` named fields; the cursor sits on the `{`.
    fn named_fields(&mut self, out: &mut Vec<Vec<TypeRef>>) {
        self.i += 1;
        while !self.at_punct("}") && self.tok(0).is_some() {
            self.attrs();
            self.vis();
            if self.ident().is_none() {
                self.i += 1;
                continue;
            }
            if !self.at_punct(":") {
                continue;
            }
            self.i += 1;
            out.push(self.scan(&[",", "}"], true));
            if self.at_punct(",") {
                self.i += 1;
            }
        }
        self.i += 1;
    }

    /// Enum variants with their payload slots; the cursor sits on the `{`.
    fn variants(&mut self, out: &mut Vec<Vec<TypeRef>>) {
        self.i += 1;
        while !self.at_punct("}") && self.tok(0).is_some() {
            self.attrs();
            if self.ident().is_none() {
                self.i += 1;
                continue;
            }
            if self.at_punct("(") {
                self.tuple_fields(out);
            } else if self.at_punct("{") {
                self.named_fields(out);
            }
            // An explicit discriminant is an expression, not a field.
            self.scan(&[",", "}"], false);
            if self.at_punct(",") {
                self.i += 1;
            }
        }
        self.i += 1;
    }

    /// A `struct`/`union` (or, with `is_enum`, an `enum`) after its keyword.
    fn parse_type(&mut self, is_enum: bool) {
        let Some(name) = self.ident() else { return };
        let mut def = TypeDef {
            name: name.text.clone(),
            line: name.line,
            col: name.col,
            fields: Vec::new(),
        };
        if self.at_punct("<") {
            self.skip_balanced();
        }
        if self.at_ident("where") {
            self.scan(&["{", ";"], true);
        }
        if is_enum && self.at_punct("{") {
            self.variants(&mut def.fields);
        } else if self.at_punct("{") {
            self.named_fields(&mut def.fields);
        } else if self.at_punct("(") {
            self.tuple_fields(&mut def.fields);
            self.skip_to_semi();
        } else {
            self.skip_to_semi();
        }
        self.out.push(def);
    }

    /// Parses one item, or steps over one token of anything else: item
    /// modifiers (`unsafe`, `async`, `extern "C"`), and `mod x {` and its
    /// closing `}`, so module bodies parse in line.
    fn parse_item(&mut self) {
        self.attrs();
        self.vis();
        let Some(t) = self.tok(0) else { return };
        self.i += 1;
        if t.kind != TokKind::Ident {
            return;
        }
        match t.text.as_str() {
            "struct" | "union" => self.parse_type(false),
            "enum" => self.parse_type(true),
            "impl" | "trait" | "fn" => {
                // Head (generics, signature, bounds) to the body or `;`.
                self.scan(&["{", ";"], true);
                if self.at_punct("{") {
                    self.skip_balanced();
                } else {
                    self.i += 1;
                }
            }
            // `const fn` is a modifier; a `const NAME: T = ...;` item is not.
            "const" if !self.at_ident("fn") && !self.at_ident("unsafe") => self.skip_to_semi(),
            "use" | "type" | "static" => self.skip_to_semi(),
            "macro_rules" => {
                self.i += 1; // !
                self.ident();
                if self.at_punct("{") || self.at_punct("(") || self.at_punct("[") {
                    self.skip_balanced();
                }
            }
            _ => {}
        }
    }
}

/// Parses one file's token stream into its type definitions. `skip` marks
/// test-gated tokens (from [`crate::rules::mark_test_skipped`]); skipped
/// and comment tokens are never parsed. Never panics, whatever the input.
pub fn parse_types(toks: &[Token], skip: &[bool]) -> Vec<TypeDef> {
    let sig: Vec<&Token> = toks
        .iter()
        .enumerate()
        .filter(|(i, t)| !t.kind.is_comment() && !skip.get(*i).copied().unwrap_or(false))
        .map(|(_, t)| t)
        .collect();
    let mut p = Parser {
        toks: sig,
        i: 0,
        out: Vec::new(),
    };
    while p.tok(0).is_some() {
        p.parse_item();
    }
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::mark_test_skipped;

    fn parse(src: &str) -> Vec<TypeDef> {
        let toks = lex(src);
        let skip = mark_test_skipped(&toks);
        parse_types(&toks, &skip)
    }

    fn names(refs: &[TypeRef]) -> Vec<&str> {
        refs.iter().map(|r| r.name.as_str()).collect()
    }

    #[test]
    fn struct_fields_carry_type_refs_with_spans() {
        let types = parse("pub struct Shard {\n    queue: EventQueue<Ev>,\n    n: u32,\n}\n");
        assert_eq!(types.len(), 1);
        let t = &types[0];
        assert_eq!(t.name, "Shard");
        assert_eq!(t.fields.len(), 2);
        assert_eq!(names(&t.fields[0]), vec!["EventQueue", "Ev"]);
        assert_eq!((t.fields[0][0].line, t.fields[0][0].col), (2, 12));
    }

    #[test]
    fn tuple_structs_and_enum_variants() {
        let types = parse(
            "#[derive(Debug, Clone, Copy)]\npub struct Id(pub u8);\n\
             enum Msg { Read { line: LineAddr }, Ack, Pair(SocketId, Tick), Code = K }\n",
        );
        assert_eq!(types.len(), 2);
        assert_eq!(
            types[0].fields,
            vec![vec![TypeRef {
                name: "u8".into(),
                line: 2,
                col: 19
            }]]
        );
        let all: Vec<&str> = types[1].fields.iter().flat_map(|f| names(f)).collect();
        assert_eq!(all, vec!["LineAddr", "SocketId", "Tick"]);
    }

    #[test]
    fn impl_trait_and_fn_bodies_are_skipped() {
        // Nothing inside an impl, trait or fn body is a type definition
        // the closure can reach; the parser resumes right after each one,
        // whatever comparisons (`<`, `>`) the bodies hold.
        let types = parse(
            "impl<T: Fn() -> u8> std::fmt::Display for CrossMessage<T> where T: Copy {\n\
             fn fmt(&self) { if a < b { struct Local { c: Cell<u8> } } }\n}\n\
             pub trait Tick { fn tick(&mut self) -> Option<u8> { None } }\n\
             pub const unsafe fn f() {}\nconst N: bool = A < B;\n\
             pub struct After { a: A }\n",
        );
        assert_eq!(types.len(), 1);
        assert_eq!(types[0].name, "After");
        assert_eq!((types[0].line, types[0].col), (7, 12));
    }

    #[test]
    fn cfg_test_items_are_excluded() {
        let types = parse(
            "struct Real { c: u32 }\n#[cfg(test)]\nmod tests {\n    \
             struct Fixture { c: RefCell<u32> }\n}\n",
        );
        assert_eq!(types.len(), 1);
        assert_eq!(types[0].name, "Real");
    }

    #[test]
    fn modules_nest_in_the_path() {
        // The parser follows inline modules down to the types they hold.
        let types = parse("mod a {\n    pub mod b {\n        pub struct X { y: Y }\n    }\n}\n");
        assert_eq!(types.len(), 1);
        assert_eq!(
            (types[0].name.as_str(), types[0].line, types[0].col),
            ("X", 3, 20)
        );
        assert_eq!(names(&types[0].fields[0]), vec!["Y"]);
    }

    #[test]
    fn pathological_inputs_never_panic() {
        for src in [
            "struct",
            "struct X {",
            "impl {",
            "fn",
            "fn (",
            "enum E { A(",
            "pub pub pub",
            "impl X for {}",
            "static : u32;",
            "mod m {",
            "trait T",
            "#[derive(]",
            "const fn",
            "macro_rules! m",
            "struct S<T: Fn() -> usize> { f: T }",
            "<<>>",
        ] {
            let _ = parse(src);
        }
    }
}
