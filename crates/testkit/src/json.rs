//! A tiny JSON value type: one lexer, and on it a recursive-descent
//! parser, a writer ([`Json`]'s `Display`) and a pull [`Reader`].
//!
//! Replaces the `serde` derives the workspace used to carry: stats and
//! report types build their `to_json` by hand (a few lines each). Objects
//! preserve insertion order so encoded output is byte-stable across runs.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer (encodes without a fractional part).
    Int(i64),
    /// Unsigned integer (encodes without a fractional part).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `u64` when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            // `u64::MAX as f64` rounds up to 2^64, which no `u64` holds.
            Json::Float(v) if *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// Numeric value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array contents.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input or
    /// trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text, false);
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::UInt(v) => write!(f, "{v}"),
            Json::Float(v) => {
                if v.is_finite() {
                    // Keep a fractional marker so floats re-parse as floats.
                    // `Display` never writes an exponent, so the integral
                    // values are exactly those it writes without a `.`.
                    if v.fract() == 0.0 {
                        write!(f, "{v}.0")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no Inf/NaN; encode as null like serde_json.
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    item.fmt(f)?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":")?;
                    v.fmt(f)?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Writes `s` quoted, one `write_str` per run of characters that need no
/// escape. Every byte that needs one is ASCII, so each run boundary is a
/// character boundary.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[run..i])?;
        run = i + 1;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// Parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting [`Json::parse`] accepts: it recurses once per level, and
/// a stack overflow is an abort, not a panic a caller can contain.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Accept only the writer's string escaping (a [`Reader`]'s lexer).
    strict: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, strict: bool) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            strict,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        let v = match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        };
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // One slice per run up to the next quote or backslash: both are
            // ASCII, so the run starts and ends on character boundaries.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || (self.strict && b < 0x20))
                .unwrap_or(rest.len());
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| self.err("bad UTF-8"))?);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b) if b < 0x20 => return Err(self.err("unescaped control character")),
                // The run ended at a backslash.
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' if !self.strict => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' if !self.strict => out.push('\u{8}'),
                        b'f' if !self.strict => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // The writer spells only controls without a
                            // short form this way, in lowercase hex.
                            let other_form = code > 0x1f || matches!(code, 0x09 | 0x0a | 0x0d);
                            if self.strict && (other_form || hex != format!("{code:04x}")) {
                                return Err(self.err("unknown escape"));
                            }
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    /// Moves past a run of ASCII digits.
    #[inline]
    fn digits(&mut self) {
        self.pos += self.bytes[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
    }

    /// Lexes one number: its bytes, and whether it has a fraction or an
    /// exponent.
    #[inline]
    fn number_token(&mut self) -> (&'a [u8], bool) {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        (&self.bytes[start..self.pos], is_float)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let (text, is_float) = self.number_token();
        let text = std::str::from_utf8(text).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("bad number"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// A pull reader, on [`Json::parse`]'s lexer, of text [`Json`]'s `Display`
/// wrote: the caller names each key in the writer's order, so a document
/// decodes in one pass without a tree. It accepts only the writer's bytes (no
/// whitespace, `u64`s without sign or leading zero, the writer's escaping),
/// so two texts it reads alike are one text; anything else is a
/// [`JsonError`]. Per-token methods are `#[inline]`: a call costs as much as a token.
pub struct Reader<'a> {
    lex: Parser<'a>,
    /// Nothing read yet in the innermost open container: no `,` comes next.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        let lex = Parser::new(text, true);
        Reader { lex, first: true }
    }

    /// Reads `bracket`: the `{` or `[` that opens an object or an array.
    #[inline]
    pub fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        self.lex.expect(bracket)?;
        self.first = true;
        Ok(())
    }

    /// Reads the `}` that closes an object.
    #[inline]
    pub fn end_object(&mut self) -> Result<(), JsonError> {
        self.lex.expect(b'}')?;
        // The object was a value, so its container now holds an item.
        self.first = false;
        Ok(())
    }

    #[inline]
    fn separator(&mut self) -> Result<(), JsonError> {
        if std::mem::replace(&mut self.first, false) {
            return Ok(());
        }
        self.lex.expect(b',')
    }

    /// Reads the key `name`, one the writer writes without escapes, and `:`.
    #[inline]
    pub fn key(&mut self, name: &str) -> Result<&mut Self, JsonError> {
        self.separator()?;
        let tail = &self.lex.bytes[self.lex.pos..];
        let end = name.len() + 1;
        if tail.first() != Some(&b'"')
            || tail.get(1..end) != Some(name.as_bytes())
            || tail.get(end..end + 2) != Some(b"\":")
        {
            return Err(self.lex.err(&format!("expected key `{name}`")));
        }
        self.lex.pos += end + 2;
        Ok(self)
    }

    /// Reads the next key of an object whose keys the caller cannot name,
    /// or `None` once it has read the `}` that closes the object.
    pub fn next_key(&mut self) -> Result<Option<String>, JsonError> {
        if self.lex.peek() == Some(b'}') {
            return self.end_object().map(|()| None);
        }
        self.separator()?;
        let key = self.lex.string()?;
        self.lex.expect(b':').map(|()| Some(key))
    }

    /// Steps to the next item of an array: `true` before an item, `false`
    /// once it has read the `]` that closes the array.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        if self.lex.peek() == Some(b']') {
            self.lex.pos += 1;
            self.first = false;
            return Ok(false);
        }
        self.separator().map(|()| true)
    }

    /// Reads a `u64` as the writer writes one: digits only, no leading zero.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        let (digits, is_float) = self.lex.number_token();
        let canonical = !is_float
            && digits.first().is_some_and(u8::is_ascii_digit)
            && (digits.len() == 1 || digits[0] != b'0');
        // Under 20 digits cannot overflow; 20 compare as their values do.
        if !canonical
            || digits.len() > 20
            || (digits.len() == 20 && digits > b"18446744073709551615")
        {
            return Err(self.lex.err("expected a canonical u64"));
        }
        Ok(digits.iter().fold(0, |v, &d| v * 10 + u64::from(d - b'0')))
    }

    /// Reads a string in the writer's escaping.
    pub fn string(&mut self) -> Result<String, JsonError> {
        self.lex.string()
    }

    /// Reads `null` if it comes next, and says whether it did.
    pub fn null(&mut self) -> bool {
        let null = self.lex.bytes[self.lex.pos..].starts_with(b"null");
        self.lex.pos += if null { 4 } else { 0 };
        null
    }

    /// The byte offset in the text of what is read next.
    pub fn offset(&self) -> usize {
        self.lex.pos
    }

    /// Checks that the whole text has been read.
    pub fn finish(&self) -> Result<(), JsonError> {
        self.lex
            .peek()
            .map_or(Ok(()), |_| Err(self.lex.err("trailing characters")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Json::obj([
            ("name", Json::Str("bench".into())),
            ("cycles", Json::UInt(123_456_789)),
            ("speedup", Json::Float(2.5)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("neg", Json::Int(-7)),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn encoding_is_deterministic_and_ordered() {
        let doc = Json::obj([("b", Json::UInt(1)), ("a", Json::UInt(2))]);
        assert_eq!(doc.to_string(), r#"{"b":1,"a":2}"#);
        assert_eq!(doc.to_string(), doc.to_string());
    }

    #[test]
    fn parses_whitespace_escapes_and_nesting() {
        let v = Json::parse(" { \"k\" : [ 1 , -2.5e1 , \"a\\n\\u0041\" , { } , null ] } ").unwrap();
        let arr = v.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("a\nA"));
        assert_eq!(arr[3], Json::Obj(vec![]));
        assert_eq!(arr[4], Json::Null);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "tru", "\"open", "{\"a\" 1}", "1 2", "{]}"] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    /// Multi-byte characters directly against escapes, quotes and both
    /// ends of the string.
    #[test]
    fn multibyte_runs_adjacent_to_escapes_round_trip() {
        let s = "é\\日本\"🦀\n\u{1}ü\tß/∑";
        let doc = Json::Arr(vec![Json::Str(s.into()), Json::Str("∑".into())]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // \u escapes between multi-byte runs, and an escaped solidus.
        let v = Json::parse("\"é\\u00e9\\/\\u65e5日\"").unwrap();
        assert_eq!(v.as_str(), Some("éé/日日"));
        // A \u escape that runs into a multi-byte character, or off the
        // end of the input, is still rejected.
        assert!(Json::parse("\"\\u00é\"").is_err());
        assert!(Json::parse("\"\\u00").is_err());
        assert!(Json::parse("\"\\ud800\"").is_err());
        assert!(Json::parse("\"日本").is_err());
    }

    #[test]
    fn float_encoding_reparses_as_float() {
        let v = Json::Float(3.0);
        assert_eq!(v.to_string(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap().as_f64(), Some(3.0));
        assert!(matches!(Json::parse("3.0").unwrap(), Json::Float(_)));
        // At 1e15 and up too, where `{v:.1}` used to give way to `{v}`.
        for (v, text) in [
            (1e15, "1000000000000000.0"),
            (-3e16, "-30000000000000000.0"),
            (-0.0, "-0.0"),
        ] {
            assert_eq!(Json::Float(v).to_string(), text);
            assert!(matches!(Json::parse(text), Ok(Json::Float(f)) if f.to_bits() == v.to_bits()));
        }
    }

    #[test]
    fn as_u64_is_exact_or_none() {
        // `u64::MAX as f64` is 2^64 itself: no `u64` holds it.
        assert_eq!(Json::Float(2f64.powi(64)).as_u64(), None);
        // The largest `f64` below 2^64.
        assert_eq!(
            Json::Float(2f64.powi(64) - 2048.0).as_u64(),
            Some(u64::MAX - 2047)
        );
        assert_eq!(Json::Float(-0.0).as_u64(), Some(0));
    }

    /// A reader takes the writer's bytes and nothing else.
    #[test]
    fn reader_accepts_only_the_writers_bytes() {
        let read = |text: &str| -> Result<(Vec<u64>, String, bool, Vec<String>), JsonError> {
            let mut r = Reader::new(text);
            r.open(b'{')?;
            let mut n = Vec::new();
            r.key("n")?.open(b'[')?;
            while r.next_item()? {
                n.push(r.u64()?);
            }
            let s = r.key("s")?.string()?;
            let null = r.key("o")?.null();
            let mut keys = Vec::new();
            r.key("m")?.open(b'{')?;
            while let Some(k) = r.next_key()? {
                keys.push(k);
                r.u64()?;
            }
            r.end_object()?;
            r.finish()?;
            Ok((n, s, null, keys))
        };
        let s = "a\"\\\n\r\t\u{1}\u{7f}é";
        let doc = Json::obj([
            ("n", Json::Arr(vec![Json::UInt(0), Json::UInt(u64::MAX)])),
            ("s", Json::Str(s.into())),
            ("o", Json::Null),
            ("m", Json::Obj(vec![("k\"".into(), Json::UInt(1))])),
        ]);
        let text = doc.to_string();
        let want = (
            vec![0, u64::MAX],
            s.to_string(),
            true,
            vec!["k\"".to_string()],
        );
        assert_eq!(read(&text), Ok(want));
        let ok = r#"{"n":[],"s":"","o":null,"m":{}}"#;
        assert!(read(ok).is_ok());
        for bad in [
            format!("{text} "),
            format!(" {text}"),
            ok.replace(":[]", ": []"),
            ok.replace("[]", "[01]"),
            ok.replace("[]", "[-1]"),
            ok.replace("[]", "[1.0]"),
            ok.replace("[]", "[1e1]"),
            ok.replace("[]", "[18446744073709551616]"),
            ok.replace("[]", "[1,]"),
            ok.replace("[]", "[,1]"),
            ok.replace("{}", r#"{"a":1,}"#),
            ok.replace(r#""s":"""#, r#""s":"\/""#),
            ok.replace(r#""s":"""#, r#""s":"\u0041""#),
            ok.replace(r#""s":"""#, r#""s":"\u000a""#),
            ok.replace(r#""s":"""#, r#""s":"\u001F""#),
            ok.replace(r#""s":"""#, r#""s":"\u+01f""#),
            ok.replace(r#""s":"""#, "\"s\":\"\u{1}\""),
            ok.replace("null", "nul"),
            ok.replace(r#""n":[],"s":"""#, r#""s":"","n":[]"#),
        ] {
            assert!(read(&bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn large_u64_survive_exactly() {
        let v = Json::UInt(u64::MAX);
        assert_eq!(
            Json::parse(&v.to_string()).unwrap().as_u64(),
            Some(u64::MAX)
        );
    }
}
