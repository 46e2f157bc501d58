//! Property suite for `testkit::json`: the one codec behind reports, store
//! entries, the journal's peers and the daemon's replies, so it must round
//! trip every string, reject any input without panicking, bound its own
//! recursion, and stay linear in the input.

use numa_gpu_testkit::gen::{ints, pairs, strings, vecs};
use numa_gpu_testkit::json::Json;
use numa_gpu_testkit::{prop_assert_eq, prop_check};
use std::time::{Duration, Instant};

/// The reference encoder: the per-character loop `write_escaped` replaced.
fn escaped_per_char(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Splices the characters fuzzed strings rarely hold — every escape the
/// encoder knows, controls, DEL, multi-byte neighbours — into `s`.
fn spiced(s: &str, picks: &[usize]) -> String {
    const SPICE: [&str; 12] = [
        "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "日本", "🦀", "\\u0041",
    ];
    let mut out = String::new();
    let mut picks = picks.iter();
    for c in s.chars() {
        out.push(c);
        if let Some(p) = picks.next() {
            out.push_str(SPICE[p % SPICE.len()]);
        }
    }
    out
}

prop_check! {
    fn strings_round_trip_and_encode_as_the_per_char_loop_did(
        (s, picks) in pairs(strings(0..48), vecs(ints(0usize..12), 0..24)),
    ) {
        let s = spiced(&s, &picks);
        let doc = Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::Str(s.clone())]))]);
        let text = doc.to_string();
        let quoted = escaped_per_char(&s);
        prop_assert_eq!(&text, &format!("{{{quoted}:[{quoted}]}}"));
        prop_assert_eq!(Json::parse(&text), Ok(doc));
    }

    fn parser_is_total_on_arbitrary_bytes(bytes in vecs(ints(0u16..256), 0..96)) {
        // Biased toward JSON's own punctuation so the fuzz gets past the
        // first byte: every third byte is drawn from it.
        const PUNCT: &[u8] = b"[]{}\":,\\u-0.e tnf";
        let bytes: Vec<u8> = bytes
            .iter()
            .enumerate()
            .map(|(i, b)| if i % 3 == 0 { PUNCT[*b as usize % PUNCT.len()] } else { *b as u8 })
            .collect();
        let text = String::from_utf8_lossy(&bytes);
        // Must return, never panic; whatever parses re-encodes to a fixed point.
        if let Ok(doc) = Json::parse(&text) {
            let once = doc.to_string();
            prop_assert_eq!(Json::parse(&once).map(|d| d.to_string()), Ok(once));
        }
    }

    fn every_finite_float_reparses_as_the_same_float(bits in ints(0u64..u64::MAX)) {
        let v = f64::from_bits(bits);
        let text = Json::Float(v).to_string();
        if v.is_finite() {
            let back = match Json::parse(&text) {
                Ok(Json::Float(f)) => Some(f.to_bits()),
                _ => None,
            };
            prop_assert_eq!(back, Some(bits), "{} wrote `{}`", v, text);
        } else {
            prop_assert_eq!(text, "null");
        }
    }

    fn nesting_is_bounded_at_any_depth(depth in ints(1usize..400)) {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let text = format!("{}1{}", open.repeat(depth), close.repeat(depth));
            // 128 levels hold the scalar at level `depth + 1`.
            prop_assert_eq!(Json::parse(&text).is_ok(), depth < 128, "depth {}", depth);
        }
    }
}

/// 100k unclosed brackets used to recurse 100k frames deep and abort the
/// process on a 2 MiB thread stack — what connection and worker threads
/// have. Now it is an error at a fixed depth, on such a thread.
#[test]
fn runaway_nesting_is_an_error_not_a_stack_overflow() {
    let parsed = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            [("[", ""), ("{\"a\":", ""), ("[", "]")].map(|(open, close)| {
                Json::parse(&format!(
                    "{}{}",
                    open.repeat(100_000),
                    close.repeat(100_000)
                ))
            })
        })
        .expect("spawn")
        .join()
        .expect("the parser must not overflow the stack");
    for result in parsed {
        let err = result.expect_err("100k levels are too deep");
        assert!(err.message.contains("nested too deeply"), "{err}");
    }
}

/// The parser used to re-validate the rest of the document at every
/// character and the encoder to format every character on its own: a 4 MiB
/// string took minutes. Linear, it takes milliseconds; the bound is loose
/// enough for a debug build on a busy box.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the property under test is a wall-clock bound"
)]
fn four_mib_string_parses_and_re_encodes_in_linear_time() {
    let unit = "plain ascii run, then é日本🦀 and \"quoted\" \\ back\tslash\n";
    let s = unit.repeat((4 << 20) / unit.len() + 1);
    assert!(s.len() >= 4 << 20);
    let start = Instant::now();
    let text = Json::Str(s.clone()).to_string();
    let back = Json::parse(&text).expect("parses");
    assert_eq!(back.as_str(), Some(s.as_str()));
    assert_eq!(back.to_string(), text);
    let took = start.elapsed();
    assert!(took < Duration::from_secs(20), "took {took:?}");
}
