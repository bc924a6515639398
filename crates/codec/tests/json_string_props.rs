//! Round-trip properties of the canonical JSON codec over arbitrary
//! strings: control characters, quotes, backslashes and multi-byte
//! text, as object keys and as values.
//!
//! Two properties: `encode ∘ parse ∘ encode == encode` with `parse`
//! returning the original value, and every string is written exactly as
//! a char-at-a-time reference escaper writes it, so the run-copying
//! writer emits the same bytes the cache, journal and wire have always
//! stored.

use bdb_codec::json::{parse, Value};
use proptest::collection;
use proptest::prelude::*;

/// One char, drawn so that each escaping class shows up often.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        (0usize..3).prop_map(|i| ['"', '\\', '/'][i]),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0usize..6).prop_map(|i| ['é', '€', '\u{7f}', '\u{2028}', '😀', '\u{10ffff}'][i]),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    collection::vec(any_char(), 0..24).prop_map(|chars| chars.into_iter().collect())
}

/// The escaping rule the codec has always applied, one char at a time.
fn reference_string(s: &str) -> String {
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
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip_byte_stably(key in any_string(), text in any_string(), n in any::<u64>()) {
        let value = Value::Object(vec![
            (key.clone(), Value::Str(text.clone())),
            ("n".to_owned(), Value::Array(vec![Value::UInt(n), Value::Str(key.clone())])),
        ]);
        let bytes = value.encode();
        let reparsed = parse(&bytes).expect("encoded JSON parses");
        prop_assert_eq!(&reparsed, &value);
        prop_assert_eq!(reparsed.encode(), bytes);
    }

    #[test]
    fn strings_encode_as_the_reference_escaper_does(text in any_string()) {
        prop_assert_eq!(Value::Str(text.clone()).encode(), reference_string(&text));
    }
}
