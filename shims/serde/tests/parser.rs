//! The JSON parser's string scanner and nesting limit: non-ASCII runs,
//! escapes and errors right after long unescaped runs (with exact byte
//! offsets), and input nested past `json::MAX_DEPTH`.

use serde::json::MAX_DEPTH;
use serde::{Deserialize, JsonError, JsonValue, Serialize};

fn syntax_offset(err: JsonError) -> (usize, String) {
    match err {
        JsonError::Syntax { offset, message } => (offset, message),
        other => panic!("expected a syntax error, got {other:?}"),
    }
}

#[test]
fn non_ascii_runs_round_trip() {
    for s in [
        "café crème, naïve façade",
        "日本語のテキストと中文字符",
        "crab 🦀 and grin 😀",
        "mixed: é 中 🦀 \" \\ \n tail",
    ] {
        let json = s.to_string().to_json();
        assert_eq!(String::from_json(&json).unwrap(), s);
        assert_eq!(
            JsonValue::parse(&json).unwrap(),
            JsonValue::String(s.into())
        );
    }
}

#[test]
fn escape_directly_after_a_long_run_decodes() {
    let run = "a".repeat(10_000);
    let json = format!("\"{run}\\n\\u00e9\\\"{run}\\ud83e\\udd80\"");
    let expected = format!("{run}\né\"{run}🦀");
    assert_eq!(String::from_json(&json).unwrap(), expected);
}

#[test]
fn raw_newline_after_a_long_run_is_rejected_at_its_offset() {
    let run = "a".repeat(10_000);
    let json = format!("\"{run}\nrest\"");
    let (offset, message) = syntax_offset(JsonValue::parse(&json).unwrap_err());
    assert_eq!(offset, 1 + run.len());
    assert!(message.contains("control character"), "{message}");
}

#[test]
fn unterminated_string_after_a_run_reports_end_of_input() {
    let json = format!("\"{}é", "a".repeat(10_000));
    let (offset, message) = syntax_offset(JsonValue::parse(&json).unwrap_err());
    assert_eq!(offset, json.len());
    assert!(message.contains("unterminated string"), "{message}");
}

#[test]
fn nesting_up_to_the_limit_parses() {
    let arrays = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(JsonValue::parse(&arrays).is_ok());
    let objects = format!(
        "{}null{}",
        "{\"a\":".repeat(MAX_DEPTH),
        "}".repeat(MAX_DEPTH)
    );
    assert!(JsonValue::parse(&objects).is_ok());
}

#[test]
fn nesting_past_the_limit_fails_at_the_offending_bracket() {
    let arrays = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    let (offset, message) = syntax_offset(JsonValue::parse(&arrays).unwrap_err());
    assert_eq!(offset, MAX_DEPTH);
    assert!(message.contains("nesting"), "{message}");
    let key = "{\"a\":";
    let objects = format!(
        "{}null{}",
        key.repeat(MAX_DEPTH + 1),
        "}".repeat(MAX_DEPTH + 1)
    );
    let (offset, _) = syntax_offset(JsonValue::parse(&objects).unwrap_err());
    assert_eq!(offset, MAX_DEPTH * key.len());
}

#[test]
fn million_deep_nesting_is_an_error_not_a_stack_overflow() {
    for unit in ["[", "{\"a\":"] {
        let json = unit.repeat(1_000_000);
        assert!(matches!(
            JsonValue::parse(&json),
            Err(JsonError::Syntax { .. })
        ));
    }
}
