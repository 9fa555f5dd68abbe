//! Hostile-input hardening: every malformed frame maps to a typed
//! error, and the reader never panics.

use std::io::BufReader;
use turbosyn_serve::proto::{read_frame, ProtoError, Request};

/// The malformed-frame table: one row per attack/mistake class, with
/// the error code each must produce.
#[test]
fn malformed_frames_map_to_typed_errors() {
    let cases: &[(&str, &str)] = &[
        // Not JSON at all.
        ("hello world", "bad_json"),
        ("{", "bad_json"),
        ("{\"type\":\"ping\",\"id\":\"p\"} trailing", "bad_json"),
        // Floats are rejected by the integer-only parser.
        (
            "{\"type\":\"map\",\"id\":\"m\",\"blif\":\"x\",\"k\":5.5}",
            "bad_json",
        ),
        // Valid JSON, wrong shape.
        ("[1,2,3]", "bad_frame"),
        ("\"just a string\"", "bad_frame"),
        ("{}", "bad_frame"),
        ("{\"type\":\"ping\"}", "bad_frame"),
        ("{\"id\":\"x\"}", "bad_frame"),
        ("{\"type\":\"teleport\",\"id\":\"x\"}", "bad_frame"),
        ("{\"type\":\"ping\",\"id\":42}", "bad_frame"),
        ("{\"type\":\"ping\",\"id\":\"p\",\"extra\":1}", "bad_frame"),
        // Map-specific schema violations.
        ("{\"type\":\"map\",\"id\":\"m\"}", "bad_frame"),
        (
            "{\"type\":\"map\",\"id\":\"m\",\"blif\":\"x\",\"path\":\"y\"}",
            "bad_frame",
        ),
        ("{\"type\":\"map\",\"id\":\"m\",\"blif\":42}", "bad_frame"),
        (
            "{\"type\":\"map\",\"id\":\"m\",\"blif\":\"x\",\"k\":1}",
            "bad_frame",
        ),
        (
            "{\"type\":\"map\",\"id\":\"m\",\"blif\":\"x\",\"k\":99}",
            "bad_frame",
        ),
        (
            "{\"type\":\"map\",\"id\":\"m\",\"blif\":\"x\",\"k\":-5}",
            "bad_frame",
        ),
        (
            "{\"type\":\"map\",\"id\":\"m\",\"blif\":\"x\",\"algorithm\":\"magic\"}",
            "bad_frame",
        ),
        (
            "{\"type\":\"map\",\"id\":\"m\",\"blif\":\"x\",\"max_wires\":3}",
            "bad_frame",
        ),
        (
            "{\"type\":\"map\",\"id\":\"m\",\"blif\":\"x\",\"timeout_ms\":true}",
            "bad_frame",
        ),
        // A BDD-node ceiling was once a map field; it is an unknown key
        // now, whatever its value.
        (
            "{\"type\":\"map\",\"id\":\"m\",\"blif\":\"x\",\"max_bdd_nodes\":100000}",
            "bad_frame",
        ),
        (
            "{\"type\":\"map\",\"id\":\"m\",\"blif\":\"x\",\"surprise\":1}",
            "bad_frame",
        ),
        ("{\"type\":\"cancel\",\"id\":\"c\"}", "bad_frame"),
        (
            "{\"type\":\"cancel\",\"id\":\"c\",\"target\":7}",
            "bad_frame",
        ),
        (
            "{\"type\":\"stats\",\"id\":\"s\",\"verbose\":true}",
            "bad_frame",
        ),
        // Metrics-specific schema violations.
        ("{\"type\":\"metrics\"}", "bad_frame"),
        ("{\"type\":\"metrics\",\"id\":9}", "bad_frame"),
        (
            "{\"type\":\"metrics\",\"id\":\"m\",\"worker\":0}",
            "bad_frame",
        ),
    ];
    for (line, want_code) in cases {
        let err = Request::parse(line).expect_err(line);
        assert_eq!(err.code(), *want_code, "frame: {line}");
        assert!(
            err.is_recoverable(),
            "content errors keep the session alive: {line}"
        );
    }
}

#[test]
fn oversized_line_is_rejected_while_reading() {
    // 1 MiB of 'a' with no newline, cap at 4 KiB: the reader must bail
    // out early, not buffer the whole thing.
    let payload = vec![b'a'; 1 << 20];
    let mut r = BufReader::new(&payload[..]);
    let err = read_frame(&mut r, 4096).expect_err("over the cap");
    assert_eq!(err, ProtoError::LineTooLong { limit: 4096 });
    assert_eq!(err.code(), "line_too_long");
    assert!(!err.is_recoverable(), "stream position is undefined now");
}

#[test]
fn truncated_frame_at_eof_is_typed() {
    let mut r = BufReader::new("{\"type\":\"ping\",\"id\":\"p\"".as_bytes());
    let err = read_frame(&mut r, 4096).expect_err("no newline before EOF");
    assert_eq!(err, ProtoError::Truncated);
    assert_eq!(err.code(), "truncated_frame");
}

#[test]
fn invalid_utf8_is_typed() {
    let bytes: &[u8] = &[b'{', 0xff, 0xfe, b'}', b'\n'];
    let mut r = BufReader::new(bytes);
    let err = read_frame(&mut r, 4096).expect_err("not UTF-8");
    assert_eq!(err, ProtoError::InvalidUtf8);
    assert_eq!(err.code(), "invalid_utf8");
}

#[test]
fn control_characters_inside_strings_are_rejected() {
    let line = "{\"type\":\"ping\",\"id\":\"p\u{0007}\"}";
    let err = Request::parse(line).expect_err("raw control char");
    assert_eq!(err.code(), "bad_json");
}

#[test]
fn deeply_nested_json_is_bounded_not_a_stack_overflow() {
    let mut line = String::from("{\"type\":\"ping\",\"id\":");
    line.push_str(&"[".repeat(500));
    line.push_str(&"]".repeat(500));
    line.push('}');
    let err = Request::parse(&line).expect_err("over the depth cap");
    assert_eq!(err.code(), "bad_json");
}

#[test]
fn errors_convert_onto_the_synthesis_error_surface() {
    let err = Request::parse("not json").expect_err("bad json");
    let s: turbosyn::SynthesisError = err.into();
    assert!(matches!(s, turbosyn::SynthesisError::InvalidInput(_)));
}
