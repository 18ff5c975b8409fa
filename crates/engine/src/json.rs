//! The one JSON writer: string literals and numbers for every
//! hand-rendered JSON document in the workspace (traces, manifests,
//! cache lines, lease files, wire responses).

/// Escapes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// Renders an `f64` as a JSON number (`null` for non-finite values,
/// which plain JSON cannot express).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `Display` omits the fraction for integral floats; that is
        // still a valid JSON number.
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
