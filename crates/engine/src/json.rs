//! The one JSON writer: string literals and numbers for every
//! hand-rendered JSON document in the workspace (traces, manifests,
//! cache lines, lease files, wire responses), plus the integer-field
//! scraper that reads lease files and manifest counters back.

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

/// Extracts the first unsigned integer field `"name":123` from a
/// rendered JSON document without pulling in a parser. `None` when the
/// field is absent or not an unsigned integer.
pub fn json_u64_field(text: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_field_reads_the_first_match_and_rejects_non_integers() {
        let text = r#"{"pid":42,"name":"x","cache.c.lease_reclaimed":3,"neg":-1}"#;
        assert_eq!(json_u64_field(text, "pid"), Some(42));
        assert_eq!(json_u64_field(text, "cache.c.lease_reclaimed"), Some(3));
        assert_eq!(json_u64_field(text, "name"), None);
        assert_eq!(json_u64_field(text, "neg"), None);
        assert_eq!(json_u64_field(text, "missing"), None);
    }
}
