//! Byte-exact output checks.

/// Compares `actual` against `expected` byte for byte.
///
/// # Errors
///
/// A message naming `what`, both lengths, the first differing offset
/// and a short excerpt of each side around it.
pub fn identical(what: &str, expected: &[u8], actual: &[u8]) -> Result<(), String> {
    if expected == actual {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(actual)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(actual.len()));
    let excerpt = |bytes: &[u8]| {
        let lo = at.saturating_sub(24);
        let hi = (at + 24).min(bytes.len());
        String::from_utf8_lossy(&bytes[lo.min(hi)..hi])
            .escape_debug()
            .to_string()
    };
    Err(format!(
        "{what}: output differs at byte {at} (expected {} bytes, got {}): \
         expected …{}… got …{}…",
        expected.len(),
        actual.len(),
        excerpt(expected),
        excerpt(actual)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_bytes_pass_and_length_changes_fail() {
        assert!(identical("x", b"abc", b"abc").is_ok());
        let err = identical("x", b"abc", b"abcd").unwrap_err();
        assert!(err.contains("byte 3"), "{err}");
    }
}
