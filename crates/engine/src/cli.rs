//! Command-line reading shared by `repro`, `subvt-serve`,
//! `subvt-loadgen` and `subvt-bench-diff`: the one place a flag's value
//! is read, checked and named in its error, and the `--jobs` and
//! `--trace-format` flags more than one of them takes.

use std::io::{self, Write as _};
use std::path::Path;
use std::str::FromStr;

/// The value after a flag, or the `missing` error.
pub fn value(it: &mut std::slice::Iter<'_, String>, missing: &str) -> Result<String, String> {
    it.next().cloned().ok_or_else(|| missing.to_owned())
}

/// A flag's value parsed as a `T` that `accept` admits, or the `error`
/// when the value is missing, does not parse or is refused.
pub fn parsed<T: FromStr>(
    value: Option<&String>,
    accept: impl FnOnce(&T) -> bool,
    error: &str,
) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(accept)
        .ok_or_else(|| error.to_owned())
}

/// A flag's value as a positive integer.
pub fn positive<T: FromStr + PartialOrd + Default>(
    value: Option<&String>,
    flag: &str,
) -> Result<T, String> {
    parsed(
        value,
        |n| *n > T::default(),
        &format!("{flag} needs a positive integer"),
    )
}

/// Sizes the process-wide executor from a `--jobs` value, if one was
/// given. Fails once the executor has been built.
pub fn apply_jobs(jobs: Option<usize>) -> Result<(), String> {
    match jobs {
        Some(n) if !crate::configure_jobs(n) => {
            Err("--jobs must come before any work is scheduled".to_owned())
        }
        _ => Ok(()),
    }
}

/// The format of a `--trace` file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// JSON lines (trace schema v2).
    #[default]
    Jsonl,
    /// Chrome trace-event JSON, which Perfetto loads.
    Chrome,
}

impl FromStr for TraceFormat {
    type Err = String;

    /// Reads a `--trace-format` value; a missing value, read as `""`,
    /// fails with the same message.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "jsonl" => Ok(Self::Jsonl),
            "chrome" => Ok(Self::Chrome),
            _ => Err("--trace-format needs one of: jsonl, chrome".to_owned()),
        }
    }
}

/// Writes the process-wide trace ([`crate::trace::global`]) to `path`;
/// fails on any error creating, writing or flushing the file.
pub fn write_trace(path: impl AsRef<Path>, format: TraceFormat) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let tracer = crate::trace::global();
    match format {
        TraceFormat::Jsonl => tracer.write_jsonl(&mut out)?,
        TraceFormat::Chrome => tracer.write_chrome(&mut out)?,
    }
    out.flush()
}
