//! Command-line reading shared by `repro`, `subvt-serve`,
//! `subvt-loadgen` and `subvt-bench-diff`: the one place a flag's value
//! is read, checked and named in its error, the `--jobs` and
//! `--trace-format` flags more than one of them takes, and the
//! environment variables that configure a run.

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

/// Configures this process's run from a `--jobs` value and the
/// environment, once, in `main`, before any work: the process-wide
/// executor and the current [run scope](crate::scope) (the root, on the
/// main thread). These variables are read here and nowhere else, and a
/// fleet parent's workers inherit them:
///
/// * `SUBVT_JOBS` sizes the executor when `jobs` (a `--jobs` value) is
///   `None`; a value that is not a positive integer is ignored.
/// * `SUBVT_FAULTS` arms a [fault plan](crate::faultinject::FaultPlan);
///   a malformed one is reported on stderr and ignored.
/// * `SUBVT_SPICE_COLD_START`, set to anything but empty or `0`, forces
///   SPICE cold starts ([`crate::scope::Scope::cold_start`]).
///
/// Fails once the executor has been built.
pub fn configure_run(jobs: Option<usize>) -> Result<(), String> {
    let var = |name| std::env::var(name).ok();
    let jobs = jobs.or_else(|| var("SUBVT_JOBS")?.parse().ok().filter(|&n| n > 0));
    if let Some(spec) = var("SUBVT_FAULTS") {
        match crate::FaultPlan::parse(&spec) {
            Ok(plan) => crate::faultinject::configure(Some(plan)),
            Err(e) => eprintln!("ignoring malformed SUBVT_FAULTS: {e}"),
        }
    }
    let cold = var("SUBVT_SPICE_COLD_START").is_some_and(|v| !v.is_empty() && v != "0");
    crate::scope::current().set_cold_start(cold);
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

/// Writes the current scope's trace ([`crate::trace::global`]) to `path`;
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
