//! Structured JSONL access log: one line per compute-path request.
//!
//! Enabled with `--access-log <path>`. Every line is a self-contained
//! JSON object (schema in DESIGN.md §6):
//!
//! ```text
//! {"ts":"2026-08-08T12:00:00Z","trace_id":"lg1f3a-2","id":"c2","method":"vtc",
//!  "outcome":"ok","cached":"computed","span":17,
//!  "phases":{"queue_us":41,"compute_us":1873,"serialize_us":12},"total_us":1940}
//! ```
//!
//! `trace_id` is the wire-propagated client trace id (or the daemon's
//! synthesized `srv-…` id), `span` is the daemon's request-span id in
//! the emitted trace — so one grep connects an access-log line to its
//! span tree, and the `obs-smoke` CI job asserts every logged trace_id
//! resolves in the Chrome trace. Rejected requests (overloaded,
//! shutting down, bad query) are logged too, with `span` 0 and no
//! `cached`/`phases`; admin methods (`ping`, `metrics`, …) are not
//! logged. Lines are appended and flushed one at a time, so the log
//! tails cleanly and survives crashes up to the last request.
//!
//! Lines are written with `subvt_engine::json::json_str` and read back
//! by `subvt_exp::tracefmt` (`parse_access_log`, through the parser in
//! `subvt_engine::json`, and `render_access_report`), which `repro
//! trace-report` applies when it sniffs an access-log file.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use subvt_engine::clock;

use crate::proto::json_str;

/// Everything one access-log line records about a finished request.
#[derive(Debug, Clone)]
pub struct AccessEntry<'a> {
    /// End-to-end trace id.
    pub trace_id: &'a str,
    /// Echoed request id.
    pub id: &'a str,
    /// Request method.
    pub method: &'a str,
    /// `"ok"` or the typed error code string.
    pub outcome: &'a str,
    /// Cache provenance (`hit|coalesced|computed`), when the request
    /// reached the cacheable pipeline.
    pub cached: Option<&'a str>,
    /// Daemon request-span id (0 for pre-admission rejections).
    pub span: u64,
    /// Per-phase durations, µs, in pipeline order; empty for
    /// rejections.
    pub phases: &'a [(&'a str, u64)],
    /// End-to-end server-side duration, µs.
    pub total_us: u64,
}

/// An append-only, line-buffered JSONL access log. One per server;
/// connection and worker threads share it behind a mutex (a request's
/// line is written exactly once, so contention is one lock per
/// request).
pub struct AccessLog {
    out: Mutex<BufWriter<File>>,
}

impl AccessLog {
    /// Opens (appending) or creates the log file.
    ///
    /// # Errors
    ///
    /// Propagates the open error.
    pub fn open(path: &Path) -> std::io::Result<AccessLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AccessLog {
            out: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Appends one request line and flushes it. I/O errors are counted
    /// (`serve.accesslog.errors`) rather than propagated — logging must
    /// never fail a request.
    pub fn write(&self, entry: &AccessEntry<'_>) {
        let mut line = String::with_capacity(192);
        line.push_str("{\"ts\":");
        line.push_str(&json_str(&clock::iso8601_utc(clock::unix_now())));
        line.push_str(",\"trace_id\":");
        line.push_str(&json_str(entry.trace_id));
        line.push_str(",\"id\":");
        line.push_str(&json_str(entry.id));
        line.push_str(",\"method\":");
        line.push_str(&json_str(entry.method));
        line.push_str(",\"outcome\":");
        line.push_str(&json_str(entry.outcome));
        if let Some(cached) = entry.cached {
            line.push_str(",\"cached\":");
            line.push_str(&json_str(cached));
        }
        line.push_str(&format!(",\"span\":{}", entry.span));
        if !entry.phases.is_empty() {
            line.push_str(",\"phases\":{");
            for (i, (name, us)) in entry.phases.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{}:{us}", json_str(name)));
            }
            line.push('}');
        }
        line.push_str(&format!(",\"total_us\":{}}}\n", entry.total_us));

        let mut out = self.out.lock().expect("access log lock");
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.flush())
            .is_err()
        {
            subvt_engine::trace::add("serve.accesslog.errors", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_through_the_tracefmt_parser() {
        let dir = std::env::temp_dir().join(format!(
            "subvt-accesslog-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let _ = std::fs::remove_file(&path);

        let log = AccessLog::open(&path).unwrap();
        log.write(&AccessEntry {
            trace_id: "lg-1",
            id: "c1",
            method: "vtc",
            outcome: "ok",
            cached: Some("computed"),
            span: 17,
            phases: &[("queue_us", 41), ("compute_us", 1873), ("serialize_us", 12)],
            total_us: 1940,
        });
        log.write(&AccessEntry {
            trace_id: "lg-2",
            id: "c2",
            method: "idvg",
            outcome: "overloaded",
            cached: None,
            span: 0,
            phases: &[],
            total_us: 3,
        });

        let text = std::fs::read_to_string(&path).unwrap();
        let records = subvt_exp::tracefmt::parse_access_log(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].trace_id, "lg-1");
        assert_eq!(records[0].cached.as_deref(), Some("computed"));
        assert_eq!(
            records[0].phases,
            vec![
                ("queue_us".to_owned(), 41),
                ("compute_us".to_owned(), 1873),
                ("serialize_us".to_owned(), 12)
            ]
        );
        assert_eq!(records[0].total_us, 1940);
        assert!(records[0].ts.ends_with('Z'));
        assert_eq!(records[1].outcome, "overloaded");
        assert_eq!(records[1].span, 0);
        assert!(records[1].phases.is_empty());

        std::fs::remove_dir_all(&dir).ok();
    }
}
