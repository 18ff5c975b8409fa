//! Wire protocol: newline-framed JSON requests and responses.
//!
//! One request per line, one response line per request, always in
//! order on a connection:
//!
//! ```text
//! → {"id":"r1","method":"fo1","params":{"node":"45nm","strategy":"subvth","v_dd":0.3}}
//! ← {"id":"r1","ok":true,"cached":"computed","result":{"tp_hl_s":...,"tp_lh_s":...,"average_s":...}}
//! → {"id":"r2","method":"topology","params":{"op":"ring_freq","node":"ref90","v_dd":0.25,"stages":5}}
//! ← {"id":"r2","ok":true,"cached":"computed","result":{"stages":5,...,"f_osc_hz":...,"period_s":...}}
//! → {"id":"r3","method":"nope"}
//! ← {"id":"r3","ok":false,"error":{"code":"unknown_method","message":"unknown method `nope`"}}
//! ```
//!
//! Circuit methods (`vtc`, `snm`, `fo1`, `chain_energy`, `mep`,
//! `topology`) accept an optional `temp_k` field (kelvin, default 300):
//! the pair is sized at room temperature and operated at `temp_k`, which
//! is not what `repro --temp` does (it re-characterizes the designs
//! first). `topology` dispatches on `op` ∈ `gate_snm` | `ring_freq` |
//! `temp_sweep`.
//!
//! `params` fields are typed (see [`crate::query`]): voltages and
//! temperatures are JSON numbers, counts are non-negative JSON
//! integers, and names (`node`, `backend`, `format`, experiment `id`,
//! ...) are strings from a fixed set. A present field of the wrong type
//! or an unknown name is `bad_request` naming the field; only an absent
//! field takes its default.
//!
//! ```text
//! → {"id":"r4","method":"idvg","params":{"node":"ref90","v_ds":"1.2"}}
//! ← {"id":"r4","ok":false,"error":{"code":"bad_request","message":"`v_ds` must be a number"}}
//! ```
//!
//! `result` is always the **last** member of a success line, so the
//! payload can be recovered byte-identically by slicing between
//! `"result":` and the final `}` — no JSON round-trip required (floats
//! would not survive one). [`crate::Client`] relies on this.

use subvt_engine::json::{parse_json, Json};

/// Typed reasons a request fails. The wire form is the snake_case
/// string from [`ErrorCode::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON, or the request shape was wrong.
    BadRequest,
    /// The method name is not part of the protocol.
    UnknownMethod,
    /// The admission queue is full; retry later.
    Overloaded,
    /// The server is draining for shutdown; no new work is admitted.
    ShuttingDown,
    /// The compute panicked on every attempt.
    ComputePanicked,
    /// The compute exceeded its per-request deadline on every attempt.
    DeadlineExceeded,
    /// The request key was quarantined by an earlier exhaustion; the
    /// body was refused without running.
    Quarantined,
    /// The compute ran and returned a domain error (solver, backend or
    /// design-flow failure, ...).
    ComputeFailed,
}

impl ErrorCode {
    /// The stable wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownMethod => "unknown_method",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ComputePanicked => "compute_panicked",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::ComputeFailed => "compute_failed",
        }
    }
}

impl core::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Wire-propagated trace context: the optional `trace` member of a
/// request line.
///
/// ```text
/// {"id":"c1","method":"vtc","params":{...},"trace":{"id":"lg1f3a-7","parent":4294967296}}
/// ```
///
/// `id` names the client's end-to-end trace (free-form, logged
/// verbatim in the access log); `parent` is the client-side span id
/// the daemon's per-request span tree should hang under when the two
/// traces are stitched (`repro trace-stitch`). Clients reserve a high
/// span-id range (`subvt_engine::trace::raise_id_floor`) so `parent`
/// can never collide with the ids the server allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// Client-chosen trace id, echoed into the access log.
    pub id: String,
    /// Client-side span id to parent the server's request span onto.
    pub parent: u64,
}

/// A parsed request envelope: the caller's echo id, the method name,
/// the (possibly absent) params object, and the (possibly absent)
/// trace context.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id echoed verbatim in the response.
    pub id: String,
    /// Method name, e.g. `"idvg"`.
    pub method: String,
    /// The `params` member (`Json::Null` when absent).
    pub params: Json,
    /// The `trace` member (`None` when absent).
    pub trace: Option<TraceContext>,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message when the line is not valid JSON or the
/// envelope members are missing/mistyped; the caller answers with
/// [`ErrorCode::BadRequest`].
pub fn parse_request(line: &str) -> Result<Request, String> {
    let json = parse_json(line.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
    let id = match json.get("id") {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => fmt_f64(*n),
        Some(_) => return Err("`id` must be a string or number".to_owned()),
        None => return Err("missing `id`".to_owned()),
    };
    let method = match json.get("method") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err("missing string `method`".to_owned()),
    };
    let params = json.get("params").cloned().unwrap_or(Json::Null);
    let trace = match json.get("trace") {
        None | Some(Json::Null) => None,
        Some(t) => {
            let trace_id = match t.get("id") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err("`trace.id` must be a string".to_owned()),
            };
            let parent = match t.get("parent").and_then(Json::as_u64) {
                Some(p) => p,
                None => return Err("`trace.parent` must be a non-negative integer".to_owned()),
            };
            Some(TraceContext {
                id: trace_id,
                parent,
            })
        }
    };
    Ok(Request {
        id,
        method,
        params,
        trace,
    })
}

/// Renders the `,"trace":{...}` request-line fragment for a context
/// (empty string for `None`). Shared by [`crate::Client`] and
/// `subvt-loadgen` so both stamp the same wire shape.
pub fn trace_fragment(trace: Option<(&str, u64)>) -> String {
    match trace {
        Some((id, parent)) => format!(",\"trace\":{{\"id\":{},\"parent\":{parent}}}", json_str(id)),
        None => String::new(),
    }
}

/// Renders a success response line. `payload` must already be valid
/// JSON; `cached` reports how the payload was satisfied
/// (`hit|coalesced|computed`) or is omitted when `None` (diagnostic
/// methods that bypass the cache).
pub fn ok_line(id: &str, cached: Option<&str>, payload: &str) -> String {
    match cached {
        Some(how) => format!(
            "{{\"id\":{},\"ok\":true,\"cached\":{},\"result\":{payload}}}",
            json_str(id),
            json_str(how)
        ),
        None => format!(
            "{{\"id\":{},\"ok\":true,\"result\":{payload}}}",
            json_str(id)
        ),
    }
}

/// Renders an error response line.
pub fn error_line(id: &str, code: ErrorCode, message: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"error\":{{\"code\":{},\"message\":{}}}}}",
        json_str(id),
        json_str(code.as_str()),
        json_str(message)
    )
}

/// Escapes `s` as a JSON string literal (quotes included).
pub use subvt_engine::json::json_str;

/// Formats an `f64` as a JSON number: shortest round-trip decimal,
/// with non-finite values mapped to `null` (JSON has no NaN/inf).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Renders a `[..]` JSON array of numbers.
pub fn fmt_f64s(vs: &[f64]) -> String {
    let mut out = String::with_capacity(vs.len() * 8 + 2);
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(*v));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_request() {
        let r = parse_request(r#"{"id":"a","method":"ping"}"#).unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.method, "ping");
        assert!(matches!(r.params, Json::Null));
    }

    #[test]
    fn numeric_ids_are_accepted() {
        let r = parse_request(r#"{"id":7,"method":"ping"}"#).unwrap();
        assert_eq!(r.id, "7.0"); // echoed as rendered; round-trips fine
    }

    #[test]
    fn malformed_lines_are_rejected_with_context() {
        assert!(parse_request("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(parse_request(r#"{"method":"x"}"#)
            .unwrap_err()
            .contains("id"));
        assert!(parse_request(r#"{"id":"x"}"#)
            .unwrap_err()
            .contains("method"));
    }

    #[test]
    fn trace_context_round_trips() {
        let r = parse_request(r#"{"id":"a","method":"ping"}"#).unwrap();
        assert_eq!(r.trace, None);

        let line = format!(
            "{{\"id\":\"a\",\"method\":\"ping\",\"params\":{{}}{}}}",
            trace_fragment(Some(("lg-1", 1 << 32)))
        );
        let r = parse_request(&line).unwrap();
        let trace = r.trace.unwrap();
        assert_eq!(trace.id, "lg-1");
        assert_eq!(trace.parent, 1 << 32);
        assert_eq!(trace_fragment(None), "");

        let err = parse_request(r#"{"id":"a","method":"ping","trace":{"id":5}}"#).unwrap_err();
        assert!(err.contains("trace.id"), "{err}");
        let err = parse_request(r#"{"id":"a","method":"ping","trace":{"id":"t","parent":-1}}"#)
            .unwrap_err();
        assert!(err.contains("trace.parent"), "{err}");
    }

    #[test]
    fn response_lines_put_result_last() {
        let line = ok_line("r1", Some("hit"), "{\"x\":1.0}");
        assert!(line.ends_with(",\"result\":{\"x\":1.0}}"));
        let idx = line.find("\"result\":").unwrap();
        assert_eq!(&line[idx + 9..line.len() - 1], "{\"x\":1.0}");
    }

    #[test]
    fn error_lines_carry_typed_codes() {
        let line = error_line("r2", ErrorCode::Overloaded, "queue full");
        let json = parse_json(&line).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        let err = json.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_str), Some("overloaded"));
    }

    #[test]
    fn json_numbers_round_trip() {
        for v in [0.0, 1.0, 0.1, -2.5e-17, 1.2345678901234567] {
            let s = fmt_f64(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn strings_escape_controls_and_quotes() {
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }
}
