//! Parsing and validation of the engine's trace sinks, plus the
//! `repro trace-report` renderer.
//!
//! The engine writes two machine-readable formats (see
//! `subvt_engine::trace`): JSON-lines (schema `v2`) and Chrome
//! trace-event JSON. This module re-reads both into the engine's own
//! [`TraceSnapshot`] through the parser in `subvt_engine::json` —
//! deliberately separate code from the writers, so round-trip tests
//! catch malformed output instead of mirroring its bugs — validates the
//! structural invariants (every line valid JSON, span tree acyclic,
//! parent ids resolve, histogram bucket counts sum to the sample count)
//! and renders a self-time-sorted span tree with counter/histogram
//! tables.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use subvt_engine::trace::{AttrValue, Histogram, SpanRecord, TraceSnapshot};

/// Public only for the standalone `subvt-benchmark` package, its one user.
pub use subvt_engine::json::{parse_json, Json};

/// Maps a parsed attribute value onto the engine's [`AttrValue`].
/// Whole numbers that `f64` holds exactly become `U64`/`I64`; other
/// numbers and `null` become `F64` (the writer renders a NaN `F64` as
/// `null`), so writing the result again reproduces the input bytes.
fn attr_value(value: &Json) -> Result<AttrValue, String> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    Ok(match value {
        Json::Num(v) => {
            let whole = v.fract() == 0.0 && v.abs() <= EXACT;
            if whole && v.is_sign_positive() {
                AttrValue::U64(*v as u64)
            } else if whole && *v < 0.0 {
                AttrValue::I64(*v as i64)
            } else {
                // Fractions, integers past 2^53 and -0 keep their
                // float rendering.
                AttrValue::F64(*v)
            }
        }
        Json::Null => AttrValue::F64(f64::NAN),
        Json::Str(s) => AttrValue::Str(s.clone()),
        Json::Bool(b) => AttrValue::Bool(*b),
        Json::Arr(_) | Json::Obj(_) => return Err("array or object attribute".to_owned()),
    })
}

/// The attributes of one span from its JSON members, skipping `skip`.
fn attrs_of(members: &[(String, Json)], skip: &[&str]) -> Result<Vec<(String, AttrValue)>, String> {
    members
        .iter()
        .filter(|(k, _)| !skip.contains(&k.as_str()))
        .map(|(k, v)| Ok((k.clone(), attr_value(v).map_err(|e| format!("`{k}`: {e}"))?)))
        .collect()
}

/// Parses a JSON-lines trace (schema v1 or v2 — v1 span lines lack
/// `id`/`parent`/`worker` and map to defaults).
///
/// # Errors
///
/// Returns the first offending line's number and parse error.
pub fn parse_jsonl(text: &str) -> Result<TraceSnapshot, String> {
    let mut out = TraceSnapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: &str| format!("line {}: {e}", lineno + 1);
        let value = parse_json(line).map_err(|e| at(&e))?;
        let u64_of = |key: &str| value.get(key).and_then(Json::as_u64);
        // The writer renders non-finite floats as `null`.
        let f64_of = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(f64::NAN);
        let arr = |key: &str| value.get(key).and_then(Json::as_arr).unwrap_or(&[]);
        let name = || {
            value
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(at("missing \"name\""))
        };
        match value
            .get("type")
            .and_then(Json::as_str)
            .ok_or(at("missing \"type\""))?
        {
            "span" => out.spans.push(SpanRecord {
                id: u64_of("id").unwrap_or(0),
                parent: u64_of("parent"),
                name: name()?,
                start_us: u64_of("start_us").unwrap_or(0),
                dur_us: u64_of("dur_us").unwrap_or(0),
                worker: u64_of("worker").unwrap_or(0) as u32,
                attrs: match value.get("attrs") {
                    Some(Json::Obj(members)) => attrs_of(members, &[]).map_err(|e| at(&e))?,
                    _ => Vec::new(),
                },
            }),
            "counter" => {
                let v = u64_of("value").ok_or(at("counter without value"))?;
                out.counters.insert(name()?, v);
            }
            "gauge" => {
                out.gauges.insert(name()?, f64_of(value.get("value")));
            }
            "hist" => {
                let h = Histogram {
                    bounds: arr("bounds").iter().map(|b| f64_of(Some(b))).collect(),
                    counts: arr("counts")
                        .iter()
                        .map(|c| c.as_u64().unwrap_or(0))
                        .collect(),
                    count: u64_of("count").unwrap_or(0),
                    sum: f64_of(value.get("sum")),
                    min: f64_of(value.get("min")),
                    max: f64_of(value.get("max")),
                };
                out.hists.insert(name()?, h);
            }
            "meta" => out.wall_us = u64_of("wall_us").unwrap_or(0),
            other => return Err(at(&format!("unknown type `{other}`"))),
        }
    }
    Ok(out)
}

/// One Chrome trace event with the mandatory fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Phase: `X` (complete), `M` (metadata), `C` (counter), …
    pub ph: String,
    /// Process id.
    pub pid: u64,
    /// Thread id (the executor lane for spans).
    pub tid: u64,
    /// Timestamp, µs.
    pub ts: u64,
    /// Duration, µs.
    pub dur: u64,
    /// The `args` object, if present.
    pub args: Option<Json>,
}

/// Parses a Chrome trace-event file, requiring `pid`/`tid`/`ts`/`dur`/
/// `name`/`ph` on **every** event — the strict contract the Perfetto UI
/// and our round-trip tests rely on.
///
/// # Errors
///
/// Describes the first malformed event.
pub fn parse_chrome(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let root = parse_json(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("event {i}: missing or invalid \"{key}\""))
        };
        let text = |key: &str| {
            ev.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("event {i}: missing \"{key}\""))
        };
        out.push(ChromeEvent {
            name: text("name")?,
            ph: text("ph")?,
            pid: field("pid")?,
            tid: field("tid")?,
            ts: field("ts")?,
            dur: field("dur")?,
            args: ev.get("args").cloned(),
        });
    }
    Ok(out)
}

/// Lifts Chrome complete/counter events back into a [`TraceSnapshot`]
/// (metadata rows are dropped), so one validator and one report renderer
/// serve both formats.
///
/// # Errors
///
/// Names the first span event whose `args` hold an array or object.
pub fn trace_from_chrome(events: &[ChromeEvent]) -> Result<TraceSnapshot, String> {
    let mut out = TraceSnapshot::default();
    for (i, ev) in events.iter().enumerate() {
        let arg = |key: &str| ev.args.as_ref()?.get(key).and_then(Json::as_u64);
        match ev.ph.as_str() {
            "X" => out.spans.push(SpanRecord {
                id: arg("id").unwrap_or(0),
                parent: arg("parent"),
                name: ev.name.clone(),
                start_us: ev.ts,
                dur_us: ev.dur,
                worker: ev.tid as u32,
                attrs: match &ev.args {
                    Some(Json::Obj(members)) => attrs_of(members, &["id", "parent"])
                        .map_err(|e| format!("event {i}: {e}"))?,
                    _ => Vec::new(),
                },
            }),
            "C" => {
                out.counters
                    .insert(ev.name.clone(), arg("value").unwrap_or(0));
                out.wall_us = out.wall_us.max(ev.ts);
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Checks the structural invariants of a parsed trace: span ids unique,
/// every parent id resolves to a span in the file, the parent graph is
/// acyclic, and each histogram's bucket counts sum to its sample count.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn validate(trace: &TraceSnapshot) -> Result<(), String> {
    let mut ids = HashSet::with_capacity(trace.spans.len());
    for s in &trace.spans {
        if s.id == 0 {
            return Err(format!("span `{}` has id 0", s.name));
        }
        if !ids.insert(s.id) {
            return Err(format!("duplicate span id {}", s.id));
        }
    }
    let parent_of: HashMap<u64, Option<u64>> =
        trace.spans.iter().map(|s| (s.id, s.parent)).collect();
    for s in &trace.spans {
        if let Some(p) = s.parent {
            if !parent_of.contains_key(&p) {
                return Err(format!(
                    "span {} (`{}`): parent {p} unresolved",
                    s.id, s.name
                ));
            }
        }
        // Walk the parent chain; revisiting the start means a cycle.
        let mut cursor = s.parent;
        let mut hops = 0usize;
        while let Some(p) = cursor {
            if p == s.id || hops > trace.spans.len() {
                return Err(format!("span {} (`{}`): parent cycle", s.id, s.name));
            }
            hops += 1;
            cursor = parent_of.get(&p).copied().flatten();
        }
    }
    for (name, h) in &trace.hists {
        let bucket_sum: u64 = h.counts.iter().sum();
        if bucket_sum != h.count {
            return Err(format!(
                "hist `{name}`: bucket counts sum to {bucket_sum}, count is {}",
                h.count
            ));
        }
        if !h.bounds.is_empty() && h.counts.len() != h.bounds.len() + 1 {
            return Err(format!(
                "hist `{name}`: {} bounds but {} buckets",
                h.bounds.len(),
                h.counts.len()
            ));
        }
    }
    Ok(())
}

/// Worker-lane offset applied to server spans by [`stitch`], so the
/// stitched Chrome export renders client and server rows separately.
pub const STITCH_SERVER_LANE_BASE: u32 = 100;

/// Stitches a client-side trace and a server-side trace into one
/// parent-linked tree.
///
/// The wire protocol propagates trace context: the client stamps each
/// request with its open span id, and the server records that id as the
/// `client_span` attribute of its per-request root span (keeping each
/// per-process trace self-contained and valid on its own). Stitching
/// re-parents every such server root onto the named client span, shifts
/// the server timeline by the median offset that centers each server
/// request span inside its client span (the two processes have
/// unrelated trace epochs; the residual is the symmetric network/queue
/// delay), moves server spans onto lanes
/// `worker + STITCH_SERVER_LANE_BASE`, and merges the metric registries
/// (counters sum; a server histogram or gauge whose name collides with
/// a client one is kept under a `server.` prefix).
///
/// # Errors
///
/// When the two traces share span ids (the client must reserve a high
/// id range via `subvt_engine::trace::raise_id_floor`), or when no
/// server span references a client span (nothing to stitch).
pub fn stitch(client: &TraceSnapshot, server: &TraceSnapshot) -> Result<TraceSnapshot, String> {
    let client_ids: HashSet<u64> = client.spans.iter().map(|s| s.id).collect();
    for s in &server.spans {
        if client_ids.contains(&s.id) {
            return Err(format!(
                "span id {} appears in both traces; the client must reserve \
                 a disjoint id range (trace::raise_id_floor)",
                s.id
            ));
        }
    }
    let client_by_id: HashMap<u64, &SpanRecord> = client.spans.iter().map(|s| (s.id, s)).collect();

    // Matched pairs: server request roots naming a client span.
    let mut offsets: Vec<i128> = Vec::new();
    let mut reparent: HashMap<u64, u64> = HashMap::new();
    for s in &server.spans {
        if s.parent.is_some() {
            continue;
        }
        let Some(client_span) = s.attr_u64("client_span") else {
            continue;
        };
        let Some(c) = client_by_id.get(&client_span) else {
            continue;
        };
        reparent.insert(s.id, client_span);
        let client_mid = i128::from(c.start_us) * 2 + i128::from(c.dur_us);
        let server_mid = i128::from(s.start_us) * 2 + i128::from(s.dur_us);
        offsets.push((client_mid - server_mid) / 2);
    }
    if offsets.is_empty() {
        return Err(
            "no server span carries a `client_span` attribute matching a client span; \
             nothing to stitch"
                .to_owned(),
        );
    }
    offsets.sort_unstable();
    let offset = offsets[offsets.len() / 2];

    let mut out = client.clone();
    for s in &server.spans {
        let mut merged = s.clone();
        merged.start_us = (i128::from(s.start_us) + offset).max(0) as u64;
        merged.worker = s.worker + STITCH_SERVER_LANE_BASE;
        if let Some(&new_parent) = reparent.get(&s.id) {
            merged.parent = Some(new_parent);
        }
        out.wall_us = out.wall_us.max(merged.start_us + merged.dur_us);
        out.spans.push(merged);
    }
    for (name, value) in &server.counters {
        *out.counters.entry(name.clone()).or_insert(0) += value;
    }
    for (name, value) in &server.gauges {
        if out.gauges.contains_key(name) {
            out.gauges.insert(format!("server.{name}"), *value);
        } else {
            out.gauges.insert(name.clone(), *value);
        }
    }
    for (name, hist) in &server.hists {
        let key = if out.hists.contains_key(name) {
            format!("server.{name}")
        } else {
            name.clone()
        };
        out.hists.insert(key, hist.clone());
    }
    Ok(out)
}

/// Lane labels of a stitched trace for [`TraceSnapshot::write_chrome`]:
/// `client`/`client-worker-N` below [`STITCH_SERVER_LANE_BASE`],
/// `server`/`server-worker-N` from it on.
fn stitched_lane_label(lane: u32) -> String {
    match lane {
        0 => "client".to_owned(),
        n if n < STITCH_SERVER_LANE_BASE => format!("client-worker-{}", n - 1),
        STITCH_SERVER_LANE_BASE => "server".to_owned(),
        n => format!("server-worker-{}", n - STITCH_SERVER_LANE_BASE - 1),
    }
}

/// Writes a stitched trace as one Perfetto-loadable Chrome trace
/// (process `subvt-stitched`, lanes labelled `client`/`client-worker-N`
/// and `server`/`server-worker-N`).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_stitched_chrome(
    trace: &TraceSnapshot,
    w: &mut impl std::io::Write,
) -> std::io::Result<()> {
    trace.write_chrome(w, "subvt-stitched", stitched_lane_label)
}

/// One line of the daemon's structured JSONL access log (`--access-log`;
/// schema in DESIGN.md §6).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessRecord {
    /// UTC timestamp (`YYYY-MM-DDTHH:MM:SSZ`).
    pub ts: String,
    /// Wire-propagated trace id (or the server-synthesized `srv-…` id
    /// when the client sent none).
    pub trace_id: String,
    /// Echoed request id.
    pub id: String,
    /// Request method.
    pub method: String,
    /// `ok` or the protocol error code.
    pub outcome: String,
    /// Cache provenance (`hit|coalesced|computed`) when applicable.
    pub cached: Option<String>,
    /// Server request-span id (0 for pre-admission rejections).
    pub span: u64,
    /// Per-phase durations in µs, in pipeline order.
    pub phases: Vec<(String, u64)>,
    /// End-to-end server-side duration, µs.
    pub total_us: u64,
}

/// Parses a JSONL access log.
///
/// # Errors
///
/// Reports the first malformed line (number + reason).
pub fn parse_access_log(text: &str) -> Result<Vec<AccessRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let opt_str = |key: &str| value.get(key).and_then(Json::as_str).map(str::to_owned);
        let str_of =
            |key: &str| opt_str(key).ok_or(format!("line {}: missing string `{key}`", lineno + 1));
        let phases = match value.get("phases") {
            Some(Json::Obj(members)) => members
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|us| (k.clone(), us)))
                .collect(),
            _ => Vec::new(),
        };
        out.push(AccessRecord {
            ts: str_of("ts")?,
            trace_id: str_of("trace_id")?,
            id: opt_str("id").unwrap_or_default(),
            method: str_of("method")?,
            outcome: str_of("outcome")?,
            cached: opt_str("cached"),
            span: value.get("span").and_then(Json::as_u64).unwrap_or(0),
            phases,
            total_us: value.get("total_us").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    Ok(out)
}

/// Renders an access log as a per-method summary: request counts,
/// outcomes, cache provenance, and latency/phase breakdowns. Used by
/// `repro trace-report` when it sniffs an access-log file.
pub fn render_access_report(records: &[AccessRecord]) -> String {
    let mut out = String::new();
    let errors = records.iter().filter(|r| r.outcome != "ok").count();
    let _ = writeln!(
        out,
        "access log: {} requests, {} errors",
        records.len(),
        errors
    );
    if records.is_empty() {
        return out;
    }

    let mut methods: Vec<&str> = records.iter().map(|r| r.method.as_str()).collect();
    methods.sort_unstable();
    methods.dedup();
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<14} {:>6} {:>6} {:>5} {:>9} {:>5} {:>10} {:>10} {:>10}",
        "method", "count", "errors", "hit", "coalesced", "comp", "mean", "p99", "max"
    );
    for method in methods {
        let rows: Vec<&AccessRecord> = records.iter().filter(|r| r.method == method).collect();
        let errs = rows.iter().filter(|r| r.outcome != "ok").count();
        let provenance = |kind: &str| {
            rows.iter()
                .filter(|r| r.cached.as_deref() == Some(kind))
                .count()
        };
        let mut totals: Vec<u64> = rows.iter().map(|r| r.total_us).collect();
        totals.sort_unstable();
        let mean = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
        let p99 = totals[((totals.len() as f64 * 0.99).ceil() as usize).clamp(1, totals.len()) - 1];
        let _ = writeln!(
            out,
            "  {:<14} {:>6} {:>6} {:>5} {:>9} {:>5} {:>10} {:>10} {:>10}",
            method,
            rows.len(),
            errs,
            provenance("hit"),
            provenance("coalesced"),
            provenance("computed"),
            format_us(mean as u64),
            format_us(p99),
            format_us(*totals.last().unwrap_or(&0))
        );
    }

    // Mean time per pipeline phase, across everything that ran.
    let mut phase_totals: Vec<(String, u64, u64)> = Vec::new(); // (name, sum, n)
    for r in records {
        for (name, us) in &r.phases {
            match phase_totals.iter_mut().find(|(n, _, _)| n == name) {
                Some(entry) => {
                    entry.1 += us;
                    entry.2 += 1;
                }
                None => phase_totals.push((name.clone(), *us, 1)),
            }
        }
    }
    if !phase_totals.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  {:<14} {:>10} {:>10}", "phase", "mean", "total");
        for (name, sum, n) in &phase_totals {
            let _ = writeln!(
                out,
                "  {:<14} {:>10} {:>10}",
                name,
                format_us(sum / n.max(&1)),
                format_us(*sum)
            );
        }
    }
    out
}

/// Aggregated node of the report's span tree: spans with the same name
/// under the same parent group are merged.
struct ReportNode {
    name: String,
    count: u64,
    total_us: u64,
    self_us: u64,
    children: Vec<ReportNode>,
}

fn build_nodes(
    span_ids: &[usize],
    spans: &[SpanRecord],
    children_of: &HashMap<u64, Vec<usize>>,
) -> Vec<ReportNode> {
    // Group sibling spans by name, preserving first-seen order.
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for &idx in span_ids {
        let name = &spans[idx].name;
        match groups.iter_mut().find(|(n, _)| n == name) {
            Some((_, members)) => members.push(idx),
            None => groups.push((name.clone(), vec![idx])),
        }
    }
    let mut nodes: Vec<ReportNode> = groups
        .into_iter()
        .map(|(name, members)| {
            let total_us: u64 = members.iter().map(|&i| spans[i].dur_us).sum();
            let child_ids: Vec<usize> = members
                .iter()
                .flat_map(|&i| {
                    children_of
                        .get(&spans[i].id)
                        .map(Vec::as_slice)
                        .unwrap_or(&[])
                })
                .copied()
                .collect();
            let children = build_nodes(&child_ids, spans, children_of);
            let child_total: u64 = child_ids.iter().map(|&i| spans[i].dur_us).sum();
            ReportNode {
                name,
                count: members.len() as u64,
                total_us,
                // Children on other workers can overlap the parent, so
                // clamp instead of underflowing.
                self_us: total_us.saturating_sub(child_total),
                children,
            }
        })
        .collect();
    nodes.sort_by_key(|n| std::cmp::Reverse(n.self_us));
    nodes
}

fn render_node(out: &mut String, node: &ReportNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", node.name);
    let _ = writeln!(
        out,
        "  {label:<44} {:>6} {:>12} {:>12}",
        node.count,
        format_us(node.total_us),
        format_us(node.self_us)
    );
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

fn format_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1.0e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1.0e3)
    } else {
        format!("{us}us")
    }
}

/// Renders the `repro trace-report` text: a span tree aggregated by name
/// and sorted by self time, then counter, gauge and histogram tables.
pub fn render_report(trace: &TraceSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} spans, {} counters, {} histograms, wall {}",
        trace.spans.len(),
        trace.counters.len(),
        trace.hists.len(),
        format_us(trace.wall_us)
    );

    let ids: HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
    let mut children_of: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (idx, s) in trace.spans.iter().enumerate() {
        match s.parent {
            // Tolerate unresolved parents here (validate() reports them):
            // treat such spans as roots so the report still renders.
            Some(p) if ids.contains(&p) => children_of.entry(p).or_default().push(idx),
            _ => roots.push(idx),
        }
    }
    if !trace.spans.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  {:<44} {:>6} {:>12} {:>12}",
            "span (self-time sorted)", "count", "total", "self"
        );
        for node in build_nodes(&roots, &trace.spans, &children_of) {
            render_node(&mut out, &node, 0);
        }
    }

    if !trace.counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  {:<44} {:>12}", "counter", "value");
        for (name, value) in &trace.counters {
            let _ = writeln!(out, "  {name:<44} {value:>12}");
        }
    }
    if !trace.gauges.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  {:<44} {:>12}", "gauge", "value");
        for (name, value) in &trace.gauges {
            let _ = writeln!(out, "  {name:<44} {value:>12.3}");
        }
    }
    if !trace.hists.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  {:<44} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "mean", "p50", "p95", "max"
        );
        for (name, h) in &trace.hists {
            let _ = writeln!(
                out,
                "  {name:<44} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.max
            );
        }
    }
    out
}

/// Renders a run manifest (the `repro --manifest` JSON, schema v2) as a
/// human-readable summary: run configuration, per-experiment timings,
/// cache behaviour, and — when present — the failures and recoveries
/// blocks. Used by `repro trace-report` when it sniffs a manifest file.
pub fn render_manifest_report(manifest: &Json) -> String {
    let mut out = String::new();
    let str_of = |key: &str| manifest.get(key).and_then(Json::as_str).unwrap_or("?");
    let u64_of = |key: &str| manifest.get(key).and_then(Json::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "manifest v{}: backend {}, circuit backend {}, {} jobs, wall {}",
        u64_of("v"),
        str_of("backend"),
        str_of("circuit_backend"),
        u64_of("jobs"),
        format_us(u64_of("wall_us"))
    );

    if let Some(exps) = manifest.get("experiments").and_then(Json::as_arr) {
        if !exps.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "  {:<20} {:>6} {:>12}", "experiment", "runs", "total");
            for e in exps {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>6} {:>12}",
                    e.get("id").and_then(Json::as_str).unwrap_or("?"),
                    e.get("runs").and_then(Json::as_u64).unwrap_or(0),
                    format_us(e.get("dur_us").and_then(Json::as_u64).unwrap_or(0))
                );
            }
        }
    }

    if let Some(cache) = manifest.get("cache") {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  cache: {} hits, {} misses",
            cache.get("hits").and_then(Json::as_u64).unwrap_or(0),
            cache.get("misses").and_then(Json::as_u64).unwrap_or(0)
        );
    }

    let failures = manifest
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    let _ = writeln!(out);
    if failures.is_empty() {
        let _ = writeln!(out, "  failures: none");
    } else {
        let _ = writeln!(out, "  failures: {}", failures.len());
        for f in failures {
            let _ = writeln!(
                out,
                "    {}: {}",
                f.get("id").and_then(Json::as_str).unwrap_or("?"),
                f.get("message").and_then(Json::as_str).unwrap_or("?")
            );
        }
    }

    let recoveries = manifest
        .get("recoveries")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if recoveries.is_empty() {
        let _ = writeln!(out, "  recoveries: none");
    } else {
        let _ = writeln!(out, "  recoveries: {}", recoveries.len());
        for r in recoveries {
            let _ = writeln!(
                out,
                "    {} via {} ({}): {}",
                r.get("site").and_then(Json::as_str).unwrap_or("?"),
                r.get("step").and_then(Json::as_str).unwrap_or("?"),
                if r.get("recovered").and_then(Json::as_bool) == Some(true) {
                    "recovered"
                } else {
                    "failed"
                },
                r.get("detail").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_report_lists_failures_and_recoveries() {
        let manifest = parse_json(
            r#"{"v":2,"backend":"analytic","circuit_backend":"analytic","jobs":2,
                "wall_us":1500,"experiments":[{"id":"fig2","runs":1,"dur_us":1000}],
                "cache":{"hits":3,"misses":1,"namespaces":[]},
                "failures":[{"id":"fig4","message":"injected job panic"}],
                "recoveries":[{"site":"spice.dc","step":"gmin_stepping",
                               "detail":"","recovered":true}]}"#,
        )
        .unwrap();
        let report = render_manifest_report(&manifest);
        assert!(report.contains("manifest v2"));
        assert!(report.contains("fig2"));
        assert!(report.contains("failures: 1"));
        assert!(report.contains("fig4: injected job panic"));
        assert!(report.contains("spice.dc via gmin_stepping (recovered)"));
    }

    #[test]
    fn manifest_report_handles_clean_runs() {
        let manifest = parse_json(
            r#"{"v":2,"backend":"analytic","circuit_backend":"spice","jobs":1,
                "wall_us":10,"experiments":[],"cache":{"hits":0,"misses":0,
                "namespaces":[]},"failures":[],"recoveries":[]}"#,
        )
        .unwrap();
        let report = render_manifest_report(&manifest);
        assert!(report.contains("failures: none"));
        assert!(report.contains("recoveries: none"));
    }

    /// The spans, counters and histograms of a parsed trace equal the
    /// drained ones field by field (numeric attributes by value).
    fn assert_same_trace(parsed: &TraceSnapshot, drained: &TraceSnapshot) {
        assert_eq!(parsed.spans.len(), drained.spans.len());
        for (p, d) in parsed.spans.iter().zip(&drained.spans) {
            assert_eq!(
                (p.id, p.parent, &p.name, p.start_us, p.dur_us, p.worker),
                (d.id, d.parent, &d.name, d.start_us, d.dur_us, d.worker)
            );
            assert_eq!(p.attrs.len(), d.attrs.len(), "{}", d.name);
            for ((pk, pv), (dk, dv)) in p.attrs.iter().zip(&d.attrs) {
                assert_eq!(pk, dk);
                match (pv, dv) {
                    (AttrValue::F64(a), AttrValue::F64(b)) => {
                        assert!(a == b || (a.is_nan() && b.is_nan()), "{pk}: {a} vs {b}");
                    }
                    (AttrValue::U64(a), AttrValue::F64(b)) => assert_eq!(*a as f64, *b, "{pk}"),
                    _ => assert_eq!(pv, dv, "{pk}"),
                }
            }
        }
        assert_eq!(parsed.counters, drained.counters);
        assert_eq!(parsed.hists, drained.hists);
    }

    fn traced_sample() -> subvt_engine::trace::Tracer {
        let tracer = subvt_engine::trace::Tracer::new();
        {
            let _outer = tracer.span("outer");
            drop(
                tracer
                    .span("inner")
                    .attr("k", 3u64)
                    .attr("neg", -2i64)
                    .attr("x", 0.25)
                    .attr("whole", 4.0)
                    .attr("nan", f64::NAN)
                    .attr("s", "a\"b")
                    .attr("b", false),
            );
        }
        tracer.add("c1", 7);
        tracer.observe_with("h1", 3.0, &[1.0, 5.0]);
        tracer
    }

    #[test]
    fn jsonl_round_trip_from_engine_writer() {
        let tracer = traced_sample();
        let mut buf = Vec::new();
        tracer.write_jsonl(&mut buf).unwrap();
        let text = std::str::from_utf8(&buf).unwrap();
        let trace = parse_jsonl(text).unwrap();
        assert_same_trace(&trace, &tracer.snapshot());
        validate(&trace).unwrap();
        let meta = parse_json(text.lines().last().unwrap()).unwrap();
        assert_eq!(
            meta.get("v").and_then(Json::as_u64),
            Some(subvt_engine::trace::SCHEMA_VERSION)
        );
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.attr_u64("k"), Some(3));
        assert_eq!(inner.attr_str("s"), Some("a\"b"));
    }

    #[test]
    fn chrome_round_trip_from_engine_writer() {
        let tracer = traced_sample();
        let mut buf = Vec::new();
        tracer.write_chrome(&mut buf).unwrap();
        let events = parse_chrome(std::str::from_utf8(&buf).unwrap()).unwrap();
        // process_name + >=1 thread_name + 2 spans + 1 counter.
        assert!(events.len() >= 5, "{events:?}");
        assert!(events.iter().all(|e| e.pid == 1));
        let trace = trace_from_chrome(&events).unwrap();
        let mut drained = tracer.snapshot();
        // The Chrome form carries no histograms.
        drained.hists.clear();
        assert_same_trace(&trace, &drained);
        validate(&trace).unwrap();
    }

    #[test]
    fn array_or_object_attributes_are_rejected_with_their_line() {
        let text = concat!(
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"a\",",
            "\"start_us\":0,\"dur_us\":1,\"worker\":0,\"attrs\":{}}\n",
            "{\"type\":\"span\",\"id\":2,\"parent\":null,\"name\":\"b\",",
            "\"start_us\":0,\"dur_us\":1,\"worker\":0,\"attrs\":{\"k\":[1]}}\n",
        );
        let err = parse_jsonl(text).unwrap_err();
        assert!(err.starts_with("line 2:") && err.contains("`k`"), "{err}");
        let events = parse_chrome(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\
             \"ts\":0,\"dur\":1,\"args\":{\"id\":1,\"o\":{}}}]}",
        )
        .unwrap();
        assert!(trace_from_chrome(&events).unwrap_err().contains("event 0"));
    }

    fn record(id: u64, parent: Option<u64>, name: &str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            start_us: 0,
            dur_us: 1,
            worker: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn validate_rejects_broken_traces() {
        let mut t = TraceSnapshot::default();
        t.spans.push(record(1, Some(99), "orphan"));
        assert!(validate(&t).unwrap_err().contains("unresolved"));

        let mut t = TraceSnapshot::default();
        t.spans.push(record(1, Some(2), "a"));
        t.spans.push(record(2, Some(1), "b"));
        assert!(validate(&t).unwrap_err().contains("cycle"));

        let mut t = TraceSnapshot::default();
        let mut h = Histogram::new(&[1.0]);
        h.counts = vec![1, 1];
        h.count = 3;
        t.hists.insert("h".into(), h);
        assert!(validate(&t).unwrap_err().contains("sum to"));
    }

    #[test]
    fn report_renders_tree_and_tables() {
        let tracer = subvt_engine::trace::Tracer::new();
        {
            let _e = tracer.span("experiment.x");
            drop(tracer.span("design.sub"));
            drop(tracer.span("design.sub"));
        }
        tracer.add("cache.design.hit", 4);
        tracer.observe("design.bisect.steps", 31.0);
        let mut buf = Vec::new();
        tracer.write_jsonl(&mut buf).unwrap();
        let trace = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
        let report = render_report(&trace);
        assert!(report.contains("experiment.x"), "{report}");
        assert!(report.contains("design.sub"), "{report}");
        assert!(report.contains("cache.design.hit"), "{report}");
        assert!(report.contains("design.bisect.steps"), "{report}");
        // The two design.sub spans aggregate to one row with count 2.
        let sub_line = report.lines().find(|l| l.contains("design.sub")).unwrap();
        assert!(sub_line.contains(" 2 "), "{sub_line}");
    }

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            start_us,
            dur_us,
            ..record(id, parent, name)
        }
    }

    fn stitch_fixture() -> (TraceSnapshot, TraceSnapshot) {
        let mut client = TraceSnapshot::default();
        // Client epoch starts at 10_000µs; request span covers the wire
        // round-trip.
        client
            .spans
            .push(span(1 << 32, None, "client.request", 10_000, 2_000));
        client.wall_us = 12_000;
        client.counters.insert("loadgen.sent".into(), 1);

        let mut server = TraceSnapshot::default();
        // Server epoch is unrelated: its 500µs request span sits at
        // 777_000µs of its own trace.
        let mut req = span(7, None, "serve.request", 777_000, 500);
        req.attrs
            .push(("client_span".into(), AttrValue::U64(1 << 32)));
        req.attrs.push(("trace_id".into(), "lg-1".into()));
        server.spans.push(req);
        server.spans.push(span(8, Some(7), "compute", 777_100, 300));
        server.wall_us = 777_500;
        server.counters.insert("serve.accepted".into(), 1);
        (client, server)
    }

    #[test]
    fn stitch_reparents_and_realigns_server_spans() {
        let (client, server) = stitch_fixture();
        let stitched = stitch(&client, &server).unwrap();
        validate(&stitched).unwrap();
        assert_eq!(stitched.spans.len(), 3);
        let req = stitched.spans.iter().find(|s| s.id == 7).unwrap();
        // Re-parented onto the client span and centered inside it:
        // client mid 11_000 − server half-width 250 = 10_750.
        assert_eq!(req.parent, Some(1 << 32));
        assert_eq!(req.start_us, 10_750);
        assert_eq!(req.worker, STITCH_SERVER_LANE_BASE);
        // The child moved by the same offset and kept its parent.
        let compute = stitched.spans.iter().find(|s| s.id == 8).unwrap();
        assert_eq!(compute.parent, Some(7));
        assert_eq!(compute.start_us, 10_850);
        // Registries merged.
        assert_eq!(stitched.counters["loadgen.sent"], 1);
        assert_eq!(stitched.counters["serve.accepted"], 1);
    }

    #[test]
    fn stitch_rejects_id_collisions_and_unmatched_traces() {
        let (client, server) = stitch_fixture();
        let mut colliding = server.clone();
        colliding.spans[0].id = 1 << 32;
        assert!(stitch(&client, &colliding)
            .unwrap_err()
            .contains("both traces"));

        let mut unmatched = server.clone();
        unmatched.spans[0].attrs.clear();
        assert!(stitch(&client, &unmatched)
            .unwrap_err()
            .contains("nothing to stitch"));
    }

    #[test]
    fn stitched_chrome_export_round_trips() {
        let (client, server) = stitch_fixture();
        let stitched = stitch(&client, &server).unwrap();
        let events = parse_chrome(&stitched_export(&stitched)).unwrap();
        let reparsed = trace_from_chrome(&events).unwrap();
        validate(&reparsed).unwrap();
        assert_eq!(reparsed.spans.len(), stitched.spans.len());
        let req = reparsed.spans.iter().find(|s| s.id == 7).unwrap();
        assert_eq!(req.parent, Some(1 << 32));
        assert_eq!(req.attr_str("trace_id"), Some("lg-1"));
        assert_eq!(reparsed.counters["serve.accepted"], 1);
    }

    /// What the stitched export wrote for this trace before it shared
    /// the engine's Chrome writer.
    const GOLDEN_STITCHED: &str = r#"{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"dur":0,"args":{"name":"subvt-stitched"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"ts":0,"dur":0,"args":{"name":"client"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"ts":0,"dur":0,"args":{"name":"client-worker-1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":100,"ts":0,"dur":0,"args":{"name":"server"}},
{"name":"thread_name","ph":"M","pid":1,"tid":101,"ts":0,"dur":0,"args":{"name":"server-worker-0"}},
{"name":"client.request","cat":"subvt","ph":"X","pid":1,"tid":0,"ts":10,"dur":500,"args":{"id":4294967296,"parent":null,"u":7,"i":-3,"f":2.5,"s":"a\"b\n","b":true}},
{"name":"client.encode","cat":"subvt","ph":"X","pid":1,"tid":2,"ts":20,"dur":30,"args":{"id":4294967297,"parent":4294967296}},
{"name":"serve.request","cat":"subvt","ph":"X","pid":1,"tid":100,"ts":100,"dur":200,"args":{"id":7,"parent":4294967296,"client_span":4294967296,"nan":null}},
{"name":"compute","cat":"subvt","ph":"X","pid":1,"tid":101,"ts":120,"dur":100,"args":{"id":8,"parent":7}},
{"name":"loadgen.sent","ph":"C","pid":1,"tid":0,"ts":600,"dur":0,"args":{"value":2}},
{"name":"serve.accepted","ph":"C","pid":1,"tid":0,"ts":600,"dur":0,"args":{"value":1}}
],"displayTimeUnit":"ms"}
"#;

    fn stitched_export(trace: &TraceSnapshot) -> String {
        let mut buf = Vec::new();
        write_stitched_chrome(trace, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn stitched_export_matches_the_golden_bytes() {
        let sp =
            |id, parent, name, start_us, dur_us, worker, attrs: &[(&str, AttrValue)]| SpanRecord {
                worker,
                attrs: attrs
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
                ..span(id, parent, name, start_us, dur_us)
            };
        let client = 1 << 32;
        // One attribute of each `AttrValue` kind, plus a NaN float.
        let kinds = [
            ("u", 7u64.into()),
            ("i", (-3i64).into()),
            ("f", 2.5.into()),
            ("s", "a\"b\n".into()),
            ("b", true.into()),
        ];
        let served = [("client_span", client.into()), ("nan", f64::NAN.into())];
        let trace = TraceSnapshot {
            spans: vec![
                sp(client, None, "client.request", 10, 500, 0, &kinds),
                sp(client + 1, Some(client), "client.encode", 20, 30, 2, &[]),
                sp(7, Some(client), "serve.request", 100, 200, 100, &served),
                sp(8, Some(7), "compute", 120, 100, 101, &[]),
            ],
            counters: [("serve.accepted".into(), 1), ("loadgen.sent".into(), 2)].into(),
            wall_us: 600,
            ..TraceSnapshot::default()
        };
        assert_eq!(stitched_export(&trace), GOLDEN_STITCHED);
        // Reading the export back and writing it again is the identity.
        let reread = trace_from_chrome(&parse_chrome(GOLDEN_STITCHED).unwrap()).unwrap();
        assert_eq!(stitched_export(&reread), GOLDEN_STITCHED);
    }

    #[test]
    fn access_log_parses_and_renders() {
        let text = concat!(
            "{\"ts\":\"2026-08-08T00:00:00Z\",\"trace_id\":\"lg-1\",\"id\":\"c1\",",
            "\"method\":\"vtc\",\"outcome\":\"ok\",\"cached\":\"computed\",\"span\":7,",
            "\"phases\":{\"queue_us\":10,\"compute_us\":200,\"serialize_us\":5},",
            "\"total_us\":215}\n",
            "{\"ts\":\"2026-08-08T00:00:01Z\",\"trace_id\":\"lg-2\",\"id\":\"c2\",",
            "\"method\":\"vtc\",\"outcome\":\"ok\",\"cached\":\"hit\",\"span\":9,",
            "\"phases\":{\"queue_us\":2,\"compute_us\":1,\"serialize_us\":3},",
            "\"total_us\":6}\n",
            "{\"ts\":\"2026-08-08T00:00:02Z\",\"trace_id\":\"lg-3\",\"id\":\"c3\",",
            "\"method\":\"isub\",\"outcome\":\"overloaded\",\"span\":0,\"total_us\":1}\n",
        );
        let records = parse_access_log(text).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].cached.as_deref(), Some("computed"));
        assert_eq!(records[0].phases.len(), 3);
        assert_eq!(records[2].outcome, "overloaded");
        assert_eq!(records[2].cached, None);

        let report = render_access_report(&records);
        assert!(report.contains("3 requests, 1 errors"), "{report}");
        assert!(report.contains("vtc"), "{report}");
        assert!(report.contains("isub"), "{report}");
        assert!(report.contains("compute_us"), "{report}");

        assert!(parse_access_log("{\"ts\":\"x\"}")
            .unwrap_err()
            .contains("line 1"));
    }
}
