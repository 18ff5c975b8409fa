//! Integration suite for the `subvt-serve` daemon (DESIGN.md §8):
//! request dedup through the single-flight cache, typed overload
//! rejection, poison-request quarantine, graceful shutdown, the
//! HTTP metrics shim, and — via the real binary — warm restart from
//! the persistent cache with zero new misses.
//!
//! The metric assertions read the process-global tracer, so every
//! test takes the serial lock and works in counter deltas.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use subvt_engine::json::{parse_json, Json};
use subvt_serve::client::{http_get, Client};
use subvt_serve::query::{self, Query};
use subvt_serve::{signal, Config, ErrorCode, Server};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn counters() -> BTreeMap<String, u64> {
    subvt_engine::trace::global().snapshot().counters
}

fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
}

fn start(config: Config) -> Server {
    signal::reset_for_tests();
    Server::start(config).expect("server start")
}

#[test]
fn n_identical_concurrent_requests_compute_exactly_once() {
    let _guard = serial();
    let server = start(Config {
        workers: 3,
        ..Config::default()
    });
    let addr = server.addr();
    let before = counters();

    const N: usize = 6;
    // Unusual bias points so no other test can have warmed this key.
    let params = r#"{"node":"ref90","v_ds":0.05,"v_gs":[0.111,0.222,0.333,0.444]}"#;
    let responses: Vec<_> = (0..N)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.call("idvg", params).expect("call")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("thread"))
        .collect();

    let payload = responses[0].result.clone().expect("payload");
    for r in &responses {
        assert!(r.ok, "every duplicate must succeed: {}", r.raw);
        assert_eq!(
            r.result.as_deref(),
            Some(payload.as_str()),
            "duplicates must answer byte-identically"
        );
    }
    let after = counters();
    assert_eq!(
        delta(&before, &after, "serve.computed"),
        1,
        "N identical concurrent requests must compute exactly once"
    );
    let shared = delta(&before, &after, "serve.dedup.hits")
        + delta(&before, &after, "serve.dedup.coalesced");
    assert_eq!(shared, (N - 1) as u64, "the other N-1 must be deduped");

    server.shutdown();
    server.join().expect("join");
}

#[test]
fn overload_is_a_typed_rejection_not_a_hang() {
    let _guard = serial();
    let server = start(Config {
        workers: 1,
        queue_capacity: 1,
        ..Config::default()
    });
    let addr = server.addr();
    let before = counters();

    // Occupy the only worker...
    let occupant = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .call("sleep", r#"{"ms":800,"token":"overload-occupant"}"#)
            .expect("occupant call")
    });
    wait_for_gauge(addr, "serve.inflight", 1.0);
    // ...fill the queue...
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .call("sleep", r#"{"ms":1,"token":"overload-queued"}"#)
            .expect("queued call")
    });
    wait_for_gauge(addr, "serve.queue.depth", 1.0);

    // ...and the next request must bounce immediately.
    let started = Instant::now();
    let mut client = Client::connect(addr).expect("connect");
    let rejected = client
        .call("fo1", r#"{"node":"ref90","v_dd":0.32}"#)
        .expect("rejected call");
    assert!(!rejected.ok);
    assert_eq!(rejected.error_code.as_deref(), Some("overloaded"));
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "overload rejection must not wait for the queue: {:?}",
        started.elapsed()
    );

    assert!(occupant.join().expect("occupant").ok);
    assert!(queued.join().expect("queued").ok);
    let after = counters();
    assert!(delta(&before, &after, "serve.rejected.overload") >= 1);

    server.shutdown();
    server.join().expect("join");
}

#[test]
fn poison_requests_are_quarantined_while_the_server_keeps_serving() {
    let _guard = serial();
    let server = start(Config {
        workers: 2,
        ..Config::default()
    });
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");

    let first = client
        .call("panic", r#"{"token":"poison-1"}"#)
        .expect("first poison");
    assert!(!first.ok);
    assert_eq!(first.error_code.as_deref(), Some("compute_panicked"));

    let second = client
        .call("panic", r#"{"token":"poison-1"}"#)
        .expect("second poison");
    assert!(!second.ok);
    assert_eq!(
        second.error_code.as_deref(),
        Some("quarantined"),
        "a repeated poison key must be refused without re-running"
    );

    // The worker that caught the panic must still serve real work.
    let alive = client
        .call("params", r#"{"node":"ref90"}"#)
        .expect("post-poison call");
    assert!(alive.ok, "server must keep serving after a poison request");

    server.shutdown();
    server.join().expect("join");
}

#[test]
fn graceful_shutdown_rejects_new_work_and_persists_the_cache() {
    let _guard = serial();
    let cache_path =
        std::env::temp_dir().join(format!("subvt-serve-shutdown-{}.jsonl", std::process::id()));
    std::fs::remove_file(&cache_path).ok();
    let server = start(Config {
        workers: 2,
        cache_path: Some(cache_path.clone()),
        ..Config::default()
    });
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let warm = client
        .call("fo1", r#"{"node":"ref90","v_dd":0.33}"#)
        .expect("warm call");
    assert!(warm.ok);

    let ack = client.call("shutdown", "{}").expect("shutdown call");
    assert!(ack.ok, "shutdown must acknowledge");

    // Once the accept loop closes admission, compute methods get a
    // typed shutting_down; admin methods keep answering inline.
    let rejected = wait_until(Duration::from_secs(3), || {
        let r = client.call("fo1", r#"{"node":"ref90","v_dd":0.34}"#).ok()?;
        (!r.ok).then_some(r)
    });
    assert_eq!(rejected.error_code.as_deref(), Some("shutting_down"));

    server.join().expect("join");
    assert!(
        cache_path.exists(),
        "graceful shutdown must compact the cache to disk"
    );
    std::fs::remove_file(&cache_path).ok();
    signal::reset_for_tests();
}

/// A fresh connection is served as soon as it arrives: the accept loop
/// blocks in `accept` rather than polling with a sleep, which stalled
/// each new connection by up to one poll interval (20 sequential
/// fresh-connection pings took about 386 ms that way).
#[test]
fn fresh_connections_are_accepted_without_a_polling_stall() {
    let _guard = serial();
    let server = start(Config::default());
    let addr = server.addr();
    std::thread::sleep(Duration::from_millis(50)); // let it go idle
    let started = Instant::now();
    for _ in 0..20 {
        let mut client = Client::connect(addr).expect("connect");
        assert!(client.call("ping", "{}").expect("ping").ok);
    }
    let took = started.elapsed();
    server.shutdown();
    server.join().expect("join");
    assert!(
        took < Duration::from_millis(150),
        "20 fresh-connection pings took {took:?}"
    );
}

#[test]
fn http_shim_serves_healthz_and_metrics() {
    let _guard = serial();
    let server = start(Config::default());
    let addr = server.addr();

    let mut client = Client::connect(addr).expect("connect");
    assert!(client.call("ping", "{}").expect("ping").ok);

    assert_eq!(http_get(addr, "/healthz").expect("healthz"), "ok\n");
    let metrics = http_get(addr, "/metrics").expect("metrics");
    assert!(
        metrics.contains("subvt_gauge{name=\"serve.queue.depth\"}"),
        "metrics must export the queue-depth gauge:\n{metrics}"
    );
    assert!(
        metrics.contains("subvt_counter"),
        "metrics must export counters"
    );
    assert!(http_get(addr, "/nope").is_err(), "unknown paths are 404");

    server.shutdown();
    server.join().expect("join");
}

/// Spawned-binary test: a warm restart must answer from the persisted
/// cache with zero new misses in the `serve.resp` namespace.
#[test]
fn warm_restart_answers_from_cache_with_zero_new_misses() {
    let _guard = serial();
    let cache_path =
        std::env::temp_dir().join(format!("subvt-serve-warm-{}.jsonl", std::process::id()));
    std::fs::remove_file(&cache_path).ok();
    let params = r#"{"node":"ref90","v_dd":0.29}"#;

    // Cold run: compute and persist.
    {
        let mut child = spawn_daemon(&cache_path);
        let mut client =
            Client::connect_ready(child.addr.as_str(), Duration::from_secs(10)).expect("ready");
        let cold = client.call("fo1", params).expect("cold call");
        assert!(cold.ok);
        assert_eq!(cold.cached.as_deref(), Some("computed"));
        client.call("shutdown", "{}").expect("shutdown");
        child.wait_success();
    }

    // Warm run: same request must be a disk hit, not a recompute.
    {
        let mut child = spawn_daemon(&cache_path);
        let mut client =
            Client::connect_ready(child.addr.as_str(), Duration::from_secs(10)).expect("ready");
        let warm = client.call("fo1", params).expect("warm call");
        assert!(warm.ok);
        assert_eq!(
            warm.cached.as_deref(),
            Some("hit"),
            "restart must answer from the persisted cache: {}",
            warm.raw
        );
        let metrics = client.call("metrics", "{}").expect("metrics");
        let json = metrics.result_json().expect("metrics json");
        let counter = |name: &str| -> f64 {
            json.get("counters")
                .and_then(|c| c.get(name))
                .and_then(subvt_engine::json::Json::as_f64)
                .unwrap_or(0.0)
        };
        assert_eq!(
            counter("cache.serve.resp.miss"),
            0.0,
            "warm restart must introduce zero new response-cache misses"
        );
        assert_eq!(counter("serve.computed"), 0.0, "nothing may recompute");
        client.call("shutdown", "{}").expect("shutdown");
        child.wait_success();
    }
    std::fs::remove_file(&cache_path).ok();
}

/// Spawned-binary test: a daemon without `--trace` keeps no spans, so
/// its peak resident set and the shape of its `/metrics` body stay flat
/// while it answers ten times more cache hits.
#[cfg(target_os = "linux")]
#[test]
fn a_daemon_without_trace_stays_flat_with_uptime() {
    let _guard = serial();
    let cache_path =
        std::env::temp_dir().join(format!("subvt-serve-flat-{}.jsonl", std::process::id()));
    std::fs::remove_file(&cache_path).ok();
    let mut child = spawn_daemon(&cache_path);
    let pid = child.child.id();
    let peak_kib = || -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmHWM in /proc/<pid>/status")
    };
    let mut client =
        Client::connect_ready(child.addr.as_str(), Duration::from_secs(10)).expect("ready");
    let mut hits = |n: usize| {
        for _ in 0..n {
            let r = client
                .call("params", r#"{"node":"ref90"}"#)
                .expect("params call");
            assert!(r.ok, "{}", r.raw);
        }
    };
    let addr = child.addr.clone();
    let metrics = || http_get(addr.as_str(), "/metrics").expect("metrics");

    hits(1_000);
    let (peak_1k, metrics_1k) = (peak_kib(), metrics());
    hits(10_000);
    let (peak_11k, metrics_11k) = (peak_kib(), metrics());
    assert!(
        peak_11k < peak_1k + 2 * 1024,
        "VmHWM grew from {peak_1k} kB to {peak_11k} kB over 10,000 cache hits"
    );
    // Only sample values change: every count line gains a digit, and
    // no line, family or label comes with the extra hits.
    let shape = |body: &str| -> Vec<String> {
        body.lines()
            .map(|l| match l.rsplit_once(' ') {
                Some((series, _)) if !l.starts_with('#') => series.to_owned(),
                _ => l.to_owned(),
            })
            .collect()
    };
    assert_eq!(shape(&metrics_1k), shape(&metrics_11k));
    client.call("shutdown", "{}").expect("shutdown");
    child.wait_success();
    std::fs::remove_file(&cache_path).ok();
}

#[test]
fn http_shim_error_paths_answer_typed_statuses_without_hanging() {
    let _guard = serial();
    let server = start(Config {
        http_timeout: Duration::from_millis(400),
        ..Config::default()
    });
    let addr = server.addr();

    let resp = raw_http(addr, b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "non-GET must 405: {resp}");
    assert!(
        resp.contains("Allow: GET, HEAD"),
        "405 must advertise: {resp}"
    );

    let resp = raw_http(addr, b"GET /nope HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404"), "unknown path: {resp}");

    let resp = raw_http(addr, b"HEAD /healthz HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200"), "HEAD must work: {resp}");
    assert!(
        resp.ends_with("\r\n\r\n"),
        "HEAD must carry no body: {resp:?}"
    );

    let mut long = b"GET /".to_vec();
    long.resize(long.len() + 9000, b'a');
    long.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let resp = raw_http(addr, &long);
    assert!(
        resp.starts_with("HTTP/1.1 431"),
        "over-long request line must 431: {resp}"
    );

    // A half-open connection (nothing ever sent) must be closed by the
    // server's read timeout — never parked forever.
    let started = Instant::now();
    let mut idle = std::net::TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = [0u8; 16];
    let n = std::io::Read::read(&mut idle, &mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server must close a half-open connection silently");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "half-open close must honor http_timeout: {:?}",
        started.elapsed()
    );

    server.shutdown();
    server.join().expect("join");
}

/// Spawned-binary test for the tentpole: wire trace context makes one
/// parent-linked tree. The test acts as the client (high span-id range,
/// `client.request` spans, trace context on the wire), the daemon
/// writes its Chrome trace and access log on shutdown, and the
/// tracefmt stitcher must re-parent every server request span onto the
/// client span that issued it.
#[test]
fn wire_trace_context_stitches_into_one_parent_linked_tree() {
    use subvt_exp::tracefmt;

    let _guard = serial();
    let dir = std::env::temp_dir().join(format!("subvt-serve-stitch-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let access_path = dir.join("access.jsonl");
    let trace_path = dir.join("server-trace.json");

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_subvt-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--slo",
            "vtc=p99:5000",
            "--access-log",
            access_path.to_str().expect("utf8"),
            "--trace",
            trace_path.to_str().expect("utf8"),
            "--trace-format",
            "chrome",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn subvt-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let banner = BufReader::new(stdout)
        .lines()
        .next()
        .expect("banner")
        .expect("banner read");
    let addr = banner.rsplit(' ').next().expect("addr").to_owned();
    let mut daemon = Daemon { child, addr };

    // Client side: reserve a disjoint span-id range, then issue traced
    // requests under client.request spans.
    subvt_engine::trace::raise_id_floor(1 << 32);
    let mut client =
        Client::connect_ready(daemon.addr.as_str(), Duration::from_secs(10)).expect("ready");
    let calls = [
        ("vtc", r#"{"node":"ref90","v_dd":0.31,"points":11}"#),
        ("snm", r#"{"node":"ref90","v_dd":0.31}"#),
        ("vtc", r#"{"node":"ref90","v_dd":0.31,"points":11}"#),
    ];
    let mut client_span_ids = Vec::new();
    for (i, (method, params)) in calls.iter().enumerate() {
        let trace_id = format!("it-stitch-{i}");
        let mut span = subvt_engine::trace::global().span("client.request");
        span.set_attr("method", *method);
        span.set_attr("trace_id", trace_id.as_str());
        client_span_ids.push(span.id());
        let r = client
            .call_traced(method, params, Some((&trace_id, span.id())))
            .expect("traced call");
        assert!(r.ok, "traced request must succeed: {}", r.raw);
    }
    client.call("shutdown", "{}").expect("shutdown");
    daemon.wait_success();

    // Every access-log trace_id must resolve to a request span in the
    // daemon's emitted Chrome trace.
    let access_text = std::fs::read_to_string(&access_path).expect("access log");
    let records = tracefmt::parse_access_log(&access_text).expect("access log parses");
    assert_eq!(records.len(), calls.len(), "one line per compute request");
    let server_text = std::fs::read_to_string(&trace_path).expect("server trace");
    let events = tracefmt::parse_chrome(&server_text).expect("server trace parses");
    let server = tracefmt::trace_from_chrome(&events).expect("server trace lifts");
    for rec in &records {
        let span = server
            .spans
            .iter()
            .find(|s| s.id == rec.span)
            .unwrap_or_else(|| panic!("access-log span {} not in trace", rec.span));
        assert_eq!(
            span.attr_str("trace_id"),
            Some(rec.trace_id.as_str()),
            "access-log trace_id must match its span"
        );
    }

    // Build the client-side trace file from this process's tracer,
    // keeping only this test's spans (the suite shares the tracer).
    let client_trace = subvt_engine::trace::TraceSnapshot {
        spans: subvt_engine::trace::global()
            .snapshot()
            .spans
            .into_iter()
            .filter(|s| client_span_ids.contains(&s.id))
            .map(|s| subvt_engine::trace::SpanRecord {
                parent: None,
                attrs: Vec::new(),
                ..s
            })
            .collect(),
        ..Default::default()
    };
    assert_eq!(client_trace.spans.len(), calls.len());

    let stitched = tracefmt::stitch(&client_trace, &server).expect("stitch");
    tracefmt::validate(&stitched).expect("stitched trace validates");
    for rec in &records {
        let req = stitched
            .spans
            .iter()
            .find(|s| s.id == rec.span)
            .expect("request span survives stitching");
        let call_idx: usize = rec
            .trace_id
            .strip_prefix("it-stitch-")
            .and_then(|n| n.parse().ok())
            .expect("wire trace_id round-trips into the access log");
        let expect_parent = client_span_ids[call_idx];
        assert_eq!(
            req.parent,
            Some(expect_parent),
            "server request span must parent onto its client span"
        );
        assert!(
            req.worker >= tracefmt::STITCH_SERVER_LANE_BASE,
            "server spans move to the server lane block"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A persisted cache file holding a TCAD anchor calibration whose ratios
/// are NaN, at the `tcad.model` calibration key of the coarse reference
/// anchor (as pinned by subvt-tcad's
/// `cache_keys_carry_the_solver_revision`).
fn nan_calibration_cache(name: &str) -> std::path::PathBuf {
    let cache_path =
        std::env::temp_dir().join(format!("subvt-serve-{name}-{}.jsonl", std::process::id()));
    let nan = f64::NAN.to_bits();
    std::fs::write(
        &cache_path,
        format!(
            "{{\"ns\":\"tcad.model\",\"key\":\"2149d158728fd9da\",\
             \"bits\":[{nan},{nan},{nan},{nan},{nan}]}}\n"
        ),
    )
    .expect("write cache");
    cache_path
}

/// Spawned-binary test: a served `experiment` whose backend fails
/// answers `compute_failed` every time, a typed error rather than a
/// panic followed by a quarantine, for a paper id and an extension. The
/// daemon loads a persisted TCAD anchor calibration whose ratios are
/// NaN; the backend rejects it, so every design flow and every
/// characterization through the TCAD backend fails. It runs in its own
/// process because the calibration is memoized once per process.
#[test]
fn a_failing_backend_answers_compute_failed_not_a_panic() {
    let _guard = serial();
    let cache_path = nan_calibration_cache("badcal");

    let mut child = spawn_daemon(&cache_path);
    let mut client =
        Client::connect_ready(child.addr.as_str(), Duration::from_secs(10)).expect("ready");
    // A paper id fails in its design flows, an extension id in its own
    // characterization.
    for (id, cause) in [
        ("table2", "design flow failed"),
        ("ext-temperature", "device model failed"),
    ] {
        for _ in 0..2 {
            let r = client
                .call(
                    "experiment",
                    &format!(r#"{{"id":"{id}","backend":"tcad"}}"#),
                )
                .expect("experiment call");
            assert!(!r.ok);
            assert_eq!(
                r.error_code.as_deref(),
                Some("compute_failed"),
                "a backend failure is a typed compute error: {}",
                r.raw
            );
            let msg = r.error_message.unwrap_or_default();
            assert!(msg.contains(cause), "{id}: {msg}");
        }
    }
    let alive = client
        .call("params", r#"{"node":"ref90"}"#)
        .expect("analytic call");
    assert!(alive.ok, "the daemon keeps serving: {}", alive.raw);
    client.call("shutdown", "{}").expect("shutdown");
    child.wait_success();
    std::fs::remove_file(&cache_path).ok();
}

/// Spawned-binary test: a NaN anchor calibration recalled from a
/// persisted cache is rejected as a computed one would be. `params` on
/// the TCAD backend answers `compute_failed` naming the degenerate
/// calibration, not `ok` with `null` fields, and no payload is cached
/// for it: the second call fails the same way.
#[test]
fn a_recalled_nan_calibration_is_an_error_not_a_payload() {
    let _guard = serial();
    let cache_path = nan_calibration_cache("nancal");
    let mut child = spawn_daemon(&cache_path);
    let mut client =
        Client::connect_ready(child.addr.as_str(), Duration::from_secs(10)).expect("ready");
    for _ in 0..2 {
        let r = client
            .call("params", r#"{"node":"ref90","backend":"tcad"}"#)
            .expect("params call");
        assert!(!r.ok, "a NaN calibration must not be served: {}", r.raw);
        assert_eq!(r.error_code.as_deref(), Some("compute_failed"), "{}", r.raw);
        let msg = r.error_message.unwrap_or_default();
        assert!(msg.contains("degenerate anchor calibration"), "{msg}");
    }
    client.call("shutdown", "{}").expect("shutdown");
    child.wait_success();
    std::fs::remove_file(&cache_path).ok();
}

/// The request-to-computation pin: every entry of
/// `tests/data/serve-queries.jsonl` holds a request, its `Query::key`
/// (hex) and its `query::compute` payload, or the typed error it fails
/// with. The payloads, keys and error messages must stay byte-identical,
/// so a persisted `--cache` keeps answering and clients see no change.
#[test]
fn served_payloads_and_keys_match_the_pin() {
    let _guard = serial();
    let pin = include_str!("data/serve-queries.jsonl");
    let mut mismatches = Vec::new();
    for line in pin.lines() {
        let entry = parse_json(line).expect("pin line is JSON");
        let text = |name: &str| entry.get(name).and_then(Json::as_str).map(str::to_owned);
        let method = text("method").expect("pin method");
        let params = entry.get("params").expect("pin params");
        let mut key = None;
        let got = Query::from_request(&method, params).and_then(|q| {
            key = Some(format!("{:016x}", q.key()));
            query::compute(&q).map_err(|msg| (ErrorCode::ComputeFailed, msg))
        });
        let error = entry.get("error");
        let want = match text("payload") {
            Some(payload) => Ok(payload),
            None => Err((
                error.and_then(|e| e.get("code")).and_then(Json::as_str),
                error.and_then(|e| e.get("message")).and_then(Json::as_str),
            )),
        };
        let got_for_cmp = match &got {
            Ok(payload) => Ok(payload.clone()),
            Err((code, msg)) => Err((Some(code.as_str()), Some(msg.as_str()))),
        };
        if key != text("key") || got_for_cmp != want {
            mismatches.push(format!(
                "{method} {line}\n  key {key:?}\n  got {got_for_cmp:?}"
            ));
        }
    }
    assert!(pin.lines().count() >= 20, "the pin covers every method");
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// One compute path per request: with the only worker held, four
/// `idvg` requests queue behind it (three share a device and `V_ds`,
/// and two of those share a bias point). Each one is computed on its
/// own and answers exactly what an in-process compute of its own
/// request gives; nothing is merged into a shared sweep.
#[test]
fn queued_idvg_requests_each_answer_their_own_compute() {
    let _guard = serial();
    let server = start(Config {
        workers: 1,
        ..Config::default()
    });
    let addr = server.addr();
    let before = counters();

    let occupant = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .call("sleep", r#"{"ms":1000,"token":"idvg-occupant"}"#)
            .expect("occupant call")
    });
    wait_for_gauge(addr, "serve.inflight", 1.0);
    // Unusual bias points so no other test can have warmed these keys.
    let requests: [&'static str; 4] = [
        r#"{"node":"ref90","v_ds":0.071,"v_gs":[0.1013,0.2027]}"#,
        r#"{"node":"ref90","v_ds":0.071,"v_gs":[0.2027,0.3041]}"#,
        r#"{"node":"ref90","v_ds":0.071,"v_gs":[0.4057]}"#,
        r#"{"node":"ref90","v_ds":0.093,"v_gs":[0.1013]}"#,
    ];
    let calls: Vec<_> = requests
        .into_iter()
        .map(|params| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.call("idvg", params).expect("idvg call")
            })
        })
        .collect();
    wait_for_gauge(addr, "serve.queue.depth", requests.len() as f64);
    assert!(occupant.join().expect("occupant").ok);

    for (params, call) in requests.iter().zip(calls) {
        let served = call.join().expect("idvg thread");
        assert!(served.ok, "queued request must succeed: {}", served.raw);
        let q = Query::from_request("idvg", &parse_json(params).unwrap()).expect("parses");
        let direct = query::compute(&q).expect("in-process compute");
        assert_eq!(
            served.result.as_deref(),
            Some(direct.as_str()),
            "served payload must equal the in-process compute of {params}"
        );
    }
    let after = counters();
    assert_eq!(
        delta(&before, &after, "serve.computed"),
        requests.len() as u64
    );
    let batch: Vec<&String> = after
        .keys()
        .filter(|name| name.starts_with("serve.batch"))
        .collect();
    assert!(batch.is_empty(), "no sweep-batch counters: {batch:?}");

    server.shutdown();
    server.join().expect("join");
}

const SERVE_HELP: &str = "\
usage: subvt-serve [options]

options:
  --addr HOST:PORT     bind address (default 127.0.0.1:7171; port 0 = free port)
  --workers N          compute worker threads (default 2)
  --queue N            admission queue capacity (default 64)
  --deadline-ms N      per-request compute deadline (default 30000)
  --max-attempts N     supervisor attempts before quarantine (default 1)
  --cache PATH         persist the response/design cache across restarts
  --jobs N             engine worker threads (default: cores, or $SUBVT_JOBS)
  --slo M=Q:MS         latency SLO, repeatable (e.g. vtc=p99:50; Q: p50|p95|p99)
  --access-log PATH    append one JSONL line per request (DESIGN.md section 6)
  --window-secs N      rolling latency/SLO window (default 60)
  --trace PATH         keep every span and write the request span tree on
                       shutdown (without it: counters, gauges and
                       histograms only, no spans)
  --trace-format F     trace file format: jsonl (default) | chrome

Protocol: newline-framed JSON over TCP, plus GET /metrics and
GET /healthz over the same port. Each request picks its own
`backend` and `circuit_backend`. See DESIGN.md section 8.
";

#[test]
fn malformed_command_lines_fail_before_binding() {
    // Each line fails (or prints its help) while parsing, so no case
    // binds a port.
    let mut cases: Vec<(Vec<&str>, i32, String)> = Vec::new();
    let mut fails = |argv: &[&'static str], stderr: &str| {
        cases.push((argv.to_vec(), 1, format!("{stderr}\n")));
    };
    for flag in [
        "--workers",
        "--queue",
        "--deadline-ms",
        "--max-attempts",
        "--jobs",
        "--window-secs",
    ] {
        let want = format!("{flag} needs a positive integer");
        for value in [None, Some("0"), Some("abc"), Some("-3")] {
            let argv: Vec<&'static str> = [Some(flag), value].into_iter().flatten().collect();
            fails(&argv, &want);
        }
    }
    fails(
        &["--max-attempts", "5000000000"],
        "--max-attempts needs a positive integer",
    );
    fails(&["--addr"], "--addr needs HOST:PORT");
    fails(&["--cache"], "--cache needs a file path");
    fails(&["--access-log"], "--access-log needs a file path");
    fails(&["--trace"], "--trace needs a file path");
    fails(
        &["--trace-format"],
        "--trace-format needs one of: jsonl, chrome",
    );
    fails(
        &["--trace-format", "xml"],
        "--trace-format needs one of: jsonl, chrome",
    );
    fails(
        &["--slo"],
        "--slo needs METHOD=QUANTILE:MS (e.g. vtc=p99:50)",
    );
    fails(
        &["--slo", "vtc"],
        "bad --slo `vtc`: `vtc`: expected method=p50|p95|p99:ms",
    );
    fails(
        &["--slo", "vtc=p42:5"],
        "bad --slo `vtc=p42:5`: `vtc=p42:5`: unknown quantile `p42`",
    );
    fails(
        &["--slo", "vtc=p99:0"],
        "bad --slo `vtc=p99:0`: `vtc=p99:0`: threshold must be a positive number of ms",
    );
    fails(&["--bogus"], "unknown argument `--bogus` (try --help)");
    fails(&["extra"], "unknown argument `extra` (try --help)");
    // The first bad flag wins, and a bad flag before `--help` fails.
    fails(
        &["--workers", "2", "--queue", "0", "--bogus"],
        "--queue needs a positive integer",
    );
    fails(
        &["--jobs", "2", "--trace-format", "chrome", "--bogus"],
        "unknown argument `--bogus` (try --help)",
    );
    fails(
        &["--workers", "0", "--help"],
        "--workers needs a positive integer",
    );
    for help in [&["--help"][..], &["-h"], &["--help", "--workers", "0"]] {
        cases.push((help.to_vec(), 0, SERVE_HELP.to_owned()));
    }

    for (argv, code, stderr) in &cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_subvt-serve"))
            .args(argv)
            .output()
            .expect("run subvt-serve");
        assert_eq!(out.status.code(), Some(*code), "{argv:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), *stderr, "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}");
    }
}

// ---------------------------------------------------------------- helpers

/// Sends raw bytes, half-closes the write side, and returns everything
/// the server answers before closing.
fn raw_http(addr: std::net::SocketAddr, request: &[u8]) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(request).expect("write");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    String::from_utf8_lossy(&buf).into_owned()
}

struct Daemon {
    child: std::process::Child,
    addr: String,
}

impl Daemon {
    fn wait_success(&mut self) {
        let status = self.child.wait().expect("daemon wait");
        assert!(status.success(), "daemon must exit 0, got {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(cache_path: &std::path::Path) -> Daemon {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_subvt-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache",
            cache_path.to_str().expect("utf8 path"),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn subvt-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon banner")
        .expect("daemon banner read");
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("address in banner")
        .to_owned();
    assert!(
        banner.starts_with("subvt-serve listening on"),
        "unexpected banner: {banner}"
    );
    Daemon { child, addr }
}

fn wait_for_gauge(addr: std::net::SocketAddr, name: &str, want: f64) {
    let mut client = Client::connect(addr).expect("connect");
    wait_until(Duration::from_secs(5), || {
        let r = client.call("metrics", "{}").ok()?;
        let json = r.result_json().ok()?;
        let got = json
            .get("gauges")
            .and_then(|g| g.get(name))
            .and_then(subvt_engine::json::Json::as_f64)
            .unwrap_or(0.0);
        (got >= want).then_some(())
    });
}

fn wait_until<T>(timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> T {
    let started = Instant::now();
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(
            started.elapsed() < timeout,
            "condition not met within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
