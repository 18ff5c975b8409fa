//! Chaos suite for the fault-tolerant execution layer: drives the
//! `repro` binary under `SUBVT_FAULTS` fault-injection plans and asserts
//! the tentpole guarantee — every injected fault is either recovered
//! transparently (byte-identical output) or reported as a structured
//! failure in the manifest, and a subsequent clean run is unaffected.

use std::path::PathBuf;
use std::process::{Command, Output};

use subvt_engine::json::{parse_json, Json};
use subvt_exp::ALL_EXPERIMENTS;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("repro binary spawns");
    assert!(
        out.status.code().is_some(),
        "repro must exit, not die on a signal"
    );
    out
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("subvt-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_manifest(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path).expect("manifest written");
    parse_json(text.trim()).expect("manifest is valid JSON")
}

#[test]
fn injected_panics_are_reported_and_the_sweep_completes() {
    let dir = tmpdir("panics");
    let manifest_path = dir.join("m.json");
    let out = run_ok(
        repro()
            .env("SUBVT_FAULTS", "seed=1,panic=0.7")
            .arg("--keep-going")
            .arg("--manifest")
            .arg(&manifest_path)
            .arg("all"),
    );

    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    let manifest = read_manifest(&manifest_path);
    assert_eq!(manifest.get("v").unwrap().as_u64(), Some(2));

    let failures = manifest.get("failures").unwrap().as_arr().unwrap();
    assert!(
        !failures.is_empty(),
        "panic=0.7 over {} experiments must fell at least one",
        ALL_EXPERIMENTS.len()
    );
    // Every reported failure is a registered experiment with the
    // injected panic's message; every failure printed a FAILED line.
    for f in failures {
        let id = f.get("id").unwrap().as_str().unwrap();
        assert!(ALL_EXPERIMENTS.contains(&id), "unknown failed id {id}");
        let message = f.get("message").unwrap().as_str().unwrap();
        assert!(
            message.contains("fault-injected job panic"),
            "unexpected failure message: {message}"
        );
        assert!(stderr.contains(&format!("FAILED {id}")));
    }
    // The sweep is total: rendered tables + failures = all experiments.
    let rendered = stdout.lines().filter(|l| l.starts_with("## ")).count();
    assert_eq!(rendered + failures.len(), ALL_EXPERIMENTS.len());
    // Nonzero exit, but only after the full sweep.
    assert_ne!(out.status.code(), Some(0));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_free_keep_going_run_is_byte_identical_and_exits_zero() {
    let plain = run_ok(repro().arg("all"));
    let kept = run_ok(repro().arg("--keep-going").arg("all"));
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(kept.status.code(), Some(0));
    assert_eq!(
        plain.stdout, kept.stdout,
        "--keep-going must not perturb fault-free output"
    );
}

#[test]
fn injected_divergence_recovers_with_byte_identical_output() {
    let dir = tmpdir("diverge");
    let manifest_path = dir.join("m.json");
    let clean = run_ok(repro().args(["--circuit-backend", "spice", "fig4"]));
    assert_eq!(clean.status.code(), Some(0));

    let chaos = run_ok(
        repro()
            .env("SUBVT_FAULTS", "seed=5,diverge=1.0")
            .args(["--circuit-backend", "spice", "--keep-going"])
            .arg("--manifest")
            .arg(&manifest_path)
            .arg("fig4"),
    );
    assert_eq!(chaos.status.code(), Some(0), "retry rung must recover");
    assert_eq!(
        clean.stdout, chaos.stdout,
        "recovered solves must be bit-for-bit identical"
    );

    let manifest = read_manifest(&manifest_path);
    let recoveries = manifest.get("recoveries").unwrap().as_arr().unwrap();
    assert!(
        recoveries
            .iter()
            .any(|r| r.get("site").unwrap().as_str() == Some("spice.dc")
                && r.get("recovered").unwrap().as_bool() == Some(true)),
        "manifest must record the spice.dc recovery"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_cache_is_quarantined_and_warm_run_matches_cold() {
    let dir = tmpdir("corrupt");
    let cache = dir.join("cache.jsonl");

    // Baseline: cold, fault-free.
    let cold = run_ok(repro().args(["table2", "fig2"]));
    assert_eq!(cold.status.code(), Some(0));

    // Chaos run persists the cache through the corruption point.
    let chaos = run_ok(
        repro()
            .env("SUBVT_FAULTS", "seed=3,corrupt=1.0")
            .arg("--cache")
            .arg(&cache)
            .args(["table2", "fig2"]),
    );
    assert_eq!(chaos.status.code(), Some(0));
    assert_eq!(cold.stdout, chaos.stdout);

    // Clean warm run: torn lines land in the quarantine sidecar, the
    // results are recomputed, and the output is byte-identical.
    let warm = run_ok(repro().arg("--cache").arg(&cache).args(["table2", "fig2"]));
    assert_eq!(warm.status.code(), Some(0));
    assert_eq!(
        cold.stdout, warm.stdout,
        "warm run over a corrupted cache must match the cold run"
    );
    let stderr = String::from_utf8(warm.stderr).unwrap();
    assert!(
        stderr.contains("quarantined"),
        "expected a quarantine notice, got: {stderr}"
    );
    let quarantine = subvt_engine::cache::quarantine_path(&cache);
    assert!(quarantine.exists(), "quarantine sidecar must exist");

    // The rewritten cache is clean: a second warm run quarantines nothing.
    let warm2 = run_ok(repro().arg("--cache").arg(&cache).args(["table2", "fig2"]));
    let stderr2 = String::from_utf8(warm2.stderr).unwrap();
    assert!(
        !stderr2.contains("quarantined"),
        "cache must be compacted clean on save, got: {stderr2}"
    );
    assert_eq!(cold.stdout, warm2.stdout);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_manifest_round_trips_through_trace_report() {
    let dir = tmpdir("report");
    let manifest_path = dir.join("m.json");
    let chaos = run_ok(
        repro()
            .env("SUBVT_FAULTS", "seed=1,panic=0.7")
            .arg("--keep-going")
            .arg("--manifest")
            .arg(&manifest_path)
            .arg("all"),
    );
    let manifest = read_manifest(&manifest_path);
    let failures = manifest.get("failures").unwrap().as_arr().unwrap();
    assert!(!failures.is_empty());
    drop(chaos);

    let report = run_ok(repro().arg("trace-report").arg(&manifest_path));
    assert_eq!(report.status.code(), Some(0));
    let text = String::from_utf8(report.stdout).unwrap();
    assert!(text.contains("manifest v2"), "{text}");
    assert!(
        text.contains(&format!("failures: {}", failures.len())),
        "{text}"
    );
    for f in failures {
        let id = f.get("id").unwrap().as_str().unwrap();
        assert!(text.contains(id), "trace-report must list failed id {id}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_lock_contention_persists_through_segment() {
    use subvt_engine::cache::seg;

    let dir = tmpdir("lock");
    let cache = dir.join("cache.jsonl");
    // This test process is a *live* holder of the compaction lease, so
    // the child run cannot compact: it must seal its leased segment
    // under <cache>.d/ and leave the base file alone.
    let lease = seg::claim_compaction(&cache)
        .unwrap()
        .expect("lease is free");

    let out = run_ok(repro().arg("--cache").arg(&cache).arg("table2"));
    assert_eq!(
        out.status.code(),
        Some(0),
        "a held compaction lease must not fail the run"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("another process holds the compaction lease"),
        "{stderr}"
    );
    assert!(
        !cache.exists(),
        "a run without the compaction lease must not write the canonical file"
    );
    let segments = seg::segment_files(&cache).unwrap();
    assert_eq!(segments.len(), 1, "the run must leave one sealed segment");
    let loaded = subvt_engine::Cache::new();
    assert!(
        loaded.load_jsonl_lenient(&segments[0]).unwrap().loaded > 0,
        "the segment must hold the run's computed entries"
    );

    // The lease holder compacts the sealed segment into the canonical
    // file.
    let report = seg::compact(&cache, &subvt_engine::Cache::new(), lease).unwrap();
    assert_eq!(report.segments_merged, 1);
    assert!(report.written > 0);
    assert!(cache.exists(), "compaction writes the canonical file");
    assert!(
        !seg::segment_dir(&cache).exists(),
        "compaction retires the segment dir"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overlapping_runs_both_persist_and_the_next_run_is_all_hits() {
    let dir = tmpdir("overlap");
    let cache = dir.join("cache.jsonl");
    let spawn = |id: &str| {
        repro()
            .args(["--circuit-backend", "spice", "--cache"])
            .arg(&cache)
            .arg(id)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("repro spawns")
    };
    let (mut a, mut b) = (spawn("fig4"), spawn("fig6"));
    assert!(a.wait().unwrap().success(), "first overlapping run");
    assert!(b.wait().unwrap().success(), "second overlapping run");

    let trace = dir.join("trace.jsonl");
    let warm = run_ok(
        repro()
            .args(["--circuit-backend", "spice", "--cache"])
            .arg(&cache)
            .arg("--trace")
            .arg(&trace)
            .args(["fig4", "fig6"]),
    );
    assert_eq!(warm.status.code(), Some(0));
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        trace_text.contains("\"name\":\"cache.miss\",\"value\":0}"),
        "both runs must have persisted everything the union needs"
    );
    let cold = run_ok(repro().args(["--circuit-backend", "spice", "fig4", "fig6"]));
    assert_eq!(cold.stdout, warm.stdout, "warm union matches a cold run");
    assert!(!subvt_engine::cache::seg::segment_dir(&cache).exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deterministic_plans_inject_identical_fault_sets() {
    let run_with = |spec: &str, jobs: &str| {
        let out = run_ok(
            repro()
                .env("SUBVT_FAULTS", spec)
                .args(["--jobs", jobs])
                .arg("--keep-going")
                .arg("all"),
        );
        String::from_utf8(out.stderr).unwrap()
    };
    let failed = |s: &str| {
        s.lines()
            .filter(|l| l.starts_with("FAILED "))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let a = failed(&run_with("seed=42,panic=0.5", "1"));
    assert!(!a.is_empty(), "seed 42 at panic=0.5 fails some ids");
    // The job-panic decisions are drawn in id order before the pool
    // fan-out, so scheduling cannot move a fault to another id.
    for _ in 0..5 {
        let b = failed(&run_with("seed=42,panic=0.5", "4"));
        assert_eq!(a, b, "same plan must fail the same ids at any --jobs");
    }
    let c = run_with("seed=43,panic=0.5", "1");
    // Different seed, same probability: almost surely a different set;
    // at minimum the harness must not crash. (Avoid asserting inequality
    // — 14 Bernoulli draws can collide across seeds.)
    let _ = failed(&c);
}

/// The sorted, de-duplicated ids of the `FAILED <id>: …` lines.
fn failed_ids(stderr: &[u8]) -> Vec<String> {
    let mut ids: Vec<String> = String::from_utf8_lossy(stderr)
        .lines()
        .filter_map(|l| l.strip_prefix("FAILED ")?.split_once(':'))
        .map(|(id, _)| id.to_owned())
        .collect();
    ids.sort();
    ids.dedup();
    ids
}

#[test]
fn one_worker_fleet_fails_the_ids_a_keep_going_run_fails() {
    // A seeded plan draws job panics in the order a run hands its ids to
    // `Study::run_ids`; one worker gets them in argument order, so it
    // fails the same ids as the single process and stages the rest.
    let plan = "seed=42,panic=0.5";
    let single = run_ok(
        repro()
            .env("SUBVT_FAULTS", plan)
            .args(["--keep-going", "--csv", "all"]),
    );
    let fleet = run_ok(repro().env("SUBVT_FAULTS", plan).args([
        "fleet",
        "--workers",
        "1",
        "--max-attempts",
        "1",
        "--csv",
        "all",
    ]));
    assert_ne!(single.status.code(), Some(0));
    assert_ne!(fleet.status.code(), Some(0));
    let failed = failed_ids(&single.stderr);
    assert_eq!(failed.len(), 6, "{failed:?}");
    assert_eq!(failed_ids(&fleet.stderr), failed);
    assert_eq!(
        String::from_utf8(fleet.stdout).unwrap(),
        String::from_utf8(single.stdout).unwrap()
    );
}

/// The sorted `FAILED <id>: <message>` lines, duplicates kept.
fn failed_lines(stderr: &[u8]) -> Vec<String> {
    let mut lines: Vec<String> = String::from_utf8_lossy(stderr)
        .lines()
        .filter(|l| l.starts_with("FAILED "))
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

#[test]
fn a_fleet_worker_that_reports_failed_ids_is_not_re_run() {
    // At the default `--max-attempts`, the worker's exit 1 is its
    // result: it staged its manifest, so the parent neither re-runs it
    // nor replaces its messages.
    let plan = "seed=42,panic=0.5";
    let dir = tmpdir("fleet-result");
    let manifest_path = dir.join("fleet.json");
    let single = run_ok(
        repro()
            .env("SUBVT_FAULTS", plan)
            .args(["--keep-going", "--csv", "all"]),
    );
    let fleet = run_ok(
        repro()
            .env("SUBVT_FAULTS", plan)
            .args(["fleet", "--workers", "1", "--csv", "--manifest"])
            .arg(&manifest_path)
            .arg("all"),
    );
    let stderr = String::from_utf8_lossy(&fleet.stderr);
    assert_eq!(fleet.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("re-running worker"), "{stderr}");
    assert!(!stderr.contains("died"), "{stderr}");
    assert_eq!(fleet.stdout, single.stdout);
    let failed = failed_lines(&single.stderr);
    assert_eq!(failed.len(), 6, "{failed:?}");
    // Only the parent prints a failed id; its worker staged it.
    assert_eq!(failed_lines(&fleet.stderr), failed);

    let manifest = read_manifest(&manifest_path);
    let block = manifest.get("fleet").expect("a fleet block");
    assert_eq!(block.get("restarts").and_then(Json::as_u64), Some(0));
    assert_eq!(block.get("shards_failed").and_then(Json::as_u64), Some(0));
    let mut listed: Vec<String> = manifest
        .get("failures")
        .and_then(Json::as_arr)
        .expect("a failures block")
        .iter()
        .map(|f| {
            let field = |k: &str| f.get(k).and_then(Json::as_str).expect("id and message");
            format!("FAILED {}: {}", field("id"), field("message"))
        })
        .collect();
    listed.sort();
    assert_eq!(listed, failed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg(unix)]
fn a_warm_close_leaves_the_cache_file_alone() {
    use std::os::unix::fs::MetadataExt;

    let dir = tmpdir("warm-close");
    let cache = dir.join("pa.jsonl");
    std::fs::remove_file(&cache).ok();
    let args = ["--csv", "table2", "fig2"];
    let cold = run_ok(repro().arg("--cache").arg(&cache).args(args));
    assert_eq!(cold.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&cold.stderr).contains("cache compacted"));
    let inode = std::fs::metadata(&cache).unwrap().ino();
    let bytes = std::fs::read(&cache).unwrap();

    let warm = run_ok(repro().arg("--cache").arg(&cache).args(args));
    let stderr = String::from_utf8(warm.stderr).unwrap();
    assert_eq!(warm.status.code(), Some(0), "{stderr}");
    assert_eq!(warm.stdout, cold.stdout);
    assert!(!stderr.contains("cache compacted"), "{stderr}");
    assert_eq!(std::fs::metadata(&cache).unwrap().ino(), inode);
    assert_eq!(std::fs::read(&cache).unwrap(), bytes);
    assert!(!subvt_engine::cache::seg::segment_dir(&cache).exists());
    std::fs::remove_dir_all(&dir).ok();
}
