//! Crash-semantics suite for the sweep fleet (`repro fleet`): a
//! 3-worker fleet with one injected SIGKILL must exit 0 and produce
//! output and a compacted cache byte-identical to the single-process
//! run, with the reclaim counters and quarantined tail visible in the
//! merged manifest — and a compaction lease left by a dead holder must
//! be reclaimed, never blocking a later run's compaction.

use std::path::PathBuf;
use std::process::{Command, Output};

use subvt_engine::json::{parse_json, Json};

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
    let dir = std::env::temp_dir().join(format!("subvt-fleet-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const IDS: [&str; 3] = ["table2", "fig3", "fig4"];

#[test]
fn fleet_with_injected_sigkill_matches_single_process_byte_for_byte() {
    let dir = tmpdir("crash");

    // Reference: the plain single-process run.
    let single_cache = dir.join("single.jsonl");
    let single = run_ok(
        repro()
            .arg("--csv")
            .arg("--cache")
            .arg(&single_cache)
            .args(IDS),
    );
    assert_eq!(single.status.code(), Some(0));
    assert!(single_cache.exists());

    // Cold 3-worker fleet with exactly one injected SIGKILL: the first
    // worker to finish an experiment tears its segment tail and dies.
    let fleet_cache = dir.join("fleet.jsonl");
    let manifest_path = dir.join("fleet.json");
    let marker = dir.join("crash.marker");
    let cold = run_ok(
        repro()
            .env("SUBVT_FLEET_CRASH_ONCE", &marker)
            .arg("fleet")
            .arg("--workers")
            .arg("3")
            .arg("--csv")
            .arg("--cache")
            .arg(&fleet_cache)
            .arg("--manifest")
            .arg(&manifest_path)
            .args(IDS),
    );
    let stderr = String::from_utf8(cold.stderr.clone()).unwrap();
    assert!(marker.exists(), "the crash hook must have fired\n{stderr}");
    assert!(stderr.contains("injecting SIGKILL crash"), "{stderr}");
    assert!(stderr.contains("died (signal 9)"), "{stderr}");
    assert_eq!(
        cold.status.code(),
        Some(0),
        "a SIGKILL'd worker must be re-run, not fail the fleet\n{stderr}"
    );

    // (a) Merged stdout is byte-identical to the single-process run.
    assert_eq!(
        cold.stdout, single.stdout,
        "fleet output must be byte-identical to the single-process run"
    );
    // (b) The compacted cache is byte-identical too.
    assert_eq!(
        std::fs::read(&fleet_cache).unwrap(),
        std::fs::read(&single_cache).unwrap(),
        "fleet cache must compact to the single-process file"
    );
    // ...and nothing is left behind in the segment directory.
    let seg_dir = subvt_engine::cache::seg::segment_dir(&fleet_cache);
    assert!(!seg_dir.exists(), "clean shutdown retires the segment dir");

    // (c) The merged manifest carries the crash evidence: a restart,
    // the reclaimed lease, and the quarantined torn tail.
    let manifest_text = std::fs::read_to_string(&manifest_path).unwrap();
    let manifest = parse_json(manifest_text.trim()).expect("fleet manifest parses");
    let fleet = manifest.get("fleet").expect("manifest has a fleet block");
    let num = |name: &str| {
        fleet
            .get(name)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("fleet.{name} missing in {manifest_text}"))
    };
    assert!(num("restarts") >= 1, "the injected kill must count");
    assert_eq!(num("shards_failed"), 0);
    assert!(
        num("lease_reclaimed") >= 1,
        "the re-run worker must reclaim its dead predecessor's lease"
    );
    assert!(
        num("tail_quarantined") >= 1,
        "the torn segment tail must be quarantined, not dropped silently"
    );
    let workers = manifest
        .get("workers")
        .and_then(|w| w.as_arr())
        .expect("manifest embeds worker manifests");
    assert!(!workers.is_empty());
    // Worker manifests are full v2 manifests in their own right.
    for w in workers {
        assert_eq!(w.get("v").and_then(|v| v.as_u64()), Some(2));
    }

    // Warm re-run (no crash): pure cache hits, same bytes, cache
    // untouched.
    let before = std::fs::read(&fleet_cache).unwrap();
    let warm = run_ok(
        repro()
            .arg("fleet")
            .arg("--workers")
            .arg("3")
            .arg("--csv")
            .arg("--cache")
            .arg(&fleet_cache)
            .args(IDS),
    );
    assert_eq!(warm.status.code(), Some(0));
    assert_eq!(warm.stdout, single.stdout, "warm fleet output must match");
    assert_eq!(
        std::fs::read(&fleet_cache).unwrap(),
        before,
        "a pure-hit fleet re-run must not change the cache file"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_rejects_an_unknown_id_before_it_spawns_a_worker() {
    let dir = tmpdir("unknown");
    let cache = dir.join("cache.jsonl");
    let out = run_ok(
        repro()
            .arg("fleet")
            .arg("--workers")
            .arg("2")
            .arg("--cache")
            .arg(&cache)
            .args(["table1", "fig99"]),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr, "unknown experiment `fig99` (try --list)\n");
    assert!(out.stdout.is_empty());
    // No worker ran and no lease or segment was taken.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_single_worker_degenerates_to_the_plain_run() {
    let dir = tmpdir("solo");
    let plain = run_ok(repro().arg("--csv").args(IDS));
    assert_eq!(plain.status.code(), Some(0));
    let fleet = run_ok(
        repro()
            .arg("fleet")
            .arg("--workers")
            .arg("1")
            .arg("--csv")
            .args(IDS),
    );
    assert_eq!(fleet.status.code(), Some(0));
    assert_eq!(
        fleet.stdout, plain.stdout,
        "--workers 1 must reproduce the plain run byte-for-byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dead_lock_holder_is_reclaimed_and_the_run_persists() {
    use subvt_engine::cache::seg;

    let dir = tmpdir("stale");
    let cache = dir.join("cache.jsonl");

    // A real spawned-then-SIGKILL'd holder of the compaction lease: its
    // pid provably belonged to a live process when the lease was
    // written, and is dead now.
    let mut holder = Command::new("sleep")
        .arg("30")
        .spawn()
        .expect("spawn sleep holder");
    let lease_path = seg::compaction_lease_path(&cache);
    std::fs::create_dir_all(lease_path.parent().unwrap()).unwrap();
    let lease = seg::LeaseInfo {
        pid: holder.id(),
        acquired_unix: subvt_engine::clock::unix_now(),
    };
    std::fs::write(&lease_path, lease.render()).unwrap();
    holder.kill().expect("SIGKILL the holder");
    holder.wait().expect("reap the holder");

    let trace = dir.join("trace.jsonl");
    let out = run_ok(
        repro()
            .arg("--cache")
            .arg(&cache)
            .arg("--trace")
            .arg(&trace)
            .arg("table2"),
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "a dead holder must not fail the run\n{stderr}"
    );
    assert!(
        stderr.contains("cache compacted"),
        "a dead holder must never keep a later run from compacting\n{stderr}"
    );
    assert!(
        cache.exists(),
        "the reclaiming run must write the cache file"
    );
    let loaded = subvt_engine::Cache::new();
    assert!(loaded.load_jsonl_lenient(&cache).unwrap().loaded > 0);
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        trace_text.contains("\"name\":\"cache.cache.lease_reclaimed\""),
        "the reclaim must be counted in the trace:\n{trace_text}"
    );
    // The reclaimer releases the lease and retires the segment dir.
    assert!(
        !seg::segment_dir(&cache).exists(),
        "lease released after the run"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_manifest_records_the_study_it_forwarded() {
    let dir = tmpdir("study");
    let manifest_path = dir.join("fleet.json");
    let out = run_ok(
        repro()
            .arg("fleet")
            .args(["--workers", "2", "--circuit-backend", "spice", "--manifest"])
            .arg(&manifest_path)
            .arg("fig4"),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&manifest_path).expect("fleet manifest written");
    let manifest = parse_json(text.trim()).expect("manifest is valid JSON");
    let circuit = |m: &Json| {
        m.get("circuit_backend")
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    assert_eq!(circuit(&manifest).as_deref(), Some("spice"));
    let workers = manifest
        .get("workers")
        .and_then(Json::as_arr)
        .expect("worker manifests embedded");
    assert!(!workers.is_empty());
    for worker in workers {
        assert_eq!(circuit(worker), circuit(&manifest));
    }
    std::fs::remove_dir_all(&dir).ok();
}
