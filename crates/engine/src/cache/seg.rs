//! Segmented shared-cache store: per-process append-only segments
//! claimed by lease files, merged into the base file by compaction.
//!
//! The base JSONL file (`<cache>.jsonl`) is the canonical compacted
//! store, and nobody appends to it. Every writer — a single `repro`
//! run, the serve daemon, each fleet worker — appends to its own
//! segment in the sibling directory `<cache>.d/`, and [`compact`],
//! run under the compaction lease, is the only code that rewrites the
//! base file:
//!
//! ```text
//! results.jsonl            # canonical store (rewritten only by compaction)
//! results.jsonl.d/
//!   compact.lease          # held while compacting (a fleet parent: whole run)
//!   seg-p4242-0.jsonl      # one session's appends (same line format + CRC)
//!   seg-p4242-0.lease      # {"pid":…,"acquired_utc":"…","acquired_unix":…}
//!   seg-1.jsonl            # fleet worker 1
//!   seg-1.lease
//! ```
//!
//! A segment is claimed by atomically creating its lease file, which
//! the holder keeps open and locked (`flock`) for as long as it holds
//! the lease. The lock alone decides liveness: the kernel drops it when
//! the holder exits or dies, so a [`Lease`] stays live for as long as
//! its process lives, idle or not, with nothing to refresh, and an
//! unlocked lease file — left by a crash, or written by hand — is
//! **reclaimable** (when unparseable, only once it is older than the
//! grace window). Adopting a dead writer's segment quarantines the torn
//! tail a crash can leave through the same sidecar path the base store
//! uses — so a partial append is never loaded and never silently lost.
//!
//! Writers append each freshly computed entry immediately (via
//! [`super::Cache::set_persist`]), so a SIGKILL loses at most the line
//! being written. Compaction merges the base and every sealed or dead
//! segment into one canonical JSONL, byte-identical to what a single
//! process would have written, and removes the merged segments.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use super::{format_line_f64, intact_entry, lock_recover, quarantine_path, Cache, Quarantine};
use crate::json::{json_str, parse_json, Json};
use crate::{clock, trace};

/// Grace period before an unreadable/unparseable lease file is treated
/// as abandoned: a holder that just won `create_new` may not have
/// written its content yet, so freshly created files are never
/// reclaimed on content alone.
const UNPARSEABLE_GRACE: Duration = Duration::from_secs(10);

/// The segment directory for a cache path: `<path>.d`.
pub fn segment_dir(cache_path: &Path) -> PathBuf {
    let mut os = cache_path.as_os_str().to_owned();
    os.push(".d");
    PathBuf::from(os)
}

/// The compaction lease for a cache path: `<path>.d/compact.lease`.
pub fn compaction_lease_path(cache_path: &Path) -> PathBuf {
    segment_dir(cache_path).join("compact.lease")
}

/// The counter name for lease reclaims on a cache path:
/// `cache.<file-stem>.lease_reclaimed`.
pub fn lease_reclaim_counter_name(cache_path: &Path) -> String {
    let stem = cache_path
        .file_stem()
        .map_or_else(|| "cache".into(), |s| s.to_string_lossy());
    format!("cache.{stem}.lease_reclaimed")
}

/// Claims the compaction lease for `cache_path`, reclaiming a stale
/// holder first (counted as `cache.<stem>.lease_reclaimed`). `Ok(None)`
/// means a live process holds it — a fleet parent for its whole run,
/// or a session compacting on close.
///
/// # Errors
///
/// Propagates I/O errors other than "already exists".
pub fn claim_compaction(cache_path: &Path) -> std::io::Result<Option<Lease>> {
    Lease::claim(
        &compaction_lease_path(cache_path),
        &lease_reclaim_counter_name(cache_path),
    )
}

/// One lease file's decoded content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Holder process id.
    pub pid: u32,
    /// Unix seconds at acquire.
    pub acquired_unix: u64,
}

impl LeaseInfo {
    /// Renders the lease file body (one JSON object + newline).
    pub fn render(&self) -> String {
        format!(
            "{{\"pid\":{},\"acquired_utc\":{},\"acquired_unix\":{}}}\n",
            self.pid,
            json_str(&clock::iso8601_utc(self.acquired_unix)),
            self.acquired_unix
        )
    }

    /// Parses a lease file body; `None` if any required field is
    /// missing or malformed, including a pid outside the `u32` range
    /// (which must not wrap onto another process). Fields it does not
    /// know, such as an older format's `ttl_secs`, are ignored.
    pub fn parse(text: &str) -> Option<Self> {
        let lease = parse_json(text).ok()?;
        Some(Self {
            pid: u32::try_from(lease.get("pid").and_then(Json::as_u64)?).ok()?,
            acquired_unix: lease.get("acquired_unix").and_then(Json::as_u64)?,
        })
    }
}

/// Whether the lease file at `path` is stale: no holder has it locked.
/// A lock the filesystem refuses counts as held. Missing file → not
/// stale (nothing to reclaim; claim by `create_new`).
fn lease_is_stale(path: &Path) -> bool {
    // A shared lock, so concurrent checkers do not mistake each other
    // for the holder.
    std::fs::File::open(path).is_ok_and(|file| file.try_lock_shared().is_ok() && abandoned(&file))
}

/// Whether an unlocked lease file was abandoned. One that parses was
/// written by a holder that has since exited or crashed. An
/// unparseable one may belong to a holder between `create_new` and
/// `lock`, so it is abandoned only once older than the grace window.
fn abandoned(mut file: &std::fs::File) -> bool {
    let mut text = String::new();
    if file.read_to_string(&mut text).is_err() {
        return false;
    }
    LeaseInfo::parse(&text).is_some()
        || file
            .metadata()
            .and_then(|m| m.modified())
            .is_ok_and(|mtime| matches!(mtime.elapsed(), Ok(age) if age > UNPARSEABLE_GRACE))
}

/// Removes the lease file at `path` if it is stale, bumping `counter`,
/// and reports whether it did. The file stays exclusively locked while
/// it is checked and removed, and it is removed only while `path`
/// still names it, so of two reclaimers of one stale lease only one
/// removes it, never the new lease the other has claimed in its place.
fn reclaim_stale(path: &Path, counter: &str) -> bool {
    let Ok(file) = std::fs::File::open(path) else {
        return false;
    };
    let reclaim = file.try_lock().is_ok()
        && abandoned(&file)
        && still_at(&file, path)
        && std::fs::remove_file(path).is_ok();
    if reclaim {
        trace::add(counter, 1);
    }
    reclaim
}

/// Whether `path` still names the open `file` (same device and inode).
#[cfg(unix)]
fn still_at(file: &std::fs::File, path: &Path) -> bool {
    use std::os::unix::fs::MetadataExt;
    match (file.metadata(), std::fs::metadata(path)) {
        (Ok(a), Ok(b)) => (a.dev(), a.ino()) == (b.dev(), b.ino()),
        _ => false,
    }
}

/// Elsewhere there is no inode to compare; `path` is trusted.
#[cfg(not(unix))]
fn still_at(_file: &std::fs::File, _path: &Path) -> bool {
    true
}

/// An exclusive claim backed by a lease file that stays open and
/// locked while the claim is held. Dropping it removes the file and
/// releases the lock; a crash releases only the lock, leaving the file
/// for the next claimant to reclaim.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    /// The locked lease file; closing it releases the lock.
    _file: std::fs::File,
}

impl Lease {
    /// Claims the lease at `path` (creating its directory if needed),
    /// reclaiming a stale holder first. `Ok(None)` means a live holder
    /// owns it. `counter` is bumped once per reclaimed stale lease.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "already exists", including a
    /// filesystem that refuses the lock.
    pub fn claim(path: &Path, counter: &str) -> std::io::Result<Option<Self>> {
        for _ in 0..4 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
            {
                Ok(mut file) => {
                    // Lock before writing: until then the file is empty,
                    // and an empty lease falls under the grace rule. The
                    // wait is at most a checker's brief lock.
                    if let Err(e) = file.lock() {
                        let _ = std::fs::remove_file(path);
                        return Err(e);
                    }
                    let info = LeaseInfo {
                        pid: std::process::id(),
                        acquired_unix: clock::unix_now(),
                    };
                    let _ = file.write_all(info.render().as_bytes());
                    return Ok(Some(Self {
                        path: path.to_owned(),
                        _file: file,
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if !reclaim_stale(path, counter) {
                        return Ok(None);
                    }
                }
                // No directory yet, or a concurrent compaction just
                // retired it: (re)create it and retry.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => match path.parent() {
                    Some(dir) => std::fs::create_dir_all(dir)?,
                    None => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// The lease file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // The file closes (unlocks) after this, so a checker that
        // opened it in between finds it locked, or no longer at `path`.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What [`scrub_segment`] did to one segment file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Intact lines kept in the rewritten segment.
    pub kept: usize,
    /// Damaged lines moved to the `<segment>.quarantine` sidecar.
    pub quarantined: usize,
}

/// Rewrites a segment keeping only intact CRC'd lines; damaged lines
/// (the torn tail a SIGKILL mid-append leaves) go to the segment's
/// quarantine sidecar, counted and traced exactly like base-file
/// quarantine. Missing segment → empty report. The rewrite goes
/// through a temp file + atomic rename.
///
/// # Errors
///
/// Propagates I/O errors other than "file not found".
pub fn scrub_segment(seg_path: &Path) -> std::io::Result<ScrubReport> {
    let text = match std::fs::read_to_string(seg_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ScrubReport::default()),
        Err(e) => return Err(e),
    };
    let mut report = ScrubReport::default();
    let mut kept = String::new();
    let mut sidecar = Quarantine::new(seg_path);
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if intact_entry(line).is_some() {
            kept.push_str(line);
            kept.push('\n');
            report.kept += 1;
        } else {
            sidecar.put(line)?;
            report.quarantined += 1;
        }
    }
    if report.quarantined > 0 {
        let tmp = seg_path.with_extension("jsonl.scrub.tmp");
        std::fs::write(&tmp, &kept)?;
        std::fs::rename(&tmp, seg_path)?;
    }
    Ok(report)
}

/// A claimed, open segment: the writing side of the shared store.
///
/// Install [`SegmentSession::persist_hook`] on the in-memory cache and
/// every freshly computed entry is appended (CRC'd, flushed) to this
/// process's segment the moment it exists. The lease's lock keeps the
/// claim live for the session's whole life, appending or idle.
pub struct SegmentSession {
    seg_path: PathBuf,
    lease: Mutex<Option<Lease>>,
    file: Mutex<std::fs::File>,
    appended: AtomicU64,
    /// What the claim-time scrub of a previous incarnation's leftover
    /// segment found (all zeros on a fresh segment).
    pub scrub: ScrubReport,
}

impl SegmentSession {
    /// Claims segment `name` under `cache_path`'s segment directory.
    ///
    /// Claims `<cache>.d/seg-<name>.lease` (creating the directory, and
    /// reclaiming a stale holder, which bumps
    /// `cache.<stem>.lease_reclaimed`), scrubs any leftover
    /// `seg-<name>.jsonl` from a crashed previous incarnation, and
    /// opens the segment for append. `Ok(None)` = a live holder owns
    /// this segment name.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn claim(cache_path: &Path, name: &str) -> std::io::Result<Option<Self>> {
        let dir = segment_dir(cache_path);
        let lease_path = dir.join(format!("seg-{name}.lease"));
        let seg_path = dir.join(format!("seg-{name}.jsonl"));
        let counter = lease_reclaim_counter_name(cache_path);
        let Some(lease) = Lease::claim(&lease_path, &counter)? else {
            return Ok(None);
        };
        // A crashed previous holder of this name may have left a torn
        // tail; quarantine it before we append after it.
        let scrub = scrub_segment(&seg_path)?;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&seg_path)?;
        Ok(Some(Self {
            seg_path,
            lease: Mutex::new(Some(lease)),
            file: Mutex::new(file),
            appended: AtomicU64::new(0),
            scrub,
        }))
    }

    /// The segment file's path.
    pub fn path(&self) -> &Path {
        &self.seg_path
    }

    /// Lines appended by this session so far.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Appends one entry (CRC'd line + flush). Append failures are
    /// deliberately non-fatal — the entry is still in memory and the
    /// run continues; the segment just loses write-through for it.
    pub fn append(&self, ns: &str, key: u64, values: &[f64]) {
        let mut line = format_line_f64(ns, key, values);
        // Same chaos hook as base-file saves: a fault plan can tear a
        // segment append too.
        crate::faultinject::corrupt_point(&mut line);
        let mut f = lock_recover(&self.file);
        if writeln!(f, "{line}").and_then(|()| f.flush()).is_err() {
            trace::add("cache.segment_append_errors", 1);
            return;
        }
        self.appended.fetch_add(1, Ordering::Relaxed);
    }

    /// Loads this session's own segment (scrubbed at claim time, so
    /// every line is intact) into `cache`. Lenient load: no sidecar
    /// writes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "file not found".
    pub fn load_into(&self, cache: &Cache) -> std::io::Result<super::LoadReport> {
        cache.load_jsonl_lenient(&self.seg_path)
    }

    /// The persistence hook wiring this session to
    /// [`Cache::set_persist`].
    pub fn persist_hook(self: &std::sync::Arc<Self>) -> super::PersistHook {
        let session = std::sync::Arc::clone(self);
        std::sync::Arc::new(move |ns: &str, key: u64, bits: &[f64]| {
            session.append(ns, key, bits);
        })
    }

    /// Seals the session: flushes, removes an empty segment file, and
    /// releases the lease. Idempotent. A non-empty segment is *kept* —
    /// its entries merge into the canonical file at the next
    /// compaction.
    pub fn close(&self) {
        {
            let mut f = lock_recover(&self.file);
            let _ = f.flush();
        }
        let lease = lock_recover(&self.lease).take();
        if lease.is_some() && self.appended() == 0 && self.scrub.kept == 0 {
            let _ = std::fs::remove_file(&self.seg_path);
        }
        drop(lease);
    }
}

impl Drop for SegmentSession {
    fn drop(&mut self) {
        self.close();
    }
}

/// Every segment file (`seg-*.jsonl`) under `cache_path`'s segment
/// directory, sorted for a deterministic load order. A missing
/// directory has none.
///
/// # Errors
///
/// Propagates I/O errors other than "not found".
pub fn segment_files(cache_path: &Path) -> std::io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(segment_dir(cache_path)) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut segments: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".jsonl"))
        })
        .collect();
    segments.sort();
    Ok(segments)
}

/// What adopting sealed and dead segments found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct AdoptReport {
    /// Segment files merged into the in-memory cache, ready for
    /// removal once the merged state is durably saved.
    adopted: Vec<PathBuf>,
    /// Stale lease files belonging to adopted segments.
    stale_leases: Vec<PathBuf>,
    /// Entries added across all adopted segments.
    loaded: usize,
    /// Damaged lines quarantined across all adopted segments.
    quarantined: usize,
    /// Segments skipped because a live lease protects them.
    skipped_live: usize,
}

/// Merges the intact entries of every segment whose lease is absent or
/// stale into `cache`; the merge quarantines torn tails to the
/// segment's sidecar, which [`remove_adopted`] folds into the base one.
/// Segments protected by a live lease are skipped. The adopted files
/// are removed only after the merged state has been durably saved (see
/// [`compact`]).
fn adopt_dead_segments(cache_path: &Path, cache: &Cache) -> std::io::Result<AdoptReport> {
    let mut report = AdoptReport::default();
    for seg in segment_files(cache_path)? {
        let lease = seg.with_extension("lease");
        if lease.exists() && !lease_is_stale(&lease) {
            report.skipped_live += 1;
            continue;
        }
        let merged = cache.merge_jsonl(&seg)?;
        report.quarantined += merged.quarantined;
        report.loaded += merged.loaded;
        if lease.exists() {
            report.stale_leases.push(lease);
        }
        report.adopted.push(seg);
    }
    Ok(report)
}

/// What [`compact`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Entries in the canonical file (written by this compaction when
    /// `rewritten`).
    pub written: usize,
    /// Segment files merged and removed.
    pub segments_merged: usize,
    /// Damaged lines quarantined while merging.
    pub quarantined: usize,
    /// Segments left in place because a live lease protects them.
    pub skipped_live: usize,
    /// Whether the base file was rewritten; `false` when it already held
    /// exactly the merged entries.
    pub rewritten: bool,
}

/// Merges the base file and every sealed or dead segment into `cache`,
/// saves it as the canonical JSONL at `cache_path`, then removes the
/// merged segments and their stale leases. When no segment was merged
/// and the base file already holds exactly the cache's entries (nothing
/// damaged, superseded or missing), the save is skipped and the file is
/// left as it is. Segment quarantine sidecars fold into the base
/// `<cache>.quarantine` so the evidence survives; once `lease` is
/// released the segment directory is retired too, if nothing else
/// remains in it.
///
/// This is the only code that rewrites the base file. `lease` is the
/// compaction lease from [`claim_compaction`], which makes compactions
/// of one store mutually exclusive. A session passes the cache it has
/// already loaded; a process holding none of the entries (the fleet
/// parent) passes a fresh one. Entries already in `cache` win over the
/// files' (content-addressed values agree anyway), and live-leased
/// segments are skipped, never stolen.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn compact(cache_path: &Path, cache: &Cache, lease: Lease) -> std::io::Result<CompactReport> {
    let base = cache.merge_jsonl(cache_path)?;
    let adopt = adopt_dead_segments(cache_path, cache)?;
    let entries = cache.len();
    let rewritten = !adopt.adopted.is_empty() || base.canonical != Some(entries);
    let written = if rewritten {
        cache.save_jsonl(cache_path)?
    } else {
        entries
    };
    remove_adopted(cache_path, &adopt);
    drop(lease);
    let _ = std::fs::remove_dir(segment_dir(cache_path));
    Ok(CompactReport {
        written,
        segments_merged: adopt.adopted.len(),
        quarantined: base.quarantined + adopt.quarantined,
        skipped_live: adopt.skipped_live,
        rewritten,
    })
}

/// Retires segments whose entries have been made durable in the base
/// file: folds their quarantine sidecars into the base
/// `<cache>.quarantine` and removes the segment and stale lease files.
/// All removals are best-effort — the entries are already durable, so a
/// leftover file costs a redundant merge later, not correctness.
fn remove_adopted(cache_path: &Path, adopt: &AdoptReport) {
    let base_sidecar = quarantine_path(cache_path);
    for seg in &adopt.adopted {
        let _ = fold_sidecar(&quarantine_path(seg), &base_sidecar);
        let _ = std::fs::remove_file(seg);
    }
    for lease in &adopt.stale_leases {
        let _ = std::fs::remove_file(lease);
    }
    // A worker that quarantined its torn tail but then appended nothing
    // removes its empty segment on close, orphaning the sidecar. Fold
    // any sidecar whose segment is gone so the evidence still lands in
    // the base quarantine and the directory can retire.
    if let Ok(entries) = std::fs::read_dir(segment_dir(cache_path)) {
        for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
            let orphaned = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".jsonl.quarantine"))
                && !path.with_extension("").exists();
            if orphaned {
                let _ = fold_sidecar(&path, &base_sidecar);
            }
        }
    }
}

/// Appends `src` sidecar's lines to `dst` and removes `src`. Missing
/// `src` is a no-op.
fn fold_sidecar(src: &Path, dst: &Path) -> std::io::Result<()> {
    let text = match std::fs::read_to_string(src) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if !text.is_empty() {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dst)?;
        f.write_all(text.as_bytes())?;
    }
    std::fs::remove_file(src)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "subvt-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lease_info_round_trips_and_staleness_rules() {
        let info = LeaseInfo {
            pid: std::process::id(),
            acquired_unix: 1_000_000,
        };
        let text = info.render();
        assert_eq!(LeaseInfo::parse(&text), Some(info));
        assert!(LeaseInfo::parse("{\"pid\":oops}").is_none());
        // A torn write is unparseable, not a lease acquired at 10000.
        assert!(LeaseInfo::parse(&text[..text.len() - 3]).is_none());
        // The same content is live while a holder has the file locked,
        // however old it is, and stale once the lock is gone.
        let dir = scratch("rules");
        let path = dir.join("seg-r.lease");
        std::fs::write(&path, &text).unwrap();
        let holder = std::fs::File::open(&path).unwrap();
        holder.lock().unwrap();
        assert!(!lease_is_stale(&path), "a locked lease is live");
        drop(holder);
        assert!(lease_is_stale(&path), "an unlocked lease is stale");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_claim_is_exclusive_released_on_drop_and_reclaims_dead() {
        let dir = scratch("lease");
        let path = dir.join("seg-a.lease");
        let lease = Lease::claim(&path, "t.reclaim").unwrap().unwrap();
        assert!(path.exists());
        assert!(
            Lease::claim(&path, "t.reclaim").unwrap().is_none(),
            "live holder must be honoured"
        );
        drop(lease);
        assert!(!path.exists(), "drop removes the lease");
        // A dead holder's lease is reclaimed.
        let dead = LeaseInfo {
            pid: 999_999_999,
            acquired_unix: clock::unix_now(),
        };
        std::fs::write(&path, dead.render()).unwrap();
        let lease = Lease::claim(&path, "t.reclaim").unwrap();
        assert!(lease.is_some(), "dead holder's lease must be reclaimable");
        let n = trace::global()
            .snapshot()
            .counters
            .get("t.reclaim")
            .copied()
            .unwrap_or(0);
        assert!(n >= 1, "reclaim must be counted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_pid_beyond_u32_is_unparseable_not_wrapped() {
        // 2^32 + 1 would truncate to pid 1.
        let text = "{\"pid\":4294967297,\"acquired_unix\":1}";
        assert_eq!(LeaseInfo::parse(text), None);
        // Unparseable, so a fresh file falls under the grace rule.
        let dir = scratch("bigpid");
        let path = dir.join("seg-b.lease");
        std::fs::write(&path, text).unwrap();
        assert!(
            !lease_is_stale(&path),
            "fresh unparseable lease is honoured"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unparseable_lease_is_honoured_until_the_grace_lapses() {
        let dir = scratch("grace");
        let path = dir.join("seg-g.lease");
        let counter = lease_reclaim_counter_name(&dir.join("grace.jsonl"));
        // A just-created empty lease models a holder that won
        // create_new but has not written its content yet: within the
        // grace window it must be honoured, not reclaimed.
        std::fs::write(&path, "").unwrap();
        assert!(Lease::claim(&path, &counter).unwrap().is_none());
        // Past the grace window the same empty file is abandoned.
        let old = std::time::SystemTime::now() - UNPARSEABLE_GRACE - Duration::from_secs(5);
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(old)
            .unwrap();
        let lease = Lease::claim(&path, &counter).unwrap();
        assert!(lease.is_some(), "an aged unparseable lease is reclaimed");
        let reclaimed = trace::global().snapshot().counters.get(&counter).copied();
        assert!(reclaimed >= Some(1), "reclaim must be counted");
        drop(lease);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_session_lease_is_not_adopted() {
        let dir = scratch("idle");
        let cache_path = dir.join("store.jsonl");
        let session = SegmentSession::claim(&cache_path, "idle").unwrap().unwrap();
        session.append("idle", 1, &[1.0]);
        // The session appends nothing more: only the lock it holds on
        // its lease keeps the segment its own.
        let lease = claim_compaction(&cache_path).unwrap().unwrap();
        let merged = Cache::new();
        let report = compact(&cache_path, &merged, lease).unwrap();
        assert_eq!(report.skipped_live, 1, "a live idle session is not adopted");
        assert_eq!(report.segments_merged, 0);
        assert!(merged.peek("idle", 1).is_none());
        assert!(session.path().exists());
        session.close();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_ttl_lapse_is_reclaimable() {
        let dir = scratch("ttl");
        let path = dir.join("seg-t.lease");
        // An older-format lease with a lapsed TTL that names our own
        // live pid, as a crashed holder whose pid was reused leaves it:
        // nobody holds its lock, so it is reclaimed.
        let lapsed = format!(
            "{{\"pid\":{},\"acquired_unix\":1,\"ttl_secs\":1}}\n",
            std::process::id()
        );
        std::fs::write(&path, lapsed).unwrap();
        assert!(Lease::claim(&path, "t.ttl").unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_keeps_intact_lines_and_quarantines_torn_tail() {
        let dir = scratch("scrub");
        let seg = dir.join("seg-0.jsonl");
        let good1 = format_line_f64("ns", 1, &[1.5, 2.5]);
        let good2 = format_line_f64("ns", 2, &[3.5]);
        // Torn tail: a partial line with no newline, as a SIGKILL
        // mid-append leaves it.
        let torn = &good2[..good2.len() / 2];
        std::fs::write(&seg, format!("{good1}\n{good2}\n{torn}")).unwrap();
        let report = scrub_segment(&seg).unwrap();
        assert_eq!(
            report,
            ScrubReport {
                kept: 2,
                quarantined: 1
            }
        );
        let rewritten = std::fs::read_to_string(&seg).unwrap();
        assert_eq!(rewritten, format!("{good1}\n{good2}\n"));
        let sidecar = std::fs::read_to_string(quarantine_path(&seg)).unwrap();
        assert_eq!(sidecar.trim(), torn);
        // Idempotent: a second scrub changes nothing.
        assert_eq!(
            scrub_segment(&seg).unwrap(),
            ScrubReport {
                kept: 2,
                quarantined: 0
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_session_appends_loads_and_compacts() {
        let dir = scratch("session");
        let cache_path = dir.join("store.jsonl");
        let session = Arc::new(
            SegmentSession::claim(&cache_path, "0")
                .unwrap()
                .expect("claim fresh segment"),
        );
        // Second claimant of the same name loses; another name wins.
        assert!(SegmentSession::claim(&cache_path, "0").unwrap().is_none());
        let other = SegmentSession::claim(&cache_path, "1")
            .unwrap()
            .expect("distinct name claims");

        // Wire the hook to a cache: computes append, hits do not.
        let cache = Cache::new();
        cache.set_persist(Some(session.persist_hook()));
        cache.get_or_compute("seg", 1, || vec![1.0, 2.0]);
        cache.get_or_compute("seg", 2, || 7.5);
        let _: f64 = cache.get_or_compute("seg", 2, || unreachable!("hit"));
        assert_eq!(session.appended(), 2);
        cache.set_persist(None);

        // A sibling process (modelled by a fresh Cache) sees the
        // appends via a lenient load.
        let peer = Cache::new();
        assert_eq!(peer.load_jsonl_lenient(session.path()).unwrap().loaded, 2);
        assert_eq!(peer.get_or_compute("seg", 2, || -1.0), 7.5);

        // Clean close keeps the non-empty segment, removes the empty
        // one, releases both leases.
        let seg0 = session.path().to_owned();
        session.close();
        other.close();
        assert!(seg0.exists(), "non-empty segment survives close");
        assert!(!other.path().exists(), "empty segment is removed");

        // Compaction folds the segment into the canonical file and
        // removes the directory once the compaction lease is released.
        let lease = claim_compaction(&cache_path).unwrap().expect("lease free");
        let report = compact(&cache_path, &Cache::new(), lease).unwrap();
        assert_eq!(report.written, 2);
        assert_eq!(report.segments_merged, 1);
        assert!(!segment_dir(&cache_path).exists(), "empty dir removed");
        let merged = Cache::new();
        assert_eq!(merged.load_jsonl_lenient(&cache_path).unwrap().loaded, 2);
        assert_eq!(merged.get_or_compute("seg", 1, Vec::new), vec![1.0, 2.0]);

        // Byte-identity: the compacted file equals a single-process
        // save of the same entries.
        let solo = Cache::new();
        solo.get_or_compute("seg", 1, || vec![1.0, 2.0]);
        solo.get_or_compute("seg", 2, || 7.5);
        let solo_path = dir.join("solo.jsonl");
        solo.save_jsonl(&solo_path).unwrap();
        assert_eq!(
            std::fs::read(&cache_path).unwrap(),
            std::fs::read(&solo_path).unwrap(),
            "compacted store must be byte-identical to a solo save"
        );

        // With nothing new to merge, compaction leaves the canonical
        // file alone, still retiring the segment directory...
        let lease = claim_compaction(&cache_path).unwrap().expect("lease free");
        let again = compact(&cache_path, &Cache::new(), lease).unwrap();
        assert_eq!((again.written, again.rewritten), (2, false));
        assert!(!segment_dir(&cache_path).exists());
        // ...but rewrites one a save would change (here: a legacy line).
        let legacy = format!(
            "{{\"ns\":\"seg\",\"key\":\"0000000000000003\",\"bits\":[{}]}}\n",
            4.0f64.to_bits()
        );
        let mut text = std::fs::read_to_string(&cache_path).unwrap();
        text.push_str(&legacy);
        std::fs::write(&cache_path, text).unwrap();
        let lease = claim_compaction(&cache_path).unwrap().expect("lease free");
        let healed = compact(&cache_path, &Cache::new(), lease).unwrap();
        assert_eq!((healed.written, healed.rewritten), (3, true));
        assert!(!std::fs::read_to_string(&cache_path)
            .unwrap()
            .contains(&legacy));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adopt_skips_live_leases_and_quarantines_dead_tails() {
        let dir = scratch("adopt");
        let cache_path = dir.join("store.jsonl");
        // A live session with one entry...
        let live = SegmentSession::claim(&cache_path, "live").unwrap().unwrap();
        live.append("a", 1, &[1.0]);
        // ...and a dead worker's segment: entries + torn tail, and the
        // unlocked lease it left.
        let sd = segment_dir(&cache_path);
        let dead_seg = sd.join("seg-dead.jsonl");
        let good = format_line_f64("a", 2, &[2.0]);
        std::fs::write(&dead_seg, format!("{good}\n{}", &good[..10])).unwrap();
        let dead_lease = LeaseInfo {
            pid: 999_999_999,
            acquired_unix: clock::unix_now(),
        };
        std::fs::write(sd.join("seg-dead.lease"), dead_lease.render()).unwrap();

        let cache = Cache::new();
        let report = adopt_dead_segments(&cache_path, &cache).unwrap();
        assert_eq!(report.skipped_live, 1, "live lease must not be adopted");
        assert_eq!(report.adopted, vec![dead_seg.clone()]);
        assert_eq!((report.loaded, report.quarantined), (1, 1));
        assert_eq!(cache.get_or_compute("a", 2, || -1.0), 2.0);
        assert!(
            cache.peek("a", 1).is_none(),
            "live segment's entries stay private to its holder"
        );
        live.close();
        std::fs::remove_dir_all(&dir).ok();
    }
}
