//! Persistent-cache sessions for long-lived processes.
//!
//! Both entry points that persist the engine's result cache — the
//! one-shot `repro` CLI and the `subvt-serve` daemon — need the same
//! open/close choreography, packaged as [`CacheSession`] so the two
//! binaries cannot drift apart. There is one way to write the cache:
//!
//! * **Open** claims a leased segment `<cache>.d/seg-p<pid>-<n>.jsonl`,
//!   loads the base file and every segment for warm hits, and installs
//!   the write-through hook, so each freshly computed entry is appended
//!   to the segment the moment it exists.
//! * **Close** seals the segment and then, if it wins the compaction
//!   lease, runs [`seg::compact`] over the cache it already holds: the
//!   base file and every sealed or dead segment merge into the
//!   canonical file and the segment directory retires (a base file
//!   that already holds exactly the loaded entries is not rewritten). A
//!   session that loses the compaction lease (to a fleet parent, or a
//!   concurrent run's close) leaves its sealed segment for that holder.
//!
//! Concurrent runs therefore all persist, and only compaction rewrites
//! the base file. Damaged base lines are counted at open and moved to
//! the `<cache>.quarantine` sidecar by compaction.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use subvt_engine::cache::seg::{self, SegmentSession};
use subvt_engine::cache::{quarantine_path, LoadReport};

/// Distinguishes sibling sessions opened by one process (tests, mostly)
/// so their segment names cannot collide.
static SESSION_SEQ: AtomicU64 = AtomicU64::new(0);

/// An open session against a persistent cache file: a leased segment
/// plus the loaded entries.
pub struct CacheSession {
    path: PathBuf,
    segment: Arc<SegmentSession>,
    report: LoadReport,
}

impl CacheSession {
    /// Opens `path` against the run scope's cache
    /// ([`subvt_engine::global_cache`]), as described on the module; the
    /// load summary goes to stderr.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the lease or cache files (a missing
    /// cache file is not an error — it loads empty), and fails when a
    /// live process holds this session's segment name.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let cache = subvt_engine::global_cache();
        let name = format!(
            "p{}-{}",
            std::process::id(),
            SESSION_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let segment = SegmentSession::claim(path, &name)?.ok_or_else(|| {
            std::io::Error::other(format!(
                "cache segment seg-{name} of {} is held by another live process",
                path.display()
            ))
        })?;
        let mut report = cache.load_jsonl_lenient(path)?;
        for seg_path in seg::segment_files(path)? {
            let r = cache.load_jsonl_lenient(&seg_path)?;
            report.loaded += r.loaded;
            report.superseded += r.superseded;
        }
        let session = Self::start(path, segment, report);
        session.log_load();
        Ok(session)
    }

    /// Opens an explicit segment named `name` — the fleet worker path.
    /// No peer-segment loads (fleet shards are disjoint; each worker
    /// sees the base file plus its own scrubbed leftovers). `Ok(None)`
    /// means a live process already holds this segment name.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn open_segment(path: &Path, name: &str) -> std::io::Result<Option<Self>> {
        let cache = subvt_engine::global_cache();
        let Some(segment) = SegmentSession::claim(path, name)? else {
            return Ok(None);
        };
        let mut report = cache.load_jsonl_lenient(path)?;
        report.loaded += segment.load_into(cache)?.loaded;
        Ok(Some(Self::start(path, segment, report)))
    }

    fn start(path: &Path, segment: SegmentSession, report: LoadReport) -> Self {
        let segment = Arc::new(segment);
        subvt_engine::global_cache().set_persist(Some(segment.persist_hook()));
        Self {
            path: path.to_owned(),
            segment,
            report,
        }
    }

    fn log_load(&self) {
        if self.report.loaded > 0 {
            eprintln!(
                "loaded {} cached results from {}",
                self.report.loaded,
                self.path.display()
            );
        }
        if self.report.superseded > 0 {
            eprintln!("  ({} superseded entries dropped)", self.report.superseded);
        }
        if self.report.quarantined > 0 {
            eprintln!(
                "  ({} corrupted lines skipped; quarantined to {} at compaction)",
                self.report.quarantined,
                quarantine_path(&self.path).display()
            );
        }
    }

    /// The cache file path this session manages.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The segment file this session appends to.
    pub fn segment_path(&self) -> &Path {
        self.segment.path()
    }

    /// What the open-time load found (base file plus segments).
    pub fn load_report(&self) -> LoadReport {
        self.report
    }

    /// Closes the session: seals the segment (kept if non-empty),
    /// releases its lease, then compacts if the compaction lease is
    /// free. Returns the number of entries made durable by this close:
    /// the canonical file's entry count when it compacted, else the
    /// lines this session appended to its sealed segment. A rewrite or a
    /// sealed segment is reported on stderr; a compaction that found the
    /// base file already canonical leaves it untouched and says nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the compaction.
    pub fn close(self) -> std::io::Result<usize> {
        let cache = subvt_engine::global_cache();
        cache.set_persist(None);
        let appended = self.segment.appended() as usize;
        self.segment.close();
        let Some(lease) = seg::claim_compaction(&self.path)? else {
            if appended > 0 {
                eprintln!(
                    "cache segment {} sealed ({appended} entries appended); \
                     another process holds the compaction lease",
                    self.segment.path().display()
                );
            }
            return Ok(appended);
        };
        let report = seg::compact(&self.path, cache, lease)?;
        if report.rewritten {
            eprintln!("cache compacted ({} entries written)", report.written);
        }
        if report.quarantined > 0 {
            eprintln!(
                "  ({} corrupted lines quarantined to {})",
                report.quarantined,
                quarantine_path(&self.path).display()
            );
        }
        Ok(report.written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use subvt_engine::scope::Scope;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("subvt-exp-cachefile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.jsonl"))
    }

    #[test]
    fn open_missing_file_is_writable_and_empty() {
        let _scope = Scope::fresh().enter();
        let path = temp_path("fresh");
        std::fs::remove_file(&path).ok();
        let session = CacheSession::open(&path).unwrap();
        assert_eq!(session.load_report(), LoadReport::default());
        assert!(session.segment_path().exists(), "open claims a segment");
        session.close().unwrap();
        assert!(path.exists(), "close must persist the (compacted) file");
        assert!(
            !seg::segment_dir(&path).exists(),
            "compaction retires the segment dir"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn second_session_persists_through_a_segment() {
        let _scope = Scope::fresh().enter();
        let path = temp_path("contended");
        std::fs::remove_file(&path).ok();
        let first = CacheSession::open(&path).unwrap();
        let second = CacheSession::open(&path).unwrap();
        assert_ne!(
            first.segment_path(),
            second.segment_path(),
            "overlapping sessions must claim distinct segments"
        );
        // A live process holds the compaction lease: the close seals its
        // segment and leaves the base file alone.
        let held = seg::claim_compaction(&path).unwrap().expect("lease free");
        subvt_engine::global_cache().get_or_compute("cachefile.contended", 1, || 1.5);
        let sealed = second.segment_path().to_owned();
        assert!(second.close().unwrap() >= 1, "the compute was appended");
        assert!(sealed.exists(), "the sealed segment is kept");
        assert!(!path.exists(), "the base file is untouched");
        drop(held);
        // The next close wins the lease and folds the sealed segment in.
        first.close().unwrap();
        assert!(!sealed.exists());
        let merged = subvt_engine::Cache::new();
        merged.load_jsonl_lenient(&path).unwrap();
        assert_eq!(merged.peek("cachefile.contended", 1), Some(vec![1.5]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_compaction_lease_is_reclaimed_by_close() {
        let _scope = Scope::fresh().enter();
        let path = temp_path("stale-lease");
        std::fs::remove_file(&path).ok();
        // A crashed compactor: a lease recording a pid that cannot be a
        // live process.
        let lease = seg::compaction_lease_path(&path);
        std::fs::create_dir_all(lease.parent().unwrap()).unwrap();
        let dead = seg::LeaseInfo {
            pid: 999_999_999,
            acquired_unix: subvt_engine::clock::unix_now(),
        };
        std::fs::write(&lease, dead.render()).unwrap();
        CacheSession::open(&path).unwrap().close().unwrap();
        assert!(path.exists(), "a dead holder's lease must be reclaimed");
        let reclaimed = subvt_engine::trace::global()
            .snapshot()
            .counters
            .get("cache.stale-lease.lease_reclaimed")
            .copied();
        assert!(reclaimed >= Some(1), "the reclaim must be counted");
        assert!(!seg::segment_dir(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recycled_pid_lease_is_reclaimed_by_open() {
        let _scope = Scope::fresh().enter();
        let path = temp_path("recycled");
        let mut attempts = 0;
        let session = loop {
            std::fs::remove_file(&path).ok();
            std::fs::remove_dir_all(seg::segment_dir(&path)).ok();
            // A lease naming our (live) pid that this process never
            // claimed: what a crashed process with the same pid leaves
            // behind. An open that draws `next` must reclaim it.
            let next = SESSION_SEQ.load(Ordering::Relaxed);
            let leftover =
                seg::segment_dir(&path).join(format!("seg-p{}-{next}.lease", std::process::id()));
            std::fs::create_dir_all(leftover.parent().unwrap()).unwrap();
            let recycled = seg::LeaseInfo {
                pid: std::process::id(),
                acquired_unix: subvt_engine::clock::unix_now(),
            };
            std::fs::write(&leftover, recycled.render()).unwrap();
            let session = CacheSession::open(&path).expect("open reclaims the unlocked leftover");
            if session.segment_path().with_extension("lease") == leftover {
                break session;
            }
            // Another test's session drew `next` first: try again.
            session.close().unwrap();
            attempts += 1;
            assert!(
                attempts < 16,
                "no open drew the sequence number read before it"
            );
        };
        let reclaimed = subvt_engine::trace::global()
            .snapshot()
            .counters
            .get("cache.recycled.lease_reclaimed")
            .copied();
        assert!(reclaimed >= Some(1), "the reclaim must be counted");
        session.close().unwrap();
        assert!(!seg::segment_dir(&path).exists());
        std::fs::remove_file(&path).ok();
    }
}
