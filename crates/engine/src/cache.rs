//! Content-addressed result cache with optional JSON-lines persistence.
//!
//! Keys are stable 64-bit content hashes (see [`crate::KeyBuilder`]) of
//! the inputs that determine a result — device parameters, sweep specs,
//! strategy knobs. Values are numeric blobs: anything implementing
//! [`Blob`] encodes to a `Vec<f64>` and back, which keeps the cache
//! type-erased, exactly round-trippable (floats are persisted by bit
//! pattern) and trivially persistable.
//!
//! Concurrent misses of one key are **single-flighted**: the first
//! caller computes while later callers block until the slot fills.
//! The computing path must not itself wait on the cache (the experiment
//! stack's compute closures only fan out pure jobs), which keeps the
//! scheme deadlock-free.
//!
//! Persistence schema, one JSON object per line:
//!
//! ```text
//! {"ns":"tcad.extract","key":"1f3a..16 hex..","bits":[4614256656552045848,...],"crc":"..16 hex.."}
//! ```
//!
//! `bits` are the IEEE-754 bit patterns of the encoded `f64`s, so a
//! round trip through disk is bit-exact. `crc` is an FNV-1a digest of
//! the entry's content: lines whose digest does not match — torn
//! writes, flipped bits, truncations — are skipped, never fatal and
//! never silently wrong, and the compaction merge **quarantines** them
//! to a `<path>.quarantine` sidecar. Lines without a `crc` field
//! (written by older builds) are accepted when structurally intact.
//! Saving rewrites the whole file through a sibling temp file plus
//! atomic rename, which also compacts away superseded duplicate entries.
//!
//! Processes that share one cache file never save it directly: each
//! appends to its own leased segment, and only [`seg::compact`] — run
//! under the compaction lease — rewrites the base file (see [`seg`]).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::trace;

pub mod seg;

/// Locks a mutex, recovering from poisoning instead of panicking.
///
/// Every map the cache guards is a plain value store that is mutated
/// atomically under the lock (insert/remove of finished values), so a
/// thread that panicked while holding the lock cannot have left it
/// half-updated — the poison flag is noise here, and honouring it would
/// turn one panicked compute thread into a process-wide denial of cache
/// service for every later caller.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A value the cache can store: encodes to/from a flat `f64` record.
pub trait Blob: Sized {
    /// Flattens the value.
    fn encode(&self) -> Vec<f64>;
    /// Rebuilds the value; `None` on schema mismatch (treated as a
    /// cache miss, never an error).
    fn decode(record: &[f64]) -> Option<Self>;
}

impl Blob for Vec<f64> {
    fn encode(&self) -> Vec<f64> {
        self.clone()
    }
    fn decode(record: &[f64]) -> Option<Self> {
        Some(record.to_vec())
    }
}

impl Blob for f64 {
    fn encode(&self) -> Vec<f64> {
        vec![*self]
    }
    fn decode(record: &[f64]) -> Option<Self> {
        match record {
            [v] => Some(*v),
            _ => None,
        }
    }
}

enum Slot {
    InFlight,
    Ready(Arc<Vec<f64>>),
}

/// How a [`Cache::try_get_or_compute_outcome`] call was satisfied.
///
/// The distinction powers the serve layer's dedup accounting: a
/// [`Lookup::Coalesced`] caller arrived while an identical request was
/// already computing and paid only the wait, which is exactly the
/// "N concurrent identical queries cost one compute" guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from a ready entry without waiting on a computer.
    Hit,
    /// Waited on another caller's in-flight compute of the same key.
    Coalesced,
    /// This caller ran the compute closure.
    Computed,
}

struct CacheInner {
    map: HashMap<(u64, u64), Slot>,
    /// Namespace-hash → name, for persistence and stats.
    ns_names: HashMap<u64, String>,
}

/// Hit/miss counts, total and per namespace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total hits.
    pub hits: u64,
    /// Total misses (each miss implies one compute).
    pub misses: u64,
    /// Per-namespace `(hits, misses)`.
    pub by_namespace: Vec<(String, u64, u64)>,
}

/// Write-through persistence callback; see [`Cache::set_persist`].
pub type PersistHook = Arc<dyn Fn(&str, u64, &[f64]) + Send + Sync>;

/// Content-addressed, single-flight result cache.
pub struct Cache {
    inner: Mutex<CacheInner>,
    filled: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    ns_stats: Mutex<HashMap<String, (u64, u64)>>,
    persist: Mutex<Option<PersistHook>>,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                ns_names: HashMap::new(),
            }),
            filled: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            ns_stats: Mutex::new(HashMap::new()),
            persist: Mutex::new(None),
        }
    }

    /// Looks up `(ns, key)`; on a miss runs `compute`, stores its
    /// result and returns it. Concurrent misses of the same key block
    /// until the first caller's result is ready.
    pub fn get_or_compute<V: Blob>(&self, ns: &str, key: u64, compute: impl FnOnce() -> V) -> V {
        self.try_get_or_compute(ns, key, || Ok::<V, std::convert::Infallible>(compute()))
            .unwrap_or_else(|never| match never {})
    }

    /// [`Cache::get_or_compute`] for fallible computations. An `Err`
    /// clears the in-flight slot (a later caller retries) and is
    /// propagated.
    ///
    /// # Errors
    ///
    /// Returns whatever `compute` returned; the cache adds no error
    /// cases of its own.
    pub fn try_get_or_compute<V: Blob, E>(
        &self,
        ns: &str,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        self.try_get_or_compute_outcome(ns, key, compute).0
    }

    /// [`Cache::try_get_or_compute`] that also reports *how* the call
    /// was satisfied — see [`Lookup`]. The result is identical to the
    /// plain variant; only the accounting differs.
    ///
    /// # Errors
    ///
    /// Returns whatever `compute` returned; the cache adds no error
    /// cases of its own.
    pub fn try_get_or_compute_outcome<V: Blob, E>(
        &self,
        ns: &str,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> (Result<V, E>, Lookup) {
        let nsh = crate::KeyBuilder::new("ns").str(ns).finish();
        let id = (nsh, key);
        // Lookup latency includes any single-flight wait — that wait is
        // exactly the cost a caller pays for the lookup.
        let lookup_started = std::time::Instant::now();
        let mut waited = false;
        {
            let mut inner = lock_recover(&self.inner);
            loop {
                match inner.map.get(&id) {
                    Some(Slot::Ready(blob)) => {
                        if let Some(v) = V::decode(blob) {
                            drop(inner);
                            self.record(ns, true, lookup_started);
                            let how = if waited {
                                Lookup::Coalesced
                            } else {
                                Lookup::Hit
                            };
                            return (Ok(v), how);
                        }
                        // Stale schema: recompute below.
                        inner.map.insert(id, Slot::InFlight);
                        break;
                    }
                    Some(Slot::InFlight) => {
                        waited = true;
                        inner = self
                            .filled
                            .wait(inner)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    None => {
                        inner.map.insert(id, Slot::InFlight);
                        inner.ns_names.entry(nsh).or_insert_with(|| ns.to_owned());
                        break;
                    }
                }
            }
        }
        self.record(ns, false, lookup_started);
        // The in-flight slot must be cleared on every exit path — a
        // panic or Err that left it in place would wedge later callers.
        // `encode` runs inside the guarded region too: it is user code
        // (a `Blob` impl), and user code must never run while the cache
        // lock is held.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compute().map(|v| {
                let bits = v.encode();
                (v, bits)
            })
        }));
        let mut inner = lock_recover(&self.inner);
        let persisted = match &result {
            Ok(Ok((_, bits))) => {
                let blob = Arc::new(bits.clone());
                inner.map.insert(id, Slot::Ready(Arc::clone(&blob)));
                Some(blob)
            }
            _ => {
                inner.map.remove(&id);
                None
            }
        };
        drop(inner);
        self.filled.notify_all();
        if let Some(bits) = persisted {
            // Write-through hook (segment appends): outside every lock,
            // only for freshly computed entries.
            let hook = lock_recover(&self.persist).clone();
            if let Some(hook) = hook {
                hook(ns, key, &bits);
            }
        }
        match result {
            Ok(r) => (r.map(|(v, _)| v), Lookup::Computed),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Installs (or clears) the write-through persistence hook: after
    /// every freshly *computed* entry is published, the hook is invoked
    /// with `(ns, key, bits)` outside all cache locks. Segment sessions
    /// (see [`seg::SegmentSession`]) use this to append each new result
    /// to a per-process segment file the moment it exists, so a crash
    /// loses at most the entry being written — not the whole run.
    pub fn set_persist(&self, hook: Option<PersistHook>) {
        *lock_recover(&self.persist) = hook;
    }

    /// Returns the stored blob for `(ns, key)` without computing.
    pub fn peek(&self, ns: &str, key: u64) -> Option<Vec<f64>> {
        let nsh = crate::KeyBuilder::new("ns").str(ns).finish();
        let inner = lock_recover(&self.inner);
        match inner.map.get(&(nsh, key)) {
            Some(Slot::Ready(blob)) => Some(blob.as_ref().clone()),
            _ => None,
        }
    }

    /// Number of ready entries.
    pub fn len(&self) -> usize {
        let inner = lock_recover(&self.inner);
        inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Whether the cache holds no ready entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss statistics since construction.
    pub fn stats(&self) -> CacheStats {
        let per = lock_recover(&self.ns_stats);
        let mut by_namespace: Vec<(String, u64, u64)> = per
            .iter()
            .map(|(ns, (h, m))| (ns.clone(), *h, *m))
            .collect();
        by_namespace.sort();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            by_namespace,
        }
    }

    fn record(&self, ns: &str, hit: bool, lookup_started: std::time::Instant) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let mut per = lock_recover(&self.ns_stats);
        let entry = per.entry(ns.to_owned()).or_insert((0, 0));
        if hit {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
        drop(per);
        // Hit/miss *counters* are published lazily by the flush hook
        // (see `flush_stats_into`), so every drained trace carries them
        // without a per-lookup counter write here. Latency is recorded
        // eagerly: the histogram needs every sample.
        trace::observe(
            &format!("cache.{ns}.lookup_us"),
            lookup_started.elapsed().as_micros() as f64,
        );
    }

    /// Publishes this cache's hit/miss totals into `tracer` as
    /// `cache.<ns>.hit` / `cache.<ns>.miss` counters (plus `cache.hit`
    /// / `cache.miss` totals). Registered as a flush hook on the global
    /// tracer by [`crate::global_cache`], so drained traces always
    /// carry cache stats even for paths that never touched the tracer.
    pub fn flush_stats_into(&self, tracer: &trace::Tracer) {
        let stats = self.stats();
        tracer.set_counter("cache.hit", stats.hits);
        tracer.set_counter("cache.miss", stats.misses);
        for (ns, hits, misses) in &stats.by_namespace {
            tracer.set_counter(&format!("cache.{ns}.hit"), *hits);
            tracer.set_counter(&format!("cache.{ns}.miss"), *misses);
        }
    }

    /// Adds the entries of the JSON-lines file at `path` (missing file =
    /// empty) that memory does not hold yet: an entry already in memory,
    /// or on an earlier line, wins over the file's and is not counted.
    /// Compaction merges the base file and segments into a cache that
    /// already holds them this way, so a session's close neither rebuilds
    /// a second cache nor reports its own entries as superseded. Torn,
    /// truncated or checksum-mismatched lines are appended verbatim to the
    /// `<path>.quarantine` sidecar, counted as `quarantined`, and traced as
    /// `cache.quarantined_lines` — the merge continues.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "file not found" (including
    /// failure to write the quarantine sidecar).
    pub fn merge_jsonl(&self, path: &Path) -> std::io::Result<LoadReport> {
        self.load_jsonl_impl(path, LoadMode::Merge)
    }

    /// Loads the JSON-lines file at `path` (missing file = empty) over
    /// what memory holds: when the same `(ns, key)` appears more than
    /// once, later lines win and earlier ones count as `superseded` (the
    /// next [`Cache::save_jsonl`] compacts them away). Damaged lines are
    /// counted as `quarantined` but left in place, and nothing is written
    /// anywhere. This is the right load for files another *live* process
    /// may still be appending to (a peer's segment, where a torn final
    /// line is expected mid-append), or that only the compaction-lease
    /// holder may act on (the base file, whose damaged lines compaction
    /// quarantines through [`Cache::merge_jsonl`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "file not found".
    pub fn load_jsonl_lenient(&self, path: &Path) -> std::io::Result<LoadReport> {
        self.load_jsonl_impl(path, LoadMode::Lenient)
    }

    fn load_jsonl_impl(&self, path: &Path, mode: LoadMode) -> std::io::Result<LoadReport> {
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadReport::default()),
            Err(e) => return Err(e),
        };
        let mut report = LoadReport::default();
        let mut sidecar = Quarantine::new(path);
        let mut intact = 0;
        let mut canonical = true;
        let mut last: Option<(String, u64)> = None;
        for line in BufReader::new(file).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let Some((ns, key, bits, crc)) = intact_entry(&line) else {
                if mode == LoadMode::Merge {
                    sidecar.put(&line)?;
                }
                report.quarantined += 1;
                continue;
            };
            intact += 1;
            canonical &= crc.is_some()
                && last
                    .as_ref()
                    .is_none_or(|(n, k)| (n.as_str(), *k) < (ns.as_str(), key));
            last = Some((ns.clone(), key));
            let nsh = crate::KeyBuilder::new("ns").str(&ns).finish();
            let blob: Vec<f64> = bits.iter().map(|b| f64::from_bits(*b)).collect();
            let mut inner = lock_recover(&self.inner);
            if mode == LoadMode::Merge && matches!(inner.map.get(&(nsh, key)), Some(Slot::Ready(_)))
            {
                continue;
            }
            if inner
                .map
                .insert((nsh, key), Slot::Ready(Arc::new(blob)))
                .is_some()
            {
                report.superseded += 1;
            } else {
                report.loaded += 1;
            }
            inner.ns_names.entry(nsh).or_insert(ns);
        }
        if report.superseded > 0 {
            trace::add("cache.superseded_lines", report.superseded as u64);
        }
        report.canonical = (canonical && report.quarantined == 0).then_some(intact);
        Ok(report)
    }

    /// Writes every ready entry to `path` as checksummed JSON lines.
    /// The write goes through a sibling temp file plus atomic rename,
    /// so a crash mid-save leaves the previous file intact; because the
    /// in-memory map holds exactly one blob per `(ns, key)`, the
    /// rewrite also compacts any superseded duplicates a previous file
    /// accumulated. Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let tmp = path.with_extension("jsonl.tmp");
        let mut written = 0;
        {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            let inner = lock_recover(&self.inner);
            let mut entries: Vec<(&str, u64, &Arc<Vec<f64>>)> = inner
                .map
                .iter()
                .filter_map(|((nsh, key), slot)| match slot {
                    Slot::Ready(blob) => {
                        inner.ns_names.get(nsh).map(|ns| (ns.as_str(), *key, blob))
                    }
                    Slot::InFlight => None,
                })
                .collect();
            entries.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
            for (ns, key, blob) in entries {
                let mut line = format_line_f64(ns, key, blob);
                // Chaos harness: simulates a torn write on this line
                // (no-op unless a fault plan is armed).
                crate::faultinject::corrupt_point(&mut line);
                writeln!(w, "{line}")?;
                written += 1;
            }
            w.flush()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(written)
    }
}

/// Renders one persistence line (without trailing newline) for an
/// entry's `f64` blob — the single format shared by [`Cache::save_jsonl`]
/// rewrites and segment appends, so every writer produces byte-identical
/// lines for identical entries.
pub fn format_line_f64(ns: &str, key: u64, values: &[f64]) -> String {
    let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    let mut line = format!(
        "{{\"ns\":{},\"key\":\"{key:016x}\",\"bits\":[",
        crate::json::json_str(ns)
    );
    for (i, b) in bits.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&b.to_string());
    }
    line.push_str(&format!(
        "],\"crc\":\"{:016x}\"}}",
        line_crc(ns, key, &bits)
    ));
    line
}

/// Per-line accounting from [`Cache::load_jsonl_lenient`] and
/// [`Cache::merge_jsonl`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Distinct entries loaded into memory.
    pub loaded: usize,
    /// Duplicate `(ns, key)` lines replaced by a later line.
    pub superseded: usize,
    /// Damaged lines skipped (and, by a merge, quarantined).
    pub quarantined: usize,
    /// `Some(n)` when the file exists and is exactly `n` entries in the
    /// form [`Cache::save_jsonl`] writes: every line intact and
    /// checksummed, in strictly increasing `(ns, key)` order. A cache
    /// holding exactly those `n` entries would save the same file.
    pub canonical: Option<usize>,
}

/// How [`Cache::load_jsonl_impl`] treats a line: the two loads of a
/// persistent store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadMode {
    /// Open-time load ([`Cache::load_jsonl_lenient`]): the file wins over
    /// memory and writes nothing.
    Lenient,
    /// Compaction merge ([`Cache::merge_jsonl`]): memory wins, damaged
    /// lines go to the quarantine sidecar.
    Merge,
}

/// The `<path>.quarantine` sidecar of one file being read, opened on
/// the first damaged line.
struct Quarantine {
    path: PathBuf,
    file: Option<std::fs::File>,
}

impl Quarantine {
    fn new(path: &Path) -> Self {
        Self {
            path: quarantine_path(path),
            file: None,
        }
    }

    /// Appends one damaged line verbatim, traced as
    /// `cache.quarantined_lines`.
    fn put(&mut self, line: &str) -> std::io::Result<()> {
        let file = match &mut self.file {
            Some(f) => f,
            None => self.file.insert(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?,
            ),
        };
        writeln!(file, "{line}")?;
        trace::add("cache.quarantined_lines", 1);
        Ok(())
    }
}

/// The quarantine sidecar path for a cache file.
pub fn quarantine_path(cache_path: &Path) -> PathBuf {
    let mut os = cache_path.as_os_str().to_owned();
    os.push(".quarantine");
    PathBuf::from(os)
}

/// Checksum of one persisted entry's content (namespace, key, bits).
fn line_crc(ns: &str, key: u64, bits: &[u64]) -> u64 {
    let mut h = crate::hash::Fnv64::new();
    h.write(&(ns.len() as u64).to_le_bytes());
    h.write(ns.as_bytes());
    h.write(&key.to_le_bytes());
    h.write(&(bits.len() as u64).to_le_bytes());
    for b in bits {
        h.write(&b.to_le_bytes());
    }
    h.finish()
}

impl Default for Cache {
    fn default() -> Self {
        Self::new()
    }
}

/// Parses one persistence line:
/// `{"ns":"...","key":"hex","bits":[...]}` (legacy) or
/// `{"ns":"...","key":"hex","bits":[...],"crc":"hex"}`.
///
/// The trailing `}` must close the line exactly — any other trailing
/// content marks the line as damaged, so a truncation that happens to
/// leave a parsable prefix cannot load a short blob silently.
fn parse_entry(line: &str) -> Option<(String, u64, Vec<u64>, Option<u64>)> {
    let rest = line.trim().strip_prefix("{\"ns\":\"")?;
    // The namespace is written with `json_str`; unescape the two
    // escapes that can occur in practice.
    let mut ns = String::new();
    let mut chars = rest.char_indices();
    let ns_end = loop {
        let (i, c) = chars.next()?;
        match c {
            '"' => break i,
            '\\' => {
                let (_, esc) = chars.next()?;
                ns.push(match esc {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                });
            }
            c => ns.push(c),
        }
    };
    let rest = rest[ns_end..].strip_prefix("\",\"key\":\"")?;
    let (key_hex, rest) = rest.split_once('"')?;
    let key = u64::from_str_radix(key_hex, 16).ok()?;
    let rest = rest.strip_prefix(",\"bits\":[")?;
    let (body, rest) = rest.split_once(']')?;
    let bits = if body.is_empty() {
        Vec::new()
    } else {
        body.split(',')
            .map(|t| t.trim().parse::<u64>())
            .collect::<Result<Vec<u64>, _>>()
            .ok()?
    };
    let crc = match rest {
        "}" => None,
        tail => {
            let hex = tail.strip_prefix(",\"crc\":\"")?.strip_suffix("\"}")?;
            Some(u64::from_str_radix(hex, 16).ok()?)
        }
    };
    Some((ns, key, bits, crc))
}

/// [`parse_entry`] that keeps only intact lines: a checksummed line
/// whose `crc` matches its content, or a structurally valid legacy line
/// without one. The one line check of every reader of the store.
fn intact_entry(line: &str) -> Option<(String, u64, Vec<u64>, Option<u64>)> {
    parse_entry(line)
        .filter(|(ns, key, bits, crc)| crc.is_none_or(|crc| crc == line_crc(ns, *key, bits)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn second_identical_lookup_is_a_hit_and_never_recomputes() {
        let cache = Cache::new();
        let computes = AtomicUsize::new(0);
        let f = || {
            computes.fetch_add(1, Ordering::SeqCst);
            vec![1.5, -0.0, 0.1 + 0.2]
        };
        let a = cache.get_or_compute("t", 42, f);
        let b: Vec<f64> =
            cache.get_or_compute("t", 42, || unreachable!("must be served from cache"));
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn namespaces_do_not_collide() {
        let cache = Cache::new();
        let a = cache.get_or_compute("ns-a", 7, || 1.0);
        let b = cache.get_or_compute("ns-b", 7, || 2.0);
        assert_eq!((a, b), (1.0, 2.0));
    }

    #[test]
    fn error_clears_in_flight_slot() {
        let cache = Cache::new();
        let r: Result<f64, &str> = cache.try_get_or_compute("t", 1, || Err("nope"));
        assert_eq!(r, Err("nope"));
        // A later caller is not wedged and can fill the slot.
        let v: Result<f64, &str> = cache.try_get_or_compute("t", 1, || Ok(3.0));
        assert_eq!(v, Ok(3.0));
    }

    #[test]
    fn panic_in_compute_clears_in_flight_slot() {
        let cache = Cache::new();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute("t", 9, || -> f64 { panic!("compute died") })
        }));
        assert!(attempt.is_err());
        assert_eq!(cache.get_or_compute("t", 9, || 4.0), 4.0);
    }

    #[test]
    fn concurrent_misses_single_flight() {
        let cache = Arc::new(Cache::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                cache.get_or_compute("t", 5, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    7.25
                })
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 7.25);
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight violated");
    }

    #[test]
    fn jsonl_round_trip_is_bit_exact() {
        let dir = std::env::temp_dir().join(format!("subvt-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round-trip.jsonl");
        let cache = Cache::new();
        let tricky = vec![0.1 + 0.2, -0.0, f64::MIN_POSITIVE, 1.0e300, -3.25];
        let t2 = tricky.clone();
        cache.get_or_compute("blob", 11, move || t2);
        cache.get_or_compute("scalar", 12, || 2.5);
        assert_eq!(cache.save_jsonl(&path).unwrap(), 2);

        let reloaded = Cache::new();
        let report = reloaded.load_jsonl_lenient(&path).unwrap();
        assert_eq!((report.loaded, report.canonical), (2, Some(2)));
        let got = reloaded.get_or_compute("blob", 11, || -> Vec<f64> {
            unreachable!("must hit disk entry")
        });
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            tricky.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(reloaded.stats().hits, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_empty() {
        let cache = Cache::new();
        let missing = Path::new("/nonexistent/subvt.jsonl");
        let report = cache.load_jsonl_lenient(missing).unwrap();
        assert_eq!(report, LoadReport::default());
        assert_eq!(report.canonical, None, "a missing file is not canonical");
        assert_eq!(cache.merge_jsonl(missing).unwrap(), LoadReport::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn malformed_lines_are_skipped() {
        assert!(parse_entry("not json").is_none());
        assert!(parse_entry("{\"ns\":\"a\",\"key\":\"zz\",\"bits\":[1]}").is_none());
        let ok = parse_entry("{\"ns\":\"a\",\"key\":\"00000000000000ff\",\"bits\":[1,2]}");
        assert_eq!(ok, Some(("a".to_owned(), 255, vec![1, 2], None)));
        let empty = parse_entry("{\"ns\":\"a\",\"key\":\"0000000000000001\",\"bits\":[]}");
        assert_eq!(empty, Some(("a".to_owned(), 1, vec![], None)));
        // Trailing garbage after the closing brace = damaged, even if a
        // prefix parses (a truncated longer line must not load short).
        assert!(
            parse_entry("{\"ns\":\"a\",\"key\":\"0000000000000001\",\"bits\":[1]}#torn").is_none()
        );
        // crc field round-trips.
        let crc = parse_entry(
            "{\"ns\":\"a\",\"key\":\"0000000000000001\",\"bits\":[1],\"crc\":\"00000000000000aa\"}",
        );
        assert_eq!(crc, Some(("a".to_owned(), 1, vec![1], Some(0xaa))));
    }

    #[test]
    fn corrupted_lines_are_quarantined_and_valid_entries_survive() {
        let dir = std::env::temp_dir().join(format!("subvt-cache-q-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine.jsonl");
        let cache = Cache::new();
        cache.get_or_compute("good", 1, || vec![1.0, 2.0]);
        cache.get_or_compute("good", 2, || 3.5);
        assert_eq!(cache.save_jsonl(&path).unwrap(), 2);

        // Flip one bit in the first line's payload (checksum mismatch)
        // and truncate the second (structural damage), then append one
        // intact line.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[0] = lines[0].replacen("\"bits\":[", "\"bits\":[9,", 1);
        let keep = lines[1].len() / 2;
        lines[1].truncate(keep);
        let extra = Cache::new();
        extra.get_or_compute("extra", 3, || 7.0);
        let extra_path = dir.join("extra.jsonl");
        extra.save_jsonl(&extra_path).unwrap();
        lines.push(std::fs::read_to_string(&extra_path).unwrap().trim().into());
        std::fs::write(&path, lines.join("\n")).unwrap();

        let expected = LoadReport {
            loaded: 1,
            superseded: 0,
            quarantined: 2,
            canonical: None,
        };
        // The lenient load counts the damage and writes nothing...
        let lenient = Cache::new();
        assert_eq!(lenient.load_jsonl_lenient(&path).unwrap(), expected);
        assert!(!quarantine_path(&path).exists());
        // ...the merge moves it to the sidecar.
        let reloaded = Cache::new();
        assert_eq!(reloaded.merge_jsonl(&path).unwrap(), expected);
        assert_eq!(reloaded.get_or_compute("extra", 3, || -1.0), 7.0);
        let sidecar = std::fs::read_to_string(quarantine_path(&path)).unwrap();
        assert_eq!(sidecar.lines().count(), 2, "both damaged lines kept");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(quarantine_path(&path)).ok();
        std::fs::remove_file(&extra_path).ok();
    }

    #[test]
    fn duplicate_entries_supersede_in_order_and_compact_on_save() {
        let dir = std::env::temp_dir().join(format!("subvt-cache-d-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dupes.jsonl");
        // Build a file with the same (ns, key) three times by
        // concatenating saves with different values.
        let mut text = String::new();
        for v in [1.0, 2.0, 3.0] {
            let c = Cache::new();
            c.get_or_compute("dup", 9, move || v);
            let p = dir.join("one.jsonl");
            c.save_jsonl(&p).unwrap();
            text.push_str(&std::fs::read_to_string(&p).unwrap());
            std::fs::remove_file(&p).ok();
        }
        std::fs::write(&path, &text).unwrap();

        let cache = Cache::new();
        let report = cache.load_jsonl_lenient(&path).unwrap();
        assert_eq!(
            report,
            LoadReport {
                loaded: 1,
                superseded: 2,
                quarantined: 0,
                canonical: None,
            }
        );
        // Last line wins.
        assert_eq!(cache.get_or_compute("dup", 9, || -1.0), 3.0);
        // A clean save compacts the file back to one line.
        assert_eq!(cache.save_jsonl(&path).unwrap(), 1);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_adds_missing_entries_and_keeps_those_in_memory() {
        let dir = std::env::temp_dir().join(format!("subvt-cache-m-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merge.jsonl");
        let disk = Cache::new();
        disk.get_or_compute("m", 1, || 1.0);
        disk.get_or_compute("m", 2, || 2.0);
        disk.save_jsonl(&path).unwrap();

        let cache = Cache::new();
        cache.get_or_compute("m", 1, || -1.0);
        let report = cache.merge_jsonl(&path).unwrap();
        assert_eq!(
            report,
            LoadReport {
                loaded: 1,
                superseded: 0,
                quarantined: 0,
                canonical: Some(2),
            }
        );
        assert_eq!(cache.peek("m", 1), Some(vec![-1.0]), "memory wins");
        assert_eq!(cache.peek("m", 2), Some(vec![2.0]), "missing entry added");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_lines_without_crc_still_load() {
        let dir = std::env::temp_dir().join(format!("subvt-cache-l-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.jsonl");
        let bits = 2.5f64.to_bits();
        std::fs::write(
            &path,
            format!("{{\"ns\":\"old\",\"key\":\"000000000000000a\",\"bits\":[{bits}]}}\n"),
        )
        .unwrap();
        let cache = Cache::new();
        let report = cache.load_jsonl_lenient(&path).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.canonical, None, "a save would add the crc");
        assert_eq!(cache.get_or_compute("old", 10, || -1.0), 2.5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lookup_outcomes_distinguish_compute_hit_and_coalesce() {
        let cache = Arc::new(Cache::new());
        let (r, how) = cache
            .try_get_or_compute_outcome("outc", 1, || Ok::<f64, std::convert::Infallible>(2.0));
        assert_eq!((r.unwrap(), how), (2.0, Lookup::Computed));
        let (r, how) = cache
            .try_get_or_compute_outcome("outc", 1, || Ok::<f64, std::convert::Infallible>(-1.0));
        assert_eq!((r.unwrap(), how), (2.0, Lookup::Hit));

        // Coalesced: a second thread arrives while the first computes.
        let started = Arc::new(std::sync::Barrier::new(2));
        let c2 = Arc::clone(&cache);
        let s2 = Arc::clone(&started);
        let waiter = std::thread::spawn(move || {
            s2.wait();
            // Give the computer time to take the in-flight slot.
            std::thread::sleep(std::time::Duration::from_millis(20));
            c2.try_get_or_compute_outcome("outc", 2, || Ok::<f64, std::convert::Infallible>(-1.0))
        });
        let (r, how) = cache.try_get_or_compute_outcome("outc", 2, || {
            started.wait();
            std::thread::sleep(std::time::Duration::from_millis(80));
            Ok::<f64, std::convert::Infallible>(5.0)
        });
        assert_eq!((r.unwrap(), how), (5.0, Lookup::Computed));
        let (r, how) = waiter.join().unwrap();
        assert_eq!(r.unwrap(), 5.0);
        assert_eq!(how, Lookup::Coalesced, "waiter must report coalescing");
    }

    #[test]
    fn flush_publishes_stats_as_counters() {
        let cache = Cache::new();
        cache.get_or_compute("flushns", 1, || 1.0);
        let _: f64 = cache.get_or_compute("flushns", 1, || unreachable!("hit"));
        let tracer = trace::Tracer::new();
        cache.flush_stats_into(&tracer);
        assert_eq!(tracer.counter("cache.flushns.hit"), 1);
        assert_eq!(tracer.counter("cache.flushns.miss"), 1);
        assert_eq!(tracer.counter("cache.hit"), 1);
        assert_eq!(tracer.counter("cache.miss"), 1);
    }

    #[test]
    fn lookups_record_latency_histograms() {
        let cache = Cache::new();
        cache.get_or_compute("latns", 2, || 1.0);
        let _: f64 = cache.get_or_compute("latns", 2, || unreachable!("hit"));
        let snap = trace::global().snapshot();
        let h = snap
            .hists
            .get("cache.latns.lookup_us")
            .expect("lookup latency histogram");
        assert!(h.count >= 2);
        assert_eq!(h.counts.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn stale_blob_schema_recomputes() {
        let cache = Cache::new();
        // Store a 2-element record, then read it as a scalar (f64::decode
        // rejects len != 1) — must fall back to compute.
        cache.get_or_compute("t", 3, || vec![1.0, 2.0]);
        let v: f64 = cache.get_or_compute("t", 3, || 9.0);
        assert_eq!(v, 9.0);
    }

    #[test]
    fn poisoned_lock_is_recovered_not_propagated() {
        let cache = Arc::new(Cache::new());
        cache.get_or_compute("poison", 1, || 5.0);
        // Panic while holding the inner lock — the classic poisoning
        // scenario a panicked compute thread used to cause.
        let c2 = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = c2.inner.lock().unwrap();
            panic!("die holding the cache lock");
        })
        .join();
        assert!(cache.inner.is_poisoned(), "setup must have poisoned");
        // Every later access recovers instead of cascading the panic.
        assert_eq!(cache.get_or_compute("poison", 1, || -1.0), 5.0);
        assert_eq!(cache.get_or_compute("poison", 2, || 6.0), 6.0);
        assert_eq!(cache.len(), 2);
        assert!(cache.stats().hits >= 1);
    }

    struct PanickingEncode;
    impl Blob for PanickingEncode {
        fn encode(&self) -> Vec<f64> {
            panic!("encode died");
        }
        fn decode(_record: &[f64]) -> Option<Self> {
            Some(PanickingEncode)
        }
    }

    #[test]
    fn panic_in_encode_clears_slot_and_leaves_cache_usable() {
        let cache = Cache::new();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute("enc", 4, || PanickingEncode)
        }));
        assert!(attempt.is_err());
        // encode ran inside the guarded region: no lock was held, the
        // in-flight slot was cleared, and the key is computable again.
        assert_eq!(cache.get_or_compute("enc", 4, || 8.0), 8.0);
    }

    #[test]
    fn persist_hook_fires_for_computes_only() {
        let cache = Cache::new();
        type Seen = Vec<(String, u64, Vec<f64>)>;
        let seen: Arc<Mutex<Seen>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        cache.set_persist(Some(Arc::new(move |ns: &str, key: u64, bits: &[f64]| {
            sink.lock()
                .unwrap()
                .push((ns.to_owned(), key, bits.to_vec()));
        })));
        cache.get_or_compute("ph", 7, || vec![1.0, 2.0]);
        let _: Vec<f64> = cache.get_or_compute("ph", 7, || unreachable!("hit"));
        cache.set_persist(None);
        cache.get_or_compute("ph", 8, || 3.0);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1, "hook fires once: compute yes, hit no");
        assert_eq!(seen[0], ("ph".to_owned(), 7, vec![1.0, 2.0]));
    }
}
