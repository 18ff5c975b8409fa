//! Sweep execution engine for the `subvt` workspace.
//!
//! Every artefact in the paper — the Table 2/3 design searches and the
//! Fig. 2–12 device and circuit sweeps — is an embarrassingly parallel
//! sweep over device designs and bias points. This crate provides the
//! three pieces the experiment stack runs on, using only `std`:
//!
//! * [`executor`]: a work-stealing thread pool for sweep/DAG jobs with
//!   panic-safe [`executor::JobHandle`]s and an order-preserving
//!   [`Executor::map`]. Worker threads that block joining sub-jobs help
//!   drain their own local queue, so nested fan-out (an experiment that
//!   spawns a design flow that spawns per-node searches) cannot
//!   deadlock, even on a single-worker pool.
//! * [`cache`]: a content-addressed result cache. Keys are stable
//!   64-bit hashes built with [`KeyBuilder`]; values are numeric blobs
//!   ([`cache::Blob`]) so identical TCAD extractions and design flows
//!   are computed once per process — and, with JSON-lines persistence,
//!   once per machine. Concurrent misses of the same key are
//!   single-flighted.
//! * [`trace`]: a hierarchical tracing and metrics layer — attributed
//!   spans with parent links (propagated across the executor), counters,
//!   gauges and fixed-bucket histograms, with JSON-lines (schema v2) and
//!   Chrome trace-event sinks. Cache statistics are flushed into drained
//!   traces automatically.
//!
//! A fault-tolerance layer rides on top (DESIGN.md §7): [`supervisor`]
//! retries/quarantines panicking or overrunning jobs, [`recovery`]
//! records the typed ladder rungs solvers climb on non-convergence,
//! [`rng`] hosts the deterministic SplitMix64 streams, and
//! [`faultinject`] is the seeded chaos harness that drives the
//! `integration_chaos` suite. All of it is pay-for-use: with no fault
//! plan armed and no failures, runs are byte-identical to a build
//! without the layer.
//!
//! Above the single process, [`fleet`] plans deterministic key-range
//! shards of a sweep matrix and supervises N worker processes over the
//! segmented shared cache ([`cache::seg`]): per-worker append-only
//! JSONL segments claimed by lease files, crash reclaim through the
//! same CRC/quarantine path, and compaction back to one canonical
//! file (DESIGN.md §10).
//!
//! [`cli`] reads the command lines of the workspace's binaries: flag
//! values, `--jobs` and the trace file.
//!
//! The process-wide instances used by the experiment harness are
//! [`global`] (sized by [`configure_jobs`], the `SUBVT_JOBS`
//! environment variable, or the machine's parallelism) and
//! [`global_cache`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod clock;
pub mod executor;
pub mod faultinject;
pub mod fleet;
pub mod hash;
pub mod json;
pub mod recovery;
pub mod rng;
pub mod supervisor;
pub mod trace;

pub use cache::{Blob, Cache, CacheStats, Lookup};
pub use executor::{Executor, JobHandle, JobPanic};
pub use faultinject::{FaultPlan, FaultSite};
pub use fleet::{FleetPolicy, FleetReport, Shard, ShardStrategy};
pub use hash::{KeyBuilder, Keyed};
pub use recovery::{RecoveryRecord, RecoveryStep};
pub use supervisor::{JobError, RetryPolicy, Supervisor};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static GLOBAL: OnceLock<Executor> = OnceLock::new();
static GLOBAL_CACHE: OnceLock<Cache> = OnceLock::new();
static REQUESTED_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Requests a worker count for the process-wide executor. Returns
/// `false` (and changes nothing) once [`global`] has already been
/// built. Call this early — e.g. from CLI flag parsing.
pub fn configure_jobs(jobs: usize) -> bool {
    if GLOBAL.get().is_some() {
        return false;
    }
    REQUESTED_JOBS.store(jobs.max(1), Ordering::SeqCst);
    GLOBAL.get().is_none()
}

/// Worker count the process-wide executor will use (or uses): the
/// [`configure_jobs`] request, else `SUBVT_JOBS`, else the machine's
/// available parallelism.
pub fn default_jobs() -> usize {
    let requested = REQUESTED_JOBS.load(Ordering::SeqCst);
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("SUBVT_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide executor, built on first use.
pub fn global() -> &'static Executor {
    GLOBAL.get_or_init(|| Executor::new(default_jobs()))
}

/// The process-wide result cache, built empty on first use. Its
/// hit/miss statistics are flushed into [`trace::global`] whenever a
/// trace is drained, so `--trace` output always carries
/// `cache.<ns>.hit`/`cache.<ns>.miss` counters.
pub fn global_cache() -> &'static Cache {
    GLOBAL_CACHE.get_or_init(|| {
        trace::global().register_flush(|tracer| {
            // `get()` rather than `expect`: a drain racing this
            // `get_or_init` could fire before the OnceLock is set.
            if let Some(cache) = GLOBAL_CACHE.get() {
                cache.flush_stats_into(tracer);
            }
        });
        Cache::new()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_executor_is_singleton() {
        let a = global() as *const _;
        let b = global() as *const _;
        assert_eq!(a, b);
        assert!(global().workers() >= 1);
    }

    #[test]
    fn global_cache_is_singleton() {
        let a = global_cache() as *const _;
        let b = global_cache() as *const _;
        assert_eq!(a, b);
    }
}
