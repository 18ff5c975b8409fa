//! Multi-process sweep fleet: deterministic shard planning and
//! crash-tolerant worker supervision.
//!
//! The fleet layer turns one sweep matrix into N worker processes over
//! the segmented shared cache (see [`crate::cache::seg`]). It owns two
//! concerns and nothing else:
//!
//! * **Planning** — [`plan`] partitions experiment ids into per-worker
//!   shards. The default [`ShardStrategy::KeyRange`] hashes each id
//!   with the same stable [`crate::KeyBuilder`] scheme the cache uses
//!   and splits the u64 key space into equal contiguous ranges, so the
//!   assignment is a pure function of `(id, workers)`: independent of
//!   argument order, stable across runs and machines, and duplicate
//!   ids always co-locate. [`ShardStrategy::RoundRobin`] deals ids in
//!   order for workloads whose cost is uniform.
//! * **Supervision** — [`supervise`] runs one child process per
//!   non-empty shard and applies the same retry/deadline ladder the
//!   in-process [`crate::supervisor`] applies to jobs: an abnormal
//!   exit (signal, or non-zero status before the shard finished)
//!   re-runs the shard up to `max_attempts`, a deadline overrun kills
//!   and re-runs, and a shard that exhausts its attempts is reported
//!   failed (quarantined) rather than wedging the fleet.
//!
//! Determinism note: a re-run shard recomputes exactly the same
//! content-addressed entries its dead predecessor was computing, so
//! crash-and-retry cannot change results — only how many times they
//! were computed. The byte-identity of fleet output to a
//! single-process run rests on that plus the cache's sorted,
//! CRC'd persistence.

use std::io;
use std::process::Child;
use std::time::{Duration, Instant};

use crate::trace;

/// The stable shard key for an experiment id.
pub fn shard_key(id: &str) -> u64 {
    crate::KeyBuilder::new("fleet.shard").str(id).finish()
}

/// How [`plan`] assigns ids to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Hash each id and split the u64 key space into `workers` equal
    /// contiguous ranges (default; order-independent and stable).
    KeyRange,
    /// Deal ids to workers in argument order (`i % workers`).
    RoundRobin,
}

impl std::str::FromStr for ShardStrategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "key-range" => Ok(Self::KeyRange),
            "round-robin" => Ok(Self::RoundRobin),
            other => Err(format!(
                "unknown shard strategy '{other}' (expected key-range|round-robin)"
            )),
        }
    }
}

impl std::fmt::Display for ShardStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::KeyRange => "key-range",
            Self::RoundRobin => "round-robin",
        })
    }
}

/// One worker's slice of the sweep matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Worker index (also the segment name the worker claims).
    pub index: usize,
    /// Experiment ids assigned to this shard, in original order.
    pub ids: Vec<String>,
    /// Inclusive low end of the covered key range (key-range only).
    pub key_lo: u64,
    /// Inclusive high end of the covered key range (key-range only).
    pub key_hi: u64,
}

/// Partitions `ids` into `workers` shards. Every id lands in exactly
/// one shard; shards may be empty (the driver skips spawning those).
pub fn plan(ids: &[String], workers: usize, strategy: ShardStrategy) -> Vec<Shard> {
    let workers = workers.max(1);
    // Equal contiguous ranges over the full u64 space, computed in
    // u128 so the last range's top end is exact.
    let span = 1u128 << 64;
    let width = span.div_ceil(workers as u128);
    let mut shards: Vec<Shard> = (0..workers)
        .map(|index| {
            let lo = (index as u128) * width;
            let hi = (lo + width).min(span) - 1;
            Shard {
                index,
                ids: Vec::new(),
                key_lo: lo as u64,
                key_hi: hi as u64,
            }
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let w = match strategy {
            ShardStrategy::KeyRange => ((shard_key(id) as u128) / width) as usize,
            ShardStrategy::RoundRobin => i % workers,
        };
        shards[w].ids.push(id.clone());
    }
    shards
}

/// Retry/deadline policy for shard processes — the process-level
/// mirror of [`crate::supervisor::Policy`].
#[derive(Debug, Clone, Copy)]
pub struct FleetPolicy {
    /// Total attempts per shard (first run + retries).
    pub max_attempts: u32,
    /// Wall-clock budget per attempt; overrun kills the worker and
    /// counts as a crash.
    pub deadline: Option<Duration>,
    /// Poll interval for child status.
    pub poll: Duration,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            deadline: None,
            poll: Duration::from_millis(25),
        }
    }
}

/// Outcome of one shard across all its attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRun {
    /// The shard's worker index.
    pub index: usize,
    /// Attempts consumed (1 = clean first run).
    pub attempts: u32,
    /// True when every attempt crashed and the shard was given up on.
    pub failed: bool,
    /// Crash reasons observed, in order (empty on a clean run).
    pub crashes: Vec<String>,
}

/// Aggregate supervision outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Per-shard outcomes, indexed like the input shards.
    pub runs: Vec<ShardRun>,
    /// Total worker restarts across the fleet.
    pub restarts: u32,
    /// Shards that exhausted their attempts.
    pub failed: usize,
}

/// Why a worker attempt was declared dead.
fn crash_reason(status: std::process::ExitStatus) -> String {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return format!("signal {sig}");
        }
    }
    match status.code() {
        Some(code) => format!("exit code {code}"),
        None => "unknown exit".to_owned(),
    }
}

/// Runs one child process per non-empty shard and supervises the set:
/// abnormal exits re-run the shard (fresh spawn, same shard) up to
/// `policy.max_attempts`; deadline overruns kill and re-run; exhausted
/// shards are marked failed. `spawn(shard, attempt)` launches one
/// attempt; `finished(shard)`, asked after a non-zero exit, says the
/// attempt completed its shard anyway (a worker that reports failed
/// ids exits non-zero, and a re-run would fail them again), so the exit
/// is the shard's result, not a crash; `on_crash(shard, reason)` runs
/// after each abnormal exit, *before* the respawn — the fleet driver
/// uses it to scrub the dead worker's segment tail.
///
/// Publishes `fleet.restarts` and `fleet.shards_failed` counters.
///
/// # Errors
///
/// Propagates spawn errors; child exit statuses (of any kind) are
/// handled, not errors.
pub fn supervise(
    shards: &[Shard],
    policy: &FleetPolicy,
    mut spawn: impl FnMut(&Shard, u32) -> io::Result<Child>,
    mut finished: impl FnMut(&Shard) -> bool,
    mut on_crash: impl FnMut(&Shard, &str),
) -> io::Result<FleetReport> {
    struct Live<'a> {
        shard: &'a Shard,
        child: Child,
        started: Instant,
        attempt: u32,
        run: usize,
    }
    let mut report = FleetReport::default();
    let mut live: Vec<Live> = Vec::new();
    for shard in shards {
        report.runs.push(ShardRun {
            index: shard.index,
            attempts: 0,
            failed: false,
            crashes: Vec::new(),
        });
        if shard.ids.is_empty() {
            continue;
        }
        let run = report.runs.len() - 1;
        report.runs[run].attempts = 1;
        live.push(Live {
            shard,
            child: spawn(shard, 0)?,
            started: Instant::now(),
            attempt: 0,
            run,
        });
    }
    while !live.is_empty() {
        let mut i = 0;
        while i < live.len() {
            let entry = &mut live[i];
            let mut crashed: Option<String> = None;
            match entry.child.try_wait()? {
                Some(status) if status.success() || finished(entry.shard) => {
                    live.swap_remove(i);
                    continue;
                }
                Some(status) => crashed = Some(crash_reason(status)),
                None => {
                    if let Some(deadline) = policy.deadline {
                        if entry.started.elapsed() > deadline {
                            let _ = entry.child.kill();
                            let _ = entry.child.wait();
                            crashed = Some(format!("deadline {deadline:?} exceeded"));
                        }
                    }
                }
            }
            let Some(reason) = crashed else {
                i += 1;
                continue;
            };
            let entry = live.swap_remove(i);
            report.runs[entry.run].crashes.push(reason.clone());
            on_crash(entry.shard, &reason);
            if entry.attempt + 1 < policy.max_attempts {
                report.restarts += 1;
                trace::add("fleet.restarts", 1);
                report.runs[entry.run].attempts += 1;
                live.push(Live {
                    shard: entry.shard,
                    child: spawn(entry.shard, entry.attempt + 1)?,
                    started: Instant::now(),
                    attempt: entry.attempt + 1,
                    run: entry.run,
                });
            } else {
                report.runs[entry.run].failed = true;
                report.failed += 1;
                trace::add("fleet.shards_failed", 1);
            }
        }
        if !live.is_empty() {
            std::thread::sleep(policy.poll);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn key_range_plan_is_stable_and_order_independent() {
        let a = ids(&["table2", "fig3", "table3", "fig5", "ext-temp"]);
        let mut b = a.clone();
        b.reverse();
        let pa = plan(&a, 3, ShardStrategy::KeyRange);
        let pb = plan(&b, 3, ShardStrategy::KeyRange);
        for (sa, sb) in pa.iter().zip(&pb) {
            let mut xa = sa.ids.clone();
            let mut xb = sb.ids.clone();
            xa.sort();
            xb.sort();
            assert_eq!(xa, xb, "assignment must not depend on argument order");
        }
        // Every id lands in exactly one shard, inside its key range.
        let total: usize = pa.iter().map(|s| s.ids.len()).sum();
        assert_eq!(total, a.len());
        for shard in &pa {
            for id in &shard.ids {
                let k = shard_key(id);
                assert!(k >= shard.key_lo && k <= shard.key_hi);
            }
        }
        // Ranges tile the full key space.
        assert_eq!(pa[0].key_lo, 0);
        assert_eq!(pa.last().unwrap().key_hi, u64::MAX);
        for w in pa.windows(2) {
            assert_eq!(w[0].key_hi.wrapping_add(1), w[1].key_lo);
        }
    }

    #[test]
    fn duplicate_ids_co_locate_under_key_range() {
        let a = ids(&["table2", "fig3", "table2", "table2"]);
        let p = plan(&a, 4, ShardStrategy::KeyRange);
        let holding: Vec<&Shard> = p
            .iter()
            .filter(|s| s.ids.contains(&"table2".into()))
            .collect();
        assert_eq!(holding.len(), 1, "duplicates must land in one shard");
        assert_eq!(holding[0].ids.iter().filter(|i| *i == "table2").count(), 3);
    }

    #[test]
    fn round_robin_deals_in_order() {
        let a = ids(&["a", "b", "c", "d", "e"]);
        let p = plan(&a, 2, ShardStrategy::RoundRobin);
        assert_eq!(p[0].ids, ids(&["a", "c", "e"]));
        assert_eq!(p[1].ids, ids(&["b", "d"]));
    }

    #[test]
    fn one_worker_gets_everything() {
        let a = ids(&["x", "y"]);
        for strategy in [ShardStrategy::KeyRange, ShardStrategy::RoundRobin] {
            let p = plan(&a, 1, strategy);
            assert_eq!(p.len(), 1);
            assert_eq!(p[0].ids, a);
            assert_eq!((p[0].key_lo, p[0].key_hi), (0, u64::MAX));
        }
    }

    #[test]
    fn supervise_restarts_killed_worker_and_reports_clean_fleet() {
        let shards = vec![
            Shard {
                index: 0,
                ids: ids(&["a"]),
                key_lo: 0,
                key_hi: 0,
            },
            Shard {
                index: 1,
                ids: ids(&["b"]),
                key_lo: 0,
                key_hi: 0,
            },
        ];
        let mut crashes = Vec::new();
        let report = supervise(
            &shards,
            &FleetPolicy::default(),
            |shard, attempt| {
                // Shard 0's first attempt SIGKILLs itself; every other
                // attempt exits cleanly.
                let script = if shard.index == 0 && attempt == 0 {
                    "kill -9 $$"
                } else {
                    "exit 0"
                };
                std::process::Command::new("sh")
                    .args(["-c", script])
                    .spawn()
            },
            |_| false,
            |shard, reason| crashes.push((shard.index, reason.to_owned())),
        )
        .unwrap();
        assert_eq!(report.restarts, 1);
        assert_eq!(report.failed, 0);
        assert_eq!(report.runs[0].attempts, 2);
        assert!(!report.runs[0].failed);
        assert_eq!(report.runs[1].attempts, 1);
        assert_eq!(crashes, vec![(0, "signal 9".to_owned())]);
    }

    #[test]
    fn supervise_gives_up_after_max_attempts() {
        let shards = vec![Shard {
            index: 0,
            ids: ids(&["a"]),
            key_lo: 0,
            key_hi: 0,
        }];
        let policy = FleetPolicy {
            max_attempts: 2,
            ..FleetPolicy::default()
        };
        let report = supervise(
            &shards,
            &policy,
            |_, _| {
                std::process::Command::new("sh")
                    .args(["-c", "exit 3"])
                    .spawn()
            },
            |_| false,
            |_, _| {},
        )
        .unwrap();
        assert_eq!(report.failed, 1);
        assert_eq!(report.runs[0].attempts, 2);
        assert!(report.runs[0].failed);
        assert_eq!(report.runs[0].crashes, vec!["exit code 3"; 2]);
    }

    #[test]
    fn a_finished_shard_that_exits_nonzero_is_not_re_run() {
        let shards: Vec<Shard> = (0..2)
            .map(|index| Shard {
                index,
                ids: ids(&["a"]),
                key_lo: 0,
                key_hi: 0,
            })
            .collect();
        // Both workers exit 1; only shard 0 finished (say, it staged a
        // manifest that lists failed ids). Shard 1 died mid-shard.
        let mut crashes = Vec::new();
        let report = supervise(
            &shards,
            &FleetPolicy::default(),
            |_, _| {
                std::process::Command::new("sh")
                    .args(["-c", "exit 1"])
                    .spawn()
            },
            |shard| shard.index == 0,
            |shard, reason| crashes.push((shard.index, reason.to_owned())),
        )
        .unwrap();
        assert_eq!(report.runs[0].attempts, 1);
        assert!(!report.runs[0].failed);
        assert!(report.runs[0].crashes.is_empty());
        assert_eq!(report.runs[1].attempts, 3);
        assert!(report.runs[1].failed);
        assert_eq!((report.restarts, report.failed), (2, 1));
        assert_eq!(crashes, vec![(1, "exit code 1".to_owned()); 3]);
    }

    #[test]
    fn supervise_enforces_deadline() {
        let shards = vec![Shard {
            index: 0,
            ids: ids(&["a"]),
            key_lo: 0,
            key_hi: 0,
        }];
        let policy = FleetPolicy {
            max_attempts: 1,
            deadline: Some(Duration::from_millis(80)),
            poll: Duration::from_millis(10),
        };
        let report = supervise(
            &shards,
            &policy,
            |_, _| std::process::Command::new("sleep").arg("10").spawn(),
            |_| false,
            |_, _| {},
        )
        .unwrap();
        assert_eq!(report.failed, 1);
        assert!(report.runs[0].crashes[0].contains("deadline"));
    }

    #[test]
    fn empty_shards_are_not_spawned() {
        let shards = vec![Shard {
            index: 0,
            ids: Vec::new(),
            key_lo: 0,
            key_hi: u64::MAX,
        }];
        let report = supervise(
            &shards,
            &FleetPolicy::default(),
            |_, _| panic!("empty shard must not spawn"),
            |_| panic!("empty shard must not finish"),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(report.runs[0].attempts, 0);
        assert!(!report.runs[0].failed);
    }

    #[test]
    fn strategy_parses_and_displays() {
        assert_eq!(
            "key-range".parse::<ShardStrategy>().unwrap(),
            ShardStrategy::KeyRange
        );
        assert_eq!(
            "round-robin".parse::<ShardStrategy>().unwrap(),
            ShardStrategy::RoundRobin
        );
        assert!("zigzag".parse::<ShardStrategy>().is_err());
        assert_eq!(ShardStrategy::KeyRange.to_string(), "key-range");
    }
}
