//! Host-speed references: fixed work owned by this package, timed next
//! to every measured operation so that end-to-end times can be reported
//! at a stated reference speed.
//!
//! The host the benchmark was written on shares its two vCPUs with other
//! tenants, and the speed of a fixed CPU loop there moves by up to 1.7×
//! within minutes (README, *Host noise*). Process CPU time moves with
//! wall time, so the slowdown is in the CPU, and no statistic of raw wall
//! time taken over a 20-second run stays within a 25 % bound from one set
//! of runs to the next. The references below slow down with the host but
//! never with a change to the program, so an operation's time divided by
//! the reference time next to it measures the program, not the host.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::procs::{self, Bins};
use crate::stats::median;

/// Wall time of one [`compute_ms`] pass on the reference host, ms.
/// Scaled times read as if the host ran the reference at this speed.
pub const COMPUTE_NOMINAL_MS: f64 = 3.5;

/// Spawn-to-exit time of the `noop` worker on the reference host, ms.
pub const SPAWN_NOMINAL_MS: f64 = 1.5;

/// Chunks of [`kernel`] work in one [`compute_ms`] pass.
const CHUNKS: usize = 16;

/// [`compute_ms`] passes per reference; their median is used.
const PASSES: usize = 3;

/// One pass of the compute reference, wall ms: [`CHUNKS`] chunks of fixed
/// work shared out to one thread per core as each thread frees up, the
/// way the programs' executors share work.
///
/// Each chunk runs the same mix as the programs' hot paths: a dense
/// pivoted LU (the SPICE and TCAD solvers), `exp`/`ln` evaluations (the
/// device equations) and a sort plus hash-map fold (caches and tables).
fn compute_ms() -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let chunk = next.fetch_add(1, Ordering::Relaxed);
                if chunk >= CHUNKS {
                    return;
                }
                black_box(kernel(chunk));
            });
        }
    });
    started.elapsed().as_secs_f64() * 1e3
}

/// A time as measured and scaled to the reference host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scaled {
    /// As measured.
    pub raw: f64,
    /// Times the reference's nominal over its measured time.
    pub scaled: f64,
}

/// Compute references taken on both sides of each measured stretch of
/// time.
#[derive(Debug)]
pub struct Bracket {
    before: f64,
}

impl Bracket {
    /// Takes the reference that opens the first stretch.
    pub fn start() -> Bracket {
        Bracket {
            before: reference_ms(),
        }
    }

    /// Takes the reference that closes the stretch just measured (and
    /// opens the next one), and returns the factor that scales the
    /// stretch's times to the reference host: the nominal reference time
    /// over the mean of the two measured ones.
    pub fn close(&mut self) -> f64 {
        let after = reference_ms();
        let factor = COMPUTE_NOMINAL_MS * 2.0 / (self.before + after);
        self.before = after;
        factor
    }
}

/// The median of [`PASSES`] [`compute_ms`] passes.
fn reference_ms() -> f64 {
    median(&(0..PASSES).map(|_| compute_ms()).collect::<Vec<_>>())
}

/// Spawn-to-exit time of the `noop` worker run in `dir`, ms: process
/// creation, loading and exit with no work.
///
/// # Errors
///
/// When the worker cannot be run.
pub fn spawn_ms(bins: &Bins, dir: &Path) -> Result<f64, String> {
    let ran = procs::run(
        procs::command(&bins.worker, dir).arg("noop"),
        &dir.join("noop-stderr.txt"),
    )?;
    Ok(ran.elapsed.as_secs_f64() * 1e3)
}

/// One chunk of fixed work; `salt` only varies the data.
fn kernel(salt: usize) -> f64 {
    const N: usize = 32;
    let mut acc = 0.0;
    for rep in 0..3 {
        let mut a: Vec<f64> = (0..N * N)
            .map(|k| {
                let v = ((k * 7919 + rep + salt) % 1013) as f64 / 1013.0;
                if k % (N + 1) == 0 {
                    v + N as f64
                } else {
                    v
                }
            })
            .collect();
        for k in 0..N {
            let p = (k..N)
                .max_by(|&i, &j| a[i * N + k].abs().total_cmp(&a[j * N + k].abs()))
                .unwrap_or(k);
            if p != k {
                for j in 0..N {
                    a.swap(k * N + j, p * N + j);
                }
            }
            let d = a[k * N + k];
            for i in k + 1..N {
                let f = a[i * N + k] / d;
                for j in k..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
            }
        }
        acc += black_box(&a)[N * N - 1];
    }
    for i in 0..7_500 {
        let x = ((i + salt) % 997) as f64 * 0.01;
        acc += (x * 0.3).exp().ln_1p() / (1.0 + x.sqrt());
    }
    let mut v: Vec<u64> = (0..1_500u64)
        .map(|i| (i ^ salt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 7))
        .collect();
    v.sort_unstable();
    let mut buckets = std::collections::HashMap::new();
    for (i, x) in v.iter().enumerate() {
        *buckets.entry(x % 4093).or_insert(0u64) += i as u64;
    }
    acc + buckets.values().sum::<u64>() as f64
}
