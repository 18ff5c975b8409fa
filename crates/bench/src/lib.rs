//! Bench-artifact tooling: the [`benchjson`] schema behind the
//! `subvt-bench-diff` trajectory gate, plus `subvt-loadgen`, the
//! daemon's load generator.
//!
//! Per-layer timings of the workspace come from the standalone
//! `subvt-benchmark` package; this crate only reads, stamps and compares
//! the `BENCH_*.json` artifacts that `repro --bench` and `subvt-loadgen`
//! write:
//!
//! ```no_run
//! use subvt_bench::benchjson::{diff, parse_bench, DiffConfig};
//!
//! let read = |path| parse_bench(&std::fs::read_to_string(path).unwrap()).unwrap();
//! let baseline = read("benches/baselines/2026-08-08-spice.json");
//! let current = read("BENCH_spice.json");
//! for regression in diff(&baseline, &current, DiffConfig::default()) {
//!     println!("{regression:?}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchjson;
