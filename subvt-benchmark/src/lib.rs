//! `subvt-benchmark`: end-to-end and per-layer measurements of the
//! shipped `repro` CLI and `subvt-serve` daemon.
//!
//! The benchmark builds both binaries from the checkout it runs in,
//! drives them from one process with at most two threads and two
//! connections, checks every output, and prints one JSON result line.
//! See `README.md` next to this package for the workloads, metrics and
//! how to read a traced run.

#![warn(missing_docs)]

pub mod batch;
pub mod check;
pub mod compare;
pub mod counters;
pub mod host;
pub mod layers;
pub mod procs;
pub mod report;
pub mod serve;
pub mod stats;
pub mod traced;
pub mod traffic;
pub mod workload;
