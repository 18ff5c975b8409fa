//! Characterization-as-a-service for the `subvt` stack.
//!
//! The one-shot `repro` CLI answers "regenerate figure N"; this crate
//! answers the interactive question — "what is the FO1 delay of the
//! 45 nm sub-V_th design at 300 mV?" — without paying process startup,
//! design-flow, or TCAD-anchor cost per question. `subvt-serve` is a
//! std-only daemon speaking newline-framed JSON over TCP (plus a
//! minimal HTTP/1.1 shim for `GET /metrics` and `GET /healthz`) that
//! exposes device characterization (I_d–V_gs sweeps, extracted
//! subthreshold parameters, per-node device models) and circuit-metric
//! queries (VTC, SNM, FO1 delay, chain energy, minimum-energy point)
//! across the `analytic|tcad` device and `analytic|spice` circuit
//! backends — see DESIGN.md §8.
//!
//! The serving pipeline, in request order:
//!
//! * **Admission control** ([`admission`]): a bounded queue between
//!   connection threads and the worker pool. A full queue rejects with
//!   a typed `overloaded` error immediately — clients never hang on an
//!   unbounded backlog.
//! * **Request dedup** ([`query`] keys + the engine cache): identical
//!   requests share one cache key in the `serve.resp` namespace, so N
//!   concurrent identical requests are computed exactly once (the
//!   engine's single-flight in-flight slot) and answered N times.
//! * **Supervision** ([`server`]): each worker pops one request at a
//!   time and runs its compute under [`subvt_engine::Supervisor`] with
//!   a per-request deadline; a panicking (poison) request is
//!   quarantined and subsequently refused with a typed error while the
//!   server keeps serving.
//! * **Observability** ([`observatory`], [`accesslog`]): queue depth,
//!   in-flight gauge, dedup counters and per-endpoint latency
//!   histograms land in the engine's metrics registry and are exported
//!   through `GET /metrics` as conformant Prometheus text, alongside
//!   rolling-window (last N seconds) latency quantiles and `--slo`
//!   error-budget burn rates. Each request runs under a per-request
//!   span tree (`serve.request` → `admission`/`dedup`/`compute`/
//!   `serialize`) that parents onto the client's span when the request
//!   carries wire trace context ([`proto::TraceContext`]), and
//!   `--access-log` appends one structured JSONL line per request.
//!
//! Graceful shutdown (SIGTERM / ctrl-c / the `shutdown` method) stops
//! accepting, rejects still-queued and new work with `shutting_down`,
//! drains in-flight computes bounded by the request deadline, and
//! compacts the persistent cache before exit.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod accesslog;
pub mod admission;
pub mod client;
pub mod observatory;
pub mod proto;
pub mod query;
pub mod server;
pub mod signal;

pub use client::{Client, Response};
pub use observatory::SloRule;
pub use proto::ErrorCode;
pub use query::Query;
pub use server::{Config, Server};
