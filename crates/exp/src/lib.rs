//! Experiment harness reproducing every table and figure of
//! *"Nanometer Device Scaling in Subthreshold Circuits"* (DAC 2007).
//!
//! Each experiment module regenerates one of the paper's result
//! artefacts from the `subvt` stack (device physics → scaling flows →
//! circuit simulation) and renders it as an aligned text table or CSV.
//! The `repro` binary drives them:
//!
//! ```text
//! repro all            # every table and figure, paper order
//! repro table2 fig6    # a subset
//! repro --csv fig2     # CSV to stdout
//! ```
//!
//! Paper-vs-measured comparisons for every experiment are recorded in
//! the repository's `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cachefile;
pub mod codec;
pub mod context;
pub mod extensions;
pub mod figs_circuit;
pub mod figs_compare;
pub mod figs_device;
pub mod report;
pub mod runner;
pub mod table;
pub mod tables;
pub mod tracefmt;

pub use backend::run;
pub use cachefile::CacheSession;
pub use context::{Study, StudyContext};
pub use runner::{is_experiment, FigureFailure, RunError, ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS};
pub use table::Table;
