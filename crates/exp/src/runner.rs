//! Experiment registry and dispatch for the `repro` binary.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::context::Study;
use crate::table::Table;
use crate::{extensions, figs_circuit, figs_compare, figs_device, tables};

/// A structured record of an experiment that failed to produce its
/// table — the degradation unit for `repro --keep-going`, reported in
/// the manifest's `failures` block instead of aborting the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureFailure {
    /// Experiment id (e.g. `fig4`).
    pub id: String,
    /// Panic payload or error message.
    pub message: String,
}

impl core::fmt::Display for FigureFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "experiment `{}` failed: {}", self.id, self.message)
    }
}

/// All experiment identifiers in paper order.
pub const ALL_EXPERIMENTS: [&str; 14] = [
    "table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12",
];

/// Extension studies beyond the paper's artefacts (run with `repro ext`
/// or by id).
pub const EXTENSION_EXPERIMENTS: [&str; 9] = [
    "ext-temperature",
    "ext-oxide",
    "ext-sram",
    "ext-variability",
    "ext-gates",
    "ext-backends",
    "ext-ringosc",
    "ext-temp",
    "montecarlo",
];

impl Study {
    /// Runs one experiment by id under this study. Returns `None` for an
    /// unknown id.
    ///
    /// Experiments that need device designs recall them through the
    /// engine's `design` cache (see [`Study::context`]) — the first
    /// consumer pays for the flows, every later one is a recorded cache
    /// hit. Each registered experiment records an `experiment.<id>`
    /// trace span.
    pub fn run(&self, id: &str) -> Option<Table> {
        let ctx = || {
            self.context()
                .expect("design flows failed on roadmap inputs")
        };
        let _span = subvt_engine::trace::span(format!("experiment.{id}"))
            .attr("backend", self.model().cache_id())
            .attr("circuit_backend", self.circuit.instance().cache_id());
        Some(match id {
            "table1" => tables::table1(),
            "table2" => tables::table2(&ctx()),
            "table3" => tables::table3(&ctx()),
            "fig2" => figs_device::fig2(&ctx()),
            "fig3" => figs_device::fig3(&ctx()),
            "fig4" => figs_circuit::fig4(&ctx()),
            "fig5" => figs_circuit::fig5(&ctx()),
            "fig6" => figs_circuit::fig6(&ctx()),
            "fig7" => figs_device::fig7(self),
            "fig8" => figs_device::fig8(self),
            "fig9" => figs_device::fig9(&ctx()),
            "fig10" => figs_compare::fig10(&ctx()),
            "fig11" => figs_compare::fig11(&ctx()),
            "fig12" => figs_compare::fig12(&ctx()),
            "ext-temperature" => extensions::ext_temperature(self),
            "ext-oxide" => extensions::ext_oxide_scaling(self),
            "ext-sram" => extensions::ext_sram(&ctx()),
            "ext-variability" => extensions::ext_variability(&ctx()),
            "ext-gates" => extensions::ext_gates(&ctx()),
            "ext-backends" => extensions::ext_backends(),
            "ext-ringosc" => extensions::ext_ringosc(&ctx()),
            "ext-temp" => extensions::ext_temp(&ctx()),
            "montecarlo" => extensions::montecarlo(&ctx()),
            _ => return None,
        })
    }

    /// Runs one experiment with panic isolation: a panicking experiment
    /// (diverged solver, poisoned expectation, injected fault) becomes a
    /// [`FigureFailure`] instead of tearing down the whole sweep. Returns
    /// `None` for an unknown id, like [`Study::run`].
    ///
    /// The experiment body runs under `catch_unwind`; the registry
    /// closure holds no shared mutable state beyond the engine's own
    /// panic-safe caches, so unwinding cannot leave it inconsistent.
    pub fn run_guarded(&self, id: &str) -> Option<Result<Table, FigureFailure>> {
        if !ALL_EXPERIMENTS.contains(&id) && !EXTENSION_EXPERIMENTS.contains(&id) {
            return None;
        }
        // The fault-injection job-panic site lives here: each guarded
        // experiment is one "job", so `SUBVT_FAULTS=...,p_panic=...`
        // chaos runs exercise exactly this isolation boundary. Unarmed
        // (the default), `panic_point` is a no-op.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            subvt_engine::faultinject::panic_point();
            self.run(id).expect("registered experiment dispatches")
        }));
        Some(outcome.map_err(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            subvt_engine::trace::global().add("repro.figure_failures", 1);
            FigureFailure {
                id: id.to_owned(),
                message,
            }
        }))
    }

    /// Runs every experiment in paper order, concurrently on the engine
    /// pool. Results are returned in registry order and are identical to
    /// a serial `ALL_EXPERIMENTS.iter().map(|id| study.run(id))` loop:
    /// every experiment is a deterministic pure function of the study
    /// and its (cached) context.
    pub fn run_all(&self) -> Vec<Table> {
        let _span = subvt_engine::trace::span("runner.run_all");
        let study = *self;
        subvt_engine::global().map(ALL_EXPERIMENTS.to_vec(), move |id| {
            study.run(id).expect("registered experiment")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_rejects_unknown() {
        assert!(Study::default().run("fig99").is_none());
    }

    #[test]
    fn cheap_experiments_run() {
        // table1 needs no designs; smoke-test the dispatch path.
        let t = Study::default().run("table1").unwrap();
        assert_eq!(t.rows.len(), 6);
    }

    #[test]
    fn extension_registry_dispatches() {
        for id in EXTENSION_EXPERIMENTS {
            // Only check the cheap ones here (context-heavy extensions are
            // exercised by the extensions module's own tests).
            if id == "ext-temperature" {
                assert!(Study::default().run(id).is_some());
            }
        }
    }

    #[test]
    fn run_guarded_reports_unknown_and_catches_panics() {
        let study = Study::default();
        assert!(study.run_guarded("fig99").is_none());
        // table1 is cheap and infallible.
        let ok = study.run_guarded("table1").unwrap();
        assert!(ok.is_ok());
    }

    #[test]
    fn registry_is_complete() {
        assert_eq!(ALL_EXPERIMENTS.len(), 14);
        // Extensions: Ext A-H plus the backend-routed Monte Carlo.
        assert_eq!(EXTENSION_EXPERIMENTS.len(), 9);
        assert!(EXTENSION_EXPERIMENTS.contains(&"montecarlo"));
        // 3 tables + 11 figures (Fig. 2 through Fig. 12).
        assert_eq!(
            ALL_EXPERIMENTS
                .iter()
                .filter(|s| s.starts_with("table"))
                .count(),
            3
        );
        assert_eq!(
            ALL_EXPERIMENTS
                .iter()
                .filter(|s| s.starts_with("fig"))
                .count(),
            11
        );
    }
}
