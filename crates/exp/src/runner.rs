//! Experiment registry and dispatch for the `repro` binary.

use subvt_circuits::CircuitError;
use subvt_core::strategy::DesignError;
use subvt_engine::faultinject::{should_inject, FaultSite};
use subvt_model::ModelError;

use crate::context::{Study, StudyContext};
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

/// Why [`Study::run`] produced no table.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The id names no registered experiment.
    UnknownId,
    /// A design flow, or the backend re-characterizing a design, failed.
    Design(DesignError),
    /// The device-model backend failed to characterize a device.
    Model(ModelError),
    /// The circuit backend failed to simulate or measure a circuit.
    Circuit(CircuitError),
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::UnknownId => f.write_str("unknown experiment id"),
            RunError::Design(e) => write!(f, "design flow failed: {e}"),
            RunError::Model(e) => write!(f, "device model failed: {e}"),
            RunError::Circuit(e) => write!(f, "circuit backend failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<DesignError> for RunError {
    fn from(e: DesignError) -> Self {
        RunError::Design(e)
    }
}

impl From<ModelError> for RunError {
    fn from(e: ModelError) -> Self {
        RunError::Model(e)
    }
}

impl From<CircuitError> for RunError {
    fn from(e: CircuitError) -> Self {
        RunError::Circuit(e)
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

/// How one registered experiment runs: on the study alone, or on its
/// designed [`StudyContext`].
enum Experiment {
    /// Reads only the run configuration (no design flows).
    Plain(fn(&Study) -> Result<Table, RunError>),
    /// Reads both design flows through [`Study::context`].
    Designs(fn(&StudyContext) -> Result<Table, RunError>),
}

/// The experiment registry [`Study::run`] dispatches from, and the one
/// place that states which experiments need the design flows.
fn registry(id: &str) -> Option<Experiment> {
    use Experiment::{Designs, Plain};
    Some(match id {
        "table1" => Plain(|_| Ok(tables::table1())),
        "table2" => Designs(|c| Ok(tables::table2(c))),
        "table3" => Designs(|c| Ok(tables::table3(c))),
        "fig2" => Designs(|c| Ok(figs_device::fig2(c)?)),
        "fig3" => Designs(|c| Ok(figs_device::fig3(c)?)),
        "fig4" => Designs(|c| Ok(figs_circuit::fig4(c))),
        "fig5" => Designs(|c| Ok(figs_circuit::fig5(c))),
        "fig6" => Designs(|c| Ok(figs_circuit::fig6(c))),
        "fig7" => Plain(|s| Ok(figs_device::fig7(s))),
        "fig8" => Plain(|s| Ok(figs_device::fig8(s))),
        "fig9" => Designs(|c| Ok(figs_device::fig9(c))),
        "fig10" => Designs(|c| Ok(figs_compare::fig10(c))),
        "fig11" => Designs(|c| Ok(figs_compare::fig11(c))),
        "fig12" => Designs(|c| Ok(figs_compare::fig12(c))),
        "ext-temperature" => Plain(extensions::ext_temperature),
        "ext-oxide" => Plain(extensions::ext_oxide_scaling),
        "ext-sram" => Designs(extensions::ext_sram),
        "ext-variability" => Designs(extensions::ext_variability),
        "ext-gates" => Designs(extensions::ext_gates),
        "ext-backends" => Plain(|_| extensions::ext_backends()),
        "ext-ringosc" => Designs(extensions::ext_ringosc),
        "ext-temp" => Designs(extensions::ext_temp),
        "montecarlo" => Designs(extensions::montecarlo),
        _ => return None,
    })
}

/// Whether `id` names a registered experiment (paper or extension).
pub fn is_experiment(id: &str) -> bool {
    registry(id).is_some()
}

/// Whether `id` names an experiment that reads the design flows.
fn needs_designs(id: &str) -> bool {
    matches!(registry(id), Some(Experiment::Designs(_)))
}

impl Study {
    /// Runs one experiment by id under this study.
    ///
    /// Experiments that need device designs recall them through the
    /// engine's `design` cache (see [`Study::context`]) — the first
    /// consumer pays for the flows, every later one is a recorded cache
    /// hit. Each registered experiment records an `experiment.<id>`
    /// trace span.
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownId`] for an unregistered id, and
    /// [`RunError::Design`] when a design flow or the backend fails.
    pub fn run(&self, id: &str) -> Result<Table, RunError> {
        let _span = subvt_engine::trace::span(format!("experiment.{id}"))
            .attr("backend", self.model().cache_id())
            .attr("circuit_backend", self.circuit.instance().cache_id());
        match registry(id).ok_or(RunError::UnknownId)? {
            Experiment::Plain(run) => run(self),
            Experiment::Designs(run) => run(&self.context()?),
        }
    }

    /// Runs `ids`, one engine-pool job each, and returns their outcomes
    /// in input order. An unknown id fails without running. An
    /// experiment whose run fails ([`RunError`]) or panics (diverged
    /// solver, poisoned expectation, injected fault) fails with a
    /// [`FigureFailure`] and bumps `repro.figure_failures` instead of
    /// tearing down the sweep.
    ///
    /// Every experiment is a deterministic function of the study and its
    /// (cached) context, so the tables equal a serial [`Study::run`]
    /// loop's. The fault-injection job-panic decision is drawn here, on
    /// the calling thread in input order, so a seeded `SUBVT_FAULTS` plan
    /// fails the same ids whatever the pool's scheduling.
    ///
    /// When any id needs the design flows, they are designed here, on the
    /// calling thread, before the fan-out: the two flows then run as two
    /// pool jobs side by side instead of behind whichever experiment asks
    /// first, and every experiment recalls them from the cache. A failed
    /// flow is not cached, so each dependent id still fails with its own
    /// [`FigureFailure`].
    pub fn run_ids<S: AsRef<str>>(&self, ids: &[S]) -> Vec<Result<Table, FigureFailure>> {
        if ids.iter().any(|id| needs_designs(id.as_ref())) {
            let _ = self.context();
        }
        let study = *self;
        let jobs: Vec<_> = ids
            .iter()
            .map(|id| {
                let id = id.as_ref().to_owned();
                let known = is_experiment(&id);
                let inject = known && should_inject(FaultSite::JobPanic);
                let run = id.clone();
                let job = known.then(|| {
                    subvt_engine::global().spawn(move || {
                        if inject {
                            panic!("fault-injected job panic");
                        }
                        study.run(&run).map_err(|e| e.to_string())
                    })
                });
                (id, job)
            })
            .collect();
        jobs.into_iter()
            .map(|(id, job)| {
                let Some(job) = job else {
                    let message = "unknown experiment id".to_owned();
                    return Err(FigureFailure { id, message });
                };
                job.join()
                    .map_err(|panic| panic.message)
                    .and_then(|run| run)
                    .map_err(|message| {
                        subvt_engine::trace::global().add("repro.figure_failures", 1);
                        FigureFailure { id, message }
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_rejects_unknown() {
        assert_eq!(Study::default().run("fig99"), Err(RunError::UnknownId));
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
                assert!(Study::default().run(id).is_ok());
            }
        }
    }

    #[test]
    fn run_ids_reports_unknown_ids_in_input_order() {
        // table1 is cheap and infallible; the unknown id never runs.
        let outcomes = Study::default().run_ids(&["fig99", "table1"]);
        let failure = FigureFailure {
            id: "fig99".to_owned(),
            message: "unknown experiment id".to_owned(),
        };
        assert_eq!(outcomes[0], Err(failure));
        assert_eq!(outcomes[1], Ok(Study::default().run("table1").unwrap()));
        assert_eq!(outcomes.len(), 2);
    }

    #[test]
    fn registry_is_complete() {
        for id in ALL_EXPERIMENTS.iter().chain(&EXTENSION_EXPERIMENTS) {
            assert!(is_experiment(id), "{id} is listed but not registered");
        }
        assert!(needs_designs("table2") && needs_designs("montecarlo"));
        assert!(!needs_designs("table1") && !needs_designs("fig7"));
        assert!(!needs_designs("fig99"));
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
