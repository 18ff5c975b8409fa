//! Process-default run configuration for the standalone
//! `subvt-benchmark` package, which predates [`Study`].
//!
//! Nothing in this workspace calls these: every program passes its
//! [`Study`] explicitly. They are one-line delegates kept so the
//! benchmark package builds unchanged; delete this module, the free
//! [`crate::run`] re-export and `StudyContext::{compute, compute_with}`
//! once the benchmark takes a `Study` itself.

use std::sync::OnceLock;

use subvt_circuits::backend::CircuitBackendKind;
use subvt_core::strategy::DesignError;
use subvt_model::{Backend, DeviceModel};

use crate::context::{design_context, Study, StudyContext};
use crate::table::Table;

static BACKEND: OnceLock<Backend> = OnceLock::new();
static CIRCUIT: OnceLock<CircuitBackendKind> = OnceLock::new();

/// The process-default study: the configured backends at room
/// temperature.
fn process_default() -> Study {
    Study {
        backend: *BACKEND.get_or_init(Backend::default),
        circuit: *CIRCUIT.get_or_init(CircuitBackendKind::default),
        ..Study::default()
    }
}

/// Sets the process-default device backend. The first selection wins;
/// returns `false` when a *different* backend was already set.
pub fn configure(backend: Backend) -> bool {
    *BACKEND.get_or_init(|| backend) == backend
}

/// Sets the process-default circuit backend. The first selection wins;
/// returns `false` when a *different* backend was already set.
pub fn configure_circuit(kind: CircuitBackendKind) -> bool {
    *CIRCUIT.get_or_init(|| kind) == kind
}

/// The process-default study's device model.
pub fn model() -> &'static dyn DeviceModel {
    process_default().model()
}

/// Runs one experiment under the process-default study; `None` for an
/// unknown id or a failed design flow.
pub fn run(id: &str) -> Option<Table> {
    process_default().run(id).ok()
}

impl StudyContext {
    /// The default [`Study`]'s context.
    ///
    /// # Errors
    ///
    /// Propagates [`DesignError`] from either flow.
    pub fn compute() -> Result<Self, DesignError> {
        Study::default().context()
    }

    /// The process-default study's context with the flows run through
    /// an explicit `model` (the benchmark passes a timing wrapper that
    /// reports the wrapped model's cache id).
    ///
    /// # Errors
    ///
    /// Propagates [`DesignError`] from either flow.
    pub fn compute_with(model: &'static dyn DeviceModel) -> Result<Self, DesignError> {
        design_context(process_default(), model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_is_analytic() {
        // Nothing configures a tcad backend in the test process, so the
        // default must route to the analytic model.
        assert_eq!(model().cache_id(), "analytic");
    }

    #[test]
    fn reconfiguring_same_backend_is_ok() {
        assert!(configure(Backend::Analytic));
        assert!(!configure(Backend::Tcad));
    }

    #[test]
    fn default_circuit_backend_is_analytic() {
        assert_eq!(process_default().circuit, CircuitBackendKind::Analytic);
        assert_eq!(process_default(), Study::default());
    }

    #[test]
    fn reconfiguring_same_circuit_backend_is_ok() {
        assert!(configure_circuit(CircuitBackendKind::Analytic));
        assert!(!configure_circuit(CircuitBackendKind::Spice));
    }
}
