//! Typed recovery ladder records.
//!
//! Solvers and the job supervisor escalate through deterministic
//! recovery ladders when a step fails (see DESIGN.md §7). Every rung
//! they climb bumps a `recovery.<site>.<step>` counter on the global
//! tracer, which also stores it as a [`RecoveryRecord`] while it keeps
//! spans (see [`trace::Tracer::set_keep_spans`]), so a run's manifest
//! can report exactly which mitigations fired and whether they worked.
//! A process that writes no span sink stores no records. On the happy
//! path nothing is recorded, keeping fault-free runs byte-identical.

use crate::trace;

/// One rung of a recovery ladder. The discriminants span both solver
/// stacks and the executor supervisor; each site only uses the subset
/// that makes sense for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStep {
    /// Re-run the identical numerical path (clears transient faults
    /// without perturbing the result).
    Retry,
    /// Re-run with stronger under-relaxation / damping.
    DampingIncrease,
    /// Halve the bias ramp step and continue from the last good bias.
    BiasSubstep,
    /// Ramp a shunt conductance from large to nominal (Newton DC).
    GminStepping,
    /// Ramp independent sources from zero to nominal (Newton DC).
    SourceStepping,
    /// Re-solve on the coarse mesh and re-anchor the extraction.
    CoarseMeshFallback,
}

impl RecoveryStep {
    /// Stable spelling used in trace counters and the manifest.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryStep::Retry => "retry",
            RecoveryStep::DampingIncrease => "damping_increase",
            RecoveryStep::BiasSubstep => "bias_substep",
            RecoveryStep::GminStepping => "gmin_stepping",
            RecoveryStep::SourceStepping => "source_stepping",
            RecoveryStep::CoarseMeshFallback => "coarse_mesh_fallback",
        }
    }
}

/// One recovery attempt: where it happened, which rung, whether the
/// rung produced a usable result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Site label, e.g. `tcad.gummel`, `spice.dc`, `supervisor`.
    pub site: String,
    /// The ladder rung that was attempted.
    pub step: RecoveryStep,
    /// Free-form context (bias point, job key, attempt number).
    pub detail: String,
    /// Whether this rung succeeded (`false` means the ladder escalated
    /// past it or ultimately failed).
    pub recovered: bool,
}

/// Records one recovery attempt on the global tracer (see
/// [`trace::Tracer::record_recovery`]).
pub fn record(site: &str, step: RecoveryStep, detail: impl Into<String>, recovered: bool) {
    trace::global().record_recovery(site, step, detail, recovered);
}

/// Returns a copy of all records accumulated so far.
pub fn snapshot() -> Vec<RecoveryRecord> {
    trace::global().recoveries()
}

/// Removes and returns all accumulated records (manifest writers call
/// this once per run).
pub fn drain() -> Vec<RecoveryRecord> {
    trace::global().take_recoveries()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_snapshot_drain_round_trip() {
        drain(); // isolate from other tests sharing the process
        record("test.site", RecoveryStep::Retry, "attempt 1", true);
        record(
            "test.site",
            RecoveryStep::CoarseMeshFallback,
            "vg=0.3",
            false,
        );
        let snap = snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].step, RecoveryStep::Retry);
        assert!(snap[0].recovered);
        assert_eq!(snap[1].step.as_str(), "coarse_mesh_fallback");
        let drained = drain();
        assert_eq!(drained, snap);
        assert!(snapshot().is_empty());
    }
}
