//! Deterministic fault-injection harness for chaos testing.
//!
//! When a [`FaultPlan`] is armed in the current [run
//! scope](crate::scope) (via [`configure`]; `repro` and `subvt-serve`
//! arm the root scope from the `SUBVT_FAULTS` environment variable in
//! `main`), the instrumented sites across the workspace — executor job
//! wrappers, the Gummel/Newton solver entries, cache persistence,
//! supervised deadlines — consult [`should_inject`] and fail on
//! purpose. The decision is a pure function of `(seed, site, per-site
//! sequence number)` through the engine's [`crate::rng::SplitMix64`]
//! streams, so a given seed replays the same fault schedule on every
//! serial run. Each scope holds its own plan, sequence numbers and
//! tallies: a plan armed in one scope never fires in another.
//!
//! Design rules the instrumented sites follow:
//!
//! * **Faults fire *before* the site mutates any state.** An injected
//!   solver divergence returns the failure without running the solver,
//!   so the recovery ladder's plain-retry rung reproduces the fault-free
//!   result bit for bit. Injection must never *alter* a numerical
//!   result — only abort, delay, or corrupt something that the
//!   fault-tolerance layer is expected to catch.
//! * **Every injected fault is observable.** Each fire bumps the
//!   `fault.injected.<site>` trace counter and the per-site tally
//!   returned by [`injected_counts`], which the chaos suite reconciles
//!   against recovery records and reported failures: nothing may fail
//!   silently.
//!
//! With no plan armed (the default) every helper short-circuits to "no
//! fault" without touching the RNG, so the happy path stays
//! byte-identical.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::rng::SplitMix64;
use crate::trace;

/// An injection site class. Each class has its own probability knob in
/// the [`FaultPlan`] and its own deterministic decision stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside a supervised executor job.
    JobPanic,
    /// Reported non-convergence at a solver entry (Gummel / Newton).
    SolverDiverge,
    /// A corrupted line in the persisted cache JSONL.
    CacheCorrupt,
    /// A deadline overrun in a supervised job (injected busy-wait).
    DeadlineOverrun,
}

impl FaultSite {
    /// Stable spelling used in counters and the `SUBVT_FAULTS` spec.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::JobPanic => "panic",
            FaultSite::SolverDiverge => "diverge",
            FaultSite::CacheCorrupt => "corrupt",
            FaultSite::DeadlineOverrun => "deadline",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::JobPanic => 0,
            FaultSite::SolverDiverge => 1,
            FaultSite::CacheCorrupt => 2,
            FaultSite::DeadlineOverrun => 3,
        }
    }
}

/// All injection-site classes, in [`FaultSite::index`] order.
pub const ALL_SITES: [FaultSite; 4] = [
    FaultSite::JobPanic,
    FaultSite::SolverDiverge,
    FaultSite::CacheCorrupt,
    FaultSite::DeadlineOverrun,
];

/// A seeded fault schedule: per-site injection probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the decision streams; the same seed replays the same
    /// schedule (per site, in per-site call order).
    pub seed: u64,
    /// Probability of [`FaultSite::JobPanic`] per supervised job attempt.
    pub p_panic: f64,
    /// Probability of [`FaultSite::SolverDiverge`] per solver entry.
    pub p_diverge: f64,
    /// Probability of [`FaultSite::CacheCorrupt`] per persisted line.
    pub p_corrupt: f64,
    /// Probability of [`FaultSite::DeadlineOverrun`] per supervised job.
    pub p_deadline: f64,
}

impl FaultPlan {
    /// A plan with every probability zero (arming it is a no-op).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            p_panic: 0.0,
            p_diverge: 0.0,
            p_corrupt: 0.0,
            p_deadline: 0.0,
        }
    }

    fn probability(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::JobPanic => self.p_panic,
            FaultSite::SolverDiverge => self.p_diverge,
            FaultSite::CacheCorrupt => self.p_corrupt,
            FaultSite::DeadlineOverrun => self.p_deadline,
        }
    }

    /// Parses the `SUBVT_FAULTS` spec: comma-separated `key=value`
    /// pairs, e.g. `seed=3,panic=0.2,diverge=0.3,corrupt=0.1,deadline=0.05`.
    /// Unknown keys are rejected so typos cannot silently disarm a
    /// chaos run.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformed field.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::quiet(0);
        for field in spec.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault spec field `{field}` is not key=value"))?;
            let key = key.trim();
            let numeric = |p: Result<f64, std::num::ParseFloatError>| {
                p.map_err(|_| format!("fault spec `{key}` has non-numeric value `{value}`"))
            };
            match key {
                "seed" => {
                    plan.seed = value.trim().parse::<u64>().map_err(|_| {
                        format!("fault spec `seed` has non-integer value `{value}`")
                    })?;
                }
                "panic" => plan.p_panic = numeric(value.trim().parse())?,
                "diverge" => plan.p_diverge = numeric(value.trim().parse())?,
                "corrupt" => plan.p_corrupt = numeric(value.trim().parse())?,
                "deadline" => plan.p_deadline = numeric(value.trim().parse())?,
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        for site in ALL_SITES {
            let p = plan.probability(site);
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "fault probability for `{}` must be in [0, 1], got {p}",
                    site.as_str()
                ));
            }
        }
        Ok(plan)
    }
}

/// One scope's fault plan, per-site sequence numbers and tallies.
#[derive(Default)]
pub(crate) struct Harness {
    plan: Mutex<Option<FaultPlan>>,
    /// Per-site call sequence numbers (the decision-stream indices).
    calls: [AtomicU64; 4],
    /// Per-site tallies of faults actually injected.
    injected: [AtomicU64; 4],
    /// Fast-path arm flag, checked before any locking.
    armed: AtomicBool,
}

fn harness() -> &'static Harness {
    &crate::scope::current().faults
}

/// Arms (`Some`) or disarms (`None`) the current scope's fault plan.
/// Also resets the per-site sequence numbers so a freshly-armed plan
/// replays its schedule from the start.
pub fn configure(plan: Option<FaultPlan>) {
    let h = harness();
    let mut slot = h.plan.lock().expect("fault plan lock");
    *slot = plan;
    h.armed.store(plan.is_some(), Ordering::Release);
    for c in &h.calls {
        c.store(0, Ordering::Release);
    }
}

/// Decides whether the next event at `site` is a fault. Deterministic
/// for a fixed seed and per-site call order; always `false` (and free of
/// side effects) when no plan is armed.
pub fn should_inject(site: FaultSite) -> bool {
    let h = harness();
    if !h.armed.load(Ordering::Acquire) {
        return false;
    }
    let plan = match *h.plan.lock().expect("fault plan lock") {
        Some(plan) => plan,
        None => return false,
    };
    let p = plan.probability(site);
    if p <= 0.0 {
        return false;
    }
    let index = h.calls[site.index()].fetch_add(1, Ordering::AcqRel);
    // Site-tagged stream: site classes never share decisions.
    let site_seed = crate::KeyBuilder::new("faultinject.v1")
        .u64(plan.seed)
        .str(site.as_str())
        .finish();
    let fire = SplitMix64::stream(site_seed, index).next_f64() < p;
    if fire {
        h.injected[site.index()].fetch_add(1, Ordering::AcqRel);
        trace::add(&format!("fault.injected.{}", site.as_str()), 1);
    }
    fire
}

/// Per-site counts of faults injected in the current scope, in
/// [`ALL_SITES`] order.
pub fn injected_counts() -> [(FaultSite, u64); 4] {
    let h = harness();
    let mut out = [(FaultSite::JobPanic, 0); 4];
    for (slot, site) in out.iter_mut().zip(ALL_SITES) {
        *slot = (site, h.injected[site.index()].load(Ordering::Acquire));
    }
    out
}

/// Total faults injected across all sites.
pub fn injected_total() -> u64 {
    injected_counts().iter().map(|(_, n)| n).sum()
}

/// Panics if the next [`FaultSite::JobPanic`] decision fires. Called by
/// the supervisor's job wrapper, before the job body runs.
pub fn panic_point() {
    if should_inject(FaultSite::JobPanic) {
        panic!("fault-injected job panic");
    }
}

/// Corrupts a serialized cache line in place if the next
/// [`FaultSite::CacheCorrupt`] decision fires. The corruption truncates
/// the line mid-record — exactly the shape a torn write leaves behind —
/// so checksum and structural validation must both catch it.
pub fn corrupt_point(line: &mut String) {
    if should_inject(FaultSite::CacheCorrupt) {
        let keep = line.len() / 2;
        line.truncate(keep);
        line.push_str("#torn");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let plan = FaultPlan::parse("seed=9,panic=0.5,diverge=0.25,corrupt=1,deadline=0").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.p_panic, 0.5);
        assert_eq!(plan.p_corrupt, 1.0);
        assert!(FaultPlan::parse("panic=2.0").is_err(), "p > 1 rejected");
        assert!(FaultPlan::parse("bogus=1").is_err(), "unknown key rejected");
        assert!(FaultPlan::parse("panic").is_err(), "missing `=` rejected");
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::quiet(0));
    }

    #[test]
    fn disarmed_harness_never_fires() {
        let _scope = Scope::fresh().enter();
        configure(None);
        for _ in 0..64 {
            assert!(!should_inject(FaultSite::JobPanic));
            assert!(!should_inject(FaultSite::SolverDiverge));
        }
    }

    #[test]
    fn armed_schedule_is_deterministic_per_seed() {
        let _scope = Scope::fresh().enter();
        let plan = FaultPlan {
            p_diverge: 0.5,
            ..FaultPlan::quiet(1234)
        };
        configure(Some(plan));
        let first: Vec<bool> = (0..64)
            .map(|_| should_inject(FaultSite::SolverDiverge))
            .collect();
        // Re-arming resets the sequence: the schedule replays exactly.
        configure(Some(plan));
        let second: Vec<bool> = (0..64)
            .map(|_| should_inject(FaultSite::SolverDiverge))
            .collect();
        assert_eq!(first, second);
        let fired = first.iter().filter(|b| **b).count();
        assert!(fired > 8 && fired < 56, "p=0.5 should fire ~half: {fired}");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let _scope = Scope::fresh().enter();
        let plan = FaultPlan {
            p_panic: 0.5,
            p_diverge: 0.5,
            ..FaultPlan::quiet(77)
        };
        configure(Some(plan));
        let panics: Vec<bool> = (0..64)
            .map(|_| should_inject(FaultSite::JobPanic))
            .collect();
        configure(Some(plan));
        let diverges: Vec<bool> = (0..64)
            .map(|_| should_inject(FaultSite::SolverDiverge))
            .collect();
        assert_ne!(panics, diverges, "site streams must be decorrelated");
    }

    #[test]
    fn corrupt_point_truncates_when_certain() {
        let _scope = Scope::fresh().enter();
        configure(Some(FaultPlan {
            p_corrupt: 1.0,
            ..FaultPlan::quiet(5)
        }));
        let mut line = String::from("{\"ns\":\"t\",\"key\":\"00\",\"bits\":[1,2,3]}");
        let before = line.clone();
        corrupt_point(&mut line);
        assert_ne!(line, before);
        assert!(line.ends_with("#torn"));
    }
}
