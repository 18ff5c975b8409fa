//! The four workloads and the end-to-end metrics every one reports.

use std::ffi::OsString;
use std::path::Path;

use subvt_circuits::CircuitBackendKind;
use subvt_engine::rng::SplitMix64;
use subvt_model::Backend;

/// Set-up time at reference host speed, seconds.
pub const SETUP_S: &str = "setup_s";
/// Mean time of one operation at reference host speed, milliseconds.
pub const LATENCY_MEAN: &str = "latency_ms.mean";
/// Peak resident memory of the program, MiB.
pub const PEAK_RSS: &str = "peak_rss_mb";

/// Every end-to-end metric an untraced run reports, in order: name and
/// unit. Times are scaled to the reference host ([`crate::host`]); the
/// raw times go to the artifact's notes.
pub const END_TO_END: [(&str, &str); 3] = [(SETUP_S, "s"), (LATENCY_MEAN, "ms"), (PEAK_RSS, "MiB")];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro all --csv`: the paper reproduction on the analytic backends.
    PaperAnalytic,
    /// `repro --backend tcad --csv table2 fig2 fig3`: TCAD calibration.
    TcadDevice,
    /// SPICE-backed circuit figures and Monte Carlo with a fresh cache.
    SpiceCircuits,
    /// Seeded mixed traffic against one `subvt-serve`.
    ServeMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperAnalytic,
        Workload::TcadDevice,
        Workload::SpiceCircuits,
        Workload::ServeMixed,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAnalytic => "paper-analytic",
            Workload::TcadDevice => "tcad-device",
            Workload::SpiceCircuits => "spice-circuits",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `repro` invocation of a batch workload; `None` for
    /// `serve-mixed`.
    pub fn batch(self) -> Option<BatchSpec> {
        match self {
            Workload::PaperAnalytic => Some(BatchSpec {
                backend: Backend::Analytic,
                circuit: CircuitBackendKind::Analytic,
                ids: &subvt_exp::ALL_EXPERIMENTS,
                fresh_cache: false,
            }),
            Workload::TcadDevice => Some(BatchSpec {
                backend: Backend::Tcad,
                circuit: CircuitBackendKind::Analytic,
                ids: &["table2", "fig2", "fig3"],
                fresh_cache: false,
            }),
            Workload::SpiceCircuits => Some(BatchSpec {
                backend: Backend::Analytic,
                circuit: CircuitBackendKind::Spice,
                ids: &[
                    "fig4",
                    "fig5",
                    "fig6",
                    "fig10",
                    "fig11",
                    "fig12",
                    "montecarlo",
                ],
                fresh_cache: true,
            }),
            Workload::ServeMixed => None,
        }
    }
}

/// One batch workload's `repro` command line.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    /// Device-model backend (`--backend`).
    pub backend: Backend,
    /// Circuit backend (`--circuit-backend`).
    pub circuit: CircuitBackendKind,
    /// The experiments run, in registry order.
    pub ids: &'static [&'static str],
    /// Whether each invocation persists into a fresh `--cache` file.
    pub fresh_cache: bool,
}

impl BatchSpec {
    /// The experiment ids in the order the seed picks.
    pub fn ordered_ids(&self, seed: u64) -> Vec<&'static str> {
        let mut ids = self.ids.to_vec();
        shuffle(&mut SplitMix64::stream(seed, 0x1d5), &mut ids);
        ids
    }

    /// `repro` arguments for `ids`, persisting into `cache` when the
    /// workload uses a fresh cache file.
    pub fn args(&self, ids: &[&str], cache: &Path) -> Vec<OsString> {
        let mut args: Vec<OsString> = Vec::new();
        if self.backend != Backend::Analytic {
            args.extend(["--backend".into(), self.backend.as_str().into()]);
        }
        if self.circuit != CircuitBackendKind::Analytic {
            args.extend(["--circuit-backend".into(), self.circuit.as_str().into()]);
        }
        if self.fresh_cache {
            args.extend(["--cache".into(), cache.as_os_str().to_owned()]);
        }
        args.push("--csv".into());
        args.extend(ids.iter().map(OsString::from));
        args
    }
}

/// A uniform index in `0..n` (`n > 0`).
pub(crate) fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    ((rng.next_f64() * n as f64) as usize).min(n - 1)
}

/// Fisher–Yates shuffle driven by `rng`.
pub(crate) fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, pick(rng, i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn the_seed_orders_ids_and_keeps_the_set() {
        let spec = Workload::PaperAnalytic.batch().unwrap();
        let a = spec.ordered_ids(1);
        assert_eq!(a, spec.ordered_ids(1));
        assert_ne!(a, spec.ordered_ids(2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut want = spec.ids.to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want);
    }
}
