//! The run scope: the tracer, the result cache, the fault-injection
//! harness and the SPICE cold-start switch that one run reads.
//!
//! Code reads them through [`crate::trace::global`], [`crate::global_cache`],
//! [`crate::faultinject`] and [`Scope::cold_start`], which all resolve
//! through [`current`]: the scope [entered](Scope::enter) on this
//! thread, or else the process's [`root`]. Binaries run in the root
//! scope, whose parts are built on first use, and configure it once in
//! `main` ([`crate::cli::configure_run`]); no library reads the
//! environment.
//!
//! [`Executor::spawn`](crate::Executor::spawn) captures the spawner's
//! scope and enters it around the job, so whatever a run fans out
//! through the executor records into, recalls from and draws faults
//! from the same scope, whichever worker runs it. A thread started with
//! `std::thread::spawn` begins in the root scope.
//!
//! A [`Scope::fresh`] scope shares nothing with the root or with
//! another fresh scope: tests enter one to count exactly their own
//! work, arm a fault plan or force cold starts without locking the rest
//! of the process out.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::cache::Cache;
use crate::faultinject::Harness;
use crate::trace::Tracer;

/// What one run records into and reads its switches from.
pub struct Scope {
    tracer: Tracer,
    cache: OnceLock<Cache>,
    pub(crate) faults: Harness,
    cold_start: AtomicBool,
}

thread_local! {
    /// The scope entered on this thread (`None`: the root).
    static CURRENT: Cell<Option<&'static Scope>> = const { Cell::new(None) };
}

/// The process's root scope.
pub fn root() -> &'static Scope {
    static ROOT: OnceLock<Scope> = OnceLock::new();
    ROOT.get_or_init(Scope::new)
}

/// The scope entered on this thread, else the [`root`].
pub fn current() -> &'static Scope {
    CURRENT.with(Cell::get).unwrap_or_else(root)
}

impl Scope {
    fn new() -> Self {
        Self {
            tracer: Tracer::new(),
            cache: OnceLock::new(),
            faults: Harness::default(),
            cold_start: AtomicBool::new(false),
        }
    }

    /// A new scope: an empty tracer and cache, no fault plan, warm
    /// starts. It is never freed, like the root it stands beside, so
    /// its tracer and cache can be handed out as `&'static`; a process
    /// makes few of them.
    pub fn fresh() -> &'static Scope {
        Box::leak(Box::new(Self::new()))
    }

    /// Makes this the current scope of this thread until the guard
    /// drops, which restores the scope that was current before.
    #[must_use = "the scope is left when the guard drops"]
    pub fn enter(&'static self) -> Entered {
        Entered {
            previous: CURRENT.with(|c| c.replace(Some(self))),
        }
    }

    /// This scope's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This scope's result cache, built empty on first use. Its hit and
    /// miss statistics are flushed into [`Scope::tracer`] whenever a
    /// trace is drained, so trace output carries
    /// `cache.<ns>.hit`/`cache.<ns>.miss` counters.
    pub fn cache(&'static self) -> &'static Cache {
        self.cache.get_or_init(|| {
            self.tracer.register_flush(move |tracer| {
                // `get()` rather than `expect`: a drain racing this
                // `get_or_init` could fire before the cell is set.
                if let Some(cache) = self.cache.get() {
                    cache.flush_stats_into(tracer);
                }
            });
            Cache::new()
        })
    }

    /// Whether SPICE solves ignore warm starts and sweep continuation
    /// and start every solve from zeros plus the recovery ladder. Warm
    /// and cold starts must print the same bytes; this switch lets a
    /// run check it.
    pub fn cold_start(&self) -> bool {
        self.cold_start.load(Ordering::Relaxed)
    }

    /// Sets [`Scope::cold_start`].
    pub fn set_cold_start(&self, cold: bool) {
        self.cold_start.store(cold, Ordering::Relaxed);
    }
}

/// Guard of [`Scope::enter`].
pub struct Entered {
    previous: Option<&'static Scope>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultinject::{self, FaultPlan, FaultSite};
    use crate::trace;

    #[test]
    fn a_fresh_scope_is_current_until_its_guard_drops() {
        let outer = current();
        let scope = Scope::fresh();
        {
            let _in = scope.enter();
            assert!(std::ptr::eq(current(), scope));
            assert!(std::ptr::eq(trace::global(), scope.tracer()));
            assert!(std::ptr::eq(crate::global_cache(), scope.cache()));
            {
                let _nested = Scope::fresh().enter();
                assert!(!std::ptr::eq(current(), scope));
            }
            assert!(std::ptr::eq(current(), scope));
        }
        assert!(std::ptr::eq(current(), outer));
    }

    #[test]
    fn two_threads_in_two_scopes_each_see_only_their_own_counters() {
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let run = |n: u64| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let scope = Scope::fresh();
                let _in = scope.enter();
                // Both threads count at once, on their own and through
                // jobs any pool worker may run.
                barrier.wait();
                trace::add("scope.own", n);
                let fanned = crate::global().map((0..n).collect(), |i| {
                    trace::add("scope.job", 1);
                    crate::global_cache().get_or_compute("scope.test", i, || i as f64)
                });
                assert_eq!(fanned.len() as u64, n);
                let snap = scope.tracer().flushed_metrics();
                (
                    snap.counters["scope.own"],
                    snap.counters["scope.job"],
                    snap.counters["cache.scope.test.miss"],
                )
            })
        };
        let (a, b) = (run(3), run(40));
        assert_eq!(a.join().expect("thread a"), (3, 3, 3));
        assert_eq!(b.join().expect("thread b"), (40, 40, 40));
    }

    #[test]
    fn a_fault_plan_armed_in_one_scope_never_fires_in_another() {
        let (armed, quiet) = (Scope::fresh(), Scope::fresh());
        {
            let _in = armed.enter();
            faultinject::configure(Some(FaultPlan {
                p_diverge: 1.0,
                ..FaultPlan::quiet(3)
            }));
        }
        let fired_in = |scope: &'static Scope| {
            let _in = scope.enter();
            crate::global().map((0..16).collect(), |_: u32| {
                faultinject::should_inject(FaultSite::SolverDiverge)
            })
        };
        assert!(fired_in(quiet).iter().all(|fired| !fired));
        assert!(fired_in(root()).iter().all(|fired| !fired));
        assert!(fired_in(armed).iter().all(|fired| *fired));
        let _in = quiet.enter();
        assert_eq!(faultinject::injected_total(), 0);
    }
}
