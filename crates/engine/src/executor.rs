//! Work-stealing thread-pool executor for sweep/DAG jobs.
//!
//! Design:
//!
//! * One global injector queue plus one local deque per worker. Jobs
//!   submitted from outside the pool land in the injector; jobs spawned
//!   *by* a worker land in that worker's local deque (depth-first, like
//!   a fork/join pool). Idle workers drain their own deque first, then
//!   the injector, then steal from siblings.
//! * [`JobHandle::join`] is panic-safe: a panicking job is caught with
//!   [`std::panic::catch_unwind`], the pool keeps running, and the
//!   handle returns [`JobPanic`] instead of hanging.
//! * A worker that blocks in [`JobHandle::join`] *helps*: it runs jobs
//!   from its own local deque while waiting. Since everything a job
//!   spawned lives in its worker's deque until stolen, nested fan-out
//!   (map inside map inside map) completes even on a one-worker pool.
//!   Helping is deliberately restricted to the local deque — running
//!   arbitrary injector jobs while a caller logically holds a cache
//!   in-flight slot could wait on that very slot and deadlock.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// `queues[0]` is the injector; `queues[1..]` are worker-local.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs pushed but not yet taken (wakeup predicate for `idle`).
    pending: AtomicUsize,
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Takes one runnable job: own deque (newest first), then the
    /// injector (oldest first), then steal the oldest from a sibling.
    fn take(&self, worker: usize) -> Option<Job> {
        let own = worker + 1;
        if let Some(job) = self.queues[own].lock().expect("queue lock").pop_back() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(job);
        }
        if let Some(job) = self.queues[0].lock().expect("queue lock").pop_front() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(job);
        }
        for (i, q) in self.queues.iter().enumerate().skip(1) {
            if i == own {
                continue;
            }
            if let Some(job) = q.lock().expect("queue lock").pop_front() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return Some(job);
            }
        }
        None
    }

    /// Takes a job from one worker's local deque only (the helping path).
    fn take_local(&self, worker: usize) -> Option<Job> {
        let job = self.queues[worker + 1]
            .lock()
            .expect("queue lock")
            .pop_back();
        if job.is_some() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
        }
        job
    }

    fn push(&self, queue: usize, job: Job) {
        self.queues[queue]
            .lock()
            .expect("queue lock")
            .push_back(job);
        self.pending.fetch_add(1, Ordering::AcqRel);
        // Lock/unlock pairs the notify with the sleeper's predicate
        // re-check, preventing a lost wakeup.
        drop(self.idle.lock().expect("idle lock"));
        self.wake.notify_all();
    }
}

thread_local! {
    /// (pool, worker index) when the current thread is a pool worker.
    static CURRENT_WORKER: std::cell::RefCell<Option<(Weak<Shared>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs one job from the current worker's local deque, if the current
/// thread is a worker of `shared` and has local work. Returns whether a
/// job ran.
fn help_one(shared: &Arc<Shared>) -> bool {
    let slot = CURRENT_WORKER.with(|c| c.borrow().clone());
    if let Some((weak, idx)) = slot {
        if let Some(current) = weak.upgrade() {
            if Arc::ptr_eq(&current, shared) {
                if let Some(job) = shared.take_local(idx) {
                    job();
                    return true;
                }
            }
        }
    }
    false
}

fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    CURRENT_WORKER.with(|c| *c.borrow_mut() = Some((Arc::downgrade(shared), idx)));
    // Lane 0 is reserved for non-pool threads; worker `idx` is lane
    // `idx + 1`. This gives traces a stable, small-integer thread id
    // that is deterministic for a fixed `--jobs` (unlike `ThreadId`).
    crate::trace::set_worker_lane(idx as u32 + 1);
    loop {
        if let Some(job) = shared.take(idx) {
            job();
            continue;
        }
        let guard = shared.idle.lock().expect("idle lock");
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.pending.load(Ordering::Acquire) > 0 {
            continue;
        }
        drop(shared.wake.wait(guard).expect("idle wait"));
    }
}

/// A job's result slot, shared between the worker and the handle.
struct HandleState<T> {
    slot: Mutex<Option<Result<T, JobPanic>>>,
    done: Condvar,
}

/// The payload of a job that panicked instead of returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Stringified panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl JobPanic {
    fn from_payload(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "job panicked with non-string payload".to_owned()
        };
        Self { message }
    }
}

impl core::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Handle to a spawned job. Dropping it detaches the job.
pub struct JobHandle<T> {
    state: Arc<HandleState<T>>,
    shared: Arc<Shared>,
}

impl<T> JobHandle<T> {
    /// Blocks until the job finishes, helping run local work when
    /// called from a worker thread of the same pool.
    ///
    /// # Errors
    ///
    /// Returns [`JobPanic`] if the job panicked.
    pub fn join(self) -> Result<T, JobPanic> {
        match self.join_until(None) {
            Ok(result) => result,
            Err(_) => unreachable!("join without a deadline cannot time out"),
        }
    }

    /// Like [`JobHandle::join`], but gives up once `deadline` elapses.
    ///
    /// The deadline is advisory: a job that is already running cannot be
    /// interrupted, so on timeout the handle is returned (inside `Err`)
    /// and the job keeps running detached — its result is simply
    /// discarded unless the caller joins the returned handle later.
    ///
    /// # Errors
    ///
    /// Returns the handle back when the deadline elapsed first.
    pub fn join_deadline(self, deadline: Duration) -> Result<Result<T, JobPanic>, JobHandle<T>> {
        self.join_until(Some(std::time::Instant::now() + deadline))
    }

    fn join_until(
        self,
        deadline: Option<std::time::Instant>,
    ) -> Result<Result<T, JobPanic>, JobHandle<T>> {
        loop {
            if let Some(result) = self.state.slot.lock().expect("handle lock").take() {
                return Ok(result);
            }
            if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                return Err(self);
            }
            if help_one(&self.shared) {
                continue;
            }
            let guard = self.state.slot.lock().expect("handle lock");
            if guard.is_some() {
                continue;
            }
            // Short timeout so a worker wakes up to help with local
            // work that appears while it waits (and so a deadline is
            // noticed promptly); non-workers just loop on the condvar.
            let (mut guard, _) = self
                .state
                .done
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("handle wait");
            if let Some(result) = guard.take() {
                return Ok(result);
            }
        }
    }
}

/// A fixed-size work-stealing thread pool.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawns a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..=workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("subvt-engine-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job. From a worker thread of this pool the job goes to
    /// that worker's local deque (depth-first); otherwise it goes to
    /// the injector.
    pub fn spawn<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let state = Arc::new(HandleState {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        let result_state = Arc::clone(&state);
        // Capture the spawner's run scope and innermost span so the job
        // records into that scope and its spans attach to the spawn
        // site, not to whatever the stealing worker happened to be
        // running.
        let scope = crate::scope::current();
        let parent_span = crate::trace::current_span_id();
        let job: Job = Box::new(move || {
            let entered = scope.enter();
            let ctx = crate::trace::task_context(parent_span);
            let result = catch_unwind(AssertUnwindSafe(f)).map_err(JobPanic::from_payload);
            // Restore the worker's own span context and scope before
            // publishing the result (the panic path included — both
            // guards drop here regardless of how `f` exited).
            drop(ctx);
            drop(entered);
            *result_state.slot.lock().expect("handle lock") = Some(result);
            result_state.done.notify_all();
        });
        let queue = CURRENT_WORKER.with(|c| {
            c.borrow().as_ref().and_then(|(weak, idx)| {
                weak.upgrade()
                    .filter(|current| Arc::ptr_eq(current, &self.shared))
                    .map(|_| idx + 1)
            })
        });
        self.shared.push(queue.unwrap_or(0), job);
        JobHandle {
            state,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Applies `f` to every item in parallel, preserving input order.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) the first job panic, matching the
    /// behavior of a plain serial loop.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let handles: Vec<JobHandle<R>> = items
            .into_iter()
            .map(|item| {
                let f = Arc::clone(&f);
                self.spawn(move || f(item))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| panic!("{p}")))
            .collect()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        drop(self.shared.idle.lock().expect("idle lock"));
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        let ex = Executor::new(4);
        let out = ex.map((0..64).collect(), |i: i32| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn spawn_runs_on_pool_threads() {
        let ex = Executor::new(2);
        let h = ex.spawn(|| std::thread::current().name().map(str::to_owned));
        let name = h.join().unwrap().unwrap();
        assert!(name.starts_with("subvt-engine-"), "ran on {name}");
    }

    #[test]
    fn panicking_job_reports_and_pool_survives() {
        let ex = Executor::new(2);
        let bad = ex.spawn(|| panic!("boom {}", 7));
        let err = bad.join().unwrap_err();
        assert_eq!(err.message, "boom 7");
        // The pool still runs jobs afterwards — not poisoned, no hang.
        let ok = ex.spawn(|| 41 + 1);
        assert_eq!(ok.join().unwrap(), 42);
    }

    #[test]
    fn map_panics_like_a_serial_loop() {
        let ex = Executor::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ex.map(
                vec![1, 2, 3],
                |i: i32| if i == 2 { panic!("item 2") } else { i },
            )
        }));
        assert!(result.is_err());
        // Still alive.
        assert_eq!(ex.map(vec![5], |i: i32| i), vec![5]);
    }

    #[test]
    fn nested_maps_complete_on_one_worker() {
        // The helping join must prevent the classic fork/join deadlock.
        let ex = Arc::new(Executor::new(1));
        let ex2 = Arc::clone(&ex);
        let h = ex.spawn(move || {
            let ex3 = Arc::clone(&ex2);
            ex2.map((0..4).collect(), move |i: u64| {
                ex3.map(vec![i, i + 1], |j: u64| j * 2).iter().sum::<u64>()
            })
        });
        let out = h.join().unwrap();
        // Each item i sums 2i + 2(i + 1) = 4i + 2.
        assert_eq!(out, vec![2, 6, 10, 14]);
    }

    #[test]
    fn heavy_fanout_uses_many_workers() {
        let ex = Executor::new(4);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        ex.map((0..256).collect(), move |_: u32| {
            // Record which worker indices participate via a bitmask.
            if let Some(name) = std::thread::current().name() {
                if let Some(idx) = name.strip_prefix("subvt-engine-") {
                    let bit = idx.parse::<u64>().unwrap_or(63).min(63);
                    seen2.fetch_or(1 << bit, Ordering::Relaxed);
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        });
        assert!(
            seen.load(Ordering::Relaxed).count_ones() >= 2,
            "work never spread"
        );
    }

    #[test]
    fn spawned_jobs_inherit_the_spawn_site_span() {
        let ex = Executor::new(2);
        let root_id;
        {
            let root = crate::trace::span("exec.test.root");
            root_id = root.id();
            let handles: Vec<_> = (0..4)
                .map(|i| ex.spawn(move || drop(crate::trace::span(format!("exec.test.child{i}")))))
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        let snap = crate::trace::global().snapshot();
        let children: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name.starts_with("exec.test.child"))
            .collect();
        assert_eq!(children.len(), 4);
        for c in children {
            assert_eq!(c.parent, Some(root_id), "{} lost its parent", c.name);
            assert!(c.worker >= 1, "{} should run on a pool lane", c.name);
        }
    }

    #[test]
    fn panicking_job_records_open_span_with_parent_chain() {
        // Regression: a span open at panic time must still record, with
        // the parent chain rooted at the spawn site, and the worker's
        // own context must survive the unwind.
        let ex = Executor::new(1);
        let root_id;
        {
            let root = crate::trace::span("exec.panic.root");
            root_id = root.id();
            let err = ex
                .spawn(|| {
                    let _open = crate::trace::span("exec.panic.open");
                    panic!("traced panic");
                })
                .join()
                .unwrap_err();
            assert_eq!(err.message, "traced panic");
        }
        // The same worker must keep a clean context afterwards.
        ex.spawn(|| drop(crate::trace::span("exec.panic.after")))
            .join()
            .unwrap();
        let snap = crate::trace::global().snapshot();
        let open = snap
            .spans
            .iter()
            .find(|s| s.name == "exec.panic.open")
            .expect("span open at panic time must still record");
        assert_eq!(open.parent, Some(root_id));
        let after = snap
            .spans
            .iter()
            .find(|s| s.name == "exec.panic.after")
            .unwrap();
        assert_eq!(after.parent, None, "worker context leaked across panic");
    }

    #[test]
    fn join_deadline_times_out_and_later_completes() {
        let ex = Executor::new(1);
        let h = ex.spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            123
        });
        // Far too short: must come back with the handle, not a result.
        let h = match h.join_deadline(Duration::from_millis(2)) {
            Err(h) => h,
            Ok(_) => panic!("2ms deadline should not fit a 30ms job"),
        };
        // The detached job still finishes; a later join sees the value.
        assert_eq!(h.join().unwrap(), 123);
        // And a generous deadline behaves like a plain join.
        let quick = ex.spawn(|| 7);
        match quick.join_deadline(Duration::from_secs(5)) {
            Ok(result) => assert_eq!(result.unwrap(), 7),
            Err(_) => panic!("generous deadline timed out"),
        }
    }

    #[test]
    fn shutdown_with_queued_work_does_not_hang() {
        let ex = Executor::new(2);
        for _ in 0..8 {
            drop(ex.spawn(|| std::thread::sleep(Duration::from_millis(1))));
        }
        drop(ex); // must join workers without deadlocking
    }
}
