//! Admission control: a bounded job queue between connection threads
//! and the worker pool.
//!
//! Bounding the queue is the daemon's overload story. A full queue
//! rejects at submit time — the connection thread answers with a typed
//! `overloaded` error in microseconds instead of parking the client on
//! an unbounded backlog whose latency it cannot see. Closing the queue
//! (shutdown) flushes everything still queued back to the caller so
//! each admitted-but-unstarted request gets a typed `shutting_down`
//! answer rather than a dropped connection.
//!
//! The queue depth is published to the metrics registry as the
//! `serve.queue.depth` gauge on every transition.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use subvt_engine::trace;

use crate::query::Query;

/// One admitted request: everything a worker needs to compute and
/// answer it.
#[derive(Debug)]
pub struct Job {
    /// Request id, echoed in the response line.
    pub id: String,
    /// The parsed, canonical query.
    pub query: Query,
    /// Channel back to the connection thread; carries the full
    /// response line.
    pub reply: mpsc::Sender<String>,
    /// When the job was admitted (for queue-wait accounting).
    pub admitted: Instant,
    /// End-to-end trace id (wire-propagated, or server-synthesized).
    pub trace_id: String,
    /// The request span opened on the connection thread; workers
    /// parent their phase spans (`dedup`, `compute`, `serialize`)
    /// under it so the whole pipeline renders as one tree.
    pub request_span: u64,
}

/// Why a submission was refused. The job is handed back so the caller
/// can answer on its connection.
#[derive(Debug)]
pub enum Rejected {
    /// The queue is at capacity.
    Full(Job),
    /// The queue is closed for shutdown.
    Closed(Job),
}

struct State {
    queue: VecDeque<Job>,
    open: bool,
}

/// The bounded, closable admission queue.
pub struct Admission {
    capacity: usize,
    state: Mutex<State>,
    ready: Condvar,
}

impl Admission {
    /// Creates an open queue holding at most `capacity` jobs
    /// (clamped up to 1).
    pub fn new(capacity: usize) -> Self {
        trace::gauge("serve.queue.depth", 0.0);
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admits a job, waking one worker.
    ///
    /// # Errors
    ///
    /// [`Rejected::Full`] at capacity, [`Rejected::Closed`] after
    /// [`Admission::close`]; both return the job to the caller.
    // Rejected deliberately carries the whole Job back so the caller can
    // answer on its own connection; boxing would add an allocation to
    // every rejection on the overload path.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, job: Job) -> Result<(), Rejected> {
        let mut state = self.state.lock().expect("admission lock");
        if !state.open {
            return Err(Rejected::Closed(job));
        }
        if state.queue.len() >= self.capacity {
            return Err(Rejected::Full(job));
        }
        state.queue.push_back(job);
        trace::gauge("serve.queue.depth", state.queue.len() as f64);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed (any
    /// jobs still queued at close time were flushed, not handed out).
    pub fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("admission lock");
        loop {
            if let Some(job) = state.queue.pop_front() {
                trace::gauge("serve.queue.depth", state.queue.len() as f64);
                return Some(job);
            }
            if !state.open {
                return None;
            }
            state = self.ready.wait(state).expect("admission wait");
        }
    }

    /// Closes the queue: subsequent submits are rejected, blocked
    /// `pop` calls return `None`, and every job still queued is
    /// returned for typed rejection.
    pub fn close(&self) -> Vec<Job> {
        let mut state = self.state.lock().expect("admission lock");
        state.open = false;
        let flushed: Vec<Job> = state.queue.drain(..).collect();
        trace::gauge("serve.queue.depth", 0.0);
        drop(state);
        self.ready.notify_all();
        flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::json::parse_json;

    fn job(tag: &str, method: &str, params: &str) -> (Job, mpsc::Receiver<String>) {
        let (tx, rx) = mpsc::channel();
        let query = Query::from_request(method, &parse_json(params).unwrap()).unwrap();
        (
            Job {
                id: tag.to_owned(),
                query,
                reply: tx,
                admitted: Instant::now(),
                trace_id: format!("t-{tag}"),
                request_span: 0,
            },
            rx,
        )
    }

    #[test]
    fn full_queue_rejects_with_the_job() {
        let adm = Admission::new(1);
        let (a, _rxa) = job("a", "sleep", r#"{"ms":1}"#);
        let (b, _rxb) = job("b", "sleep", r#"{"ms":1}"#);
        adm.submit(a).unwrap();
        match adm.submit(b) {
            Err(Rejected::Full(j)) => assert_eq!(j.id, "b"),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn close_flushes_queued_jobs_and_unblocks_pop() {
        let adm = std::sync::Arc::new(Admission::new(8));
        let (a, _rxa) = job("a", "sleep", r#"{"ms":1}"#);
        adm.submit(a).unwrap();
        let flushed = adm.close();
        assert_eq!(flushed.len(), 1);
        assert!(adm.pop().is_none(), "closed+empty pop must return None");
        let (c, _rxc) = job("c", "sleep", r#"{"ms":1}"#);
        assert!(matches!(adm.submit(c), Err(Rejected::Closed(_))));
    }
}
