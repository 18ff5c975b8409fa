//! Hierarchical structured tracing: attributed spans, a metrics
//! registry (counters, gauges, fixed-bucket histograms), and two
//! machine-readable sinks.
//!
//! The tracer is process-global and always on — recording a span is two
//! `Instant` reads, one id allocation and one `Vec` push, far below the
//! cost of anything worth tracing here. (`set_enabled(false)` exists so
//! benches can measure that claim.)
//!
//! # Retention
//!
//! A tracer keeps every closed span (and every recovery record, see
//! [`Tracer::record_recovery`]) until the process exits, because a sink
//! written at the end reads them all. A long-lived process that writes
//! no span sink calls [`Tracer::set_keep_spans`]`(false)`: its spans
//! still get ids and parent links (so child spans, executor task
//! contexts and anything that logs a span id work unchanged), but
//! closing one takes no lock and stores nothing. Counters, gauges and
//! histograms are kept either way; their size does not grow with
//! uptime.
//!
//! # Span hierarchy
//!
//! Every span carries a process-unique `id` and an optional `parent` id.
//! The parent is taken from a thread-local context stack: opening a span
//! pushes its id, dropping it pops, so lexical nesting becomes tree
//! structure for free. The work-stealing executor propagates the stack
//! across threads — [`Executor::spawn`](crate::Executor::spawn) captures
//! the spawner's current span and installs it (via [`task_context`]) as
//! the parent context for the job, no matter which worker steals it.
//! Spans also record the executor-assigned *worker lane* (`0` = any
//! non-pool thread, `n` = pool worker `n − 1`), which gives the Chrome
//! export deterministic per-worker rows.
//!
//! # Sinks
//!
//! * [`Tracer::write_jsonl`] — versioned JSON-lines (schema `v2`):
//!
//! ```text
//! {"type":"span","id":7,"parent":3,"name":"experiment.fig4","start_us":123,"dur_us":4567,"worker":2,"attrs":{"backend":"analytic"}}
//! {"type":"counter","name":"cache.design.hit","value":26}
//! {"type":"gauge","name":"engine.jobs","value":4}
//! {"type":"hist","name":"tcad.gummel.iterations","count":310,"sum":2212,"min":2,"max":31,"bounds":[1,2,5],"counts":[0,12,201,97]}
//! {"type":"meta","v":2,"spans":17,"counters":4,"gauges":1,"hists":2,"wall_us":890123}
//! ```
//!
//! * [`Tracer::write_chrome`] — Chrome trace-event JSON (open in
//!   Perfetto / `chrome://tracing`), one lane per executor worker. The
//!   writer itself is [`TraceSnapshot::write_chrome`], which also
//!   exports stitched client/server traces.
//!
//! Two reads serve the sinks, and both first run the registered *flush
//! hooks* (see [`Tracer::register_flush`]):
//!
//! * [`Tracer::flushed_metrics`] — counters, gauges and histograms, no
//!   spans: what a metrics scrape reads, at a cost independent of how
//!   many spans were recorded;
//! * [`Tracer::flushed_snapshot`] — everything, spans included: what the
//!   trace files and the run manifest read.
//!
//! The engine cache uses a flush hook to publish its hit/miss statistics
//! as `cache.<ns>.hit`/`cache.<ns>.miss` counters, so every sink carries
//! cache stats even when no code path incremented them explicitly.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::{json_f64, json_str};
use crate::recovery::{RecoveryRecord, RecoveryStep};

/// JSONL schema version written by [`Tracer::write_jsonl`].
pub const SCHEMA_VERSION: u64 = 2;

/// Default histogram bucket upper bounds: a 1–2–5 decade ladder that
/// covers iteration counts and microsecond latencies alike.
pub const DEFAULT_BUCKETS: [f64; 19] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1.0e3, 2.0e3, 5.0e3, 1.0e4, 2.0e4, 5.0e4,
    1.0e5, 2.0e5, 5.0e5, 1.0e6,
];

/// Bucket bounds for base-10 logarithms of residuals/tolerances
/// (`log10(x) ∈ [−12, 0]` in steps of one decade).
pub const LOG10_BUCKETS: [f64; 13] = [
    -12.0, -11.0, -10.0, -9.0, -8.0, -7.0, -6.0, -5.0, -4.0, -3.0, -2.0, -1.0, 0.0,
];

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl AttrValue {
    fn to_json(&self) -> String {
        match self {
            AttrValue::U64(v) => v.to_string(),
            AttrValue::I64(v) => v.to_string(),
            AttrValue::F64(v) => json_f64(*v),
            AttrValue::Str(s) => json_str(s),
            AttrValue::Bool(b) => b.to_string(),
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Enclosing span at open time, `None` for roots.
    pub parent: Option<u64>,
    /// Dotted span name, e.g. `experiment.fig4`.
    pub name: String,
    /// Start, microseconds since the tracer was created.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Executor lane: 0 for non-pool threads, `n` for pool worker
    /// `n − 1`. Deterministic across runs for a fixed `--jobs`.
    pub worker: u32,
    /// Typed key/value attributes attached while the span was open.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An unsigned-integer attribute.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key)? {
            AttrValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// A string attribute.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        match self.attr(key)? {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A fixed-bucket histogram: counts per bucket (the last bucket is the
/// implicit overflow above the final bound) plus exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (`+inf` when empty).
    pub min: f64,
    /// Largest sample (`−inf` when empty).
    pub max: f64,
}

impl Histogram {
    /// Creates an empty histogram over the given (ascending) bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Estimated quantile (`q ∈ [0, 1]`): the upper bound of the bucket
    /// holding the q-th sample, clamped to the observed max. `NaN` when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return match self.bounds.get(i) {
                    Some(&b) => b.min(self.max),
                    None => self.max,
                };
            }
        }
        self.max
    }

    /// Mean sample value (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Everything a tracer has recorded, captured atomically.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms.
    pub hists: BTreeMap<String, Histogram>,
    /// Microseconds since the tracer was created.
    pub wall_us: u64,
}

impl TraceSnapshot {
    /// Writes the snapshot as Chrome trace-event JSON (open in Perfetto
    /// or `chrome://tracing`): a `process_name` row named `process`,
    /// one `thread_name` row per lane labelled by `lane_label`, one
    /// complete (`ph:"X"`) event per span on its worker lane, and one
    /// final counter (`ph:"C"`) event per counter. Every event carries
    /// `pid`/`tid`/`ts`/`dur`/`name`, so strict parsers (and the
    /// `tracefmt` round-trip tests) accept the whole stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome(
        &self,
        w: &mut impl Write,
        process: &str,
        lane_label: impl Fn(u32) -> String,
    ) -> std::io::Result<()> {
        write!(w, "{{\"traceEvents\":[")?;
        let mut first = true;
        let sep = |w: &mut dyn Write, first: &mut bool| -> std::io::Result<()> {
            if *first {
                *first = false;
                writeln!(w)
            } else {
                writeln!(w, ",")
            }
        };
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":0,\"args\":{{\"name\":{}}}}}",
            json_str(process)
        )?;
        let mut lanes: Vec<u32> = self.spans.iter().map(|s| s.worker).collect();
        lanes.push(0);
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            sep(w, &mut first)?;
            write!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"ts\":0,\"dur\":0,\"args\":{{\"name\":{}}}}}",
                json_str(&lane_label(lane))
            )?;
        }
        for s in &self.spans {
            sep(w, &mut first)?;
            write!(
                w,
                "{{\"name\":{},\"cat\":\"subvt\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{}",
                json_str(&s.name),
                s.worker,
                s.start_us,
                s.dur_us,
                s.id,
                match s.parent {
                    Some(p) => p.to_string(),
                    None => "null".to_owned(),
                }
            )?;
            for (k, v) in &s.attrs {
                write!(w, ",{}:{}", json_str(k), v.to_json())?;
            }
            write!(w, "}}}}")?;
        }
        for (name, value) in &self.counters {
            sep(w, &mut first)?;
            write!(
                w,
                "{{\"name\":{},\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":0,\"args\":{{\"value\":{}}}}}",
                json_str(name),
                self.wall_us,
                value
            )?;
        }
        writeln!(w)?;
        writeln!(w, "],\"displayTimeUnit\":\"ms\"}}")
    }
}

#[derive(Default)]
struct TracerState {
    spans: Vec<SpanRecord>,
    recoveries: Vec<RecoveryRecord>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl TracerState {
    /// Adds `delta` to a counter. Hot solver loops count per iteration:
    /// the key is allocated only on first sight.
    fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(count) => *count += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// The histogram `name`, created over `bounds` on first sight.
    fn hist(&mut self, name: &str, bounds: &[f64]) -> &mut Histogram {
        if !self.hists.contains_key(name) {
            self.hists.insert(name.to_owned(), Histogram::new(bounds));
        }
        self.hists.get_mut(name).expect("inserted above")
    }
}

type FlushHook = Arc<dyn Fn(&Tracer) + Send + Sync>;

/// Process-global span/metric collector.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<TracerState>,
    flush_hooks: Mutex<Vec<FlushHook>>,
    /// Whether closed spans and recovery records are stored (see the
    /// module docs' *Retention*).
    keep_spans: AtomicBool,
}

/// Span ids are allocated from one process-wide counter so ids stay
/// unique even across distinct `Tracer` instances (tests build local
/// tracers while the thread-local context stack is shared).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Global on/off switch; exists so benches can measure the overhead of
/// the always-on default.
static ENABLED: AtomicBool = AtomicBool::new(true);

thread_local! {
    /// Open-span context stack (innermost last). Jobs running on the
    /// executor get a fresh stack seeded with the spawn-site span.
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Executor lane of the current thread (0 = not a pool worker).
    static WORKER_LANE: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    /// Tracer-state locks this thread has taken (see [`locks_taken`]).
    static LOCKS_TAKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Enables or disables all recording (spans, counters, gauges,
/// histograms). Meant for A/B overhead measurements; production paths
/// leave tracing on.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// How many times this thread has locked a tracer's state, on any
/// tracer, so far. Lets a test check that a hot loop reports its work a
/// fixed number of times rather than once per iteration.
pub fn locks_taken() -> u64 {
    LOCKS_TAKEN.with(|n| n.get())
}

/// The innermost open span id on this thread, if any.
pub fn current_span_id() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// Raises the process-wide span-id counter to at least `floor`.
///
/// Client processes that stamp their span ids onto wire requests (see
/// `subvt-serve`'s trace-context propagation) call this with a high
/// base (e.g. `1 << 32`) so their ids can never collide with the ids a
/// server process allocates from 1 — a requirement for stitching the
/// two traces into one parent-linked tree. Monotone: a floor below the
/// current counter is a no-op.
pub fn raise_id_floor(floor: u64) {
    NEXT_SPAN_ID.fetch_max(floor, Ordering::Relaxed);
}

/// Tags the current thread with its executor lane. Called by the
/// executor's worker loop; anything else should leave the default 0.
pub fn set_worker_lane(lane: u32) {
    WORKER_LANE.with(|w| w.set(lane));
}

/// The executor lane of the current thread (0 when not a pool worker).
pub fn worker_lane() -> u32 {
    WORKER_LANE.with(|w| w.get())
}

/// Replaces this thread's span context for the duration of a task: the
/// stack is swapped for one rooted at `parent` and restored when the
/// guard drops (including during unwinding). The executor wraps every
/// job in one of these so spans opened inside the job attach to the
/// spawn-site span rather than to whatever the worker happened to be
/// doing.
pub fn task_context(parent: Option<u64>) -> TaskContext {
    let fresh = match parent {
        Some(p) => vec![p],
        None => Vec::new(),
    };
    let saved = SPAN_STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), fresh));
    TaskContext { saved }
}

/// Guard restoring the pre-task span context. See [`task_context`].
pub struct TaskContext {
    saved: Vec<u64>,
}

impl Drop for TaskContext {
    fn drop(&mut self) {
        let saved = std::mem::take(&mut self.saved);
        SPAN_STACK.with(|s| *s.borrow_mut() = saved);
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates an empty tracer with its epoch at "now". Most code uses
    /// the process-wide [`global`] tracer; local instances are for
    /// tests and tools.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            state: Mutex::new(TracerState::default()),
            flush_hooks: Mutex::new(Vec::new()),
            keep_spans: AtomicBool::new(true),
        }
    }

    /// Sets whether closed spans and recovery records are stored (the
    /// default) or discarded. A process that writes no span sink turns
    /// this off so its memory does not grow with the spans it closes;
    /// spans opened from then on are discarded when they close.
    pub fn set_keep_spans(&self, keep: bool) {
        self.keep_spans.store(keep, Ordering::Relaxed);
    }

    /// Whether closed spans and recovery records are stored.
    fn keeps_spans(&self) -> bool {
        self.keep_spans.load(Ordering::Relaxed)
    }

    /// Locks the recorded state, counting the lock for [`locks_taken`].
    fn state(&self) -> std::sync::MutexGuard<'_, TracerState> {
        LOCKS_TAKEN.with(|n| n.set(n.get() + 1));
        self.state.lock().expect("tracer lock")
    }

    /// Opens a span; the span records itself when dropped. The parent is
    /// the innermost span currently open on this thread (or installed by
    /// the executor's task context).
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        if !enabled() {
            return Span {
                tracer: self,
                name: String::new(),
                id: 0,
                parent: None,
                started: Instant::now(),
                attrs: Vec::new(),
                keep: false,
            };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = current_span_id();
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        let keep = self.keeps_spans();
        Span {
            tracer: self,
            name: if keep { name.into() } else { String::new() },
            id,
            parent,
            started: Instant::now(),
            attrs: Vec::new(),
            keep,
        }
    }

    /// Adds `delta` to a named counter.
    pub fn add(&self, name: &str, delta: u64) {
        if !enabled() {
            return;
        }
        self.state().add(name, delta);
    }

    /// Sets a counter to an absolute value (used by flush hooks that
    /// publish externally-accumulated statistics).
    pub fn set_counter(&self, name: &str, value: u64) {
        if !enabled() {
            return;
        }
        let mut state = self.state();
        state.counters.insert(name.to_owned(), value);
    }

    /// Sets a gauge (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if !enabled() {
            return;
        }
        let mut state = self.state();
        state.gauges.insert(name.to_owned(), value);
    }

    /// Records a histogram sample with the [`DEFAULT_BUCKETS`] ladder.
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with(name, value, &DEFAULT_BUCKETS);
    }

    /// Records a histogram sample; `bounds` defines the bucket ladder
    /// the first time `name` is seen (later calls reuse the existing
    /// buckets).
    pub fn observe_with(&self, name: &str, value: f64, bounds: &[f64]) {
        if !enabled() {
            return;
        }
        self.state().hist(name, bounds).record(value);
    }

    /// Adds each `(name, delta)` to its counter and records each
    /// `(name, samples)` list into its histogram (the [`DEFAULT_BUCKETS`]
    /// ladder on first sight), all under one lock. A solver that tallies
    /// its work locally reports a whole analysis with one call, however
    /// many iterations it ran; the totals equal one [`Tracer::add`] or
    /// [`Tracer::observe`] per unit. Zero deltas and empty sample lists
    /// record nothing.
    pub fn record_all(&self, adds: &[(&str, u64)], observations: &[(&str, &[f64])]) {
        if !enabled() {
            return;
        }
        let mut state = self.state();
        for &(name, delta) in adds.iter().filter(|(_, delta)| *delta > 0) {
            state.add(name, delta);
        }
        for &(name, samples) in observations.iter().filter(|(_, s)| !s.is_empty()) {
            let hist = state.hist(name, &DEFAULT_BUCKETS);
            samples.iter().for_each(|&v| hist.record(v));
        }
    }

    /// Reads one counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.state().counters.get(name).copied().unwrap_or(0)
    }

    /// Records one recovery-ladder rung (see [`crate::recovery`]): bumps
    /// the `recovery.<site>.<step>` counter, and stores the record only
    /// while the tracer [keeps spans](Tracer::set_keep_spans), under one
    /// lock.
    pub fn record_recovery(
        &self,
        site: &str,
        step: RecoveryStep,
        detail: impl Into<String>,
        recovered: bool,
    ) {
        let mut state = self.state();
        if enabled() {
            state.add(&format!("recovery.{site}.{}", step.as_str()), 1);
        }
        if self.keeps_spans() {
            state.recoveries.push(RecoveryRecord {
                site: site.to_owned(),
                step,
                detail: detail.into(),
                recovered,
            });
        }
    }

    /// A copy of the recovery records stored so far, oldest first.
    pub fn recoveries(&self) -> Vec<RecoveryRecord> {
        self.state().recoveries.clone()
    }

    /// Removes and returns the stored recovery records, oldest first.
    pub fn take_recoveries(&self) -> Vec<RecoveryRecord> {
        std::mem::take(&mut self.state().recoveries)
    }

    /// Registers a hook that runs before every sink read
    /// ([`Tracer::flushed_metrics`], [`Tracer::flushed_snapshot`] and the
    /// writers built on it), letting external stats systems publish
    /// their totals as counters/gauges just in time.
    pub fn register_flush(&self, hook: impl Fn(&Tracer) + Send + Sync + 'static) {
        self.flush_hooks
            .lock()
            .expect("flush lock")
            .push(Arc::new(hook));
    }

    /// Raw snapshot of everything recorded so far (flush hooks are NOT
    /// run — use [`Tracer::flushed_snapshot`] for sink-equivalent data).
    pub fn snapshot(&self) -> TraceSnapshot {
        self.read(true)
    }

    /// Runs the flush hooks, then reads the counters, gauges and
    /// histograms. The snapshot's `spans` is empty, so the cost does not
    /// depend on how many spans were recorded: this is what a metrics
    /// scrape reads.
    pub fn flushed_metrics(&self) -> TraceSnapshot {
        self.run_flush_hooks();
        self.read(false)
    }

    /// Runs the flush hooks, then snapshots everything, spans included.
    /// This is what the trace files and the run manifest read.
    pub fn flushed_snapshot(&self) -> TraceSnapshot {
        self.run_flush_hooks();
        self.read(true)
    }

    fn run_flush_hooks(&self) {
        let hooks: Vec<FlushHook> = self.flush_hooks.lock().expect("flush lock").clone();
        for hook in hooks {
            hook(self);
        }
    }

    fn read(&self, with_spans: bool) -> TraceSnapshot {
        let state = self.state();
        TraceSnapshot {
            spans: if with_spans {
                state.spans.clone()
            } else {
                Vec::new()
            },
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            hists: state.hists.clone(),
            wall_us: self.epoch.elapsed().as_micros() as u64,
        }
    }

    /// Writes the versioned JSON-lines trace described in the module
    /// docs (running flush hooks first).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        let snap = self.flushed_snapshot();
        for s in &snap.spans {
            write!(
                w,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"start_us\":{},\"dur_us\":{},\"worker\":{},\"attrs\":{{",
                s.id,
                match s.parent {
                    Some(p) => p.to_string(),
                    None => "null".to_owned(),
                },
                json_str(&s.name),
                s.start_us,
                s.dur_us,
                s.worker
            )?;
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                if i > 0 {
                    write!(w, ",")?;
                }
                write!(w, "{}:{}", json_str(k), v.to_json())?;
            }
            writeln!(w, "}}}}")?;
        }
        for (name, value) in &snap.counters {
            writeln!(
                w,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
                json_str(name),
                value
            )?;
        }
        for (name, value) in &snap.gauges {
            writeln!(
                w,
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
                json_str(name),
                json_f64(*value)
            )?;
        }
        for (name, h) in &snap.hists {
            write!(
                w,
                "{{\"type\":\"hist\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"bounds\":[",
                json_str(name),
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max)
            )?;
            for (i, b) in h.bounds.iter().enumerate() {
                if i > 0 {
                    write!(w, ",")?;
                }
                write!(w, "{}", json_f64(*b))?;
            }
            write!(w, "],\"counts\":[")?;
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    write!(w, ",")?;
                }
                write!(w, "{c}")?;
            }
            writeln!(w, "]}}")?;
        }
        writeln!(
            w,
            "{{\"type\":\"meta\",\"v\":{},\"spans\":{},\"counters\":{},\"gauges\":{},\"hists\":{},\"wall_us\":{}}}",
            SCHEMA_VERSION,
            snap.spans.len(),
            snap.counters.len(),
            snap.gauges.len(),
            snap.hists.len(),
            snap.wall_us
        )
    }

    /// Writes the trace as Chrome trace-event JSON (running flush hooks
    /// first) through [`TraceSnapshot::write_chrome`], as process
    /// `subvt-repro` with lanes labelled `main` and `worker-N`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome(&self, w: &mut impl Write) -> std::io::Result<()> {
        self.flushed_snapshot()
            .write_chrome(w, "subvt-repro", |lane| match lane {
                0 => "main".to_owned(),
                n => format!("worker-{}", n - 1),
            })
    }
}

/// An open span; records wall-clock duration, hierarchy and attributes
/// when dropped (including during unwinding, so a panicking task still
/// records its open spans with the correct parent chain).
pub struct Span<'t> {
    tracer: &'t Tracer,
    name: String,
    id: u64,
    parent: Option<u64>,
    started: Instant,
    attrs: Vec<(String, AttrValue)>,
    /// Whether the tracer stores this span when it closes.
    keep: bool,
}

impl Span<'_> {
    /// This span's id (0 when tracing is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a typed attribute, builder-style.
    #[must_use]
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Attaches a typed attribute to an already-bound span (a no-op for
    /// a span the tracer discards).
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<AttrValue>) {
        if self.keep {
            self.attrs.push((key.into(), value.into()));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return; // opened while disabled
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Normally a strict LIFO pop; be tolerant of out-of-order
            // drops so a mis-scoped span cannot corrupt the context.
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        if !self.keep {
            return; // discarded: no lock, nothing stored
        }
        let start_us = self.started.duration_since(self.tracer.epoch).as_micros() as u64;
        let dur_us = self.started.elapsed().as_micros() as u64;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us,
            dur_us,
            worker: worker_lane(),
            attrs: std::mem::take(&mut self.attrs),
        };
        self.tracer.state().spans.push(record);
    }
}

/// The process-global tracer.
pub fn global() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

/// Opens a span on the global tracer.
pub fn span(name: impl Into<String>) -> Span<'static> {
    global().span(name)
}

/// Adds to a counter on the global tracer.
pub fn add(name: &str, delta: u64) {
    global().add(name, delta);
}

/// [`Tracer::record_all`] on the global tracer.
pub fn record_all(adds: &[(&str, u64)], observations: &[(&str, &[f64])]) {
    global().record_all(adds, observations);
}

/// Sets a gauge on the global tracer.
pub fn gauge(name: &str, value: f64) {
    global().gauge(name, value);
}

/// Records a histogram sample on the global tracer (default buckets).
pub fn observe(name: &str, value: f64) {
    global().observe(name, value);
}

/// Records a histogram sample on the global tracer with explicit bucket
/// bounds (used on first sight of `name`).
pub fn observe_with(name: &str, value: f64, bounds: &[f64]) {
    global().observe_with(name, value, bounds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let tracer = Tracer::new();
        {
            let _span = tracer.span("unit.test");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "unit.test");
        assert!(snap.spans[0].id > 0);
        assert!(
            snap.spans[0].dur_us >= 1_000,
            "span too short: {}",
            snap.spans[0].dur_us
        );
    }

    #[test]
    fn nested_spans_link_parents() {
        let tracer = Tracer::new();
        let outer_id;
        {
            let outer = tracer.span("outer");
            outer_id = outer.id();
            {
                let _inner = tracer.span("inner");
            }
        }
        let snap = tracer.snapshot();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer_id));
        assert_eq!(outer.parent, None);
        assert_ne!(inner.id, outer.id);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("outer");
            drop(tracer.span("a"));
            drop(tracer.span("b"));
        }
        let snap = tracer.snapshot();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        for name in ["a", "b"] {
            let s = snap.spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(outer.id), "{name}");
        }
    }

    #[test]
    fn span_attrs_are_typed() {
        let tracer = Tracer::new();
        drop(
            tracer
                .span("attrs")
                .attr("n", 4u64)
                .attr("x", -1.5)
                .attr("s", "hi")
                .attr("b", true),
        );
        let snap = tracer.snapshot();
        let attrs = &snap.spans[0].attrs;
        assert_eq!(attrs[0], ("n".to_owned(), AttrValue::U64(4)));
        assert_eq!(attrs[1], ("x".to_owned(), AttrValue::F64(-1.5)));
        assert_eq!(attrs[2], ("s".to_owned(), AttrValue::Str("hi".into())));
        assert_eq!(attrs[3], ("b".to_owned(), AttrValue::Bool(true)));
    }

    #[test]
    fn task_context_reroots_and_restores() {
        let tracer = Tracer::new();
        let outer = tracer.span("outer");
        let outer_id = outer.id();
        {
            let _ctx = task_context(Some(outer_id));
            drop(tracer.span("in-task"));
        }
        drop(tracer.span("after-task"));
        drop(outer);
        let snap = tracer.snapshot();
        let in_task = snap.spans.iter().find(|s| s.name == "in-task").unwrap();
        assert_eq!(in_task.parent, Some(outer_id));
        let after = snap.spans.iter().find(|s| s.name == "after-task").unwrap();
        assert_eq!(after.parent, Some(outer_id), "context must be restored");
    }

    #[test]
    fn raise_id_floor_reserves_a_high_range() {
        let tracer = Tracer::new();
        raise_id_floor(1 << 20);
        let span = tracer.span("floored");
        assert!(span.id() >= 1 << 20);
        let first = span.id();
        drop(span);
        // A lower floor never rolls the counter back.
        raise_id_floor(1);
        let span = tracer.span("still-floored");
        assert!(span.id() > first);
        drop(span);
    }

    #[test]
    fn counters_accumulate_and_set_overrides() {
        let tracer = Tracer::new();
        tracer.add("cache.x.hit", 2);
        tracer.add("cache.x.hit", 3);
        assert_eq!(tracer.counter("cache.x.hit"), 5);
        assert_eq!(tracer.counter("missing"), 0);
        tracer.set_counter("cache.x.hit", 42);
        assert_eq!(tracer.counter("cache.x.hit"), 42);
    }

    #[test]
    fn gauges_last_write_wins() {
        let tracer = Tracer::new();
        tracer.gauge("g", 1.0);
        tracer.gauge("g", 2.5);
        assert_eq!(tracer.snapshot().gauges["g"], 2.5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0, 10.0]);
        for v in [0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.counts, vec![2, 1, 2, 1, 1]);
        assert_eq!(h.counts.iter().sum::<u64>(), h.count);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 100.0);
        // 4th of 7 samples sits in the (2, 5] bucket.
        assert_eq!(h.quantile(0.5), 5.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert!(Histogram::new(&[1.0]).quantile(0.5).is_nan());
    }

    #[test]
    fn observe_uses_first_seen_bounds() {
        let tracer = Tracer::new();
        tracer.observe_with("h", 0.5, &[1.0, 2.0]);
        tracer.observe_with("h", 1.5, &[99.0]); // bounds ignored: already registered
        let snap = tracer.snapshot();
        assert_eq!(snap.hists["h"].bounds, vec![1.0, 2.0]);
        assert_eq!(snap.hists["h"].count, 2);
    }

    #[test]
    fn jsonl_sink_is_machine_readable_v2() {
        let tracer = Tracer::new();
        drop(tracer.span("a\"b").attr("k", 7u64));
        tracer.add("c", 1);
        tracer.gauge("g", 1.5);
        tracer.observe_with("h", 3.0, &[1.0, 5.0]);
        let mut buf = Vec::new();
        tracer.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"name\":\"a\\\"b\""));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[0].contains("\"attrs\":{\"k\":7}"));
        assert!(lines[1].contains("\"type\":\"counter\""));
        assert!(lines[2].contains("\"type\":\"gauge\""));
        assert!(lines[3].contains("\"type\":\"hist\""));
        assert!(lines[3].contains("\"counts\":[0,1,0]"));
        assert!(lines[4].contains("\"type\":\"meta\""));
        assert!(lines[4].contains("\"v\":2"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn chrome_sink_has_required_fields_on_every_event() {
        let tracer = Tracer::new();
        drop(tracer.span("e1"));
        tracer.add("c", 2);
        let mut buf = Vec::new();
        tracer.write_chrome(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        for line in text.lines().filter(|l| l.starts_with('{') && l.len() > 2) {
            if line.starts_with("{\"traceEvents\"") {
                continue;
            }
            for field in [
                "\"name\":",
                "\"ph\":",
                "\"pid\":",
                "\"tid\":",
                "\"ts\":",
                "\"dur\":",
            ] {
                assert!(line.contains(field), "{field} missing from {line}");
            }
        }
    }

    #[test]
    fn flush_hooks_run_on_drain() {
        let tracer = Tracer::new();
        tracer.register_flush(|t| t.set_counter("flushed", 9));
        drop(tracer.span("kept"));
        assert_eq!(tracer.counter("flushed"), 0);
        let snap = tracer.flushed_snapshot();
        assert_eq!(snap.counters["flushed"], 9);
        assert_eq!(snap.spans.len(), 1);
    }

    #[test]
    fn the_metrics_read_runs_the_flush_hooks_and_returns_no_spans() {
        let tracer = Tracer::new();
        let flushes = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&flushes);
        tracer.register_flush(move |t| {
            t.set_counter("flushed", seen.fetch_add(1, Ordering::Relaxed) + 1);
        });
        drop(tracer.span("kept").attr("k", 1u64));
        tracer.gauge("g", 0.5);
        tracer.observe("h", 3.0);
        let metrics = tracer.flushed_metrics();
        assert_eq!(flushes.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.counters["flushed"], 1);
        assert_eq!(metrics.gauges["g"], 0.5);
        assert_eq!(metrics.hists["h"].count, 1);
        assert!(metrics.spans.is_empty());
        // The spans are still there for a full snapshot.
        assert_eq!(tracer.flushed_snapshot().spans.len(), 1);
        assert_eq!(flushes.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_discarding_tracer_counts_but_holds_no_spans_or_recovery_records() {
        let tracer = Tracer::new();
        tracer.set_keep_spans(false);
        let root = tracer.span("root");
        let root_id = root.id();
        for i in 0..10_000u64 {
            let mut span = tracer.span("closed").attr("i", i);
            span.set_attr("twice", true);
            assert_ne!(span.id(), 0, "a discarded span still gets an id");
            assert_eq!(current_span_id(), Some(span.id()));
            {
                let child = tracer.span("child");
                assert_eq!(current_span_id(), Some(child.id()));
            }
            drop(span);
            tracer.add("closed", 1);
        }
        assert_eq!(current_span_id(), Some(root_id), "the stack unwinds");
        {
            let _ctx = task_context(Some(root_id));
            assert_eq!(current_span_id(), Some(root_id));
        }
        drop(root);
        let locks = locks_taken();
        drop(tracer.span("lockless"));
        assert_eq!(
            locks_taken(),
            locks,
            "closing a discarded span takes no lock"
        );
        tracer.record_recovery("test.site", RecoveryStep::Retry, "attempt 1", true);
        let snap = tracer.flushed_snapshot();
        assert_eq!(snap.counters["closed"], 10_000);
        assert_eq!(snap.counters["recovery.test.site.retry"], 1);
        assert!(snap.spans.is_empty());
        assert!(tracer.recoveries().is_empty());
        assert_eq!(current_span_id(), None);
    }

    #[test]
    fn a_keeping_tracer_stores_recovery_records_until_taken() {
        let tracer = Tracer::new();
        tracer.record_recovery("test.site", RecoveryStep::Retry, "attempt 1", true);
        tracer.record_recovery("test.site", RecoveryStep::BiasSubstep, "vg=0.3", false);
        let records = tracer.recoveries();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].step, RecoveryStep::BiasSubstep);
        assert!(!records[1].recovered);
        assert_eq!(tracer.counter("recovery.test.site.retry"), 1);
        assert_eq!(tracer.take_recoveries(), records);
        assert!(tracer.recoveries().is_empty());
    }

    #[test]
    fn record_all_equals_one_call_per_unit_under_one_lock() {
        let batched = Tracer::new();
        let one_by_one = Tracer::new();
        let samples = [3.0, 1.0, 7.0, 250.0];
        let locks = locks_taken();
        batched.record_all(&[("c", 5), ("zero", 0)], &[("h", &samples), ("empty", &[])]);
        assert_eq!(locks_taken() - locks, 1);
        one_by_one.add("c", 5);
        samples.iter().for_each(|&v| one_by_one.observe("h", v));
        let (got, want) = (batched.snapshot(), one_by_one.snapshot());
        assert_eq!(got.counters, want.counters);
        assert_eq!(got.hists, want.hists);
        assert!(!got.counters.contains_key("zero"));
        assert!(!got.hists.contains_key("empty"));
    }

    #[test]
    fn json_escaping_covers_controls() {
        assert_eq!(json_str("a\nb"), "\"a\\nb\"");
        assert_eq!(json_str("q\"\\"), "\"q\\\"\\\\\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
