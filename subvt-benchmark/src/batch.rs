//! Batch workloads: fresh `repro` processes, each in its own scratch
//! directory and `HOME`, whose stdout must match a `--jobs 1` reference.

use std::ffi::OsString;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::check;
use crate::host::{self, Scaled};
use crate::procs::{self, Bins, Ran, WorkDir};
use crate::report::{push_end_to_end, Outcome};
use crate::workload::{BatchSpec, Workload};

/// `repro --list` spawns timed for set-up before each measured
/// invocation, so the set-up samples span the whole run.
const SETUP_SPAWNS: usize = 3;

/// Fewest invocations a measured loop makes, however short `--seconds`.
const MIN_OPS: usize = 3;

/// One batch workload, prepared for a seed.
pub struct Batch<'a> {
    bins: &'a Bins,
    work: &'a WorkDir,
    spec: BatchSpec,
    /// Experiment ids in the seed's order.
    pub ids: Vec<&'static str>,
    /// Stdout of the `--jobs 1` reference invocation.
    pub reference: Vec<u8>,
}

/// One checked invocation.
pub struct Op {
    /// The finished child.
    pub ran: Ran,
    /// Its scratch directory (already retired unless kept).
    pub dir: PathBuf,
}

impl<'a> Batch<'a> {
    /// Orders the ids by `seed` and records the `--jobs 1` reference.
    ///
    /// # Errors
    ///
    /// When the reference invocation fails.
    pub fn prepare(
        bins: &'a Bins,
        work: &'a WorkDir,
        spec: BatchSpec,
        seed: u64,
    ) -> Result<Batch<'a>, String> {
        let mut batch = Batch {
            bins,
            work,
            spec,
            ids: spec.ordered_ids(seed),
            reference: Vec::new(),
        };
        let extra: [OsString; 2] = ["--jobs".into(), "1".into()];
        batch.reference = batch.invoke(&extra, false)?.ran.stdout;
        Ok(batch)
    }

    /// Spawn-to-exit seconds of `repro --list`, [`SETUP_SPAWNS`] times,
    /// each as measured and scaled by the spawn reference run right after
    /// it.
    ///
    /// # Errors
    ///
    /// When an invocation fails.
    pub fn setup_samples(&self) -> Result<Vec<Scaled>, String> {
        let dir = self.work.fresh("setup")?;
        let out = (0..SETUP_SPAWNS)
            .map(|_| {
                let ran = procs::run(
                    procs::command(&self.bins.repro, &dir).arg("--list"),
                    &dir.join("stderr.txt"),
                )?;
                let s = ran.elapsed.as_secs_f64();
                Ok(Scaled {
                    raw: s,
                    scaled: s * host::SPAWN_NOMINAL_MS / host::spawn_ms(self.bins, &dir)?,
                })
            })
            .collect();
        self.work.retire(&dir);
        out
    }

    /// Runs the workload's command once with `extra` arguments in front
    /// and checks its stdout against the reference (once one exists).
    /// The scratch directory is kept when `keep` is set.
    ///
    /// # Errors
    ///
    /// When the invocation fails or its stdout differs.
    pub fn invoke(&self, extra: &[OsString], keep: bool) -> Result<Op, String> {
        let dir = self.work.fresh("repro")?;
        let mut cmd = procs::command(&self.bins.repro, &dir);
        cmd.args(extra)
            .args(self.spec.args(&self.ids, &dir.join("cache.jsonl")));
        let ran = procs::run_launched(self.bins, &cmd, &dir.join("stderr.txt"));
        if !keep {
            self.work.retire(&dir);
        }
        let ran = ran?;
        if !self.reference.is_empty() {
            check::identical(
                "repro stdout vs --jobs 1 reference",
                &self.reference,
                &ran.stdout,
            )?;
        }
        Ok(Op { ran, dir })
    }

    /// Invokes the command back to back for `budget` (at least
    /// [`MIN_OPS`] times), each preceded by [`Batch::setup_samples`] and
    /// bracketed by compute references, recording every invocation into
    /// `out`.
    pub fn measure(&self, budget: Duration, out: &mut Outcome) -> Measured {
        let mut m = Measured::default();
        let started = Instant::now();
        let mut reference = host::Bracket::start();
        while m.ops < MIN_OPS || started.elapsed() < budget {
            m.ops += 1;
            match self.setup_samples() {
                Ok(s) => m.setup_s.extend(s),
                Err(e) => out.fail(format!("repro --list: {e}")),
            }
            let op = self.invoke(&[], false);
            let scale = reference.close();
            match op {
                Ok(op) => {
                    let ms = op.ran.elapsed.as_secs_f64() * 1e3;
                    m.ms.push(Scaled {
                        raw: ms,
                        scaled: ms * scale,
                    });
                    m.rss_kb.push(op.ran.exit.maxrss_kb as f64);
                    out.record(Ok(()));
                }
                Err(e) => out.record(Err(e)),
            }
        }
        m
    }
}

/// What [`Batch::measure`] collected.
#[derive(Debug, Default)]
pub struct Measured {
    /// Invocations attempted.
    pub ops: usize,
    /// Wall time of each successful invocation, ms.
    pub ms: Vec<Scaled>,
    /// Peak RSS of each successful invocation, KiB.
    pub rss_kb: Vec<f64>,
    /// `repro --list` spawn-to-exit times, s.
    pub setup_s: Vec<Scaled>,
}

/// The `repro` invocation of a batch workload.
///
/// # Errors
///
/// For `serve-mixed`, which has none.
pub fn spec_of(workload: Workload) -> Result<BatchSpec, String> {
    workload
        .batch()
        .ok_or_else(|| format!("{} is not a batch workload", workload.name()))
}

/// One untraced run of a batch workload.
///
/// # Errors
///
/// When preparation (the reference invocation or `repro --list`) fails;
/// failed measured invocations are counted in the outcome instead.
pub fn run(
    bins: &Bins,
    work: &WorkDir,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let batch = Batch::prepare(bins, work, spec_of(workload)?, seed)?;
    let mut out = Outcome::new(workload, false);
    let m = batch.measure(Duration::from_secs_f64(seconds), &mut out);
    push_end_to_end(&mut out, &m.setup_s, &m.ms, &m.rss_kb);
    out.notes.push((
        "ids".to_owned(),
        format!(
            "[{}]",
            batch
                .ids
                .iter()
                .map(|id| format!("\"{id}\""))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));
    out.notes.push((
        "reference_bytes".to_owned(),
        batch.reference.len().to_string(),
    ));
    Ok(out)
}
