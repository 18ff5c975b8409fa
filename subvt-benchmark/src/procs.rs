//! Child processes: building the shipped binaries, scratch directories
//! inside the checkout, spawning with per-child peak memory, and the
//! `subvt-serve` daemon's lifetime.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use subvt_serve::client::Client;

/// Environment switches of the program that change what it computes or
/// how; children never inherit them from the benchmark's caller.
const PROGRAM_ENV: [&str; 4] = [
    "SUBVT_JOBS",
    "SUBVT_FAULTS",
    "SUBVT_SPICE_COLD_START",
    "SUBVT_FLEET_CRASH_ONCE",
];

/// Scratch root, relative to the checkout.
const WORK_DIR: &str = ".subvt-benchmark-work";

/// The shipped binaries under test, and this package's own executable.
#[derive(Debug, Clone)]
pub struct Bins {
    /// The `repro` CLI.
    pub repro: PathBuf,
    /// The `subvt-serve` daemon.
    pub serve: PathBuf,
    /// The `subvt-benchmark` executable, which also runs the `noop`,
    /// `launch`, `probe` and `replay` workers.
    pub worker: PathBuf,
}

impl Bins {
    /// Builds `repro` and `subvt-serve` from the workspace at `root` in
    /// release mode (honouring `CARGO_TARGET_DIR`) and locates them;
    /// `worker` is the `subvt-benchmark` executable.
    ///
    /// # Errors
    ///
    /// When cargo cannot be run or the build fails.
    pub fn build(root: &Path, worker: PathBuf) -> Result<Bins, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .current_dir(root)
            .args(["build", "--release", "--quiet", "--bin", "repro"])
            .args(["--bin", "subvt-serve"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building repro and subvt-serve failed ({status})"));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        let bins = Bins {
            repro: target.join("release").join("repro"),
            serve: target.join("release").join("subvt-serve"),
            worker,
        };
        for bin in [&bins.repro, &bins.serve, &bins.worker] {
            if !bin.is_file() {
                return Err(format!("built binary missing: {}", bin.display()));
            }
        }
        Ok(bins)
    }
}

/// A per-process scratch directory under [`WORK_DIR`], removed on drop.
pub struct WorkDir {
    path: PathBuf,
    next: AtomicUsize,
}

impl WorkDir {
    /// Creates `<root>/.subvt-benchmark-work/run-<pid>-<n>`.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn create(root: &Path) -> Result<WorkDir, String> {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = root.join(WORK_DIR).join(format!(
            "run-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir {
            path,
            next: AtomicUsize::new(0),
        })
    }

    /// A new empty subdirectory (with `home/` and `tmp/` inside) for one
    /// child: nothing a child writes survives into the next one's.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn fresh(&self, label: &str) -> Result<PathBuf, String> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.path.join(format!("{n:05}-{label}"));
        for sub in ["home", "tmp"] {
            std::fs::create_dir_all(dir.join(sub))
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        Ok(dir)
    }

    /// Removes a directory made by [`WorkDir::fresh`] once it is spent.
    pub fn retire(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once no other run is using the scratch root.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A command for `bin` running in `dir` with its own `HOME` and
/// `TMPDIR` and none of the program's environment switches.
pub fn command(bin: &Path, dir: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.current_dir(dir)
        .env("HOME", dir.join("home"))
        .env("TMPDIR", dir.join("tmp"))
        .stdin(Stdio::null());
    for var in PROGRAM_ENV {
        cmd.env_remove(var);
    }
    cmd
}

/// How a finished child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exit {
    /// Exited with status 0.
    pub success: bool,
    /// Peak resident set size of the child, KiB.
    pub maxrss_kb: u64,
}

/// A finished child run by [`run`].
#[derive(Debug)]
pub struct Ran {
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Spawn to exit.
    pub elapsed: Duration,
    /// Exit status and peak memory.
    pub exit: Exit,
}

/// Runs `cmd` to completion, capturing stdout and sending stderr to
/// `stderr_to`.
///
/// # Errors
///
/// When the child cannot be spawned or waited for, or exits nonzero
/// (the message carries the end of its stderr).
pub fn run(cmd: &mut Command, stderr_to: &Path) -> Result<Ran, String> {
    let err = File::create(stderr_to)
        .map_err(|e| format!("cannot create {}: {e}", stderr_to.display()))?;
    cmd.stdout(Stdio::piped()).stderr(err);
    let started = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {:?}: {e}", cmd.get_program()))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let exit = sys::wait(child.id(), false)
        .map_err(|e| format!("cannot wait for child: {e}"))?
        .expect("a blocking wait returns the exit");
    let elapsed = started.elapsed();
    read.map_err(|e| format!("cannot read child stdout: {e}"))?;
    if !exit.success {
        return Err(format!(
            "{:?} {:?} failed: {}",
            cmd.get_program(),
            cmd.get_args().collect::<Vec<_>>(),
            stderr_tail(stderr_to)
        ));
    }
    Ok(Ran {
        stdout,
        elapsed,
        exit,
    })
}

/// Runs `cmd` like [`run`], but through the `launch` worker
/// ([`launch`]), and reports the child's wall time and peak
/// memory as the worker measured them.
///
/// A child's `ru_maxrss` is never below the peak memory of the process
/// that spawned it (Linux carries the parent's high-water mark across
/// `exec`), and this benchmark's own peak exceeds a `repro` run's. The
/// small worker process in between keeps that floor well under what is
/// measured.
///
/// # Errors
///
/// As [`run`], and when the worker's report is missing.
pub fn run_launched(bins: &Bins, cmd: &Command, stderr_to: &Path) -> Result<Ran, String> {
    let dir = cmd.get_current_dir().unwrap_or(Path::new("."));
    let report = dir.join("launch.txt");
    let mut worker = Command::new(&bins.worker);
    worker
        .arg("launch")
        .arg(&report)
        .arg(cmd.get_program())
        .args(cmd.get_args())
        .current_dir(dir)
        .stdin(Stdio::null());
    for (key, value) in cmd.get_envs() {
        match value {
            Some(v) => worker.env(key, v),
            None => worker.env_remove(key),
        };
    }
    let mut ran = run(&mut worker, stderr_to)?;
    let text = std::fs::read_to_string(&report)
        .map_err(|e| format!("cannot read {}: {e}", report.display()))?;
    let fields: Vec<u64> = text
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    let [nanos, maxrss_kb] = fields[..] else {
        return Err(format!("malformed launch report: {text:?}"));
    };
    ran.elapsed = Duration::from_nanos(nanos);
    ran.exit.maxrss_kb = maxrss_kb;
    Ok(ran)
}

/// The `launch` worker: runs `program args…` with this process's
/// standard streams, directory and environment, then writes
/// `<wall ns> <peak RSS KiB>` to `report`.
///
/// # Errors
///
/// When the program cannot be run, exits nonzero, or the report cannot
/// be written.
pub fn launch(report: &Path, program: &str, args: &[String]) -> Result<(), String> {
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .spawn()
        .map_err(|e| format!("cannot spawn {program}: {e}"))?;
    let exit = sys::wait(child.id(), false)
        .map_err(|e| format!("cannot wait for {program}: {e}"))?
        .expect("a blocking wait returns the exit");
    let nanos = started.elapsed().as_nanos();
    if !exit.success {
        return Err(format!("{program} exited nonzero"));
    }
    std::fs::write(report, format!("{nanos} {}\n", exit.maxrss_kb))
        .map_err(|e| format!("cannot write {}: {e}", report.display()))
}

/// The last few lines of a captured stderr file.
fn stderr_tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(6)..].join(" | ")
}

/// A running `subvt-serve`. Dropping it without [`Daemon::shutdown`]
/// kills and reaps the process.
pub struct Daemon {
    child: Child,
    addr: String,
    stderr: PathBuf,
    /// Held open until exit: the daemon must never see a closed stdout.
    _stdout: BufReader<ChildStdout>,
    reaped: bool,
}

impl Daemon {
    /// Spawns `cmd` (a `subvt-serve` command bound to port 0) and reads
    /// its `listening on <addr>` line.
    ///
    /// # Errors
    ///
    /// When the daemon cannot be spawned or exits before listening.
    pub fn spawn(mut cmd: Command, stderr_to: &Path) -> Result<Daemon, String> {
        let err = File::create(stderr_to)
            .map_err(|e| format!("cannot create {}: {e}", stderr_to.display()))?;
        cmd.stdout(Stdio::piped()).stderr(err);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn subvt-serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        // From here on a failure drops `daemon`, which kills and reaps.
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr: stderr_to.to_path_buf(),
            _stdout: stdout,
            reaped: false,
        };
        match (read, line.trim().rsplit_once(' ')) {
            (Ok(n), Some((_, addr))) if n > 0 && line.contains("listening on") => {
                daemon.addr = addr.to_owned();
                Ok(daemon)
            }
            _ => Err(format!(
                "subvt-serve did not start: {}",
                stderr_tail(&daemon.stderr)
            )),
        }
    }

    /// The bound `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's peak resident memory so far (`VmHWM` in
    /// `/proc/<pid>/status`), KiB.
    ///
    /// # Errors
    ///
    /// When the status file cannot be read or has no `VmHWM` line.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Polls `ping` every millisecond until it answers.
    ///
    /// # Errors
    ///
    /// When no `ping` succeeds within `timeout`.
    pub fn wait_ready(&self, timeout: Duration) -> Result<(), String> {
        let started = Instant::now();
        loop {
            if let Ok(mut c) = Client::connect(self.addr.as_str()) {
                if c.call("ping", "{}").is_ok_and(|r| r.ok) {
                    return Ok(());
                }
            }
            if started.elapsed() > timeout {
                return Err(format!(
                    "subvt-serve at {} never answered ping: {}",
                    self.addr,
                    stderr_tail(&self.stderr)
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Requests a graceful drain and waits for the exit.
    ///
    /// # Errors
    ///
    /// When the daemon cannot be asked to stop, does not exit within
    /// `timeout` (it is then killed), or exits nonzero.
    pub fn shutdown(mut self, timeout: Duration) -> Result<Exit, String> {
        let asked = Client::connect(self.addr.as_str())
            .and_then(|mut c| c.call("shutdown", "{}"))
            .map_err(|e| format!("cannot ask subvt-serve to shut down: {e}"));
        let started = Instant::now();
        let exit = loop {
            match sys::wait(self.child.id(), true) {
                Ok(Some(exit)) => break exit,
                Ok(None) if started.elapsed() < timeout && asked.is_ok() => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => {
                    return Err(format!(
                        "subvt-serve did not exit after shutdown ({})",
                        asked.err().unwrap_or_else(|| "timed out".to_owned())
                    ))
                }
                Err(e) => return Err(format!("cannot wait for subvt-serve: {e}")),
            }
        };
        self.reaped = true;
        if exit.success {
            Ok(exit)
        } else {
            Err(format!(
                "subvt-serve exited abnormally: {}",
                stderr_tail(&self.stderr)
            ))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = sys::wait(self.child.id(), false);
        }
    }
}

/// The host's cumulative `(steal, total)` CPU jiffies from `/proc/stat`;
/// `None` where the file is unavailable.
pub fn cpu_steal_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already folded into user/nice.
    let total: u64 = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod sys {
    use super::Exit;

    const WNOHANG: i32 = 1;

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    }

    /// Reaps child `pid`, returning its exit and peak RSS; `Ok(None)`
    /// when `nohang` and it is still running. The caller must own `pid`
    /// as an unreaped child and never signal it after this returns
    /// `Some`, since the pid may then be reused.
    pub fn wait(pid: u32, nohang: bool) -> std::io::Result<Option<Exit>> {
        let pid = i32::try_from(pid).map_err(|_| std::io::ErrorKind::InvalidInput)?;
        let mut status = 0i32;
        let mut usage = RUsage {
            times: [0; 4],
            maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live, writable and laid out
            // as wait4(2) expects on this target; `pid` is our own child.
            let r = unsafe {
                wait4(
                    pid,
                    &mut status,
                    if nohang { WNOHANG } else { 0 },
                    &mut usage,
                )
            };
            if r == pid {
                return Ok(Some(Exit {
                    success: status == 0,
                    maxrss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
                }));
            }
            if r == 0 {
                return Ok(None);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use super::Exit;

    /// Per-child peak memory needs wait4(2) as declared for 64-bit Linux.
    pub fn wait(_pid: u32, _nohang: bool) -> std::io::Result<Option<Exit>> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
}
