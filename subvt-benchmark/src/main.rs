//! The `subvt-benchmark` command.
//!
//! ```text
//! subvt-benchmark --workload paper-analytic --seed 1 --seconds 15 --trace 0
//! subvt-benchmark --seed 1 --out set.json          # all four workloads
//! subvt-benchmark --seed 1 --repeat 3 --out set.json  # seeds 1..=3, medians
//! subvt-benchmark --workload tcad-device --seed 1 --trace 1
//! subvt-benchmark compare old.json new.json [--spec BENCHMARK.json]
//! ```
//!
//! Run from the root of a checkout: the command builds `repro` and
//! `subvt-serve` there first (release, honouring `CARGO_TARGET_DIR`).
//! The last stdout line is the JSON result; a readable summary goes to
//! stderr. `probe` and `replay` are the worker processes of a traced
//! run.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use subvt_benchmark::procs::{self, Bins, WorkDir};
use subvt_benchmark::report::{num, Outcome};
use subvt_benchmark::workload::Workload;
use subvt_benchmark::{batch, compare, layers, serve, traced};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => return compare_main(&args[1..]),
        Some("noop") => return ExitCode::SUCCESS,
        Some("launch") => match &args[1..] {
            [report, program, rest @ ..] => procs::launch(Path::new(report), program, rest),
            _ => Err("usage: launch <report> <program> [args...]".to_owned()),
        },
        Some("probe") => probe_main(),
        Some("replay") => replay_main(&args[1..]),
        _ => bench_main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("subvt-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    repeat: usize,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        repeat: 1,
        traced: false,
        out: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads.push(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer")?;
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--repeat" => {
                opts.repeat = value()?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--repeat needs a positive integer")?;
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                };
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(opts)
}

fn bench_main(args: &[String]) -> Result<(), String> {
    let opts = parse_options(args)?;
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let bins = Bins::build(&root, exe)?;
    let work = WorkDir::create(&root)?;
    let steal_before = procs::cpu_steal_jiffies();
    let mut outcomes = Vec::new();
    for &w in &opts.workloads {
        let mut runs = Vec::with_capacity(opts.repeat);
        for seed in (opts.seed..).take(opts.repeat) {
            let outcome = if opts.traced {
                traced::run(&bins, &work, w, seed, opts.seconds)?
            } else if w == Workload::ServeMixed {
                serve::run(&bins, &work, seed, opts.seconds)?
            } else {
                batch::run(&bins, &work, w, seed, opts.seconds)?
            };
            summarize(&outcome);
            runs.push(outcome);
        }
        outcomes.push(Outcome::combine(runs));
    }
    let steal = match (steal_before, procs::cpu_steal_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    eprintln!("host steal fraction during the run: {}", num(steal));
    if let Some(path) = &opts.out {
        std::fs::write(path, artifact(&opts, steal, &outcomes) + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", result_line(&outcomes));
    Ok(())
}

/// The result line: one workload's as is, several folded
/// into one with `<workload>.<metric>` names.
fn result_line(outcomes: &[Outcome]) -> String {
    if let [one] = outcomes {
        return one.result_line();
    }
    let mut all = Outcome::new(Workload::PaperAnalytic, false);
    for o in outcomes {
        all.attempted += o.attempted;
        all.failed += o.failed;
        for m in &o.metrics {
            let mut m = m.clone();
            m.name = format!("{}.{}", o.workload.name(), m.name);
            all.push(m);
        }
    }
    all.result_line()
}

fn summarize(o: &Outcome) {
    eprintln!(
        "== {}{}: {} attempted, {} failed{}",
        o.workload.name(),
        if o.traced { " (traced)" } else { "" },
        o.attempted,
        o.failed,
        if o.correct() { "" } else { " — INCORRECT" }
    );
    for p in &o.problems {
        eprintln!("   problem: {p}");
    }
    for m in &o.metrics {
        eprintln!(
            "   {:<40} {:>14} {:<5} (n={})",
            m.name,
            num(m.value),
            m.unit,
            m.samples
        );
    }
}

fn artifact(opts: &Options, steal: f64, outcomes: &[Outcome]) -> String {
    let workloads: Vec<String> = outcomes.iter().map(Outcome::artifact_json).collect();
    format!(
        "{{\"suite\":\"benchmark\",{},\"seed\":{},\"repeat\":{},\"seconds\":{},\"traced\":{},\
         \"host_parallelism\":{},\"steal_fraction\":{},\"workloads\":[{}]}}",
        subvt_exp::report::provenance_fragment(),
        opts.seed,
        opts.repeat,
        num(opts.seconds),
        opts.traced,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        num(steal),
        workloads.join(",")
    )
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut files = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--spec" => match iter.next() {
                Some(p) => spec_path = PathBuf::from(p),
                None => {
                    eprintln!("--spec needs a path");
                    return ExitCode::from(2);
                }
            },
            other => files.push(PathBuf::from(other)),
        }
    }
    let [base, cur] = &files[..] else {
        eprintln!(
            "usage: subvt-benchmark compare <baseline.json> <current.json> [--spec BENCHMARK.json]"
        );
        return ExitCode::from(2);
    };
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let loaded = (|| {
        let spec = compare::parse_spec(&read(&spec_path)?)?;
        let base = compare::parse_artifact(&read(base)?)?;
        let cur = compare::parse_artifact(&read(cur)?)?;
        Ok::<_, String>((spec, base, cur))
    })();
    let (spec, base, cur) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("subvt-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare::diff(&spec, &base, &cur);
    print!("{}", compare::render(&base, &cur, &rows));
    if rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regression)
    {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Worker: every layer probe, printed as one JSON object.
fn probe_main() -> Result<(), String> {
    let dir = std::env::current_dir().map_err(|e| e.to_string())?;
    println!("{}", layers::rows_json(&layers::probes(&dir)?));
    Ok(())
}

/// Worker: the layer replay of one batch workload.
fn replay_main(args: &[String]) -> Result<(), String> {
    let opts = parse_options(args)?;
    let [workload] = opts.workloads[..] else {
        return Err("replay needs exactly one --workload".to_owned());
    };
    let dir = std::env::current_dir().map_err(|e| e.to_string())?;
    println!("{}", layers::replay(workload, opts.seed, &dir)?);
    Ok(())
}
