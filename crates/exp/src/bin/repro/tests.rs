//! The `repro` command-line parser, driven by tables of command lines.

use super::*;

fn parse_line(line: &str) -> Result<Args, String> {
    let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    parse(&argv)
}

fn study(backend: &str, circuit: &str, kelvin: f64) -> Study {
    Study {
        backend: backend.parse().unwrap(),
        circuit: circuit.parse().unwrap(),
        temp: Temperature::from_kelvin(kelvin),
    }
}

fn opts(args: &Args) -> &FleetOpts {
    args.fleet.as_ref().expect("a fleet command line")
}

/// What a parsed command line must hold.
type Check = fn(&Args) -> bool;

#[test]
fn every_flag_form_parses() {
    let cases: &[(&str, Check)] = &[
        ("t", |a| {
            a.ids == ["t"] && a.fleet.is_none() && a.worker.is_none()
        }),
        ("--csv t", |a| a.csv),
        ("--keep-going t", |a| a.keep_going),
        ("--jobs 3 t", |a| {
            a.jobs == Some(3) && a.forward == ["--jobs", "3"]
        }),
        ("--jobs 2 --jobs 3 t", |a| a.jobs == Some(3)),
        ("--trace t.jsonl t", |a| {
            a.trace.as_deref() == Some("t.jsonl")
        }),
        ("--trace-format chrome t", |a| {
            a.trace_format == TraceFormat::Chrome
        }),
        ("--trace-format chrome --trace-format jsonl t", |a| {
            a.trace_format == TraceFormat::Jsonl
        }),
        ("--manifest m.json t", |a| {
            a.manifest.as_deref() == Some("m.json")
        }),
        ("--bench b.json t", |a| a.bench.as_deref() == Some("b.json")),
        ("--cache c.jsonl t", |a| {
            a.cache.as_deref() == Some("c.jsonl")
        }),
        ("--backend tcad t", |a| {
            a.study.study.backend == "tcad".parse().unwrap() && a.forward == ["--backend", "tcad"]
        }),
        ("--circuit-backend spice t", |a| {
            a.study.study.circuit == "spice".parse().unwrap()
        }),
        ("--temp 350 t", |a| {
            a.study.study == study("analytic", "analytic", 350.0)
        }),
        ("--backend tcad --backend tcad t", |a| {
            a.study.study.backend == "tcad".parse().unwrap()
        }),
        ("--fleet-worker 0 t", |a| a.worker == Some(0)),
        ("--list --jobs 0", |a| a.list),
        ("--help --jobs 0", |a| a.help),
        ("-h", |a| a.help),
        ("all", |a| a.ids == ALL_EXPERIMENTS),
        ("ext", |a| a.ids == EXTENSION_EXPERIMENTS),
        ("everything", |a| a.ids.len() == 23),
        // A plain run takes unknown options and fleet flags as ids.
        ("-x t", |a| a.ids == ["-x", "t"]),
        ("--workers 2 t", |a| a.ids == ["--workers", "2", "t"]),
        ("fleet t", |a| {
            let o = opts(a);
            (o.workers, o.strategy, o.max_attempts, o.deadline_secs)
                == (2, ShardStrategy::KeyRange, 3, None)
                && a.ids == ["t"]
        }),
        ("fleet --workers 4 t", |a| opts(a).workers == 4),
        ("fleet --shard round-robin t", |a| {
            opts(a).strategy == ShardStrategy::RoundRobin
        }),
        ("fleet --shard key-range t", |a| {
            opts(a).strategy == ShardStrategy::KeyRange
        }),
        ("fleet --max-attempts 1 t", |a| opts(a).max_attempts == 1),
        ("fleet --deadline-secs 9 t", |a| {
            opts(a).deadline_secs == Some(9)
        }),
        ("fleet --csv --cache c --manifest m t", |a| {
            a.csv && a.cache.as_deref() == Some("c") && a.manifest.as_deref() == Some("m")
        }),
        ("fleet --temp 350 --circuit-backend spice --jobs 2 t", |a| {
            a.study.study == study("analytic", "spice", 350.0)
                && a.forward == ["--temp", "350", "--circuit-backend", "spice", "--jobs", "2"]
        }),
        ("fleet --help", |a| a.help),
        ("fleet -h", |a| a.help),
    ];
    for (line, check) in cases {
        let args = parse_line(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        assert!(check(&args), "`{line}`");
    }
}

#[test]
fn each_error_names_its_flag() {
    let cases = [
        ("--jobs", "--jobs needs a positive integer"),
        ("--jobs 0 t", "--jobs needs a positive integer"),
        ("--jobs abc t", "--jobs needs a positive integer"),
        ("--trace", "--trace needs a file path"),
        (
            "--trace-format",
            "--trace-format needs one of: jsonl, chrome",
        ),
        (
            "--trace-format xml",
            "--trace-format needs one of: jsonl, chrome",
        ),
        ("--manifest", "--manifest needs a file path"),
        ("--bench", "--bench needs a file path"),
        ("--cache", "--cache needs a file path"),
        ("--backend", "--backend needs one of: analytic, tcad"),
        ("--backend spice", "--backend needs one of: analytic, tcad"),
        (
            "--circuit-backend",
            "--circuit-backend needs one of: analytic, spice",
        ),
        ("--temp", "--temp needs a positive temperature in kelvin"),
        ("--temp -1", "--temp needs a positive temperature in kelvin"),
        ("--fleet-worker", "--fleet-worker needs a worker index"),
        ("--fleet-worker x", "--fleet-worker needs a worker index"),
        (
            "--backend tcad --backend analytic",
            "--backend given twice with conflicting values",
        ),
        (
            "--temp 350 --temp 300",
            "--temp given twice with conflicting values",
        ),
        ("fleet --workers", "--workers needs a positive integer"),
        ("fleet --workers 0", "--workers needs a positive integer"),
        (
            "fleet --max-attempts",
            "--max-attempts needs a positive integer",
        ),
        (
            "fleet --max-attempts 5000000000",
            "--max-attempts needs a positive integer",
        ),
        (
            "fleet --deadline-secs",
            "--deadline-secs needs a positive integer",
        ),
        (
            "fleet --shard",
            "--shard needs one of: key-range, round-robin",
        ),
        (
            "fleet --shard zig",
            "unknown shard strategy 'zig' (expected key-range|round-robin)",
        ),
        ("fleet --cache", "--cache needs a file path"),
        ("fleet --manifest", "--manifest needs a file path"),
        ("fleet --backend", "--backend needs a value"),
        ("fleet --circuit-backend", "--circuit-backend needs a value"),
        ("fleet --temp", "--temp needs a value"),
        ("fleet --jobs", "--jobs needs a value"),
        ("fleet --jobs 0", "--jobs needs a positive integer"),
        (
            "fleet --backend foo",
            "--backend needs one of: analytic, tcad",
        ),
        (
            "fleet --circuit-backend spice --circuit-backend analytic",
            "--circuit-backend given twice with conflicting values",
        ),
        (
            "fleet --keep-going",
            "unknown fleet option --keep-going (try `repro fleet --help`)",
        ),
        (
            "fleet --fleet-worker 0",
            "unknown fleet option --fleet-worker (try `repro fleet --help`)",
        ),
    ];
    for (line, want) in cases {
        assert_eq!(parse_line(line).err().as_deref(), Some(want), "`{line}`");
    }
}
