//! The command lines of `subvt-loadgen` and `subvt-bench-diff`, run on
//! the built binaries: each malformed line fails while parsing, before
//! any connect or file read, with its exact stderr and exit code.

use std::process::Command;

/// Runs `exe` on each case and checks its exit code and whole stderr;
/// stdout stays empty.
fn check(exe: &str, cases: &[(Vec<&str>, i32, String)]) {
    for (argv, code, stderr) in cases {
        let out = Command::new(exe)
            .args(argv)
            .output()
            .expect("run the binary");
        assert_eq!(out.status.code(), Some(*code), "{argv:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), *stderr, "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}");
    }
}

/// `[flag]` and `[flag, value]` for each given value.
fn with_values(flag: &'static str, values: &[&'static str]) -> Vec<Vec<&'static str>> {
    let mut lines = vec![vec![flag]];
    lines.extend(values.iter().map(|v| vec![flag, v]));
    lines
}

#[test]
fn loadgen_rejects_malformed_command_lines() {
    let mut cases: Vec<(Vec<&str>, i32, String)> = Vec::new();
    let mut fails = |lines: Vec<Vec<&'static str>>, stderr: &str| {
        for argv in lines {
            cases.push((argv, 1, format!("{stderr}\n")));
        }
    };
    fails(with_values("--addr", &[]), "--addr needs HOST:PORT");
    fails(
        with_values("--wait-ready-ms", &["abc", "-1"]),
        "--wait-ready-ms needs an integer",
    );
    fails(with_values("--call", &[]), "--call needs a method");
    fails(with_values("--params", &[]), "--params needs JSON");
    fails(
        with_values("--print", &["json"]),
        "--print needs one of: payload, line",
    );
    fails(
        with_values("--mixed", &["abc", "-1"]),
        "--mixed needs a request count",
    );
    fails(
        with_values("--concurrency", &["0", "abc", "-2"]),
        "--concurrency needs a positive integer",
    );
    fails(with_values("--out", &[]), "--out needs a path");
    fails(with_values("--trace", &[]), "--trace needs a path");
    fails(
        with_values("--trace-format", &["xml"]),
        "--trace-format needs one of: jsonl, chrome",
    );
    fails(vec![vec!["--bogus"]], "unknown argument `--bogus`");
    fails(vec![vec!["extra"]], "unknown argument `extra`");
    // The sweep-batching probe is gone with sweep batching.
    fails(
        vec![
            vec!["--batch-probe"],
            vec!["--addr", "127.0.0.1:9", "--batch-probe"],
        ],
        "unknown argument `--batch-probe`",
    );
    // Without `--addr` every action fails; a zero wait or request
    // count is a value, not an error.
    fails(
        vec![
            vec![],
            vec!["--metrics"],
            vec!["--shutdown"],
            vec!["--call", "ping"],
            vec!["--wait-ready-ms", "0"],
            vec!["--mixed", "0"],
            vec!["--trace-format", "chrome", "--print", "payload"],
        ],
        "--addr is required",
    );
    // A bad flag fails even with `--addr` given, before any connect.
    fails(
        vec![vec!["--addr", "127.0.0.1:9", "--concurrency", "0"]],
        "--concurrency needs a positive integer",
    );
    fails(
        vec![vec!["--concurrency", "0", "--help"]],
        "--concurrency needs a positive integer",
    );
    fails(
        vec![
            vec!["--help"],
            vec!["-h"],
            vec!["--help", "--concurrency", "0"],
        ],
        "see module docs: subvt-loadgen --addr A [--call|--mixed|--metrics|--shutdown] \
         [--trace PATH --trace-format jsonl|chrome]",
    );
    check(env!("CARGO_BIN_EXE_subvt-loadgen"), &cases);
}

#[test]
fn bench_diff_rejects_malformed_command_lines() {
    let mut cases: Vec<(Vec<&str>, i32, String)> = Vec::new();
    let mut fails = |lines: Vec<Vec<&'static str>>, stderr: &str| {
        for argv in lines {
            cases.push((argv, 2, format!("subvt-bench-diff: {stderr}\n")));
        }
    };
    fails(
        with_values("--threshold", &["abc", "0", "0.5", "inf", "NaN"]),
        "--threshold needs a number >= 1.0",
    );
    fails(
        with_values("--min-ms", &["abc", "-1", "inf"]),
        "--min-ms needs a non-negative number",
    );
    fails(vec![vec!["--bogus"]], "unknown option `--bogus`");
    fails(
        vec![
            vec![],
            vec!["a.json"],
            vec!["a.json", "b.json", "c.json"],
            vec!["--report-only", "a.json"],
            vec!["--min-ms", "0", "--threshold", "1", "a.json"],
        ],
        "expected exactly two positional arguments: <baseline-file|baselines-dir> <current.json> \
         (try --help)",
    );
    fails(
        vec![vec!["--threshold", "0.5", "--help"]],
        "--threshold needs a number >= 1.0",
    );
    fails(
        vec![vec!["--help"], vec!["-h"], vec!["a.json", "--help"]],
        "usage: subvt-bench-diff <baseline-file|baselines-dir> <current.json> \
         [--threshold 1.25] [--min-ms 1.0] [--report-only]",
    );
    fails(
        vec![vec!["no-such-baseline.json", "no-such-current.json"]],
        "cannot read no-such-current.json: No such file or directory (os error 2)",
    );
    check(env!("CARGO_BIN_EXE_subvt-bench-diff"), &cases);
}
