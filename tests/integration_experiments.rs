//! End-to-end checks on the experiment harness: every table and figure
//! runs, renders, and reproduces the paper's headline shapes.

use std::process::Command;

use subvt_circuits::CircuitBackendKind;
use subvt_exp::{RunError, Study, ALL_EXPERIMENTS};
use subvt_units::Temperature;

#[test]
fn every_registered_experiment_renders() {
    // Warm the shared design cache once, then run everything.
    let _ = Study::default().context().expect("default study designs");
    let tables = Study::default().run_ids(&ALL_EXPERIMENTS);
    assert_eq!(tables.len(), ALL_EXPERIMENTS.len());
    for t in tables
        .iter()
        .map(|t| t.as_ref().expect("registered experiment"))
    {
        assert!(!t.rows.is_empty(), "{} has no rows", t.title);
        let text = t.to_text();
        assert!(text.starts_with("## "), "{} text render", t.title);
        let csv = t.to_csv();
        assert_eq!(
            csv.lines().count(),
            t.rows.len() + 1,
            "{} csv render",
            t.title
        );
    }
}

#[test]
fn table2_reproduces_paper_inputs_exactly() {
    let t = Study::default().run("table2").expect("table2");
    // Roadmap columns are the paper's stated inputs and must match
    // exactly: L_poly 65/46/32/22 nm, T_ox 2.10/1.89/1.70/1.53 nm,
    // V_dd 1.2/1.1/1.0/0.9.
    let l: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
    assert_eq!(l, vec![65.0, 46.0, 32.0, 22.0]);
    let tox: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
    for (got, want) in tox.iter().zip([2.10, 1.89, 1.70, 1.53]) {
        assert!((got - want).abs() < 0.011);
    }
    let vdd: Vec<f64> = t.rows.iter().map(|r| r[5].parse().unwrap()).collect();
    assert_eq!(vdd, vec![1.2, 1.1, 1.0, 0.9]);
}

#[test]
fn table2_doping_lands_near_paper_values() {
    // Paper Table 2: N_sub 1.52/1.97/2.52/3.31e18. Our derived values
    // should land within ~50 % (independent substrate calibration).
    let t = Study::default().run("table2").expect("table2");
    let want = [1.52e18, 1.97e18, 2.52e18, 3.31e18];
    for (row, want) in t.rows.iter().zip(want) {
        let got: f64 = row[3].parse().unwrap();
        assert!(
            (got / want - 1.0).abs() < 0.5,
            "N_sub {got:e} vs paper {want:e}"
        );
    }
}

#[test]
fn table3_gate_lengths_exceed_minimum_and_shrink_slowly() {
    // Paper Table 3: L_poly 95/75/60/45 — longer than the super-Vth
    // 65/46/32/22 and scaling ~20-25 %/generation.
    let t = Study::default().run("table3").expect("table3");
    let l: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
    let min = [65.0, 46.0, 32.0, 22.0];
    for (got, min) in l.iter().zip(min) {
        assert!(
            *got > min,
            "L_poly {got} must exceed the node minimum {min}"
        );
    }
    for w in l.windows(2) {
        let shrink = 1.0 - w[1] / w[0];
        assert!(
            (0.05..0.35).contains(&shrink),
            "per-generation shrink {shrink} out of the paper's slow-scaling range"
        );
    }
}

#[test]
fn fig2_and_fig10_shapes() {
    let fig2 = Study::default().run("fig2").expect("fig2");
    let ss: Vec<f64> = fig2.rows.iter().map(|r| r[1].parse().unwrap()).collect();
    assert!(
        ss.windows(2).all(|w| w[1] > w[0]),
        "S_S must degrade: {ss:?}"
    );

    let fig10 = Study::default().run("fig10").expect("fig10");
    let ratio: f64 = fig10.rows[3][3].parse().unwrap();
    assert!(ratio > 1.05, "fig10 32 nm SNM ratio {ratio}");
}

#[test]
fn fig12_energy_ratio_close_to_paper() {
    // Paper: 23 % saving at 32 nm. Accept 10–40 %.
    let t = Study::default().run("fig12").expect("fig12");
    let ratio: f64 = t.rows[3][5].parse().unwrap();
    assert!(
        (0.60..0.90).contains(&ratio),
        "32 nm energy ratio {ratio} (paper: 0.77)"
    );
}

#[test]
fn unknown_experiment_is_rejected() {
    assert_eq!(
        Study::default().run("table9").err(),
        Some(RunError::UnknownId)
    );
    assert_eq!(Study::default().run("").err(), Some(RunError::UnknownId));
}

/// Plain `repro` prints the tables before the first unknown id and
/// fails; `--keep-going` also runs the ids after it and reports the
/// unknown one as a failure.
#[test]
fn repro_stops_at_an_unknown_id_unless_keep_going() {
    let repro = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs")
    };
    let csv = |id| Study::default().run(id).expect(id).to_csv();

    let plain = repro(&["--csv", "table1", "nope", "fig7"]);
    assert!(!plain.status.success());
    assert_eq!(String::from_utf8(plain.stdout).unwrap(), csv("table1"));
    let stderr = String::from_utf8(plain.stderr).unwrap();
    assert!(
        stderr.contains("unknown experiment `nope` (try --list)"),
        "{stderr}"
    );

    let kept = repro(&["--keep-going", "--csv", "table1", "nope", "fig7"]);
    assert!(!kept.status.success());
    let stdout = String::from_utf8(kept.stdout).unwrap();
    assert_eq!(stdout, csv("table1") + &csv("fig7"));
    let stderr = String::from_utf8(kept.stderr).unwrap();
    assert!(
        stderr.contains("FAILED nope: unknown experiment id"),
        "{stderr}"
    );
    assert!(stderr.contains("1 of 3 experiments failed"), "{stderr}");
}

/// Under `--keep-going`, an extension whose device backend fails is a
/// typed failure, not a panic. The persisted cache holds a TCAD anchor
/// calibration whose ratios are NaN, at the `tcad.model` calibration
/// key of the coarse reference anchor (as pinned by subvt-tcad's
/// `cache_keys_carry_the_solver_revision`); the backend rejects it, so
/// `ext-temperature` fails while `table1` still prints.
#[test]
fn a_failing_backend_fails_an_extension_with_a_typed_error() {
    let cache = std::env::temp_dir().join(format!("subvt-exp-nancal-{}.jsonl", std::process::id()));
    let nan = f64::NAN.to_bits();
    std::fs::write(
        &cache,
        format!(
            "{{\"ns\":\"tcad.model\",\"key\":\"a6b1e06c32bbe051\",\
             \"bits\":[{nan},{nan},{nan},{nan},{nan}]}}\n"
        ),
    )
    .expect("write cache");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--backend", "tcad", "--keep-going", "--cache"])
        .arg(&cache)
        .args(["--csv", "table1", "ext-temperature"])
        .output()
        .expect("repro runs");
    std::fs::remove_file(&cache).ok();
    std::fs::remove_dir_all(cache.with_extension("jsonl.d")).ok();

    assert!(!out.status.success());
    let table1 = Study::default().run("table1").expect("table1").to_csv();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), table1);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("FAILED ext-temperature: device model failed: ")
            && stderr.contains("degenerate anchor calibration"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

/// One process renders fig6 under four studies — 300 K before 350 K —
/// and each render is byte-identical to a fresh single-configuration
/// `repro --csv fig6` run.
#[test]
fn one_process_renders_fig6_under_four_studies() {
    let mut renders = Vec::new();
    for circuit in CircuitBackendKind::ALL {
        for kelvin in [300.0, 350.0] {
            let study = Study {
                circuit,
                temp: Temperature::from_kelvin(kelvin),
                ..Study::default()
            };
            let csv = study.run("fig6").expect("fig6").to_csv();
            let out = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(["--circuit-backend", circuit.as_str()])
                .args(["--temp", &kelvin.to_string()])
                .args(["--csv", "fig6"])
                .output()
                .expect("repro runs");
            assert!(out.status.success(), "repro failed: {out:?}");
            assert_eq!(
                csv,
                String::from_utf8(out.stdout).expect("utf8"),
                "{circuit} at {kelvin} K differs from a fresh repro run"
            );
            renders.push(csv);
        }
    }
    for (i, a) in renders.iter().enumerate() {
        for b in &renders[i + 1..] {
            assert_ne!(a, b, "every study must render its own fig6");
        }
    }
}

/// `repro`'s command-line errors, run on the built binary: each line
/// fails while parsing, before any experiment runs, with its exact
/// stderr and exit code 1.
#[test]
fn malformed_repro_command_lines_fail_with_their_message() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["--jobs", "0", "table1"],
            "--jobs needs a positive integer",
        ),
        (
            &["--jobs", "abc", "table1"],
            "--jobs needs a positive integer",
        ),
        (&["--cache"], "--cache needs a file path"),
        (&["--trace"], "--trace needs a file path"),
        (
            &["--trace-format"],
            "--trace-format needs one of: jsonl, chrome",
        ),
        (
            &["--trace-format", "xml", "table1"],
            "--trace-format needs one of: jsonl, chrome",
        ),
        (
            &["--backend", "spice", "table1"],
            "--backend needs one of: analytic, tcad",
        ),
        (
            &["fleet", "--workers", "0", "table1"],
            "--workers needs a positive integer",
        ),
        (
            &["fleet", "--keep-going", "table1"],
            "unknown fleet option --keep-going (try `repro fleet --help`)",
        ),
        (&["fig99"], "unknown experiment `fig99` (try --list)"),
        (&["trace-report"], "usage: repro trace-report <trace-file>"),
        (&["trace-stitch", "a", "--out"], "--out needs a file path"),
        (
            &["trace-stitch", "a"],
            "usage: repro trace-stitch <client-trace> <server-trace> [--out <chrome.json>]",
        ),
    ];
    for (argv, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*argv)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("{want}\n"),
            "{argv:?}"
        );
        assert!(out.stdout.is_empty(), "{argv:?}");
    }
    let help = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--help", "--jobs", "0"])
        .output()
        .expect("repro runs");
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stderr).starts_with("usage: repro [options]"));
}
