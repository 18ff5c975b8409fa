//! Smoke runs of the real `repro` and `subvt-serve`, built from this
//! checkout: one batch workload of `repro table1`, and a 50-request
//! serve session.

use std::path::PathBuf;
use std::time::Duration;

use subvt_benchmark::batch::Batch;
use subvt_benchmark::procs::{Bins, WorkDir};
use subvt_benchmark::report::Outcome;
use subvt_benchmark::serve::{self, Plan};
use subvt_benchmark::traffic::Traffic;
use subvt_benchmark::workload::{BatchSpec, Workload};
use subvt_circuits::CircuitBackendKind;
use subvt_model::Backend;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

#[test]
fn repro_table1_runs_and_matches_its_reference() {
    let root = repo_root();
    let bins = Bins::build(&root, env!("CARGO_BIN_EXE_subvt-benchmark").into())
        .expect("repro and subvt-serve build");
    let work = WorkDir::create(&root).expect("scratch directory");
    let spec = BatchSpec {
        backend: Backend::Analytic,
        circuit: CircuitBackendKind::Analytic,
        ids: &["table1"],
        fresh_cache: false,
    };
    let batch = Batch::prepare(&bins, &work, spec, 1).expect("reference run");
    assert!(String::from_utf8_lossy(&batch.reference).starts_with("Parameter,"));
    let mut out = Outcome::new(Workload::PaperAnalytic, false);
    let m = batch.measure(Duration::ZERO, &mut out);
    assert_eq!((out.attempted, out.failed), (3, 0), "{:?}", out.problems);
    assert_eq!((m.ms.len(), m.setup_s.len()), (3, 9));
    assert!(m.ms.iter().all(|ms| ms.raw > 0.0 && ms.scaled > 0.0));
    assert!(m.setup_s.iter().all(|s| s.raw > 0.0 && s.scaled > 0.0));
    assert!(m.rss_kb.iter().all(|&kb| kb > 0.0));
}

#[test]
fn a_fifty_request_serve_run_is_correct() {
    let root = repo_root();
    let bins = Bins::build(&root, env!("CARGO_BIN_EXE_subvt-benchmark").into())
        .expect("repro and subvt-serve build");
    let work = WorkDir::create(&root).expect("scratch directory");
    let prep = serve::prepare(&bins, &work).expect("prefill");
    let plan = Plan {
        startups: 1,
        rate: 200.0,
        phase_a: Duration::from_millis(125),
        phase_b: 25,
        access_log: true,
        fresh_checks: 5,
    };
    let mut out = Outcome::new(Workload::ServeMixed, false);
    let s = serve::session(&bins, &work, &prep, &mut Traffic::new(1), plan, &mut out)
        .expect("serve session");
    assert_eq!(out.attempted, 50);
    assert_eq!(out.failed, 0, "{:?}", out.problems);
    assert_eq!(s.access.len(), 50, "every request is access-logged");
    assert!(s.maxrss_kb > 0);
    assert_eq!(s.setup_s.len(), 1);
}
