//! A disabled tracer records nothing.
//!
//! The enable flag is process-global: while this test holds it off,
//! every tracer in the process drops its records. So this file holds a
//! single test, and no other test's records can be lost to it.

use subvt_engine::trace::{set_enabled, Tracer};

#[test]
fn disabled_tracer_records_nothing() {
    let tracer = Tracer::new();
    set_enabled(false);
    drop(tracer.span("ghost"));
    tracer.add("c", 1);
    tracer.observe("h", 1.0);
    set_enabled(true);
    let snap = tracer.snapshot();
    assert!(snap.spans.is_empty());
    assert!(snap.counters.is_empty());
    assert!(snap.hists.is_empty());
}
