//! Cross-crate engine guarantees: parallel experiment dispatch is
//! byte-identical to a serial loop, and the design cache round-trips
//! through its on-disk JSON-lines form without recomputation.

use subvt_engine::Blob;
use subvt_exp::codec::DesignSet;
use subvt_exp::{Study, StudyContext, ALL_EXPERIMENTS};

#[test]
fn parallel_run_all_matches_serial_byte_for_byte() {
    let serial: Vec<String> = ALL_EXPERIMENTS
        .iter()
        .map(|id| {
            Study::default()
                .run(id)
                .expect("registered experiment")
                .to_csv()
        })
        .collect();
    let parallel: Vec<String> = Study::default()
        .run_ids(&ALL_EXPERIMENTS)
        .into_iter()
        .map(|t| t.expect("registered experiment").to_csv())
        .collect();
    assert_eq!(serial.len(), parallel.len());
    for (id, (s, p)) in ALL_EXPERIMENTS.iter().zip(serial.iter().zip(&parallel)) {
        assert_eq!(
            s, p,
            "experiment {id} differs between serial and parallel runs"
        );
    }
}

#[test]
fn design_cache_round_trips_through_disk_without_recompute() {
    let ctx = Study::default().context().expect("default study designs");
    let cache = subvt_engine::global_cache();

    let dir = std::env::temp_dir().join(format!("subvt-engine-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.jsonl");
    let saved = cache.save_jsonl(&path).unwrap();
    assert!(
        saved >= 2,
        "both design flows must be persisted, got {saved}"
    );

    // A fresh cache loaded from disk serves the flows as pure hits.
    let fresh = subvt_engine::Cache::new();
    assert_eq!(fresh.load_jsonl_lenient(&path).unwrap().loaded, saved);
    let misses_before = fresh.stats().misses;
    let recalled: StudyContext = {
        let sup = fresh.get_or_compute("design", design_key("supervth"), || {
            panic!("supervth flow must come from the loaded cache")
        });
        let sub = fresh.get_or_compute("design", design_key("subvth"), || {
            panic!("subvth flow must come from the loaded cache")
        });
        let (sup, sub): (DesignSet, DesignSet) = (sup, sub);
        StudyContext {
            study: Study::default(),
            supervth: sup.0,
            subvth: sub.0,
        }
    };
    assert_eq!(recalled, ctx, "disk round-trip must be bit-exact");
    assert_eq!(fresh.stats().misses, misses_before, "no recompute allowed");

    std::fs::remove_dir_all(&dir).ok();
}

/// Mirrors the `design` namespace keys of `subvt_exp::context` for the
/// default strategies (the flows' own parameters, the device-model
/// backend's cache id, the operating temperature, tag `design.v1`).
fn design_key(flow: &str) -> u64 {
    let backend = subvt_model::analytic().cache_id();
    let room = subvt_units::Temperature::room().as_kelvin();
    match flow {
        "supervth" => subvt_engine::KeyBuilder::new("design.v1")
            .str("supervth")
            .str(&backend)
            .f64(0.10)
            .f64(100.0)
            .f64(1.25)
            .f64(room)
            .finish(),
        "subvth" => subvt_engine::KeyBuilder::new("design.v1")
            .str("subvth")
            .str(&backend)
            .f64(subvt_units::AmpsPerMicron::from_picoamps(100.0).get())
            .f64(room)
            .finish(),
        _ => unreachable!(),
    }
}

#[test]
fn design_set_blob_matches_cache_record() {
    // The cached record must decode with the public codec — guards
    // against silent layout drift between codec and cache.
    let ctx = Study::default().context().expect("default study designs");
    let record = subvt_engine::global_cache()
        .peek("design", design_key("subvth"))
        .expect("subvth flow cached after Study::context()");
    let decoded = DesignSet::decode(&record).expect("record must decode");
    assert_eq!(decoded.0, ctx.subvth);
}
