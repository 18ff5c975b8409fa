//! Validates the MNA simulator (subvt-spice) against the paper's
//! closed-form circuit expressions on the same devices.

use subvt_circuits::chain::InverterChain;
use subvt_circuits::delay::{analytic_fo1_delay, spice_fo1_delay};
use subvt_circuits::inverter::{analytic_vtc, CmosPair, Inverter};
use subvt_circuits::snm::noise_margins;
use subvt_circuits::CircuitBackendKind;
use subvt_physics::device::DeviceParams;
use subvt_spice::measure::supply_energy;
use subvt_spice::netlist::{Netlist, Waveform};
use subvt_spice::transient::{transient, Integrator, TransientSpec};
use subvt_units::Volts;

fn pair() -> CmosPair {
    CmosPair::balanced(DeviceParams::reference_90nm_nfet())
}

#[test]
fn spice_vtc_matches_paper_eq3() {
    // The simulated VTC must track the paper's Eq. 3(b) closed form in
    // the subthreshold regime.
    let p = pair().at_supply(Volts::new(0.25));
    let spice = Inverter::new(p).vtc(Volts::new(0.25), 81).expect("vtc");
    let closed = analytic_vtc(&p, Volts::new(0.25), 81);
    let max_dev = spice
        .v_out
        .iter()
        .zip(&closed.v_out)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_dev < 0.05, "max VTC deviation {max_dev} V");
}

#[test]
fn spice_delay_tracks_analytic_over_supply() {
    // Eq. 4/Eq. 5 say delay is exponential in V_dd below threshold; the
    // transient-measured delay must track the analytic estimate within a
    // constant factor across supplies.
    let p = pair();
    for v in [0.22, 0.25, 0.30] {
        let v = Volts::new(v);
        let spice = spice_fo1_delay(&p, v, 700).expect("delay").average().get();
        let analytic = analytic_fo1_delay(&p, v).get();
        let ratio = spice / analytic;
        assert!(
            (0.3..3.0).contains(&ratio),
            "V_dd {v}: spice {spice:e} vs analytic {analytic:e}"
        );
    }
}

#[test]
fn measured_switching_energy_close_to_cv2() {
    // Drive a single inverter with one slow full swing and integrate the
    // supply charge: E ≈ C_load·V_dd² for one low-to-high output event.
    let p = pair().at_supply(Volts::new(0.3));
    let inv = Inverter::new(p);
    let vdd = 0.3;
    let tp = analytic_fo1_delay(&p, Volts::new(vdd)).get();

    let mut net = Netlist::new();
    let vdd_node = net.node("vdd");
    let a = net.node("a");
    let b = net.node("b");
    net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(vdd));
    net.vsource(
        "VIN",
        a,
        Netlist::GROUND,
        Waveform::Pulse {
            v0: vdd, // input starts high → output low → one discharge…
            v1: 0.0,
            delay: 5.0 * tp,
            rise: tp,
            fall: tp,
            width: 1.0,
            period: f64::INFINITY,
        },
    );
    inv.wire(&mut net, "X1", a, b, vdd_node);

    let res = transient(
        &net,
        TransientSpec::with_steps(40.0 * tp, 1200, Integrator::Trapezoidal),
    )
    .expect("transient");
    let e = supply_energy(&res, 0, vdd_node);
    // Only the output node hangs on the supply-paid path (the input cap
    // is charged by the input source): E_supply ≈ C_out·V_dd².
    let want = p.output_capacitance() * vdd * vdd;
    let ratio = e / want;
    assert!(
        (0.3..2.0).contains(&ratio),
        "switching energy {e:e} vs C·V² {want:e} (ratio {ratio})"
    );
}

#[test]
fn chain_energy_model_consistent_with_spice_leakage() {
    // The analytic chain model's leakage term uses I_off·V_dd; check the
    // DC supply current of an idle inverter matches the model's leakage
    // estimate within a factor of a few.
    let p = pair().at_supply(Volts::new(0.25));
    let inv = Inverter::new(p);
    let mut net = Netlist::new();
    let vdd_node = net.node("vdd");
    let a = net.node("a");
    let b = net.node("b");
    net.vsource("VDD", vdd_node, Netlist::GROUND, Waveform::Dc(0.25));
    net.vsource("VIN", a, Netlist::GROUND, Waveform::Dc(0.0));
    inv.wire(&mut net, "X1", a, b, vdd_node);
    let sol = subvt_spice::dc_operating_point(&net).expect("op");
    let i_supply = -sol.branch_currents[0];
    let i_model = p.leakage_current();
    let ratio = i_supply / i_model;
    assert!(
        (0.2..5.0).contains(&ratio),
        "DC leakage {i_supply:e} vs model {i_model:e}"
    );
}

#[test]
fn minimum_energy_point_is_stable_across_engines() {
    // V_min from the analytic sweep must coincide with the golden-section
    // search result (sanity of the optimizer itself).
    let chain = InverterChain::paper_chain(pair());
    let mep = chain.minimum_energy_point();
    let sweep = chain.energy_sweep(Volts::new(0.1), Volts::new(0.6), 201);
    let best = sweep
        .iter()
        .min_by(|a, b| a.total().get().partial_cmp(&b.total().get()).unwrap())
        .expect("non-empty sweep");
    assert!(
        (best.v_dd.as_volts() - mep.v_min.as_volts()).abs() < 0.01,
        "sweep minimum {} vs golden-section {}",
        best.v_dd.as_volts(),
        mep.v_min.as_volts()
    );
}

/// Sums hits and misses across the `spice.*` cache namespaces. Only the
/// parity test below touches those namespaces in this process, so the
/// deltas are race-free even with tests running in parallel.
fn spice_cache_totals() -> (u64, u64) {
    let stats = subvt_engine::global_cache().stats();
    stats
        .by_namespace
        .iter()
        .filter(|(ns, _, _)| ns.starts_with("spice."))
        .fold((0, 0), |(h, m), (_, hits, misses)| (h + hits, m + misses))
}

/// Backend parity at every Table 2 node, then cache-reuse on a warm
/// rerun. One combined test: splitting it would race on the shared
/// global cache stats across parallel test threads.
#[test]
fn spice_backend_parity_and_warm_cache_reuse() {
    let analytic = CircuitBackendKind::Analytic.instance();
    let spice = CircuitBackendKind::Spice.instance();
    let ctx = subvt_exp::Study::default()
        .context()
        .expect("default study designs");
    let v = Volts::new(0.25);
    let pairs: Vec<CmosPair> = ctx.supervth.iter().map(|d| ctx.study.pair(d)).collect();

    for (d, p) in ctx.supervth.iter().zip(&pairs) {
        let node = d.node.name();

        // Both backends sweep the identical MNA deck for the VTC, so the
        // curves — and the SNM read off them — must agree to solver
        // precision.
        let vtc_a = analytic.vtc(p, v, 81).expect("analytic vtc");
        let vtc_s = spice.vtc(p, v, 81).expect("spice vtc");
        let max_dev = vtc_a
            .v_out
            .iter()
            .zip(&vtc_s.v_out)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-9, "{node}: VTC deviation {max_dev} V");
        let snm_a = noise_margins(&vtc_a).expect("margins").snm();
        let snm_s = noise_margins(&vtc_s).expect("margins").snm();
        assert!(
            (snm_a - snm_s).abs() < 1e-9,
            "{node}: SNM {snm_a} vs {snm_s}"
        );

        // Same FO1 fixture at different step counts (900 vs 1200): the
        // measured propagation delays must land within 10 %.
        let d_a = analytic.fo1_delay(p, v).expect("analytic fo1");
        let d_s = spice.fo1_delay(p, v).expect("spice fo1");
        let ratio = d_s.average().get() / d_a.average().get();
        assert!(
            (0.9..1.1).contains(&ratio),
            "{node}: FO1 delay ratio {ratio}"
        );

        // Chain energy: closed-form model vs supply-charge integration.
        // These are different estimators, so only order-of-magnitude
        // agreement is claimed (factor 3).
        let chain = InverterChain::paper_chain(*p);
        let e_a = analytic.chain_energy(&chain, v).expect("analytic energy");
        let e_s = spice.chain_energy(&chain, v).expect("spice energy");
        let ratio = e_s.total().get() / e_a.total().get();
        assert!(
            (1.0 / 3.0..3.0).contains(&ratio),
            "{node}: chain energy ratio {ratio}"
        );
    }

    // Warm rerun: every spice metric recomputed above must now be a pure
    // cache hit — zero new misses in the spice.* namespaces.
    let (hits_cold, misses_cold) = spice_cache_totals();
    for p in &pairs {
        spice.vtc(p, v, 81).expect("warm vtc");
        spice.fo1_delay(p, v).expect("warm fo1");
        spice
            .chain_energy(&InverterChain::paper_chain(*p), v)
            .expect("warm energy");
    }
    let (hits_warm, misses_warm) = spice_cache_totals();
    assert_eq!(
        misses_warm, misses_cold,
        "warm spice rerun must not miss the cache"
    );
    assert!(
        hits_warm >= hits_cold + 3 * pairs.len() as u64,
        "warm spice rerun should hit per metric: {hits_cold} -> {hits_warm}"
    );
}

#[test]
fn snm_definitions_rank_supplies_consistently() {
    // Gain-based (paper) and butterfly SNM must both rank supplies the
    // same way.
    let p = pair();
    let inv = Inverter::new(p);
    let snm_at = |v: f64| {
        let vtc = inv.vtc(Volts::new(v), 121).expect("vtc");
        let gain = noise_margins(&vtc).expect("margins").snm();
        let fly = subvt_circuits::butterfly_snm(&vtc, &vtc).expect("butterfly");
        (gain, fly)
    };
    let (g1, f1) = snm_at(0.20);
    let (g2, f2) = snm_at(0.30);
    assert!(g2 > g1 && f2 > f1);
}

#[test]
fn non_finite_netlist_parameters_surface_typed_errors() {
    use subvt_spice::mna::{dc_operating_point, SpiceError};

    // A parsed or programmatic deck carrying a NaN source value must be
    // rejected by validation before the solver sees it.
    let mut net = Netlist::new();
    let a = net.node("a");
    net.vsource("Vbad", a, Netlist::GROUND, Waveform::Dc(f64::NAN));
    net.resistor("R1", a, Netlist::GROUND, 1.0e3);
    match dc_operating_point(&net) {
        Err(SpiceError::InvalidNetlist { element, .. }) => assert_eq!(element, "Vbad"),
        other => panic!("expected InvalidNetlist, got {other:?}"),
    }

    // Same guard on the transient entry point, plus degenerate specs.
    let mut ok_net = Netlist::new();
    let b = ok_net.node("b");
    ok_net.vsource("V1", b, Netlist::GROUND, Waveform::Dc(1.0));
    ok_net.resistor("R1", b, Netlist::GROUND, 1.0e3);
    let bad_spec = TransientSpec {
        t_stop: 1.0e-6,
        dt: f64::NAN,
        method: Integrator::Trapezoidal,
    };
    assert!(matches!(
        transient(&ok_net, bad_spec),
        Err(SpiceError::InvalidTransientSpec { .. })
    ));

    let mut pwl_net = Netlist::new();
    let c = pwl_net.node("c");
    pwl_net.vsource(
        "Vpwl",
        c,
        Netlist::GROUND,
        Waveform::Pwl(vec![(0.0, 0.0), (1.0e-6, f64::INFINITY)]),
    );
    pwl_net.resistor("R1", c, Netlist::GROUND, 1.0e3);
    let spec = TransientSpec {
        t_stop: 1.0e-6,
        dt: 1.0e-8,
        method: Integrator::Trapezoidal,
    };
    assert!(matches!(
        transient(&pwl_net, spec),
        Err(SpiceError::InvalidNetlist { .. })
    ));
}

/// The solver owns `spice.dc.solves`: a spice Monte Carlo run (whose
/// drive-current decks call the solver directly) counts every solve,
/// warm-started ones included.
#[test]
fn spice_montecarlo_counts_every_dc_solve() {
    let dir = std::env::temp_dir().join(format!("subvt-mc-solves-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bench = dir.join("BENCH_spice.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--circuit-backend", "spice", "--bench"])
        .arg(&bench)
        .arg("montecarlo")
        .output()
        .expect("repro spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&bench).expect("bench artifact written");
    let json = subvt_engine::json::parse_json(text.trim()).expect("valid JSON");
    let counter = |name: &str| {
        json.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("{name} missing from {text}"))
    };
    let (solves, warm) = (
        counter("spice.dc.solves"),
        counter("spice.newton.warm_start"),
    );
    assert!(warm > 0, "Monte Carlo samples warm-start");
    assert!(
        solves >= warm,
        "every warm start is a DC solve: {solves} < {warm}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `repro --circuit-backend spice --csv fig12 fig6` cold at `jobs`
/// with a manifest; returns stdout and the parsed manifest.
fn spice_mep_run(dir: &std::path::Path, jobs: &str) -> (Vec<u8>, subvt_engine::json::Json) {
    let manifest = dir.join(format!("manifest-j{jobs}.json"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--circuit-backend", "spice", "--csv", "--jobs", jobs])
        .arg("--cache")
        .arg(dir.join(format!("cache-j{jobs}.jsonl")))
        .arg("--manifest")
        .arg(&manifest)
        .args(["fig12", "fig6"])
        .output()
        .expect("repro spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    let json = subvt_engine::json::parse_json(text.trim()).expect("valid JSON");
    (out.stdout, json)
}

/// The minimum-energy-point searches fan out one chain per job; that
/// must add no work. Serial and parallel runs print the same figures
/// from the same solver counts, every transient is one cache miss (so
/// Fig. 6 is served entirely from Fig. 12's super-V_th records, single
/// flight or not), and per cache namespace every lookup is counted
/// once, as a hit or a miss (a coalesced wait counts as a hit).
#[test]
fn fanned_out_mep_searches_do_the_serial_work() {
    let dir = std::env::temp_dir().join(format!("subvt-mep-fanout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (serial_out, serial) = spice_mep_run(&dir, "1");
    let (parallel_out, parallel) = spice_mep_run(&dir, "2");
    assert!(serial_out == parallel_out, "--jobs 2 output differs");

    let counter = |m: &subvt_engine::json::Json, name: &str| {
        m.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    for name in [
        "spice.tran.runs",
        "spice.dc.solves",
        "circuits.chain.energy_points",
        "cache.spice.tran.miss",
    ] {
        assert_eq!(
            counter(&serial, name),
            counter(&parallel, name),
            "{name} differs between --jobs 1 and --jobs 2"
        );
    }
    for m in [&serial, &parallel] {
        assert_eq!(
            counter(m, "cache.spice.tran.miss"),
            counter(m, "spice.tran.runs"),
            "every transient is one spice.tran miss"
        );
        let namespaces = m
            .get("cache")
            .and_then(|c| c.get("namespaces"))
            .and_then(|n| n.as_arr())
            .expect("cache namespaces");
        let histograms = m
            .get("histograms")
            .and_then(|h| h.as_arr())
            .expect("histograms");
        let lookups = |ns: &str| {
            let name = format!("cache.{ns}.lookup_us");
            histograms
                .iter()
                .find(|h| h.get("name").and_then(|n| n.as_str()) == Some(name.as_str()))
                .and_then(|h| h.get("count"))
                .and_then(|c| c.as_u64())
                .unwrap_or_else(|| panic!("histogram {name} missing"))
        };
        assert!(!namespaces.is_empty());
        for entry in namespaces {
            let ns = entry.get("ns").and_then(|n| n.as_str()).expect("ns");
            let (hits, misses) = (
                counter(m, &format!("cache.{ns}.hit")),
                counter(m, &format!("cache.{ns}.miss")),
            );
            assert_eq!(
                hits + misses,
                lookups(ns),
                "cache.{ns}: hit + miss != lookups"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// On the analytic circuit backend every FO1 transient and every VTC
/// sweep of `repro --csv all` is one cached deck. Fig. 11 reads Fig. 5's
/// super-V_th FO1 delays at 250 mV and Fig. 10 reads Fig. 4's
/// super-V_th VTCs at 250 mV, so of the 16 decks of each kind the figures
/// ask for, 12 are distinct: the 4 super-V_th nodes at their nominal
/// supply and at 250 mV, and the 4 sub-V_th nodes at 250 mV.
#[test]
fn analytic_reproduction_measures_each_deck_once() {
    let dir = std::env::temp_dir().join(format!("subvt-analytic-decks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("manifest.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--csv")
        .arg("--manifest")
        .arg(&manifest)
        .arg("all")
        .output()
        .expect("repro spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    let m = subvt_engine::json::parse_json(text.trim()).expect("valid JSON");
    let counter = |name: &str| {
        m.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    let distinct_decks = 3 * 4;
    assert_eq!(
        counter("cache.spice.tran.miss"),
        counter("spice.tran.runs"),
        "every transient is one spice.tran miss"
    );
    assert_eq!(counter("spice.tran.runs"), distinct_decks);
    assert_eq!(counter("cache.spice.tran.hit"), 16 - distinct_decks);
    assert_eq!(counter("cache.spice.vtc.miss"), distinct_decks);
    assert_eq!(counter("cache.spice.vtc.hit"), 16 - distinct_decks);
    std::fs::remove_dir_all(&dir).ok();
}

/// Warm starts (sweep continuation, Monte-Carlo samples started from the
/// nominal solution) print the bytes cold starts print: Fig. 4's SNM
/// sweep through `Study`, and the SPICE backend's SNM and delay Monte
/// Carlo, each run in a fresh warm scope and in a fresh cold-start
/// scope. The samples fan out over the executor, so the cold scope's
/// zero warm starts also show that its jobs ran in it.
///
/// The delay samples agree bit for bit. An SNM sample's sweep
/// continuation stops at its tolerance a few ULPs from where a cold
/// start stops, so its statistics agree in the bytes the `montecarlo`
/// table prints and its samples to 1e-12 V.
#[test]
fn warm_starts_print_the_bytes_of_cold_starts() {
    use subvt_circuits::backend::SpiceCircuit;
    use subvt_circuits::CircuitBackend;
    use subvt_engine::scope::Scope;
    use subvt_exp::table::fmt;
    use subvt_exp::Study;

    let run = |cold: bool| {
        let scope = Scope::fresh();
        scope.set_cold_start(cold);
        let _in = scope.enter();
        let study = Study {
            circuit: CircuitBackendKind::Spice,
            ..Study::default()
        };
        let fig4 = study.run_ids(&["fig4"]).remove(0).expect("fig4").to_csv();
        let v_dd = Volts::new(0.3);
        let (snm, _) = SpiceCircuit
            .snm_variability(&pair(), v_dd, 24, 7)
            .expect("SNM Monte Carlo");
        let (delay, _) = SpiceCircuit
            .delay_variability(&pair(), v_dd, 24, 7)
            .expect("delay Monte Carlo");
        let warm_starts = scope.tracer().counter("spice.newton.warm_start");
        (fig4, snm, delay, warm_starts)
    };
    let (fig4, snm, delay, warm_starts) = run(false);
    let (cold_fig4, cold_snm, cold_delay, cold_warm_starts) = run(true);
    assert!(warm_starts > 0, "the warm run never warm-started");
    assert_eq!(cold_warm_starts, 0, "a cold-start scope warm-started");
    assert_eq!(fig4, cold_fig4, "fig4 CSV");
    // `{:?}` prints each f64 in its shortest round-trip form, so equal
    // text is equal bits.
    assert_eq!(format!("{delay:?}"), format!("{cold_delay:?}"));
    let printed = |s: &subvt_circuits::montecarlo::SnmStatistics| {
        [
            fmt(s.mean.as_millivolts(), 1),
            fmt(s.std_dev.as_millivolts(), 1),
            fmt(s.failure_fraction * 100.0, 1),
        ]
    };
    assert_eq!(printed(&snm), printed(&cold_snm));
    assert_eq!(snm.samples.len(), cold_snm.samples.len());
    for (w, c) in snm.samples.iter().zip(&cold_snm.samples) {
        assert!((w - c).abs() <= 1e-12, "SNM sample {w} V warm, {c} V cold");
    }
}
