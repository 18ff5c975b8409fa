//! Waveform measurements: threshold crossings, propagation delay and
//! delivered supply energy.

use crate::transient::TransientResult;

/// Edge direction selector for crossing searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Low-to-high crossings only.
    Rising,
    /// High-to-low crossings only.
    Falling,
    /// Either direction.
    Any,
}

/// Finds the time of the `nth` (0-based) crossing of `level` on a node's
/// waveform, linearly interpolating between samples. Returns `None` if
/// fewer crossings exist.
pub fn crossing_time(
    result: &TransientResult,
    node: usize,
    level: f64,
    edge: Edge,
    nth: usize,
) -> Option<f64> {
    let mut seen = 0usize;
    for k in 1..result.time.len() {
        let v0 = result.voltage(k - 1, node);
        let v1 = result.voltage(k, node);
        // A sample landing exactly on `level` makes the sign product
        // vanish for both adjacent intervals; the crossing belongs to the
        // interval that *arrives* at the level (d1 == 0), never the one
        // that leaves it — except at the very first interval, where no
        // earlier interval could have claimed it.
        let d0 = v0 - level;
        let d1 = v1 - level;
        let crossed =
            d0 * d1 < 0.0 || (d1 == 0.0 && d0 != 0.0) || (k == 1 && d0 == 0.0 && d1 != 0.0);
        if !crossed {
            continue;
        }
        let rising = v1 > v0;
        let keep = match edge {
            Edge::Rising => rising,
            Edge::Falling => !rising,
            Edge::Any => true,
        };
        if !keep {
            continue;
        }
        if seen == nth {
            let t0 = result.time[k - 1];
            let t1 = result.time[k];
            let f = (level - v0) / (v1 - v0);
            return Some(t0 + f * (t1 - t0));
        }
        seen += 1;
    }
    None
}

/// 50 %-to-50 % propagation delay from an input edge to the next output
/// crossing. `swing` is the full logic swing (usually `V_dd`); the input
/// edge is located first and the output crossing searched after it.
///
/// Returns `None` if either crossing is missing.
pub fn propagation_delay(
    result: &TransientResult,
    input: usize,
    output: usize,
    swing: f64,
    input_edge: Edge,
) -> Option<f64> {
    let level = swing / 2.0;
    let t_in = crossing_time(result, input, level, input_edge, 0)?;
    // Find the first output crossing after the input edge.
    let mut nth = 0;
    loop {
        let t_out = crossing_time(result, output, level, Edge::Any, nth)?;
        if t_out > t_in {
            return Some(t_out - t_in);
        }
        nth += 1;
        if nth > 64 {
            return None;
        }
    }
}

/// Energy delivered by the voltage source with branch index `branch`
/// over the whole run: `E = ∫ V(t)·(−i_branch) dt` (branch current is
/// positive flowing pos→neg through the source, so delivery is `−i`).
///
/// `supply_node` is the node whose voltage is the source's positive
/// terminal (typically the V_dd rail).
pub fn supply_energy(result: &TransientResult, branch: usize, supply_node: usize) -> f64 {
    let mut energy = 0.0;
    for k in 1..result.time.len() {
        let dt = result.time[k] - result.time[k - 1];
        let p0 = -result.branch_current(k - 1, branch) * result.voltage(k - 1, supply_node);
        let p1 = -result.branch_current(k, branch) * result.voltage(k, supply_node);
        energy += 0.5 * (p0 + p1) * dt;
    }
    energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Netlist, Waveform};
    use crate::transient::{transient, Integrator, TransientSpec};

    fn ramp_result() -> TransientResult {
        // Synthetic: node 1 ramps 0→1 over [0,1], node 2 ramps 1→0.
        let voltages: Vec<Vec<f64>> = (0..=10)
            .map(|i| vec![0.0, i as f64 / 10.0, 1.0 - i as f64 / 10.0])
            .collect();
        TransientResult::from_rows(
            (0..=10).map(|i| i as f64 / 10.0).collect(),
            &voltages,
            &vec![vec![-1.0e-3]; 11],
        )
    }

    #[test]
    fn crossing_interpolates() {
        let r = ramp_result();
        let t = crossing_time(&r, 1, 0.5, Edge::Rising, 0).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        let t = crossing_time(&r, 2, 0.5, Edge::Falling, 0).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        assert!(crossing_time(&r, 1, 0.5, Edge::Falling, 0).is_none());
        assert!(crossing_time(&r, 1, 2.0, Edge::Any, 0).is_none());
    }

    #[test]
    fn exact_sample_crossing_counted_once() {
        // The node-1 ramp is sampled *exactly* at swing/2 (sample 5 is
        // 0.5): the old `(v0-level)*(v1-level) <= 0` test reported the
        // same physical crossing from both adjacent intervals, so the
        // nth-crossing index was skewed by one from there on.
        let r = ramp_result();
        let t = crossing_time(&r, 1, 0.5, Edge::Any, 0).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        assert!(
            crossing_time(&r, 1, 0.5, Edge::Any, 1).is_none(),
            "a single crossing through an exact sample must count once"
        );
        // Same dedupe on the falling ramp.
        assert!((crossing_time(&r, 2, 0.5, Edge::Falling, 0).unwrap() - 0.5).abs() < 1e-12);
        assert!(crossing_time(&r, 2, 0.5, Edge::Any, 1).is_none());
    }

    #[test]
    fn waveform_starting_on_level_still_crosses() {
        // If the first sample sits exactly on the level and the waveform
        // leaves it, that departure is the (single) crossing.
        let r = TransientResult::from_rows(
            vec![0.0, 1.0, 2.0],
            &[vec![0.0, 0.5], vec![0.0, 1.0], vec![0.0, 1.0]],
            &[vec![], vec![], vec![]],
        );
        let t = crossing_time(&r, 1, 0.5, Edge::Rising, 0).unwrap();
        assert!((t - 0.0).abs() < 1e-12);
        assert!(crossing_time(&r, 1, 0.5, Edge::Any, 1).is_none());
    }

    #[test]
    fn propagation_delay_with_exact_midpoint_samples() {
        // Input and output both sampled exactly at swing/2; the output
        // also *touches* the level once before the input edge. Each
        // exact-sample hit must occupy exactly one nth slot so the scan
        // in `propagation_delay` lands on the true post-edge crossing.
        let out = [1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0];
        let inp = [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let voltages: Vec<Vec<f64>> = (0..=10).map(|i| vec![0.0, inp[i], out[i]]).collect();
        let r = TransientResult::from_rows(
            (0..=10).map(|i| i as f64 / 10.0).collect(),
            &voltages,
            &vec![vec![]; 11],
        );
        let d = propagation_delay(&r, 1, 2, 1.0, Edge::Rising).unwrap();
        // Input crosses at t = 0.4, output falls through 0.5 at t = 0.6.
        assert!((d - 0.2).abs() < 1e-12, "delay {d}");
    }

    #[test]
    fn energy_constant_power() {
        // 1 mA at 1 V... node 0 is ground; use node 1 ramp: energy is
        // ∫ 1mA·v(t) dt over a unit ramp = 0.5 mJ.
        let r = ramp_result();
        let e = supply_energy(&r, 0, 1);
        assert!((e - 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn rc_delay_measurement() {
        // RC low-pass driven by a step: the 50 % crossing lags the input
        // by t = RC·ln(2).
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource(
            "V1",
            a,
            Netlist::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1.0e-7,
                rise: 1.0e-12,
                fall: 1.0e-12,
                width: 1.0,
                period: f64::INFINITY,
            },
        );
        net.resistor("R", a, b, 1_000.0);
        net.capacitor("C", b, Netlist::GROUND, 1.0e-9);
        let res = transient(
            &net,
            TransientSpec::with_steps(4.0e-6, 4000, Integrator::Trapezoidal),
        )
        .unwrap();
        let d = propagation_delay(&res, a, b, 1.0, Edge::Rising).unwrap();
        let want = 1.0e-6 * (2.0f64).ln();
        assert!((d / want - 1.0).abs() < 0.01, "delay {d:e} vs {want:e}");
    }
}
