//! The technology-node inputs the paper states in §2.2:
//!
//! * `L_poly` shrinks 30 % per generation (65 → 46 → 32 → 22 nm),
//! * `T_ox` shrinks only 10 % per generation (2.10 → 1.89 → 1.70 → 1.53 nm)
//!   — the slow oxide scaling at the heart of the paper's argument,
//! * `V_dd` steps 1.2 → 1.1 → 1.0 → 0.9 V,
//! * the leakage budget starts at 100 pA/µm and grows 25 % per
//!   generation (LSTP-like constraint, slightly relaxed from ITRS),
//! * all other physical dimensions scale 30 % per generation.

use subvt_units::{AmpsPerMicron, Nanometers, Volts};

/// A technology generation from the paper's study range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TechNode {
    /// 90 nm node (the reference generation).
    N90,
    /// 65 nm node.
    N65,
    /// 45 nm node.
    N45,
    /// 32 nm node.
    N32,
}

impl TechNode {
    /// All nodes in scaling order.
    pub const ALL: [TechNode; 4] = [TechNode::N90, TechNode::N65, TechNode::N45, TechNode::N32];

    /// Generations elapsed since 90 nm (0 for 90 nm).
    pub fn generation(self) -> u32 {
        match self {
            TechNode::N90 => 0,
            TechNode::N65 => 1,
            TechNode::N45 => 2,
            TechNode::N32 => 3,
        }
    }

    /// Human-readable node name.
    pub fn name(self) -> &'static str {
        match self {
            TechNode::N90 => "90nm",
            TechNode::N65 => "65nm",
            TechNode::N45 => "45nm",
            TechNode::N32 => "32nm",
        }
    }

    /// The 30 %-per-generation dimension scale factor `0.7^g` applied to
    /// every physical dimension except `T_ox` (and except `L_poly` under
    /// the sub-V_th strategy, which chooses its own gate length).
    pub fn dimension_scale(self) -> f64 {
        0.7f64.powi(self.generation() as i32)
    }

    /// Post-etch physical gate length under the super-V_th strategy —
    /// the paper's Table 2 row (65/46/32/22 nm).
    pub fn l_poly_supervth(self) -> Nanometers {
        Nanometers::new(match self {
            TechNode::N90 => 65.0,
            TechNode::N65 => 46.0,
            TechNode::N45 => 32.0,
            TechNode::N32 => 22.0,
        })
    }

    /// Gate oxide thickness: 2.10 nm shrinking 10 % per generation —
    /// the paper's Table 2/Table 3 row (identical under both strategies).
    pub fn t_ox(self) -> Nanometers {
        self.t_ox_at_rate(0.10)
    }

    /// Gate oxide thickness under a hypothetical per-generation shrink
    /// `rate` (e.g. `0.30` for ideal generalized scaling). The paper's
    /// whole argument rests on the *actual* rate being only ~0.10; this
    /// knob exists for the oxide-scaling ablation study.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate < 1`.
    pub fn t_ox_at_rate(self, rate: f64) -> Nanometers {
        assert!((0.0..1.0).contains(&rate), "shrink rate must be in [0, 1)");
        Nanometers::new(2.10 * (1.0 - rate).powi(self.generation() as i32))
    }

    /// Nominal supply under the super-V_th strategy (1.2 → 0.9 V).
    pub fn v_dd_nominal(self) -> Volts {
        Volts::new(match self {
            TechNode::N90 => 1.2,
            TechNode::N65 => 1.1,
            TechNode::N45 => 1.0,
            TechNode::N32 => 0.9,
        })
    }

    /// Leakage budget under the super-V_th strategy:
    /// `100 pA/µm · 1.25^g` (100/125/156/195 pA/µm).
    pub fn i_leak_budget(self) -> AmpsPerMicron {
        AmpsPerMicron::from_picoamps(100.0 * 1.25f64.powi(self.generation() as i32))
    }
}

impl core::fmt::Display for TechNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_ox_matches_paper_table2() {
        let want = [2.10, 1.89, 1.70, 1.53];
        for (node, w) in TechNode::ALL.iter().zip(want) {
            assert!(
                (node.t_ox().get() - w).abs() < 0.011,
                "{node}: {} vs {w}",
                node.t_ox()
            );
        }
    }

    #[test]
    fn l_poly_matches_paper_table2() {
        let want = [65.0, 46.0, 32.0, 22.0];
        for (node, w) in TechNode::ALL.iter().zip(want) {
            assert_eq!(node.l_poly_supervth().get(), w);
        }
    }

    #[test]
    fn leakage_budget_matches_paper() {
        let want = [100.0, 125.0, 156.25, 195.3];
        for (node, w) in TechNode::ALL.iter().zip(want) {
            assert!(
                (node.i_leak_budget().as_picoamps() - w).abs() < 1.0,
                "{node}"
            );
        }
    }

    #[test]
    fn vdd_steps_down_100mv_per_node() {
        for w in TechNode::ALL.windows(2) {
            let dv = w[0].v_dd_nominal().as_volts() - w[1].v_dd_nominal().as_volts();
            assert!((dv - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn dimension_scale_is_30_percent_per_generation() {
        assert_eq!(TechNode::N90.dimension_scale(), 1.0);
        assert!((TechNode::N32.dimension_scale() - 0.343).abs() < 1e-12);
    }

    #[test]
    fn ordering_follows_scaling() {
        assert!(TechNode::N90 < TechNode::N32);
        assert_eq!(TechNode::ALL[3].generation(), 3);
    }
}
