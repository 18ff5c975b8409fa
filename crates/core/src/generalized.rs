//! Generalized scaling theory — the paper's Table 1 (after Baccarani,
//! Wordeman & Dennard, ref \[8\]).
//!
//! Physical dimensions scale by `1/α`; the peak channel field is allowed
//! to grow by `ε` per generation (constant-field scaling is the special
//! case `ε = 1`), which makes doping scale by `ε·α` and voltage by `ε/α`.

/// A generalized-scaling rule set with dimension factor `α` and field
/// growth factor `ε` per generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizedScaling {
    /// Dimension scaling factor `α > 1` (dimensions shrink by `1/α`).
    pub alpha: f64,
    /// Electric-field growth factor `ε ≥ 1`.
    pub epsilon: f64,
}

impl GeneralizedScaling {
    /// Creates a rule set.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 1` and `epsilon >= 1`.
    pub fn new(alpha: f64, epsilon: f64) -> Self {
        assert!(alpha > 1.0, "alpha must exceed 1 (dimensions shrink)");
        assert!(epsilon >= 1.0, "epsilon must be at least 1");
        Self { alpha, epsilon }
    }

    /// Dennard constant-field scaling: `ε = 1`.
    pub fn constant_field(alpha: f64) -> Self {
        Self::new(alpha, 1.0)
    }

    /// The classic "30 % per generation" cadence: `α = 1/0.7`.
    pub fn classic(epsilon: f64) -> Self {
        Self::new(1.0 / 0.7, epsilon)
    }

    /// Physical dimension factor `1/α` (applies to `L_poly`, `T_ox`, `W`,
    /// wire dimensions).
    pub fn dimension_factor(&self) -> f64 {
        1.0 / self.alpha
    }

    /// Channel doping factor `ε·α`.
    pub fn doping_factor(&self) -> f64 {
        self.epsilon * self.alpha
    }

    /// Supply/threshold voltage factor `ε/α`.
    pub fn voltage_factor(&self) -> f64 {
        self.epsilon / self.alpha
    }

    /// Circuit area factor `1/α²`.
    pub fn area_factor(&self) -> f64 {
        1.0 / (self.alpha * self.alpha)
    }

    /// Intrinsic delay factor `1/α`.
    pub fn delay_factor(&self) -> f64 {
        1.0 / self.alpha
    }

    /// Power dissipation factor `ε²/α²`.
    pub fn power_factor(&self) -> f64 {
        (self.epsilon * self.epsilon) / (self.alpha * self.alpha)
    }

    /// Power density factor `ε²` (power over area) — the quantity whose
    /// growth ended pure Dennard scaling.
    pub fn power_density_factor(&self) -> f64 {
        self.epsilon * self.epsilon
    }
}

/// One row of the paper's Table 1: a parameter, its symbolic scaling
/// factor, and the numeric value under the given rule set.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Parameter description.
    pub parameter: &'static str,
    /// Symbolic factor as printed in the paper.
    pub symbol: &'static str,
    /// Numeric value under the chosen (α, ε).
    pub value: f64,
}

/// Generates the paper's Table 1 for a given rule set.
pub fn table1(rules: &GeneralizedScaling) -> Vec<Table1Row> {
    vec![
        Table1Row {
            parameter: "Physical dimensions (L_poly, T_ox, ...)",
            symbol: "1/a",
            value: rules.dimension_factor(),
        },
        Table1Row {
            parameter: "N_ch",
            symbol: "e*a",
            value: rules.doping_factor(),
        },
        Table1Row {
            parameter: "V_dd",
            symbol: "e/a",
            value: rules.voltage_factor(),
        },
        Table1Row {
            parameter: "Area",
            symbol: "1/a^2",
            value: rules.area_factor(),
        },
        Table1Row {
            parameter: "Delay",
            symbol: "1/a",
            value: rules.delay_factor(),
        },
        Table1Row {
            parameter: "Power",
            symbol: "e^2/a^2",
            value: rules.power_factor(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn constant_field_keeps_power_density() {
        let r = GeneralizedScaling::constant_field(1.0 / 0.7);
        assert!((r.power_density_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn classic_cadence_shrinks_30_percent() {
        let r = GeneralizedScaling::classic(1.1);
        assert!((r.dimension_factor() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn table1_has_six_rows_in_paper_order() {
        let rows = table1(&GeneralizedScaling::classic(1.0));
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].symbol, "1/a");
        assert_eq!(rows[1].symbol, "e*a");
        assert_eq!(rows[5].symbol, "e^2/a^2");
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn rejects_growing_dimensions() {
        let _ = GeneralizedScaling::new(0.9, 1.0);
    }

    #[test]
    fn identities_hold() {
        let mut rng = SplitMix64::new(0x9e10);
        for _ in 0..256 {
            let alpha = 1.01 + (2.0 - 1.01) * rng.next_f64();
            let eps = 1.0 + (1.5 - 1.0) * rng.next_f64();
            let r = GeneralizedScaling::new(alpha, eps);
            // Power = (V·I) scaling = (ε/α)·(ε/α) = voltage²… and equals
            // power density × area.
            let power = r.power_factor();
            assert!((power - r.power_density_factor() * r.area_factor()).abs() < 1e-12);
            assert!((power - r.voltage_factor() * r.voltage_factor()).abs() < 1e-12);
            // Doping × dimension² = ε·α/α² = ε/α = voltage factor
            // (consistent depletion-width scaling).
            let lhs = r.doping_factor() * r.dimension_factor() * r.dimension_factor();
            assert!(
                (lhs - r.voltage_factor()).abs() < 1e-12,
                "α = {alpha}, ε = {eps}"
            );
        }
    }
}
