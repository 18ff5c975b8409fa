//! Length units: nanometers for geometry, centimeters for physics formulas.

use crate::impl_unit;

impl_unit! {
    /// A length in nanometers — the natural unit for device geometry
    /// (`L_poly`, `T_ox`, junction depths).
    ///
    /// # Examples
    ///
    /// ```
    /// use subvt_units::Nanometers;
    /// let l_poly = Nanometers::new(65.0);
    /// assert_eq!(l_poly.as_cm(), 65.0e-7);
    /// ```
    Nanometers, "nm"
}

impl_unit! {
    /// A length in centimeters — the unit device-physics formulas use
    /// (doping in cm⁻³, capacitance in F/cm², mobility in cm²/Vs).
    Centimeters, "cm"
}

impl Nanometers {
    /// Converts to centimeters (1 nm = 1e-7 cm).
    #[inline]
    pub const fn as_cm(self) -> f64 {
        self.0 * 1.0e-7
    }

    /// Converts to the [`Centimeters`] newtype.
    #[inline]
    pub const fn to_centimeters(self) -> Centimeters {
        Centimeters::new(self.as_cm())
    }
}

impl Centimeters {
    /// Converts to nanometers (1 cm = 1e7 nm).
    #[inline]
    pub const fn as_nm(self) -> f64 {
        self.0 * 1.0e7
    }

    /// Converts to the [`Nanometers`] newtype.
    #[inline]
    pub const fn to_nanometers(self) -> Nanometers {
        Nanometers::new(self.as_nm())
    }
}

impl From<Nanometers> for Centimeters {
    fn from(value: Nanometers) -> Self {
        value.to_centimeters()
    }
}

impl From<Centimeters> for Nanometers {
    fn from(value: Centimeters) -> Self {
        value.to_nanometers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn nm_cm_round_trip_exact_cases() {
        assert!((Nanometers::new(100.0).as_cm() - 1.0e-5).abs() < 1e-18);
        assert!((Centimeters::new(1.0e-7).as_nm() - 1.0).abs() < 1e-12);
    }

    /// Log-uniform length over 0.01..1e6 nm.
    fn length_nm(rng: &mut SplitMix64) -> f64 {
        10f64.powf(-2.0 + 8.0 * rng.next_f64())
    }

    #[test]
    fn nm_cm_round_trip() {
        let mut rng = SplitMix64::new(0x1e40);
        for _ in 0..1024 {
            let value = length_nm(&mut rng);
            let back = Nanometers::new(value).to_centimeters().to_nanometers();
            assert!((back.get() - value).abs() <= value * 1e-12, "{value:e} nm");
        }
    }

    #[test]
    fn conversion_preserves_order() {
        let mut rng = SplitMix64::new(0x1e41);
        for _ in 0..1024 {
            let (a, b) = (length_nm(&mut rng), length_nm(&mut rng));
            let (na, nb) = (Nanometers::new(a), Nanometers::new(b));
            assert_eq!(
                na < nb,
                na.to_centimeters() < nb.to_centimeters(),
                "{a:e} vs {b:e} nm"
            );
        }
    }
}
