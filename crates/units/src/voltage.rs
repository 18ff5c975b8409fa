//! Voltage units and the inverse-subthreshold-slope unit mV/decade.

use crate::impl_unit;

impl_unit! {
    /// An electric potential in volts.
    ///
    /// # Examples
    ///
    /// ```
    /// use subvt_units::Volts;
    /// let vdd = Volts::new(0.25);
    /// assert_eq!(vdd.as_millivolts(), 250.0);
    /// ```
    Volts, "V"
}

impl_unit! {
    /// Inverse subthreshold slope `S_S` in millivolts per decade of drain
    /// current — the paper's central device metric (its Eq. 2).
    ///
    /// The theoretical room-temperature floor is `2.3·v_T ≈ 60 mV/dec`.
    MilliVoltsPerDecade, "mV/dec"
}

impl Volts {
    /// Returns the value in volts (alias of [`Volts::get`] that reads
    /// better at call sites mixing several unit types).
    #[inline]
    pub const fn as_volts(self) -> f64 {
        self.0
    }

    /// Returns the value in millivolts.
    #[inline]
    pub const fn as_millivolts(self) -> f64 {
        self.0 * 1.0e3
    }

    /// Builds a voltage from millivolts.
    #[inline]
    pub const fn from_millivolts(mv: f64) -> Self {
        Self::new(mv * 1.0e-3)
    }
}

impl MilliVoltsPerDecade {
    /// Returns the slope in volts per decade.
    #[inline]
    pub const fn as_volts_per_decade(self) -> f64 {
        self.0 * 1.0e-3
    }

    /// Builds from volts per decade.
    #[inline]
    pub const fn from_volts_per_decade(v: f64) -> Self {
        Self::new(v * 1.0e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn millivolt_conversions() {
        assert_eq!(Volts::from_millivolts(250.0).as_volts(), 0.25);
        assert_eq!(Volts::new(1.2).as_millivolts(), 1200.0);
        assert_eq!(MilliVoltsPerDecade::from_volts_per_decade(0.08).get(), 80.0);
    }

    #[test]
    fn mv_round_trip() {
        let mut rng = SplitMix64::new(0x3a17);
        for _ in 0..1024 {
            let v = -10.0 + 20.0 * rng.next_f64();
            let back = Volts::from_millivolts(Volts::new(v).as_millivolts());
            assert!((back.get() - v).abs() <= v.abs() * 1e-12 + 1e-15, "{v} V");
        }
    }
}
