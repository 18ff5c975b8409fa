//! Width-normalized current in A/µm, the industry convention for
//! transistor on- and off-currents.

use crate::impl_unit;

impl_unit! {
    /// A width-normalized drain current in amps per micron of gate width.
    ///
    /// The paper's leakage budgets are quoted this way
    /// (e.g. `I_off = 100 pA/µm` at the 90 nm node).
    ///
    /// # Examples
    ///
    /// ```
    /// use subvt_units::AmpsPerMicron;
    /// let i_off = AmpsPerMicron::from_picoamps(100.0);
    /// assert_eq!(i_off.as_picoamps(), 100.0);
    /// ```
    AmpsPerMicron, "A/um"
}

impl AmpsPerMicron {
    /// Returns the current in pA/µm.
    #[inline]
    pub const fn as_picoamps(self) -> f64 {
        self.0 * 1.0e12
    }

    /// Builds from pA/µm.
    #[inline]
    pub const fn from_picoamps(pa: f64) -> Self {
        Self::new(pa * 1.0e-12)
    }

    /// Returns the current in µA/µm (the usual unit for on-current).
    #[inline]
    pub const fn as_microamps(self) -> f64 {
        self.0 * 1.0e6
    }

    /// Builds from µA/µm.
    #[inline]
    pub const fn from_microamps(ua: f64) -> Self {
        Self::new(ua * 1.0e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn pico_and_micro_conversions() {
        let i = AmpsPerMicron::new(1.0e-6);
        assert_eq!(i.as_microamps(), 1.0);
        assert_eq!(i.as_picoamps(), 1.0e6);
    }

    #[test]
    fn pa_round_trip() {
        let mut rng = SplitMix64::new(0xc0a1);
        for _ in 0..1024 {
            // Log-uniform over 1e-3..1e9 pA.
            let pa = 10f64.powf(-3.0 + 12.0 * rng.next_f64());
            let i = AmpsPerMicron::from_picoamps(pa);
            assert!((i.as_picoamps() - pa).abs() <= pa * 1e-12, "{pa:e} pA");
        }
    }
}
