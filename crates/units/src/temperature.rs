//! Absolute temperature and the thermal voltage `v_T = kT/q`.

use crate::consts::{K_B, Q};
use crate::Volts;

/// An absolute temperature in Kelvin.
///
/// All of the paper's analysis is at room temperature (`T = 300 K`), but the
/// physics crates accept a [`Temperature`] so temperature sweeps — an
/// important subthreshold design concern — are possible.
///
/// # Examples
///
/// ```
/// use subvt_units::Temperature;
/// let t = Temperature::room();
/// // 2.3·v_T ≈ 59.5 mV/dec: the ideal subthreshold-swing floor.
/// let floor = 2.3 * t.thermal_voltage().as_volts() * 1.0e3;
/// assert!((floor - 59.5).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Temperature(f64);

impl Temperature {
    /// Room temperature, 300 K — the paper's operating point.
    #[inline]
    pub const fn room() -> Self {
        Self(300.0)
    }

    /// Builds from a value in Kelvin.
    ///
    /// # Panics
    ///
    /// Panics if `kelvin` is not strictly positive and finite.
    #[inline]
    pub fn from_kelvin(kelvin: f64) -> Self {
        assert!(
            kelvin.is_finite() && kelvin > 0.0,
            "temperature must be positive and finite, got {kelvin}"
        );
        Self(kelvin)
    }

    /// Builds from a value in degrees Celsius.
    ///
    /// # Panics
    ///
    /// Panics if the resulting absolute temperature is not positive.
    #[inline]
    pub fn from_celsius(celsius: f64) -> Self {
        Self::from_kelvin(celsius + 273.15)
    }

    /// Returns the temperature in Kelvin.
    #[inline]
    pub const fn as_kelvin(self) -> f64 {
        self.0
    }

    /// The thermal voltage `v_T = kT/q` (≈25.85 mV at 300 K).
    #[inline]
    pub fn thermal_voltage(self) -> Volts {
        Volts::new(K_B * self.0 / Q)
    }
}

impl Default for Temperature {
    fn default() -> Self {
        Self::room()
    }
}

impl core::fmt::Display for Temperature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} K", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn room_temperature_thermal_voltage() {
        let vt = Temperature::room().thermal_voltage().as_volts();
        assert!((vt - 0.025852).abs() < 1e-5);
    }

    #[test]
    fn celsius_conversion() {
        let t = Temperature::from_celsius(26.85);
        assert!((t.as_kelvin() - 300.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_kelvin_rejected() {
        let _ = Temperature::from_kelvin(0.0);
    }

    #[test]
    fn thermal_voltage_scales_linearly() {
        let mut rng = SplitMix64::new(0x7e3f);
        for _ in 0..1024 {
            let t = 100.0 + 400.0 * rng.next_f64();
            let v1 = Temperature::from_kelvin(t).thermal_voltage().as_volts();
            let v2 = Temperature::from_kelvin(2.0 * t)
                .thermal_voltage()
                .as_volts();
            assert!((v2 - 2.0 * v1).abs() < 1e-12, "T = {t} K");
        }
    }
}
