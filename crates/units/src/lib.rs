//! Physical constants and unit newtypes for the `subvt` workspace.
//!
//! The crates in this workspace move quantities between very different
//! scales — nanometer geometry, `cm⁻³` doping densities, picoampere leakage
//! currents — and silent unit confusion is the classic failure mode of
//! device-physics code. This crate provides:
//!
//! * [`consts`]: physical constants in the unit system conventional in
//!   device physics (centimeters, Farads per centimeter).
//! * Newtypes such as [`Nanometers`], [`Volts`] and [`PerCubicCentimeter`]
//!   that make function signatures self-describing and prevent, e.g.,
//!   passing a doping density where an oxide thickness is expected.
//! * [`Temperature`] with the thermal voltage `v_T = kT/q`.
//!
//! # Examples
//!
//! ```
//! use subvt_units::{Nanometers, Temperature};
//!
//! let t_ox = Nanometers::new(2.1);
//! assert!((t_ox.as_cm() - 2.1e-7).abs() < 1e-20);
//!
//! let room = Temperature::room();
//! assert!((room.thermal_voltage().as_volts() - 0.02585).abs() < 1e-4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consts;

mod capacitance;
mod current;
mod density;
mod energy;
mod length;
mod temperature;
mod time;
mod voltage;

pub use capacitance::{FaradsPerCm2, FaradsPerMicron};
pub use current::AmpsPerMicron;
pub use density::PerCubicCentimeter;
pub use energy::{Joules, JoulesPerMicron};
pub use length::{Centimeters, Nanometers};
pub use temperature::Temperature;
pub use time::Seconds;
pub use voltage::{MilliVoltsPerDecade, Volts};

/// Declares the boilerplate shared by every `f64`-backed unit newtype:
/// constructors, raw access, arithmetic with itself, and scalar scaling.
macro_rules! impl_unit {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value expressed in the unit this type names.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the unit this type names.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns `true` when the value is finite (not NaN or ±∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl core::ops::Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

pub(crate) use impl_unit;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_arithmetic_behaves_like_f64() {
        let a = Volts::new(1.0);
        let b = Volts::new(0.25);
        assert_eq!((a + b).get(), 1.25);
        assert_eq!((a - b).get(), 0.75);
        assert_eq!((a * 2.0).get(), 2.0);
        assert_eq!((a / 4.0).get(), 0.25);
        assert_eq!(a / b, 4.0);
        assert_eq!((-a).get(), -1.0);
    }

    #[test]
    fn display_includes_unit_suffix() {
        let v = Volts::new(0.25);
        assert_eq!(format!("{v:.2}"), "0.25 V");
        let l = Nanometers::new(65.0);
        assert_eq!(format!("{l}"), "65 nm");
    }

    #[test]
    fn min_max_abs() {
        let a = Volts::new(-2.0);
        let b = Volts::new(1.0);
        assert_eq!(a.abs().get(), 2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(a.is_finite());
        assert!(!Volts::new(f64::NAN).is_finite());
    }
}
