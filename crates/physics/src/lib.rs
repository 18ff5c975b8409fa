//! Compact bulk-MOSFET device physics for subthreshold scaling studies.
//!
//! This crate implements the analytical device model underlying
//! *"Nanometer Device Scaling in Subthreshold Circuits"* (Hanson et al.,
//! DAC 2007): the four-knob bulk transistor (`L_poly`, `T_ox`, `N_sub`,
//! `N_p,halo`) with Gaussian halo pockets, quasi-2-D short-channel
//! threshold roll-off, the paper's Eq. 2(b) subthreshold swing, the Eq. 1
//! weak-inversion current, and a smooth all-region I–V for circuit
//! simulation.
//!
//! The heavier 2-D numerical counterpart (the MEDICI substitute) lives in
//! `subvt-tcad`; the scaling strategies that *drive* this model live in
//! `subvt-core`.
//!
//! # Quick tour
//!
//! ```
//! use subvt_physics::device::DeviceParams;
//!
//! // The paper's 90 nm-class reference NFET.
//! let dev = DeviceParams::reference_90nm_nfet();
//! let ch = dev.characterize();
//!
//! println!("S_S    = {:.1}", ch.s_s);
//! println!("V_th   = {:.3}", ch.v_th_sat);
//! println!("I_off  = {:.1} pA/um", ch.i_off.as_picoamps());
//! println!("tau    = {:.2} ps", ch.tau.as_picoseconds());
//! # assert!(ch.s_s.get() > 60.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacitance;
pub mod device;
pub mod electrostatics;
pub mod halo;
pub mod iv;
pub mod math;
pub mod mobility;
pub mod sce;
pub mod silicon;
pub mod subthreshold;
pub mod swing;

pub use device::{DeviceCharacteristics, DeviceGeometry, DeviceKind, DeviceParams};
pub use iv::{MosModel, PreparedMos};

/// Inputs of the fixed-seed property tests.
#[cfg(test)]
mod prop {
    use std::ops::Range;

    use subvt_engine::rng::SplitMix64;

    /// A uniform draw from `range`.
    pub fn uniform(rng: &mut SplitMix64, range: Range<f64>) -> f64 {
        range.start + (range.end - range.start) * rng.next_f64()
    }
}
