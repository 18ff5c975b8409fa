//! Gate- and circuit-level analyses for subthreshold CMOS.
//!
//! Built on the `subvt-spice` simulator and the `subvt-physics` compact
//! model, this crate provides every circuit experiment the paper runs:
//! inverter voltage-transfer curves ([`inverter`]), gain = −1 and
//! butterfly static noise margins ([`snm`]), FO1 propagation delay
//! ([`delay`]), inverter-chain energy and the minimum-energy point
//! ([`chain`]) — plus extensions: NAND2/NOR2 gates ([`gates`]), 6T SRAM
//! read/hold margins ([`sram`]) and Monte-Carlo V_th variability
//! ([`montecarlo`]). [`topology`] compiles every cell deck and holds the
//! one memoized measurement path; [`backend`] selects analytic or
//! netlist-measured circuit metrics.
//!
//! # Example: SNM of the reference inverter at 250 mV
//!
//! ```
//! use subvt_circuits::inverter::{CmosPair, Inverter};
//! use subvt_circuits::snm::noise_margins;
//! use subvt_physics::DeviceParams;
//! use subvt_units::Volts;
//!
//! let pair = CmosPair::balanced(DeviceParams::reference_90nm_nfet());
//! let vtc = Inverter::new(pair).vtc(Volts::new(0.25), 101)?;
//! let nm = noise_margins(&vtc).expect("restoring inverter");
//! assert!(nm.snm() > 0.03);
//! # Ok::<(), subvt_spice::SpiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod chain;
pub mod delay;
pub mod gates;
pub mod inverter;
pub mod montecarlo;
pub mod snm;
pub mod sram;
pub mod topology;

pub use backend::{CircuitBackend, CircuitBackendKind, CircuitError};
pub use chain::{InverterChain, MinimumEnergyPoint};
pub use inverter::{CmosPair, Inverter, Vtc};
pub use snm::{butterfly_snm, noise_margins, snm_sample, NoiseMargins};
