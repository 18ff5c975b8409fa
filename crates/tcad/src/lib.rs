//! A minimal 2-D TCAD solver: nonlinear Poisson plus Scharfetter–Gummel
//! electron drift-diffusion on a rectangular mesh — the workspace's
//! substitute for the MEDICI simulations in the reproduced paper.
//!
//! The pipeline mirrors a classical device simulator:
//!
//! 1. [`device`] builds the MOSFET cross-section (mesh, doping, contacts)
//!    from the same [`subvt_physics::DeviceParams`] the compact model
//!    uses — uniform substrate, Gaussian-tail source/drain, 2-D Gaussian
//!    halo pockets (the paper's Fig. 1a/1b).
//! 2. [`poisson`] solves the nonlinear Poisson equation (finite volume,
//!    Boltzmann carriers, damped Newton, banded LU).
//! 3. [`continuity`] solves the linear Scharfetter–Gummel electron
//!    system (banded LU).
//! 4. [`gummel`] couples them with bias ramping.
//! 5. [`extract`] sweeps I_d–V_g and extracts S_S, V_th, I_off, I_on and
//!    DIBL.
//!
//! [`banded`] is the one linear solver: both systems number their nodes
//! along the mesh's shorter axis ([`mesh::BandOrder`]), so the banded
//! LU's half-bandwidth is the mesh depth.
//!
//! Scope: DC, unipolar (electron) transport, Boltzmann statistics, no
//! quantum or strain corrections — sufficient for the subthreshold
//! behaviour the paper studies, and validated against the compact model
//! in the workspace integration tests.
//!
//! # Example
//!
//! ```no_run
//! use subvt_physics::DeviceParams;
//! use subvt_tcad::device::MeshDensity;
//! use subvt_tcad::extract::sweep_and_extract;
//!
//! let ext = sweep_and_extract(
//!     &DeviceParams::reference_90nm_nfet(),
//!     MeshDensity::Standard,
//! )?;
//! println!("2-D extracted S_S = {:.1} mV/dec", ext.s_s);
//! # Ok::<(), subvt_tcad::gummel::TcadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The TCAD solver revision, as a string literal for `concat!`. Every
/// TCAD cache key carries it: the `tcad.extract` and `tcad.model` tags
/// and [`TcadModel`]'s `cache_id`, which the design, topology and
/// circuit caches key on. Bump it with any change to the solver's bits,
/// so caches written by an older solver are never read back.
macro_rules! solver_revision {
    () => {
        "v6"
    };
}

pub mod banded;
pub mod continuity;
pub mod device;
pub mod doping;
pub mod extract;
pub mod gummel;
pub mod mesh;
pub mod model;
pub mod poisson;
pub mod report;

pub use device::{MeshDensity, Mosfet2d};
pub use extract::{sweep_and_extract, Extraction};
pub use gummel::{DeviceSimulator, TcadError};
pub use model::{Fidelity, TcadModel};
