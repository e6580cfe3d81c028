//! Self-contained complex linear algebra for SuperSim-RS.
//!
//! No external linear-algebra crates are available in the offline build
//! environment, so this crate implements the small amount of numerics the
//! quantum simulators need:
//!
//! * [`C64`] — a `f64` complex number with the usual arithmetic;
//! * [`CMat`] — a dense, row-major complex matrix;
//! * [`eigh`] — Hermitian eigendecomposition (cyclic Jacobi);
//! * [`svd()`] — complex singular value decomposition (one-sided Jacobi);
//! * [`psd_project`] — projection of a Hermitian matrix onto the positive
//!   semidefinite cone, used by the maximum-likelihood fragment-tomography
//!   correction.
//!
//! The implementations favour robustness and simplicity over peak
//! performance: the matrices handled here are small (fragment Choi matrices,
//! MPS bond tensors), so `O(n³)` Jacobi methods are more than fast enough.
//!
//! ```
//! use qmath::{CMat, C64, svd};
//!
//! let a = CMat::from_fn(3, 2, |i, j| C64::new((i + j) as f64, i as f64 - j as f64));
//! let dec = svd(&a);
//! assert!(dec.reconstruct().approx_eq(&a, 1e-10));
//! ```

mod complex;
mod eig;
mod matrix;
mod svd;

pub use complex::C64;
pub use eig::{eigh, psd_project, psd_project_with_trace, EigH};
pub use matrix::CMat;
pub use svd::{svd, Svd};
