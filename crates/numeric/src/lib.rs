//! Numerical substrate for the `gabm` workspace.
//!
//! This crate provides everything the analogue simulator (`gabm-sim`) and the
//! characterization tool (`gabm-charac`) need from numerical mathematics:
//!
//! * [`sparse`] — compressed sparse column matrices with a triplet builder,
//!   generic over a [`Scalar`] (real or complex);
//! * [`splu`] — a left-looking (Gilbert–Peierls) sparse LU with partial
//!   pivoting and numeric refactorization, again generic: the one solver
//!   behind the real Newton iterations of DC and transient analysis and the
//!   complex solves of AC small-signal analysis;
//! * [`complex`] — a self-contained [`Complex64`] (no external dependency);
//! * [`newton`] — SPICE-style convergence criteria and damping helpers;
//! * [`integrate`] — backward-Euler / trapezoidal / Gear-2 integration
//!   coefficients and a local-truncation-error step controller;
//! * [`interp`] — linear interpolation;
//! * [`waveform`] — sampled signals with arithmetic;
//! * [`measure`] — waveform measurements (crossings, rise time, overshoot,
//!   RMS, propagation delay, …) used by the extraction rigs.
//!
//! # Example
//!
//! ```
//! use gabm_numeric::{Complex64, SparseLu, TripletBuilder};
//!
//! # fn main() -> Result<(), gabm_numeric::NumericError> {
//! let mut b = TripletBuilder::new(2, 2);
//! b.push(0, 0, 4.0);
//! b.push(0, 1, 1.0);
//! b.push(1, 0, 1.0);
//! b.push(1, 1, 3.0);
//! let x = SparseLu::new(&b.to_csc())?.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//!
//! // The same code solves complex systems: (1 + j)·z = 2.
//! let mut c = TripletBuilder::new(1, 1);
//! c.push(0, 0, Complex64::new(1.0, 1.0));
//! let z = SparseLu::new(&c.to_csc())?.solve(&[Complex64::from_real(2.0)])?;
//! assert!((z[0] - Complex64::new(1.0, -1.0)).abs() < 1e-15);
//! # Ok(())
//! # }
//! ```

pub mod complex;
pub mod integrate;
pub mod interp;
pub mod measure;
pub mod newton;
pub mod plot;
pub mod rng;
pub mod sparse;
pub mod splu;
pub mod waveform;

pub use complex::Complex64;
pub use rng::Rng;
pub use sparse::{SparseMatrix, TripletBuilder};
pub use splu::SparseLu;
pub use waveform::Waveform;

use std::fmt;

/// Errors produced by the numerical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// A matrix was singular (or numerically singular) at the given pivot
    /// position.
    Singular {
        /// Row/column index of the failed pivot.
        pivot: usize,
    },
    /// Matrix or vector dimensions do not agree.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        found: usize,
    },
    /// An operation needed a non-empty input.
    Empty,
    /// Input data was malformed (e.g. ragged rows, non-monotonic abscissae).
    InvalidInput(String),
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed.
        iterations: usize,
        /// Last residual norm observed.
        residual: f64,
    },
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            NumericError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            NumericError::Empty => write!(f, "operation requires non-empty input"),
            NumericError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            NumericError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for NumericError {}

/// Field element usable by the generic sparse linear algebra.
///
/// Implemented for `f64` and [`Complex64`]. [`Scalar::magnitude`] is used by
/// partial pivoting.
pub trait Scalar:
    Copy
    + fmt::Debug
    + PartialEq
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
{
    /// Additive identity.
    fn zero() -> Self;
    /// Modulus (absolute value) used for pivot selection.
    fn magnitude(&self) -> f64;
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn magnitude(&self) -> f64 {
        self.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = NumericError::Singular { pivot: 3 };
        assert!(e.to_string().contains("pivot 3"));
        let e = NumericError::DimensionMismatch {
            expected: 4,
            found: 2,
        };
        assert!(e.to_string().contains("expected 4"));
        let e = NumericError::NoConvergence {
            iterations: 10,
            residual: 1.0,
        };
        assert!(e.to_string().contains("10 iterations"));
    }

    #[test]
    fn f64_scalar_impl() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!((-3.0f64).magnitude(), 3.0);
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericError>();
    }
}
