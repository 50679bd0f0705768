//! Error type shared by the linear-algebra routines.

use std::fmt;

/// Errors reported by `klest-linalg` operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions do not match the operation
    /// (e.g. multiplying `m x n` by `p x q` with `n != p`).
    DimensionMismatch {
        /// What was being attempted.
        op: &'static str,
        /// Dimensions of the left operand.
        left: (usize, usize),
        /// Dimensions of the right operand.
        right: (usize, usize),
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Actual dimensions.
        dims: (usize, usize),
    },
    /// Cholesky factorisation hit a non-positive pivot: the matrix is not
    /// (numerically) positive definite. Carries the failing pivot index.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// The eigensolver failed to converge within its iteration budget.
    NoConvergence {
        /// Index of the eigenvalue that failed to converge.
        index: usize,
    },
    /// A zero-sized matrix was supplied where a non-empty one is required.
    Empty,
    /// An entry that must be strictly positive (e.g. a mass-matrix
    /// diagonal / triangle area) was not.
    NonPositiveEntry {
        /// Index of the offending entry.
        index: usize,
        /// The value found.
        value: f64,
    },
    /// A matrix entry is NaN or infinite where finite input is required.
    NonFinite {
        /// Row of the first offending entry.
        row: usize,
        /// Column of the first offending entry.
        col: usize,
    },
    /// The operation was cancelled cooperatively (deadline or explicit
    /// cancel) before completing; carries the runtime's typed partial-result
    /// marker. `completed` counts converged eigenvalues (QL) or finished
    /// sweeps (Jacobi), and is 0 in the Householder reduction.
    Cancelled(klest_runtime::Cancelled),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { dims } => {
                write!(f, "matrix must be square, got {}x{}", dims.0, dims.1)
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NoConvergence { index } => {
                write!(f, "eigensolver failed to converge at eigenvalue {index}")
            }
            LinalgError::Empty => write!(f, "matrix must be non-empty"),
            LinalgError::NonPositiveEntry { index, value } => {
                write!(f, "entry {index} must be positive, got {value}")
            }
            LinalgError::NonFinite { row, col } => {
                write!(f, "matrix entry ({row}, {col}) is not finite")
            }
            LinalgError::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for LinalgError {}

impl From<klest_runtime::Cancelled> for LinalgError {
    fn from(c: klest_runtime::Cancelled) -> Self {
        LinalgError::Cancelled(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = LinalgError::DimensionMismatch {
            op: "mul",
            left: (2, 3),
            right: (4, 5),
        };
        assert_eq!(e.to_string(), "dimension mismatch in mul: 2x3 vs 4x5");
        assert_eq!(
            LinalgError::NotSquare { dims: (2, 3) }.to_string(),
            "matrix must be square, got 2x3"
        );
        assert_eq!(
            LinalgError::NotPositiveDefinite { pivot: 7 }.to_string(),
            "matrix is not positive definite (pivot 7)"
        );
        assert_eq!(
            LinalgError::NoConvergence { index: 3 }.to_string(),
            "eigensolver failed to converge at eigenvalue 3"
        );
        assert_eq!(LinalgError::Empty.to_string(), "matrix must be non-empty");
        let cancelled: LinalgError = klest_runtime::Cancelled {
            stage: "eigen/ql",
            completed: 12,
            budget: None,
        }
        .into();
        assert!(cancelled.to_string().contains("eigen/ql"));
        assert!(cancelled.to_string().contains("12"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(LinalgError::Empty);
    }
}
