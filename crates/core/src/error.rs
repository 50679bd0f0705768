//! Error type for the KLE pipeline.

use klest_linalg::LinalgError;
use std::fmt;

/// Errors from KLE computation and sampling.
#[derive(Debug, Clone, PartialEq)]
pub enum KleError {
    /// The underlying eigensolve / factorisation failed.
    Linalg(LinalgError),
    /// A requested truncation rank exceeds the retained eigenpairs.
    RankOutOfRange {
        /// Requested rank.
        requested: usize,
        /// Eigenpairs actually retained.
        available: usize,
    },
    /// The sample vector handed to the sampler has the wrong length.
    SampleDimensionMismatch {
        /// Expected length (the truncation rank `r`).
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// A point could not be located in the mesh (outside the die).
    PointOutsideMesh {
        /// Index of the offending point in the caller's list.
        index: usize,
    },
    /// A pre-located triangle index exceeds the mesh size (e.g. indices
    /// computed against a different mesh).
    TriangleOutOfRange {
        /// The offending triangle index.
        index: usize,
        /// Number of triangles in the mesh.
        triangles: usize,
    },
    /// The KLE computation was cancelled cooperatively (deadline or
    /// explicit cancel); carries the runtime's typed partial-result marker.
    /// `completed` counts assembled Galerkin rows or converged eigenvalues,
    /// depending on `stage`.
    Cancelled(klest_runtime::Cancelled),
}

impl fmt::Display for KleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KleError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            KleError::RankOutOfRange {
                requested,
                available,
            } => write!(
                f,
                "truncation rank {requested} exceeds the {available} retained eigenpairs"
            ),
            KleError::SampleDimensionMismatch { expected, got } => {
                write!(f, "sample vector has length {got}, expected {expected}")
            }
            KleError::PointOutsideMesh { index } => {
                write!(f, "point {index} lies outside the meshed die area")
            }
            KleError::TriangleOutOfRange { index, triangles } => {
                write!(
                    f,
                    "triangle index {index} out of range ({triangles} triangles)"
                )
            }
            KleError::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for KleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KleError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for KleError {
    fn from(e: LinalgError) -> Self {
        // Cancellation is not a numerical failure; keep the runtime marker
        // at the top level so callers can match one variant per crate.
        match e {
            LinalgError::Cancelled(c) => KleError::Cancelled(c),
            other => KleError::Linalg(other),
        }
    }
}

impl From<klest_runtime::Cancelled> for KleError {
    fn from(c: klest_runtime::Cancelled) -> Self {
        KleError::Cancelled(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = KleError::from(LinalgError::Empty);
        assert!(e.to_string().contains("linear algebra"));
        assert!(e.source().is_some());
        let e = KleError::RankOutOfRange {
            requested: 30,
            available: 25,
        };
        assert!(e.to_string().contains("30"));
        assert!(e.source().is_none());
        assert!(KleError::SampleDimensionMismatch {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains("expected 3"));
        assert!(KleError::PointOutsideMesh { index: 5 }
            .to_string()
            .contains("point 5"));
    }
}
