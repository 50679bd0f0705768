//! Typed errors for the static-timing crate.
//!
//! The workspace no-panic policy: malformed input gets a typed error,
//! never an `assert!` in library code. `klest-sta` cannot name the
//! facade's `KlestError` (the dependency points the other way), so the
//! precondition failures here carry the same `key`/`value`/`message`
//! shape and the facade converts them into
//! `KlestError::InvalidArgument` losslessly.

use std::fmt;

/// A static-timing API precondition failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaError {
    /// A caller-supplied argument was malformed or out of range.
    InvalidArgument {
        /// Which argument (e.g. `params`, `node`).
        key: String,
        /// The offending value, stringified.
        value: String,
        /// What was wrong with it.
        message: String,
    },
}

impl StaError {
    pub(crate) fn invalid(
        key: impl Into<String>,
        value: impl ToString,
        message: impl Into<String>,
    ) -> StaError {
        StaError::InvalidArgument {
            key: key.into(),
            value: value.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::InvalidArgument {
                key,
                value,
                message,
            } => {
                write!(f, "invalid argument {key}={value}: {message}")
            }
        }
    }
}

impl std::error::Error for StaError {}
