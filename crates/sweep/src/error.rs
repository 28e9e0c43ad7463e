//! Error type for artifact IO and checkpoint resumption.

use std::fmt;

/// Everything that can go wrong loading, parsing, or resuming a sweep
/// artifact. (Invalid sweep *configurations* panic at build time, like
/// the engine builder.)
#[derive(Debug)]
pub enum SweepError {
    /// Reading or writing an artifact file failed.
    Io(std::io::Error),
    /// An artifact or spec was not valid `dg-sweep` JSON, or broke a
    /// configuration rule.
    Parse(String),
    /// An artifact does not belong to this sweep (different grid, seed,
    /// or budget — resuming from it would silently mix experiments).
    Mismatch(String),
    /// A cell query against a report was malformed: an unknown, missing,
    /// or duplicated axis name, or a non-finite query value.
    Query(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep artifact io error: {e}"),
            SweepError::Parse(msg) => write!(f, "sweep artifact parse error: {msg}"),
            SweepError::Mismatch(msg) => write!(f, "sweep artifact mismatch: {msg}"),
            SweepError::Query(msg) => write!(f, "sweep cell query error: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}
