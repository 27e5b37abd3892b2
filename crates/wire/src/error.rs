//! Errors arising during internalization.

use std::fmt;

/// An error while internalizing (unmarshaling) a value.
///
/// Externalization is infallible: any in-memory value has a
/// representation. Internalization parses untrusted bytes and can fail in
/// all the usual ways.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A BOOLEAN word held something other than 0 or 1.
    BadBoolean(u16),
    /// A STRING's bytes were not valid UTF-8.
    BadString,
    /// A CHOICE carried an unknown designator.
    BadChoice(u16),
    /// A length field exceeded the representable or sane maximum.
    BadLength(u32),
    /// An enumeration word did not name a known value.
    BadEnum(u16),
    /// Bytes remained after the top-level value was internalized.
    Trailing(usize),
    /// The words decoded, but as a value its type could not have built
    /// (ranges out of order, say); names the type.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::BadBoolean(w) => write!(f, "invalid BOOLEAN word {w}"),
            WireError::BadString => write!(f, "STRING is not valid UTF-8"),
            WireError::BadChoice(d) => write!(f, "unknown CHOICE designator {d}"),
            WireError::BadLength(n) => write!(f, "implausible length {n}"),
            WireError::BadEnum(w) => write!(f, "unknown enumeration value {w}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
            WireError::Invalid(what) => write!(f, "ill-formed {what}"),
        }
    }
}

impl std::error::Error for WireError {}
