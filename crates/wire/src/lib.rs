//! # wire: Courier-style external data representation
//!
//! Implements the externalization/internalization machinery of §7.1
//! (Figure 7.1): translating typed values to and from a standard external
//! representation so they can be carried in call and return messages.
//!
//! The representation follows the Courier conventions the Circus stub
//! compiler used: big-endian 16-bit words, 16/32-bit integers, BOOLEANs
//! as words, length-prefixed word-padded strings and byte blocks,
//! SEQUENCEs with 32-bit counts, and CHOICEs introduced by a designator
//! word. 64-bit integers are a documented extension (troupe and thread
//! IDs must be "permanently unique", §6.3).
//!
//! # Examples
//!
//! ```
//! use wire::{to_bytes, from_bytes};
//!
//! let v = (42u32, String::from("ringmaster"), vec![1u16, 2, 3]);
//! let bytes = to_bytes(&v);
//! let back: (u32, String, Vec<u16>) = from_bytes(&bytes).unwrap();
//! assert_eq!(back, v);
//! ```

#![warn(missing_docs)]

pub mod declare;
pub mod error;
pub mod reader;
pub mod types;
pub mod writer;

pub use error::WireError;
pub use reader::{byte_copies, Reader};
pub use types::{encode_with, from_bytes, to_bytes, Bytes, Externalize, Internalize};
pub use writer::Writer;
