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
//! IDs must be "permanently unique", §6.3). A byte block is a `Vec<u8>`,
//! or a `&[u8]` borrowed from the buffer it is read from, as a STRING may
//! be a `&str`.
//!
//! The crate also holds [`IdSet`], the workspace's one exact set of ids
//! stored as ranges, whose wire form is its ranges: it sits this low so
//! the paired-message layer can keep its exactly-once audit in it too;
//! and [`VecMap`], the small ordered map the protocol's per-peer and
//! per-call tables are kept in, for the same reason.
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
mod idset;
pub mod reader;
pub mod types;
mod vecmap;
pub mod writer;

pub use error::WireError;
pub use idset::IdSet;
pub use reader::Reader;
pub use types::{encode_with, from_bytes, to_bytes, Block, Externalize, Internalize};
pub use vecmap::VecMap;
pub use writer::{BlockWith, Writer};
