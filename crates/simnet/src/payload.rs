//! Cheaply-cloneable datagram payloads.
//!
//! Every datagram the simulator carries is a [`Payload`]: a reference-
//! counted byte buffer plus a window into it. Cloning one — for a
//! duplicated delivery, a multicast fan-out, or a retransmission queue —
//! is a refcount bump, never a byte copy. Slicing one (protocol headers,
//! message segmentation) shares the same allocation.
//!
//! What each constructor costs: [`Payload::empty`] nothing (the empty
//! window owns no buffer); [`Payload::build`] and [`Payload::copy_from`]
//! one allocation; `From<Vec<u8>>` one allocation *and* a copy of the
//! vector's bytes (`Rc<[u8]>` cannot adopt a `Vec`'s buffer), so encoders
//! that know their length up front write through `build` instead.
//!
//! The simulator is single-threaded per [`World`](crate::World) (the
//! chaos harness parallelizes across *worlds*, one per seed), so the
//! refcount is a plain `Rc`: no atomics on the hot path, and the type is
//! deliberately `!Send` — a payload can never leak across seed workers.

use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

/// An immutable, cheaply-cloneable byte buffer (a window into an
/// `Rc<[u8]>`).
///
/// Dereferences to `&[u8]`, so existing slice-based code reads it
/// directly; `clone()` is a refcount bump; [`Payload::slice`] shares the
/// underlying allocation.
#[derive(Clone)]
pub struct Payload {
    /// `None` only for the empty payload, which therefore costs no
    /// allocation (every ack and probe segment carries one).
    bytes: Option<Rc<[u8]>>,
    start: usize,
    end: usize,
}

impl Payload {
    /// An empty payload. Allocates nothing.
    pub fn empty() -> Payload {
        Payload {
            bytes: None,
            start: 0,
            end: 0,
        }
    }

    /// Copies `bytes` into a fresh payload (the one unavoidable copy at
    /// the boundary between borrowed data and the zero-copy plane).
    pub fn copy_from(bytes: &[u8]) -> Payload {
        if bytes.is_empty() {
            return Payload::empty();
        }
        Payload {
            bytes: Some(Rc::from(bytes)),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Builds a `len`-byte payload in place: one allocation, which `fill`
    /// writes straight into (it receives the zeroed buffer). This is the
    /// constructor for encoders that know their output length up front —
    /// a segment's header + data, a reassembled message — and would
    /// otherwise build a `Vec` only to copy it into the `Rc`.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
        if len == 0 {
            return Payload::empty();
        }
        let mut bytes: Rc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Rc::get_mut(&mut bytes).expect("a fresh Rc has one owner"));
        Payload {
            bytes: Some(bytes),
            start: 0,
            end: len,
        }
    }

    /// Length of the visible window in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-window sharing the same allocation (zero-copy). `range` is
    /// relative to this payload's window.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds for payload of {} bytes",
            self.len()
        );
        Payload {
            bytes: self.bytes.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// The visible bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.bytes {
            Some(bytes) => &bytes[self.start..self.end],
            None => &[],
        }
    }

    /// `true` if `self` and `other` are windows of the same allocation
    /// (or both own none) — the structural zero-copy property tests pin.
    pub fn shares_buffer_with(&self, other: &Payload) -> bool {
        match (&self.bytes, &other.bytes) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Copies the visible bytes out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Copies the vector's bytes into a fresh `Rc<[u8]>` (one allocation and
/// one copy; the vector's own buffer is freed). Prefer [`Payload::build`]
/// where the length is known before the bytes are produced.
impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::copy_from(&v)
    }
}

impl From<&[u8]> for Payload {
    fn from(b: &[u8]) -> Payload {
        Payload::copy_from(b)
    }
}

impl From<&Vec<u8>> for Payload {
    fn from(b: &Vec<u8>) -> Payload {
        Payload::copy_from(b)
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(b: &[u8; N]) -> Payload {
        Payload::copy_from(b)
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::empty()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes: {:?})", self.len(), self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let p = Payload::from(vec![1u8, 2, 3]);
        let q = p.clone();
        assert!(p.shares_buffer_with(&q));
        assert_eq!(&*q, &[1, 2, 3]);
    }

    #[test]
    fn slice_is_a_window_not_a_copy() {
        let p = Payload::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = p.slice(2..5);
        assert!(p.shares_buffer_with(&s));
        assert_eq!(&*s, &[2, 3, 4]);
        let ss = s.slice(1..2);
        assert!(p.shares_buffer_with(&ss));
        assert_eq!(&*ss, &[3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        Payload::from(vec![1u8]).slice(0..2);
    }

    #[test]
    fn equality_is_by_contents() {
        let a = Payload::from(vec![1u8, 2, 3]);
        let b = Payload::from(vec![0u8, 1, 2, 3, 4]).slice(1..4);
        assert_eq!(a, b);
        assert_eq!(a, vec![1u8, 2, 3]);
        assert_eq!(a, &[1u8, 2, 3]);
    }

    #[test]
    fn empty_payload() {
        let e = Payload::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.to_vec(), Vec::<u8>::new());
        // Every way of making an empty payload yields the buffer-less one.
        for other in [
            Payload::copy_from(&[]),
            Payload::from(Vec::new()),
            Payload::build(0, |_| unreachable!("nothing to fill")),
        ] {
            assert!(other.bytes.is_none());
            assert_eq!(other, e);
        }
        assert!(e.slice(0..0).is_empty());
    }

    #[test]
    fn build_fills_in_place() {
        let p = Payload::build(5, |buf| {
            assert_eq!(buf, &[0; 5]);
            buf[..2].copy_from_slice(&[7, 8]);
            buf[4] = 9;
        });
        assert_eq!(p, &[7u8, 8, 0, 0, 9]);
        assert!(p.shares_buffer_with(&p.slice(1..3)));
    }
}
