//! Cheaply-cloneable datagram payloads.
//!
//! Every datagram the simulator carries is a [`Payload`]. One of up to
//! [`Payload::INLINE`] (30) bytes holds them in place, as a `[u8; 30]`
//! beside its length: acks and probes, small results, small encodes. A
//! longer one is a reference-counted byte buffer plus a window into it.
//! Cloning either — for a duplicated delivery, a multicast fan-out, or a
//! retransmission queue — allocates nothing: a refcount bump or a 32-byte
//! copy. Slicing a buffered payload (protocol headers, message
//! segmentation) shares the same allocation.
//!
//! What each constructor costs: [`Payload::empty`], and
//! [`Payload::copy_from`] and [`Payload::build`] of up to 30 bytes,
//! nothing; longer ones one allocation. `From<Vec<u8>>` copies the
//! vector's bytes (`Rc<[u8]>` cannot adopt a `Vec`'s buffer), so encoders
//! that know their length up front write through `build` instead.
//!
//! A buffer may be written after it is built, but only where no other
//! handle can see it: [`Payload::stamp`] writes bytes into the window if
//! `Rc::get_mut` says this handle is the only one (the rule
//! `Rc::make_mut` follows, without its copy), and through a shared handle
//! it writes nothing, succeeding only if the bytes are there already.
//! That is how a message laid out as its datagrams (`pairedmsg`'s
//! framing) gets each segment's header written in front of its data, and
//! how every peer sent it at the same call number shares those
//! datagrams. A payload handed to the network is shared by then, so
//! nothing it carries is ever written again.
//!
//! The simulator is single-threaded per [`World`](crate::World) (the
//! chaos harness parallelizes across *worlds*, one per seed), so the
//! refcount is a plain `Rc`: no atomics on the hot path, and the type is
//! deliberately `!Send` — a payload can never leak across seed workers.

use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

/// An immutable, cheaply-cloneable byte string: up to 30 bytes in place,
/// or a window into an `Rc<[u8]>`.
///
/// Dereferences to `&[u8]`, so existing slice-based code reads it
/// directly; `clone()` never allocates; [`Payload::slice`] of a buffered
/// payload shares the underlying allocation.
#[derive(Clone)]
pub struct Payload(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]`: no allocation (the empty payload is one of these).
    Inline {
        len: u8,
        bytes: [u8; Payload::INLINE],
    },
    /// `bytes[start..end]`, a window of a shared buffer.
    Shared {
        bytes: Rc<[u8]>,
        start: u32,
        end: u32,
    },
}

// As small as the `Option<Rc<[u8]>>` + two `usize`s it replaced: the
// inline bytes fill what the tag and the `u32` offsets leave of 32.
const _: () = assert!(std::mem::size_of::<Payload>() == 32);

/// A window offset: buffers stay under 4 GiB.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a payload buffer is under 4 GiB")
}

impl Payload {
    /// The most bytes a payload holds in place, with no allocation.
    pub const INLINE: usize = 30;

    /// An empty payload. Allocates nothing.
    pub fn empty() -> Payload {
        Payload(Repr::Inline {
            len: 0,
            bytes: [0; Payload::INLINE],
        })
    }

    /// Copies `bytes` into a fresh payload: in place up to
    /// [`Payload::INLINE`] bytes, else one allocation (the one copy at the
    /// boundary between borrowed data and the zero-copy plane).
    pub fn copy_from(bytes: &[u8]) -> Payload {
        if bytes.len() <= Payload::INLINE {
            return Payload::build(bytes.len(), |out| out.copy_from_slice(bytes));
        }
        Payload(Repr::Shared {
            bytes: Rc::from(bytes),
            start: 0,
            end: offset(bytes.len()),
        })
    }

    /// Builds a `len`-byte payload in place, which `fill` writes straight
    /// into (it receives the zeroed bytes): no allocation up to
    /// [`Payload::INLINE`] bytes, else one. This is the constructor for
    /// encoders that know their output length up front — a segment's
    /// header + data, a reassembled message — and would otherwise build a
    /// `Vec` only to copy it into the `Rc`.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
        if len <= Payload::INLINE {
            let mut bytes = [0; Payload::INLINE];
            fill(&mut bytes[..len]);
            return Payload(Repr::Inline {
                len: len as u8,
                bytes,
            });
        }
        let mut bytes: Rc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Rc::get_mut(&mut bytes).expect("a fresh Rc has one owner"));
        Payload(Repr::Shared {
            bytes,
            start: 0,
            end: offset(len),
        })
    }

    /// Makes the window's bytes at `at` equal `bytes` without a copy, if
    /// it can: this handle writes them if it is the only one on its
    /// buffer (an inline payload always is), and a shared handle never
    /// writes — it succeeds only where the bytes are there already.
    /// Otherwise returns `false` and changes nothing: the caller copies
    /// instead. No other handle can see a byte written, so the payload
    /// stays immutable to everyone who holds it.
    ///
    /// # Panics
    ///
    /// Panics if the bytes would run past the window.
    pub fn stamp(&mut self, at: usize, bytes: &[u8]) -> bool {
        let range = at..at + bytes.len();
        assert!(
            range.end <= self.len(),
            "stamp {range:?} out of bounds for payload of {} bytes",
            self.len()
        );
        if self.as_slice()[range.clone()] == *bytes {
            return true;
        }
        let window = match &mut self.0 {
            Repr::Inline { len, bytes } => &mut bytes[..usize::from(*len)],
            Repr::Shared { bytes, start, end } => match Rc::get_mut(bytes) {
                Some(buf) => &mut buf[*start as usize..*end as usize],
                None => return false,
            },
        };
        window[range].copy_from_slice(bytes);
        true
    }

    /// Length of the visible window in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Shared { start, end, .. } => (end - start) as usize,
        }
    }

    /// `true` if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-window: of a buffered payload, one sharing the same
    /// allocation (zero-copy); of an inline one, an inline copy. `range`
    /// is relative to this payload's window. Allocates nothing.
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
        match &self.0 {
            Repr::Inline { bytes, .. } => {
                let mut window = [0; Payload::INLINE];
                window[..range.len()].copy_from_slice(&bytes[range.clone()]);
                Payload(Repr::Inline {
                    len: range.len() as u8,
                    bytes: window,
                })
            }
            Repr::Shared { bytes, start, .. } => Payload(Repr::Shared {
                bytes: bytes.clone(),
                start: start + offset(range.start),
                end: start + offset(range.end),
            }),
        }
    }

    /// The visible bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared { bytes, start, end } => &bytes[*start as usize..*end as usize],
        }
    }

    /// `true` if `self` and `other` are windows of the same allocation
    /// (or both own none, as inline payloads) — the structural zero-copy
    /// property tests pin.
    pub fn shares_buffer_with(&self, other: &Payload) -> bool {
        match (&self.0, &other.0) {
            (Repr::Shared { bytes: a, .. }, Repr::Shared { bytes: b, .. }) => Rc::ptr_eq(a, b),
            (Repr::Inline { .. }, Repr::Inline { .. }) => true,
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

/// Copies the vector's bytes (into a fresh `Rc<[u8]>` past
/// [`Payload::INLINE`] bytes: one allocation and one copy; the vector's
/// own buffer is freed). Prefer [`Payload::build`] where the length is
/// known before the bytes are produced.
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

    /// Past the inline limit, so the payload owns a buffer to share.
    fn buffered(len: u8) -> Payload {
        Payload::from((0..len).collect::<Vec<u8>>())
    }

    fn is_inline(p: &Payload) -> bool {
        matches!(p.0, Repr::Inline { .. })
    }

    #[test]
    fn clone_shares_the_allocation() {
        let p = buffered(40);
        let q = p.clone();
        assert!(!is_inline(&p));
        assert!(p.shares_buffer_with(&q));
        assert_eq!(q, p);
    }

    #[test]
    fn slice_is_a_window_not_a_copy() {
        let p = buffered(40);
        let s = p.slice(2..37);
        assert!(p.shares_buffer_with(&s));
        assert_eq!(&*s, &(2..37).collect::<Vec<u8>>()[..]);
        let ss = s.slice(1..2);
        assert!(p.shares_buffer_with(&ss), "even a short window shares");
        assert_eq!(&*ss, &[3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        Payload::from(vec![1u8]).slice(0..2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_of_a_buffer_panics() {
        buffered(31).slice(0..32);
    }

    #[test]
    fn equality_is_by_contents() {
        let a = Payload::from(vec![1u8, 2, 3]);
        let b = Payload::from(vec![0u8, 1, 2, 3, 4]).slice(1..4);
        assert_eq!(a, b);
        assert_eq!(a, vec![1u8, 2, 3]);
        assert_eq!(a, &[1u8, 2, 3]);
        // Inline and buffered forms of the same bytes are equal.
        assert_eq!(buffered(40).slice(0..3), Payload::from(vec![0u8, 1, 2]));
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
            Payload::build(0, |_| {}),
        ] {
            assert!(is_inline(&other));
            assert_eq!(other, e);
        }
        assert!(e.slice(0..0).is_empty());
    }

    /// Thirty bytes live in place, thirty-one in a buffer, whichever
    /// constructor makes them; slicing either keeps its form.
    #[test]
    fn thirty_bytes_inline_thirty_one_buffered() {
        for len in [Payload::INLINE, Payload::INLINE + 1] {
            let bytes: Vec<u8> = (1..=len as u8).collect();
            let inline = len <= Payload::INLINE;
            for p in [
                Payload::copy_from(&bytes),
                Payload::from(bytes.clone()),
                Payload::build(len, |out| out.copy_from_slice(&bytes)),
            ] {
                assert_eq!(is_inline(&p), inline, "{len} bytes");
                assert_eq!((p.len(), p.to_vec()), (len, bytes.clone()));
                let tail = p.slice(1..len);
                assert_eq!(is_inline(&tail), inline, "a slice keeps its form");
                assert_eq!(&*tail, &bytes[1..]);
                assert_eq!(p.clone(), p);
            }
        }
    }

    #[test]
    fn build_fills_in_place() {
        let p = Payload::build(5, |buf| {
            assert_eq!(buf, &[0; 5]);
            buf[..2].copy_from_slice(&[7, 8]);
            buf[4] = 9;
        });
        assert_eq!(p, &[7u8, 8, 0, 0, 9]);
        let q = Payload::build(40, |buf| buf[39] = 9);
        assert_eq!(q.len(), 40);
        assert!(q.shares_buffer_with(&q.slice(1..3)));
    }

    /// Only the one handle on a buffer writes into it; a shared handle
    /// never writes, and succeeds only over bytes that already match.
    #[test]
    fn stamp_writes_through_a_sole_handle_and_matches_through_a_shared_one() {
        let mut p = Payload::build(40, |buf| buf.fill(7));
        assert!(p.stamp(2, &[1, 2, 3]), "the only handle writes");
        assert_eq!(&p[..6], &[7, 7, 1, 2, 3, 7]);
        let held = p.clone();
        assert!(p.stamp(2, &[1, 2, 3]), "the bytes are there already");
        assert!(!p.stamp(2, &[1, 2, 4]), "another handle sees them");
        assert!(!p.stamp(0, &[0]), "not even one byte");
        assert_eq!(
            (&p[..6], &held[..6]),
            (&[7, 7, 1, 2, 3, 7][..], &[7, 7, 1, 2, 3, 7][..])
        );
        let mut window = p.slice(4..40);
        assert!(!window.stamp(0, &[9]), "a window shares its buffer too");
        drop((held, p));
        assert!(window.stamp(0, &[9]), "until it is the last handle");
        assert_eq!(&window[..2], &[9, 7]);
        let mut small = Payload::build(8, |_| {});
        let kept = small.clone();
        assert!(small.stamp(7, &[5]), "an inline payload is its own");
        assert_eq!((small[7], kept[7]), (5, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn stamp_past_the_window_panics() {
        Payload::build(40, |_| {}).slice(0..10).stamp(8, &[1, 2, 3]);
    }
}
