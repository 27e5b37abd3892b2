//! The [`Externalize`]/[`Internalize`] traits and implementations for the
//! built-in Courier types.
//!
//! A type implementing both traits can cross machine boundaries in call
//! and return messages. User-declared RECORD, CHOICE, enumeration and
//! newtype types get theirs from the declarations of [`crate::declare`],
//! which the `stubgen` compiler emits as the paper's stub compilers
//! generated externalization procedures (§7.1.4).

use crate::error::WireError;
use crate::reader::Reader;
use crate::writer::Writer;

/// Translation from internal form to external representation
/// ("marshaling" in Nelson's terminology, §7.1).
pub trait Externalize {
    /// Appends this value's external representation to `w`.
    fn externalize(&self, w: &mut Writer);

    /// The length of this value's external representation, if the value
    /// knows it without writing it. [`encode_with`] makes room for exactly
    /// that much before writing, so a message that writes a few bytes
    /// past a large block never doubles the scratch buffer for them.
    fn external_len(&self) -> Option<usize> {
        None
    }
}

/// Translation from external representation back to internal form
/// ("unmarshaling").
///
/// `'a` is the life of the buffer read from: a value may borrow from it
/// (a packed block as `&'a [u8]`, a STRING as `&'a str`), so one
/// declaration serves both an owned form and a zero-copy view of it.
/// An owned type implements it for every `'a`.
pub trait Internalize<'a>: Sized {
    /// Parses one value from `r`, advancing the cursor.
    fn internalize(r: &mut Reader<'a>) -> Result<Self, WireError>;
}

thread_local! {
    /// The buffer every [`encode_with`] on this thread externalizes into.
    /// It keeps its capacity between calls, so once it has seen the
    /// thread's largest routine message, encoding allocates nothing but
    /// the caller's own exactly-sized copy.
    static SCRATCH: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

/// A scratch buffer that grew beyond this is dropped rather than kept, so
/// one large state transfer does not pin its size for the thread's life.
/// 16 KiB holds every routine message (an 8 KiB bulk call or return,
/// which knows its length and is written into exactly that much room)
/// and is small beside any world's heap.
const SCRATCH_KEEP: usize = 1 << 14;

/// Externalizes `v` into the thread's scratch buffer and hands the encoded
/// bytes to `sink`, returning what it returns.
///
/// The sink decides what the bytes become — a `Vec` ([`to_bytes`]), a
/// refcounted datagram buffer, a log record — and so makes the *one*
/// allocation of the encode, sized exactly; the `Writer`'s own growth
/// happens in the reused scratch. Re-entrant: an `externalize` that itself
/// encodes a nested value just sees an empty scratch.
pub fn encode_with<T: Externalize + ?Sized, R>(v: &T, sink: impl FnOnce(&[u8]) -> R) -> R {
    let mut w = Writer::reusing(SCRATCH.take());
    if let Some(len) = v.external_len() {
        w.reserve_exact(len);
    }
    v.externalize(&mut w);
    let buf = w.finish();
    let out = sink(&buf);
    if buf.capacity() <= SCRATCH_KEEP {
        SCRATCH.set(buf);
    }
    out
}

/// Externalizes a single value into a fresh, exactly-sized byte vector.
pub fn to_bytes<T: Externalize + ?Sized>(v: &T) -> Vec<u8> {
    encode_with(v, <[u8]>::to_vec)
}

/// Internalizes a single value, requiring the buffer to be fully consumed.
pub fn from_bytes<'a, T: Internalize<'a>>(bytes: &'a [u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let v = T::internalize(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

macro_rules! scalar_impl {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Externalize for $ty {
            fn externalize(&self, w: &mut Writer) {
                w.$put(*self);
            }
        }
        impl Internalize<'_> for $ty {
            fn internalize(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    };
}

scalar_impl!(u16, put_u16, get_u16);
scalar_impl!(u32, put_u32, get_u32);
scalar_impl!(u64, put_u64, get_u64);
scalar_impl!(i16, put_i16, get_i16);
scalar_impl!(i32, put_i32, get_i32);
scalar_impl!(i64, put_i64, get_i64);
scalar_impl!(bool, put_bool, get_bool);

impl Externalize for String {
    fn externalize(&self, w: &mut Writer) {
        w.put_string(self);
    }
}

impl Internalize<'_> for String {
    fn internalize(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_string()
    }
}

impl Externalize for str {
    fn externalize(&self, w: &mut Writer) {
        w.put_string(self);
    }
}

/// A STRING borrowed from the buffer read (validated, not copied).
impl<'a: 'b, 'b> Internalize<'a> for &'b str {
    fn internalize(r: &mut Reader<'a>) -> Result<Self, WireError> {
        r.get_str_borrowed()
    }
}

/// An opaque byte block (SEQUENCE OF UNSPECIFIED, packed): `u8` is not a
/// Courier type, so bytes never take the SEQUENCE impls below, and a
/// block is one length word and the bytes, word-padded.
impl Externalize for [u8] {
    fn externalize(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Externalize for Vec<u8> {
    fn externalize(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Internalize<'_> for Vec<u8> {
    fn internalize(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_bytes()
    }
}

/// A packed block borrowed from the buffer read: no allocation, no copy.
impl<'a: 'b, 'b> Internalize<'a> for &'b [u8] {
    fn internalize(r: &mut Reader<'a>) -> Result<Self, WireError> {
        r.get_bytes_borrowed()
    }
}

/// A byte block, owned (`Vec<u8>`) or borrowed (`&[u8]`), and nothing
/// else: the bound of a declared type's parameter that holds one, so a
/// `Vec<i32>` there (a SEQUENCE, laid out otherwise) does not compile.
/// Sealed: no other type is a block.
pub trait Block: sealed::Sealed {}

impl Block for Vec<u8> {}

impl Block for &[u8] {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for Vec<u8> {}
    impl Sealed for &[u8] {}
}

/// A SEQUENCE, as `Vec<T>` externalizes: a borrowed sequence encodes
/// without being copied into a vector first.
impl<T: Externalize> Externalize for [T] {
    fn externalize(&self, w: &mut Writer) {
        w.put_seq_len(self.len());
        for item in self {
            item.externalize(w);
        }
    }
}

impl<T: Externalize> Externalize for Vec<T> {
    fn externalize(&self, w: &mut Writer) {
        self.as_slice().externalize(w);
    }
}

/// A reference externalizes as what it refers to, so a tuple or record
/// may borrow its fields.
impl<T: Externalize + ?Sized> Externalize for &T {
    fn externalize(&self, w: &mut Writer) {
        (**self).externalize(w);
    }

    fn external_len(&self) -> Option<usize> {
        (**self).external_len()
    }
}

impl<'a, T: Internalize<'a>> Internalize<'a> for Vec<T> {
    fn internalize(r: &mut Reader<'a>) -> Result<Self, WireError> {
        let n = r.get_seq_len()?;
        let mut v = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            v.push(T::internalize(r)?);
        }
        Ok(v)
    }
}

impl<T: Externalize, const N: usize> Externalize for [T; N] {
    fn externalize(&self, w: &mut Writer) {
        for item in self {
            item.externalize(w);
        }
    }
}

impl<'a, T: Internalize<'a>, const N: usize> Internalize<'a> for [T; N] {
    fn internalize(r: &mut Reader<'a>) -> Result<Self, WireError> {
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::internalize(r)?);
        }
        // Cannot fail: exactly N elements were pushed.
        Ok(v.try_into().ok().expect("length is N"))
    }
}

/// `Option<T>` as a two-armed CHOICE (designator 0 = none, 1 = some).
impl<T: Externalize> Externalize for Option<T> {
    fn externalize(&self, w: &mut Writer) {
        match self {
            None => w.put_designator(0),
            Some(v) => {
                w.put_designator(1);
                v.externalize(w);
            }
        }
    }
}

impl<'a, T: Internalize<'a>> Internalize<'a> for Option<T> {
    fn internalize(r: &mut Reader<'a>) -> Result<Self, WireError> {
        match r.get_designator()? {
            0 => Ok(None),
            1 => Ok(Some(T::internalize(r)?)),
            d => Err(WireError::BadChoice(d)),
        }
    }
}

impl Externalize for () {
    fn externalize(&self, _w: &mut Writer) {}
}

impl Internalize<'_> for () {
    fn internalize(_r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

macro_rules! tuple_impl {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Externalize),+> Externalize for ($($name,)+) {
            fn externalize(&self, w: &mut Writer) {
                $(self.$idx.externalize(w);)+
            }
        }
        impl<'a, $($name: Internalize<'a>),+> Internalize<'a> for ($($name,)+) {
            fn internalize(r: &mut Reader<'a>) -> Result<Self, WireError> {
                Ok(($($name::internalize(r)?,)+))
            }
        }
    };
}

tuple_impl!(A: 0);
tuple_impl!(A: 0, B: 1);
tuple_impl!(A: 0, B: 1, C: 2);
tuple_impl!(A: 0, B: 1, C: 2, D: 3);
tuple_impl!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Externalize + for<'a> Internalize<'a> + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("internalize");
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u16);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(i16::MIN);
        round_trip(i32::MIN);
        round_trip(i64::MIN);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(String::from("troupe"));
        round_trip(vec![9u8, 8, 7]);
        round_trip(vec![1u16, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip([1u16, 2, 3]);
        round_trip(Some(42u32));
        round_trip(Option::<u32>::None);
        round_trip((1u16, String::from("x"), false));
    }

    #[test]
    fn borrowed_sequences_encode_as_vectors() {
        let v = vec![(1u16, 2u64), (3, 4)];
        assert_eq!(to_bytes(v.as_slice()), to_bytes(&v));
        assert_eq!(
            to_bytes(&(7u32, v.as_slice())),
            to_bytes(&(7u32, v.clone()))
        );
    }

    #[test]
    fn nested_containers() {
        round_trip(vec![vec![1u16], vec![], vec![2, 3]]);
        round_trip(vec![Some(vec![0u8])]);
    }

    #[test]
    fn from_bytes_rejects_trailing() {
        let mut bytes = to_bytes(&5u16);
        bytes.push(0);
        assert!(from_bytes::<u16>(&bytes).is_err());
    }

    #[test]
    fn option_bad_designator() {
        let bytes = vec![0, 9];
        assert_eq!(
            from_bytes::<Option<u16>>(&bytes),
            Err(WireError::BadChoice(9))
        );
    }

    #[test]
    fn vec_u8_is_a_packed_block_not_a_sequence() {
        // u8 is not a Courier type, so bytes never take the SEQUENCE impls
        // (a count, then a word an element): a block is packed, however
        // it is held.
        let b = to_bytes(&vec![1u8]);
        assert_eq!(b, vec![0, 0, 0, 1, 1, 0]);
        assert_eq!(to_bytes(&[1u8][..]), b);
        assert_eq!(to_bytes(&vec![1u16]), vec![0, 0, 0, 1, 0, 1]);
    }

    #[test]
    fn blocks_and_strings_borrow_from_the_buffer() {
        let bytes = to_bytes(&(vec![9u8, 8, 7], "troupe"));
        let (block, text): (&[u8], &str) = from_bytes(&bytes).unwrap();
        assert_eq!((block, text), (&[9, 8, 7][..], "troupe"));
        assert_eq!(block.as_ptr_range(), bytes[4..7].as_ptr_range(), "a borrow");
        round_trip(vec![9u8, 8, 7]);
    }
}
