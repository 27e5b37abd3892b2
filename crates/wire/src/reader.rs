//! Internalization: translating external representation back into values
//! (§7.1, Figure 7.1).

use crate::error::WireError;

/// A cursor over a buffer of external representation.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte buffer for reading.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns an error unless the buffer has been fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a 16-bit word.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a 32-bit word.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a 64-bit word (extension).
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Reads a 16-bit INTEGER.
    pub fn get_i16(&mut self) -> Result<i16, WireError> {
        Ok(self.get_u16()? as i16)
    }

    /// Reads a 32-bit LONG INTEGER.
    pub fn get_i32(&mut self) -> Result<i32, WireError> {
        Ok(self.get_u32()? as i32)
    }

    /// Reads a 64-bit signed integer (extension).
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a BOOLEAN, rejecting words other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u16()? {
            0 => Ok(false),
            1 => Ok(true),
            w => Err(WireError::BadBoolean(w)),
        }
    }

    /// Reads a length-prefixed, word-padded opaque byte block.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.get_bytes_borrowed()?.to_vec())
    }

    /// Reads a length-prefixed, word-padded opaque byte block as a
    /// borrow of the underlying buffer — no allocation, no copy.
    ///
    /// This extends the one-copy rule into internalization: a decoder
    /// that only inspects the block (or hands it to a refcounted
    /// payload-style sink) can skip the fresh `Vec` that
    /// [`Reader::get_bytes`] makes. The borrow lives as long as the
    /// datagram buffer, not the reader.
    pub fn get_bytes_borrowed(&mut self) -> Result<&'a [u8], WireError> {
        let buf = self.buf;
        Ok(&buf[self.get_bytes_range()?])
    }

    /// Reads a length-prefixed, word-padded opaque byte block as its
    /// position in the underlying buffer. A caller that holds the buffer
    /// as a refcounted payload turns the range into a shared window —
    /// the block travels on without being copied or even borrowed.
    pub fn get_bytes_range(&mut self) -> Result<std::ops::Range<usize>, WireError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let start = self.pos;
        self.take(n)?;
        if n % 2 == 1 {
            self.take(1)?; // Discard the pad byte.
        }
        Ok(start..start + n)
    }

    /// Reads a STRING as a borrow of the underlying buffer (validated
    /// UTF-8, no allocation).
    pub fn get_str_borrowed(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes_borrowed()?).map_err(|_| WireError::BadString)
    }

    /// Reads a STRING (length-prefixed UTF-8, word-padded).
    pub fn get_string(&mut self) -> Result<String, WireError> {
        Ok(self.get_str_borrowed()?.to_owned())
    }

    /// Reads a SEQUENCE length prefix.
    ///
    /// Every Courier element occupies at least one byte on the wire, so a
    /// count exceeding the bytes remaining is certainly corrupt; rejecting
    /// it here keeps a hostile length prefix from provoking a huge
    /// allocation.
    pub fn get_seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.get_u32()?;
        if n as usize > self.remaining() {
            return Err(WireError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Reads a CHOICE designator.
    pub fn get_designator(&mut self) -> Result<u16, WireError> {
        self.get_u16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::Writer;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.put_u16(7);
        w.put_u32(1 << 20);
        w.put_u64(u64::MAX - 3);
        w.put_i16(-5);
        w.put_i32(i32::MIN);
        w.put_i64(-(1i64 << 40));
        w.put_bool(true);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u16().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 1 << 20);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i16().unwrap(), -5);
        assert_eq!(r.get_i32().unwrap(), i32::MIN);
        assert_eq!(r.get_i64().unwrap(), -(1i64 << 40));
        assert!(r.get_bool().unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn round_trip_strings_and_bytes() {
        let mut w = Writer::new();
        w.put_string("hello");
        w.put_bytes(&[1, 2, 3, 4]);
        w.put_string("");
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_string().unwrap(), "hello");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(r.get_string().unwrap(), "");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_fails() {
        let mut r = Reader::new(&[0x12]);
        assert_eq!(r.get_u16(), Err(WireError::Truncated));
    }

    #[test]
    fn bad_boolean_rejected() {
        let mut r = Reader::new(&[0, 2]);
        assert_eq!(r.get_bool(), Err(WireError::BadBoolean(2)));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_string(), Err(WireError::BadString));
    }

    #[test]
    fn huge_length_rejected() {
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn borrowed_bytes_match_owned_and_do_not_copy() {
        let mut w = Writer::new();
        w.put_bytes(&[9, 8, 7]); // Odd length: exercises the pad byte.
        w.put_u16(42);
        let bytes = w.finish();

        let mut owned = Reader::new(&bytes);
        let mut borrowed = Reader::new(&bytes);
        let b = borrowed.get_bytes_borrowed().unwrap();
        let o = owned.get_bytes().unwrap();
        assert_eq!(b, o.as_slice());
        assert_eq!(
            b.as_ptr_range(),
            bytes[4..7].as_ptr_range(),
            "a borrow, not a copy"
        );
        // Both readers consumed the pad byte and line up on the word.
        assert_eq!(borrowed.get_u16().unwrap(), 42);
        assert_eq!(owned.get_u16().unwrap(), 42);
    }

    #[test]
    fn borrowed_bytes_outlive_the_reader() {
        let mut w = Writer::new();
        w.put_bytes(&[1, 2, 3, 4]);
        let bytes = w.finish();
        let b = {
            let mut r = Reader::new(&bytes);
            r.get_bytes_borrowed().unwrap()
        };
        // The borrow is tied to `bytes`, not the dropped reader.
        assert_eq!(b, &[1, 2, 3, 4]);
    }

    #[test]
    fn borrowed_huge_length_rejected() {
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(r.get_bytes_borrowed().is_err());
    }

    #[test]
    fn trailing_detected() {
        let mut w = Writer::new();
        w.put_u16(1);
        w.put_u16(2);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        r.get_u16().unwrap();
        assert_eq!(r.expect_end(), Err(WireError::Trailing(2)));
    }
}
