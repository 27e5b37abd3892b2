//! Externalization: translating values into the standard external
//! representation (§7.1, Figure 7.1).
//!
//! The representation follows the Courier protocol's conventions: all data
//! is a sequence of 16-bit words, integers are big-endian ("most
//! significant byte first", §4.2.1), strings and opaque byte blocks are
//! length-prefixed and padded to a word boundary.

/// An append-only buffer of external representation.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A writer that appends to `buf`'s allocation (cleared first): the
    /// way to encode repeatedly without growing a fresh buffer each time.
    pub fn reusing(mut buf: Vec<u8>) -> Writer {
        buf.clear();
        Writer { buf }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Makes room for exactly `additional` more bytes: a value that knows
    /// its length grows the buffer once, to that length, and so never
    /// doubles it for the last few bytes written after a large block.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.buf.reserve_exact(additional);
    }

    /// Appends bytes already in external form, as they are: the runs of a
    /// block whose length word has been written.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a 16-bit word (CARDINAL / UNSPECIFIED), most significant
    /// byte first.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a 32-bit word (LONG CARDINAL).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a 64-bit word (an extension; used for troupe and thread
    /// IDs, which the paper requires to be "permanently unique", §6.3).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a 16-bit INTEGER.
    pub fn put_i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a 32-bit LONG INTEGER.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a 64-bit signed integer (extension).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a BOOLEAN as one word (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u16(v as u16);
    }

    /// Writes a length-prefixed, word-padded opaque byte block
    /// (SEQUENCE OF UNSPECIFIED at the byte level).
    pub fn put_bytes(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= u32::MAX as usize);
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        if v.len() % 2 == 1 {
            self.buf.push(0);
        }
    }

    /// Writes a STRING: length-prefixed UTF-8, word-padded.
    pub fn put_string(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a SEQUENCE length prefix; follow it with the elements.
    pub fn put_seq_len(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize);
        self.put_u32(n as u32);
    }

    /// Writes a CHOICE designator; follow it with the chosen arm.
    pub fn put_designator(&mut self, d: u16) {
        self.put_u16(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_big_endian() {
        let mut w = Writer::new();
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        assert_eq!(w.finish(), vec![0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF]);
    }

    #[test]
    fn odd_length_bytes_are_padded() {
        let mut w = Writer::new();
        w.put_bytes(b"abc");
        let out = w.finish();
        assert_eq!(out, vec![0, 0, 0, 3, b'a', b'b', b'c', 0]);
        assert_eq!(out.len() % 2, 0);
    }

    #[test]
    fn even_length_bytes_not_padded() {
        let mut w = Writer::new();
        w.put_bytes(b"ab");
        assert_eq!(w.finish(), vec![0, 0, 0, 2, b'a', b'b']);
    }

    #[test]
    fn booleans() {
        let mut w = Writer::new();
        w.put_bool(true);
        w.put_bool(false);
        assert_eq!(w.finish(), vec![0, 1, 0, 0]);
    }

    #[test]
    fn signed_round_trip_bytes() {
        let mut w = Writer::new();
        w.put_i16(-1);
        w.put_i32(-2);
        assert_eq!(w.finish(), vec![0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE]);
    }
}
