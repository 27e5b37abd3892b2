//! Call and return message contents (§4.3).
//!
//! A call message carries "the thread ID of the caller, the module number
//! and procedure number of the procedure to be called, and the parameters"
//! plus the client troupe ID (for many-to-one collection, §4.3.2), the
//! destination troupe ID (incarnation check, §6.2), and a per-thread call
//! sequence number that groups the members' messages into one replicated
//! call.
//!
//! A return message carries "a 16-bit header (used to distinguish between
//! normal and error results) and the results" (§4.3) — or, from a member
//! the call did not name as its data member, the `digest` of that
//! return, which the client compares with the data member's in its
//! place.

use crate::addr::TroupeId;
use crate::thread::ThreadId;
use pairedmsg::Framed;
use simnet::{HostId, Payload, SockAddr};
use wire::{Externalize, Internalize, Reader, WireError, Writer};

/// Externalizes a message into its one allocation, laid out as its
/// datagrams under the node's paired-message configuration `pm`
/// (`pairedmsg::Config::frame`): the buffer every sender, retransmission
/// and buffered copy of it then shares, and every first transmission of
/// it is a window of.
pub(crate) fn encode(pm: &pairedmsg::Config, msg: &impl Externalize) -> Framed {
    wire::encode_with(msg, |bytes| pm.frame(bytes))
}

/// Groups the call messages of one replicated call: "two or more call
/// messages arriving at a server bear the same thread ID and call
/// sequence number if and only if they are part of the same replicated
/// call" (§4.3.2), scoped by the client troupe ID.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) struct CallKey {
    pub(crate) client_troupe: TroupeId,
    pub(crate) thread: ThreadId,
    pub(crate) call_seq: u32,
}

impl CallKey {
    /// The argument of `fetch_return`, which names the call whose kept
    /// return it asks for.
    pub(crate) fn encode(&self) -> Vec<u8> {
        wire::to_bytes(&(self.client_troupe, self.thread, self.call_seq))
    }

    /// Reads the argument of `fetch_return`.
    pub(crate) fn decode(bytes: &[u8]) -> Result<CallKey, WireError> {
        let (client_troupe, thread, call_seq) = wire::from_bytes(bytes)?;
        Ok(CallKey {
            client_troupe,
            thread,
            call_seq,
        })
    }
}

/// Where a call message came from and how its return finds the way
/// back: the sender, the paired-message call number to reply on, and the
/// causal span the client stamped on the segments.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Arrival {
    pub(crate) from: SockAddr,
    pub(crate) pm_cn: u32,
    pub(crate) span: u64,
}

/// The contents of a call message.
///
/// `A` is how the externalized parameters are held: an owned `Vec<u8>` by
/// default, or — as the runtime internalizes arriving calls
/// ([`CallMessage::decode`]) — a [`Payload`] window of the datagram the
/// message arrived in.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CallMessage<A = Vec<u8>> {
    /// The distributed thread on whose behalf the call is made (§3.4.1).
    pub thread: ThreadId,
    /// Groups this message with its siblings from other members of the
    /// client troupe: messages with equal `(thread, call_seq)` are parts
    /// of the same replicated call (§4.3.2).
    pub call_seq: u32,
    /// The calling troupe, so the server can learn how many call messages
    /// to expect (§4.3.2). `TroupeId::UNREGISTERED` for plain clients.
    pub client_troupe: TroupeId,
    /// The incarnation of the server troupe the caller believes it is
    /// calling; mismatches are rejected to invalidate stale bindings
    /// (§6.2).
    pub server_troupe: TroupeId,
    /// Index of the target module within the server process.
    pub module: u16,
    /// Index of the procedure within the module interface, assigned by
    /// the stub compiler (§4.3).
    pub proc: u16,
    /// Externalized parameters.
    pub args: A,
    /// The one server member asked to return the results in full; every
    /// other member whose return spans two or more segments returns its
    /// `digest` instead. Named only on a unanimous call that goes out
    /// by blast, after the arguments, so every other call message is laid
    /// out as if the field did not exist.
    pub data_member: Option<SockAddr>,
}

// not a declaration: generic over the buffer its arguments are borrowed from.
impl<A: AsRef<[u8]>> Externalize for CallMessage<A> {
    fn externalize(&self, w: &mut Writer) {
        // The data member follows the arguments: room for all of it at
        // once, or writing it would double a buffer sized to them.
        w.reserve_exact(self.encoded_len());
        self.thread.externalize(w);
        w.put_u32(self.call_seq);
        self.client_troupe.externalize(w);
        self.server_troupe.externalize(w);
        w.put_u16(self.module);
        w.put_u16(self.proc);
        w.put_bytes(self.args.as_ref());
        if let Some(data) = self.data_member {
            w.put_u32(data.host.0);
            w.put_u16(data.port);
        }
    }
}

impl<A: AsRef<[u8]>> CallMessage<A> {
    /// The length of the message's external form.
    pub(crate) fn encoded_len(&self) -> usize {
        // Thread, call_seq, both troupes, module, proc, the length word.
        const FIXED: usize = 10 + 4 + 8 + 8 + 2 + 2 + 4;
        let args = self.args.as_ref().len();
        FIXED + args + args % 2 + self.data_member.map_or(0, |_| 6)
    }
}

impl<A> CallMessage<A> {
    /// The replicated call this message is one member's copy of.
    pub(crate) fn key(&self) -> CallKey {
        CallKey {
            client_troupe: self.client_troupe,
            thread: self.thread,
            call_seq: self.call_seq,
        }
    }

    /// `true` if the member at `me` is to answer this copy with a digest
    /// (of a return of two or more segments): the call named another
    /// member as its data member.
    pub(crate) fn asks_digest_of(&self, me: SockAddr) -> bool {
        self.data_member.is_some_and(|data| data != me)
    }

    /// Internalizes the fixed fields, then the parameters with `args`,
    /// then the data member if the message goes on: a call message is
    /// always the whole of what is read.
    fn internalize_with<'a>(
        r: &mut Reader<'a>,
        args: impl FnOnce(&mut Reader<'a>) -> Result<A, WireError>,
    ) -> Result<Self, WireError> {
        Ok(CallMessage {
            thread: ThreadId::internalize(r)?,
            call_seq: r.get_u32()?,
            client_troupe: TroupeId::internalize(r)?,
            server_troupe: TroupeId::internalize(r)?,
            module: r.get_u16()?,
            proc: r.get_u16()?,
            args: args(r)?,
            data_member: match r.remaining() {
                0 => None,
                _ => Some(SockAddr::new(HostId(r.get_u32()?), r.get_u16()?)),
            },
        })
    }
}

// not a declaration: shares `internalize_with` with the in-place `decode`.
impl Internalize for CallMessage {
    fn internalize(r: &mut Reader<'_>) -> Result<Self, WireError> {
        CallMessage::internalize_with(r, Reader::get_bytes)
    }
}

impl CallMessage<Payload> {
    /// Internalizes the call message that is the whole of `data`, in
    /// place: the parameters come back as a window of `data`, not a copy.
    /// Accepts exactly what `wire::from_bytes::<CallMessage>` accepts.
    pub fn decode(data: &Payload) -> Result<Self, WireError> {
        let mut r = Reader::new(data);
        let msg = CallMessage::internalize_with(&mut r, |r| Ok(data.slice(r.get_bytes_range()?)))?;
        r.expect_end()?;
        Ok(msg)
    }
}

/// The contents of a return message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReturnMessage {
    /// Normal completion with externalized results.
    Normal(Vec<u8>),
    /// The remote procedure raised an error/exception.
    Error(String),
    /// The call named a troupe incarnation this server no longer belongs
    /// to; the caller's binding is stale and it must rebind (§6.2). The
    /// member's current incarnation is included as a hint.
    WrongTroupe(TroupeId),
    /// The call named a module or procedure the server does not export
    /// (stale binding case 2, §6.1).
    NoSuchProcedure,
    /// The `digest` of the return this member would have sent: the
    /// call named another member as its data member, and the return spans
    /// two or more segments.
    Digest(u64),
}

const ST_NORMAL: u16 = 0;
const ST_ERROR: u16 = 1;
const ST_WRONG_TROUPE: u16 = 2;
const ST_NO_SUCH_PROC: u16 = 3;
const ST_DIGEST: u16 = 4;

/// The external form of a [`ReturnMessage::Digest`]: its status word and
/// the hash. Framed, 26 bytes: it is held in place.
const DIGEST_LEN: usize = 2 + 8;
const _: () = assert!(pairedmsg::HEADER_LEN + DIGEST_LEN <= Payload::INLINE);

/// The digest of a return message: a word-at-a-time 64-bit hash of its
/// bytes, fed as `parts` — the segments of its framed form at a member,
/// the one reassembled vote at the client. The same bytes hash alike
/// however they are cut, and two messages of one length that differ in
/// one word never hash alike (each step is a bijection of the state).
/// Every return is hashed here and nowhere else.
pub(crate) fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix =
        |h: u64, word: [u8; 8]| (h.rotate_left(23) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    let (mut h, mut len) = (K, 0u64);
    let (mut carry, mut held) = ([0u8; 8], 0);
    for mut part in parts {
        len += part.len() as u64;
        if held > 0 {
            // Complete the word the last part left open.
            let take = (8 - held).min(part.len());
            carry[held..held + take].copy_from_slice(&part[..take]);
            (held, part) = (held + take, &part[take..]);
            if held < 8 {
                continue;
            }
            h = mix(h, carry);
        }
        let mut words = part.chunks_exact(8);
        for word in &mut words {
            h = mix(h, word.try_into().expect("eight bytes"));
        }
        held = words.remainder().len();
        carry[..held].copy_from_slice(words.remainder());
    }
    carry[held..].fill(0);
    h = mix(mix(h, carry), len.to_le_bytes());
    // A final avalanche (MurmurHash3's), so near messages land far apart.
    h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// The hash a [`ReturnMessage::Digest`] vote carries, read without
/// decoding it; `None` for every other return.
pub(crate) fn digest_vote(vote: &[u8]) -> Option<u64> {
    let (status, hash) = vote.split_first_chunk::<2>()?;
    let hash: [u8; 8] = hash.try_into().ok()?;
    (vote.len() == DIGEST_LEN && u16::from_be_bytes(*status) == ST_DIGEST)
        .then(|| u64::from_be_bytes(hash))
}

// not a declaration: the status words are `ReturnView`'s, which decodes it.
impl Externalize for ReturnMessage {
    fn externalize(&self, w: &mut Writer) {
        match self {
            ReturnMessage::Normal(data) => {
                w.put_u16(ST_NORMAL);
                w.put_bytes(data);
            }
            ReturnMessage::Error(msg) => {
                w.put_u16(ST_ERROR);
                w.put_string(msg);
            }
            ReturnMessage::WrongTroupe(id) => {
                w.put_u16(ST_WRONG_TROUPE);
                id.externalize(w);
            }
            ReturnMessage::NoSuchProcedure => {
                w.put_u16(ST_NO_SUCH_PROC);
            }
            ReturnMessage::Digest(hash) => {
                w.put_u16(ST_DIGEST);
                w.put_u64(*hash);
            }
        }
    }
}

// not a declaration: decodes through the borrowed `ReturnView`.
impl Internalize for ReturnMessage {
    fn internalize(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match ReturnView::internalize(r)? {
            ReturnView::Normal(data) => ReturnMessage::Normal(data.to_vec()),
            ReturnView::Error(msg) => ReturnMessage::Error(msg.to_owned()),
            ReturnView::WrongTroupe(id) => ReturnMessage::WrongTroupe(id),
            ReturnView::NoSuchProcedure => ReturnMessage::NoSuchProcedure,
            ReturnView::Digest(hash) => ReturnMessage::Digest(hash),
        })
    }
}

/// A [`ReturnMessage`] internalized in place: fully validated, but its
/// results and error text are borrows of the message bytes. The runtime
/// classifies each member's return this way — no allocation — and copies
/// the results out only once, for the value the caller finally receives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReturnView<'a> {
    /// Normal completion with externalized results.
    Normal(&'a [u8]),
    /// The remote procedure raised an error/exception.
    Error(&'a str),
    /// See [`ReturnMessage::WrongTroupe`].
    WrongTroupe(TroupeId),
    /// See [`ReturnMessage::NoSuchProcedure`].
    NoSuchProcedure,
    /// See [`ReturnMessage::Digest`].
    Digest(u64),
}

impl<'a> ReturnView<'a> {
    /// Internalizes the return message that is the whole of `data`.
    /// Accepts exactly what `wire::from_bytes::<ReturnMessage>` accepts.
    pub fn decode(data: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(data);
        let view = ReturnView::internalize(&mut r)?;
        r.expect_end()?;
        Ok(view)
    }

    fn internalize(r: &mut Reader<'a>) -> Result<Self, WireError> {
        match r.get_u16()? {
            ST_NORMAL => Ok(ReturnView::Normal(r.get_bytes_borrowed()?)),
            ST_ERROR => Ok(ReturnView::Error(r.get_str_borrowed()?)),
            ST_WRONG_TROUPE => Ok(ReturnView::WrongTroupe(TroupeId::internalize(r)?)),
            ST_NO_SUCH_PROC => Ok(ReturnView::NoSuchProcedure),
            ST_DIGEST => Ok(ReturnView::Digest(r.get_u64()?)),
            other => Err(WireError::BadChoice(other)),
        }
    }
}

/// Reads one *reply vote* in place, as a custom reply collator sees it:
/// votes are raw [`ReturnMessage`] bytes; this borrows the payload of a
/// normal return (`None` for errors and binding rejections).
pub fn reply_vote(vote: &[u8]) -> Option<&[u8]> {
    match ReturnView::decode(vote) {
        Ok(ReturnView::Normal(data)) => Some(data),
        _ => None,
    }
}

/// [`reply_vote`], copied out.
pub fn unwrap_reply_vote(vote: &[u8]) -> Option<Vec<u8>> {
    reply_vote(vote).map(<[u8]>::to_vec)
}

/// Wraps a custom reply collator's decision as the raw normal-return
/// bytes the call machinery expects.
pub fn wrap_reply_vote(payload: Vec<u8>) -> Vec<u8> {
    wire::to_bytes(&ReturnMessage::Normal(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{HostId, SockAddr};
    use wire::{from_bytes, to_bytes};

    fn thread() -> ThreadId {
        ThreadId {
            origin: SockAddr::new(HostId(1), 50),
            serial: 3,
        }
    }

    #[test]
    fn call_message_round_trips() {
        let m = CallMessage {
            thread: thread(),
            call_seq: 7,
            client_troupe: TroupeId(11),
            server_troupe: TroupeId(22),
            module: 1,
            proc: 4,
            args: vec![1, 2, 3],
            data_member: None,
        };
        assert_eq!(from_bytes::<CallMessage>(&to_bytes(&m)).unwrap(), m);
        assert_eq!(m.encoded_len(), to_bytes(&m).len());
        // Naming a data member adds it behind the arguments, and nothing
        // else moves.
        let named = CallMessage {
            data_member: Some(SockAddr::new(HostId(7), 70)),
            ..m.clone()
        };
        let (plain, long) = (to_bytes(&m), to_bytes(&named));
        assert_eq!(
            (&long[..plain.len()], long.len()),
            (&plain[..], plain.len() + 6)
        );
        assert_eq!(from_bytes::<CallMessage>(&long).unwrap(), named);
        assert_eq!(named.encoded_len(), long.len());
        for cut in 1..6 {
            assert!(from_bytes::<CallMessage>(&long[..long.len() - cut]).is_err());
        }
    }

    #[test]
    fn return_variants_round_trip() {
        for m in [
            ReturnMessage::Normal(vec![9, 9]),
            ReturnMessage::Error("boom".into()),
            ReturnMessage::WrongTroupe(TroupeId(5)),
            ReturnMessage::NoSuchProcedure,
            ReturnMessage::Digest(u64::MAX - 5),
        ] {
            assert_eq!(from_bytes::<ReturnMessage>(&to_bytes(&m)).unwrap(), m);
        }
        let digest = to_bytes(&ReturnMessage::Digest(7));
        assert_eq!(digest_vote(&digest), Some(7));
        assert_eq!(
            digest.len() + pairedmsg::HEADER_LEN,
            26,
            "a frame held in place"
        );
        for other in [
            ReturnMessage::Normal(vec![0; 4]),
            ReturnMessage::Error("abcd".into()),
        ] {
            assert_eq!(digest_vote(&to_bytes(&other)), None);
        }
        assert_eq!(digest_vote(&digest[..9]), None);
    }

    proptest::proptest! {
        /// A message hashes alike however it is cut into parts, and a
        /// change to any one byte moves its digest.
        fn a_digest_is_of_the_bytes_not_the_cut(
            message in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..6),
            flip in 0usize..200,
        ) {
            let whole = digest([&message[..]]);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(message.len())).collect();
            cuts.sort_unstable();
            let bounds = std::iter::once(0).chain(cuts).chain([message.len()]).collect::<Vec<_>>();
            let parts = bounds.windows(2).map(|w| &message[w[0]..w[1]]);
            proptest::prop_assert_eq!(digest(parts), whole);
            if !message.is_empty() {
                let mut other = message.clone();
                other[flip % message.len()] ^= 1;
                proptest::prop_assert_ne!(digest([&other[..]]), whole);
            }
            let mut longer = message.clone();
            longer.push(0);
            proptest::prop_assert_ne!(digest([&longer[..]]), whole);
        }
    }

    /// A framed message's segments hash as the message does.
    #[test]
    fn a_framed_return_hashes_as_its_bytes() {
        let message: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        let framed = pairedmsg::Config::default().frame(&message);
        assert!(framed.total() > 1);
        assert_eq!(digest(framed.parts()), digest([&message[..]]));
    }

    #[test]
    fn in_place_decode_matches_owned_decode() {
        let m = CallMessage {
            thread: thread(),
            call_seq: 7,
            client_troupe: TroupeId(11),
            server_troupe: TroupeId(22),
            module: 1,
            proc: 4,
            // Past the inline limit, so the window has a buffer to share.
            args: (1..=40u8).collect::<Vec<u8>>(),
            data_member: None,
        };
        let wire = Payload::from(to_bytes(&m));
        let view = CallMessage::decode(&wire).unwrap();
        assert_eq!((view.call_seq, view.module, view.proc), (7, 1, 4));
        assert_eq!(view.args, m.args);
        assert!(view.args.len() > Payload::INLINE);
        assert!(view.args.shares_buffer_with(&wire), "a window, not a copy");
        assert_eq!(to_bytes(&view), &*wire, "both forms externalize alike");
        // Same verdict as the owned decoder on every truncation and on
        // trailing bytes.
        for len in 0..wire.len() {
            assert_eq!(
                CallMessage::decode(&wire.slice(0..len)).err(),
                from_bytes::<CallMessage>(&wire[..len]).err()
            );
        }
        let mut long = wire.to_vec();
        long.push(0);
        assert_eq!(
            CallMessage::decode(&Payload::from(long.clone())).err(),
            from_bytes::<CallMessage>(&long).err()
        );
    }

    #[test]
    fn return_view_borrows_what_return_message_owns() {
        let normal = to_bytes(&ReturnMessage::Normal(vec![9, 9, 9]));
        assert_eq!(
            ReturnView::decode(&normal),
            Ok(ReturnView::Normal(&[9, 9, 9]))
        );
        let err = to_bytes(&ReturnMessage::Error("boom".into()));
        assert_eq!(ReturnView::decode(&err), Ok(ReturnView::Error("boom")));
        let mut bad_utf8 = err.clone();
        bad_utf8[6] = 0xFF;
        assert_eq!(ReturnView::decode(&bad_utf8), Err(WireError::BadString));
        assert!(from_bytes::<ReturnMessage>(&bad_utf8).is_err());
        let mut long = normal.clone();
        long.extend_from_slice(&[0, 0]);
        assert_eq!(ReturnView::decode(&long), Err(WireError::Trailing(2)));
    }

    #[test]
    fn vote_helpers() {
        let raw = wrap_reply_vote(vec![1, 2, 3]);
        assert_eq!(reply_vote(&raw), Some(&[1u8, 2, 3][..]));
        assert_eq!(unwrap_reply_vote(&raw), Some(vec![1, 2, 3]));
        let err = to_bytes(&ReturnMessage::Error("x".into()));
        assert_eq!((reply_vote(&err), unwrap_reply_vote(&err)), (None, None));
    }

    #[test]
    fn garbage_rejected() {
        assert!(from_bytes::<CallMessage>(&[1, 2, 3]).is_err());
        assert!(from_bytes::<ReturnMessage>(&[0, 9]).is_err());
    }
}
