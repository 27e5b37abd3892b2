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
//! normal and error results) and the results" (§4.3) — or, to a call that
//! named the members it went to, one part of that return: a run of its
//! bytes, cut by `parts`, with the `digest` of the whole.

use std::ops::Range;

use crate::addr::TroupeId;
use crate::thread::ThreadId;
use pairedmsg::{Config, Framed};
use simnet::{HostId, Payload, SockAddr};
use wire::{Externalize, Internalize, Reader, WireError, Writer};

/// Externalizes a message into its one allocation, laid out as its
/// datagrams (`pairedmsg::Config::frame`): the buffer every sender,
/// retransmission and buffered copy of it then shares, and every first
/// transmission of it is a window of.
pub(crate) fn encode(msg: &impl Externalize) -> Framed {
    wire::encode_with(msg, |bytes| Config::DEFAULT.frame(bytes))
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
/// `A` is how the externalized parameters are held, and `M` the member
/// list: owned by default, borrowed as the runtime sends a call, or — as
/// the runtime internalizes arriving calls ([`CallMessage::decode`]) —
/// [`Payload`] windows of the datagram the message arrived in.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CallMessage<A = Vec<u8>, M = Vec<SockAddr>> {
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
    /// The server members a unanimous call that goes out by blast went
    /// to: each returns the part of a return of two or more segments that
    /// its position here names (`parts`). Empty on every other call.
    /// Six bytes a member, after the arguments, so every other call
    /// message is laid out as if the field did not exist.
    pub members: M,
}

/// A member of a call's list, as it is written: host, then port.
const MEMBER_LEN: usize = 4 + 2;

fn member_bytes(member: SockAddr) -> [u8; MEMBER_LEN] {
    let [a, b, c, d] = member.host.0.to_be_bytes();
    let [e, f] = member.port.to_be_bytes();
    [a, b, c, d, e, f]
}

fn read_member(r: &mut Reader<'_>) -> Result<SockAddr, WireError> {
    Ok(SockAddr::new(HostId(r.get_u32()?), r.get_u16()?))
}

// not a declaration: generic over the buffers its fields are borrowed from.
impl<A: AsRef<[u8]>, M: AsRef<[SockAddr]>> Externalize for CallMessage<A, M> {
    fn externalize(&self, w: &mut Writer) {
        self.thread.externalize(w);
        w.put_u32(self.call_seq);
        self.client_troupe.externalize(w);
        self.server_troupe.externalize(w);
        w.put_u16(self.module);
        w.put_u16(self.proc);
        w.put_bytes(self.args.as_ref());
        for &member in self.members.as_ref() {
            w.put_raw(&member_bytes(member));
        }
    }

    fn external_len(&self) -> Option<usize> {
        Some(self.encoded_len())
    }
}

impl<A: AsRef<[u8]>, M: AsRef<[SockAddr]>> CallMessage<A, M> {
    /// The length of the message's external form.
    pub(crate) fn encoded_len(&self) -> usize {
        // Thread, call_seq, both troupes, module, proc, the length word.
        const FIXED: usize = 10 + 4 + 8 + 8 + 2 + 2 + 4;
        let args = self.args.as_ref().len();
        FIXED + args + args % 2 + self.members.as_ref().len() * MEMBER_LEN
    }
}

impl<A, M> CallMessage<A, M> {
    /// The replicated call this message is one member's copy of.
    pub(crate) fn key(&self) -> CallKey {
        CallKey {
            client_troupe: self.client_troupe,
            thread: self.thread,
            call_seq: self.call_seq,
        }
    }

    /// Internalizes the fixed fields, then the parameters with `args`,
    /// then the member list with `members`, which reads to the end: a
    /// call message is always the whole of what is read.
    fn internalize_with<'a>(
        r: &mut Reader<'a>,
        args: impl FnOnce(&mut Reader<'a>) -> Result<A, WireError>,
        members: impl FnOnce(&mut Reader<'a>) -> Result<M, WireError>,
    ) -> Result<Self, WireError> {
        Ok(CallMessage {
            thread: ThreadId::internalize(r)?,
            call_seq: r.get_u32()?,
            client_troupe: TroupeId::internalize(r)?,
            server_troupe: TroupeId::internalize(r)?,
            module: r.get_u16()?,
            proc: r.get_u16()?,
            args: args(r)?,
            members: members(r)?,
        })
    }
}

// not a declaration: shares `internalize_with` with the in-place `decode`.
impl Internalize for CallMessage {
    fn internalize(r: &mut Reader<'_>) -> Result<Self, WireError> {
        CallMessage::internalize_with(r, Reader::get_bytes, |r| {
            let mut members = Vec::new();
            while r.remaining() > 0 {
                members.push(read_member(r)?);
            }
            Ok(members)
        })
    }
}

impl CallMessage<Payload, Payload> {
    /// Internalizes the call message that is the whole of `data`, in
    /// place: the parameters and the member list come back as windows of
    /// `data`, not copies. Accepts exactly what
    /// `wire::from_bytes::<CallMessage>` accepts.
    pub fn decode(data: &Payload) -> Result<Self, WireError> {
        let mut r = Reader::new(data);
        let args = |r: &mut Reader<'_>| Ok(data.slice(r.get_bytes_range()?));
        let members = |r: &mut Reader<'_>| {
            let start = data.len() - r.remaining();
            while r.remaining() > 0 {
                read_member(r)?;
            }
            Ok(data.slice(start..data.len()))
        };
        let msg = CallMessage::internalize_with(&mut r, args, members)?;
        r.expect_end()?;
        Ok(msg)
    }

    /// The part the member at `me` returns to this copy of the call: its
    /// position in the member list, if the list names it among two or
    /// more.
    pub(crate) fn cut_of(&self, me: SockAddr) -> Option<Cut> {
        let mut members = self.members.chunks_exact(MEMBER_LEN);
        let of = u16::try_from(members.len()).ok().filter(|&of| of > 1)?;
        let index = members.position(|m| *m == member_bytes(me))?;
        let index = u16::try_from(index).expect("below `of`");
        Some(Cut { index, of })
    }
}

/// Which part of a return one server member sends to one copy of a call:
/// the member's position in the copy's member list, of how many.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Cut {
    pub(crate) index: u16,
    pub(crate) of: u16,
}

/// A part's bytes around the run of the return it carries: its status
/// word, the digest and the run's length word.
const PART_HEAD: usize = 2 + 8 + 4;

/// Where a return of `len` encoded bytes is cut among the `owners`
/// members a call named, each part framed in paired-message segments:
/// members `1..owners` carry one segment's worth each of its tail, and
/// member 0 carries the rest, its head. A tail part is as long as fills
/// one segment, and the return's end is cut into as many of them as
/// leave the head a byte, at most one a member; a member past those
/// carries none (its part is the digest alone). `None` where the return
/// is sent whole: it fits one segment, or fewer than two members were
/// named.
///
/// Members and clients alike cut here, and nowhere else.
pub(crate) fn parts(len: usize, owners: usize) -> Option<Parts> {
    let segment = Config::DEFAULT.max_segment_data;
    // Even, so that a full tail part needs no pad byte to fill its segment.
    let tail = (segment - PART_HEAD) & !1;
    if owners < 2 || len <= segment {
        return None;
    }
    let carried = (owners - 1).min((len - 1) / tail);
    Some(Parts {
        head: len - carried * tail,
        tail,
        empty: owners - 1 - carried,
    })
}

/// A return's layout among its members ([`parts`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Parts {
    /// Bytes member 0 carries.
    head: usize,
    /// Bytes each member carries that carries any of the tail.
    tail: usize,
    /// Members after member 0 that carry nothing.
    empty: usize,
}

impl Parts {
    /// The bytes of the return member `index` carries.
    pub(crate) fn range(&self, index: usize) -> Range<usize> {
        match index.checked_sub(1 + self.empty) {
            _ if index == 0 => 0..self.head,
            None => self.head..self.head,
            Some(nth) => {
                let start = self.head + nth * self.tail;
                start..start + self.tail
            }
        }
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
    /// One member's part of a return of two or more segments, to a call
    /// that named its members: the bytes of the return's external form
    /// that `parts` gives the member, and the `digest` of the whole.
    Part {
        /// The `digest` of the whole return's external form.
        digest: u64,
        /// The run of that form the member carries (possibly none).
        bytes: Vec<u8>,
    },
}

const ST_NORMAL: u16 = 0;
const ST_ERROR: u16 = 1;
const ST_WRONG_TROUPE: u16 = 2;
const ST_NO_SUCH_PROC: u16 = 3;
const ST_PART: u16 = 4;

// A part that carries nothing is framed in 30 bytes: it is held in place.
const _: () = assert!(pairedmsg::HEADER_LEN + PART_HEAD <= Payload::INLINE);

/// The digest of a return message: a word-at-a-time 64-bit hash of its
/// bytes, fed as `parts` — the runs a member writes it from, the parts a
/// client collects. The same bytes hash alike however they are cut, and
/// two messages of one length that differ in one word never hash alike
/// (each step is a bijection of the state). Every return is hashed here
/// and nowhere else.
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

/// The digest and the bytes a [`ReturnMessage::Part`] vote carries, read
/// in place; `None` for every other return.
pub(crate) fn part_vote(vote: &[u8]) -> Option<(u64, &[u8])> {
    match ReturnView::decode(vote) {
        Ok(ReturnView::Part { digest, bytes }) => Some((digest, bytes)),
        _ => None,
    }
}

/// Bytes `range` of the message whose external form `runs` are, in
/// order: a borrow of each run, empty where the run lies outside it.
fn window<'a>(
    runs: impl IntoIterator<Item = &'a [u8]>,
    range: Range<usize>,
) -> impl Iterator<Item = &'a [u8]> {
    let mut at = 0;
    runs.into_iter().map(move |run| {
        let (lo, hi) = (at, at + run.len());
        at = hi;
        &run[range.start.clamp(lo, hi) - lo..range.end.clamp(lo, hi) - lo]
    })
}

/// Reads the return message whose external form `parts` are, in order. A
/// normal return's results are copied once, out of the parts into the
/// vector that holds them; any other message comes back joined, as its
/// external form, to be read whole.
pub(crate) fn join_parts<'a>(
    parts: impl Iterator<Item = &'a [u8]> + Clone,
) -> Result<Vec<u8>, Vec<u8>> {
    let len: usize = parts.clone().map(<[u8]>::len).sum();
    let mut head = [0u8; 6];
    let mut at = 0;
    for run in window(parts.clone(), 0..head.len()) {
        head[at..at + run.len()].copy_from_slice(run);
        at += run.len();
    }
    let [s0, s1, a, b, c, d] = head;
    let results = u32::from_be_bytes([a, b, c, d]) as usize;
    if u16::from_be_bytes([s0, s1]) == ST_NORMAL && len == head.len() + results + results % 2 {
        let mut out = Vec::with_capacity(results);
        window(parts, 6..6 + results).for_each(|run| out.extend_from_slice(run));
        return Ok(out);
    }
    let mut joined = Vec::with_capacity(len);
    parts.for_each(|run| joined.extend_from_slice(run));
    Err(joined)
}

impl ReturnMessage {
    /// The message's external form as the runs of bytes it is written
    /// in: its status word and what comes before its body (written into
    /// `head`), the body — results, error text or a part's bytes,
    /// borrowed — and the body's pad byte, if it has one. A member hashes
    /// a return and cuts its parts from these without writing it out.
    fn runs<'a>(&'a self, head: &'a mut [u8; PART_HEAD]) -> [&'a [u8]; 3] {
        let (status, word, body): (u16, Option<u64>, Option<&[u8]>) = match self {
            ReturnMessage::Normal(data) => (ST_NORMAL, None, Some(data)),
            ReturnMessage::Error(msg) => (ST_ERROR, None, Some(msg.as_bytes())),
            ReturnMessage::WrongTroupe(id) => (ST_WRONG_TROUPE, Some(id.0), None),
            ReturnMessage::NoSuchProcedure => (ST_NO_SUCH_PROC, None, None),
            ReturnMessage::Part { digest, bytes } => (ST_PART, Some(*digest), Some(bytes)),
        };
        let mut at = 0;
        let mut put = |bytes: &[u8]| {
            head[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        put(&status.to_be_bytes());
        if let Some(word) = word {
            put(&word.to_be_bytes());
        }
        if let Some(body) = body {
            put(&u32::try_from(body.len())
                .expect("under 4 GiB")
                .to_be_bytes());
        }
        let body = body.unwrap_or_default();
        [&head[..at], body, &[0][..body.len() % 2]]
    }

    /// The length of the message's external form.
    pub(crate) fn encoded_len(&self) -> usize {
        self.runs(&mut [0; PART_HEAD])
            .iter()
            .map(|run| run.len())
            .sum()
    }

    /// The [`digest`] of the message's external form.
    pub(crate) fn digest(&self) -> u64 {
        digest(self.runs(&mut [0; PART_HEAD]))
    }

    /// Bytes `range` of the message's external form as a
    /// [`ReturnMessage::Part`] with the `digest` of the whole, written
    /// straight from the runs.
    pub(crate) fn part(&self, digest: u64, range: Range<usize>) -> impl Externalize + '_ {
        PartOf {
            whole: self,
            digest,
            range,
        }
    }
}

/// [`ReturnMessage::part`].
struct PartOf<'a> {
    whole: &'a ReturnMessage,
    digest: u64,
    range: Range<usize>,
}

// not a declaration: a `ReturnMessage::Part` written from a borrowed return.
impl Externalize for PartOf<'_> {
    fn externalize(&self, w: &mut Writer) {
        let len = self.range.len();
        w.put_u16(ST_PART);
        w.put_u64(self.digest);
        w.put_u32(u32::try_from(len).expect("under 4 GiB"));
        let mut head = [0; PART_HEAD];
        let runs = self.whole.runs(&mut head);
        window(runs, self.range.clone()).for_each(|run| w.put_raw(run));
        w.put_raw(&[0][..len % 2]);
    }

    fn external_len(&self) -> Option<usize> {
        let len = self.range.len();
        Some(PART_HEAD + len + len % 2)
    }
}

// not a declaration: the status words are `ReturnView`'s, which decodes it.
impl Externalize for ReturnMessage {
    fn externalize(&self, w: &mut Writer) {
        for run in self.runs(&mut [0; PART_HEAD]) {
            w.put_raw(run);
        }
    }

    fn external_len(&self) -> Option<usize> {
        Some(self.encoded_len())
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
            ReturnView::Part { digest, bytes } => ReturnMessage::Part {
                digest,
                bytes: bytes.to_vec(),
            },
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
    /// See [`ReturnMessage::Part`].
    Part {
        /// The digest of the whole return.
        digest: u64,
        /// The run of the return the part carries.
        bytes: &'a [u8],
    },
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
            ST_PART => Ok(ReturnView::Part {
                digest: r.get_u64()?,
                bytes: r.get_bytes_borrowed()?,
            }),
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
            members: vec![],
        };
        assert_eq!(from_bytes::<CallMessage>(&to_bytes(&m)).unwrap(), m);
        assert_eq!(m.encoded_len(), to_bytes(&m).len());
        // Naming the members adds them behind the arguments, six bytes
        // each, and nothing else moves.
        let members = vec![SockAddr::new(HostId(7), 70), SockAddr::new(HostId(8), 80)];
        let named = CallMessage {
            members: members.clone(),
            ..m.clone()
        };
        let (plain, long) = (to_bytes(&m), to_bytes(&named));
        assert_eq!(
            (&long[..plain.len()], long.len()),
            (&plain[..], plain.len() + 12)
        );
        assert_eq!(from_bytes::<CallMessage>(&long).unwrap(), named);
        assert_eq!(named.encoded_len(), long.len());
        for cut in [1, 2, 5, 7] {
            assert!(from_bytes::<CallMessage>(&long[..long.len() - cut]).is_err());
        }
        // A member's part is its position in the list, of how many.
        let view = CallMessage::decode(&Payload::from(long)).unwrap();
        assert_eq!(view.cut_of(members[1]), Some(Cut { index: 1, of: 2 }));
        assert_eq!(view.cut_of(SockAddr::new(HostId(7), 71)), None);
        let view = CallMessage::decode(&Payload::from(plain)).unwrap();
        assert_eq!(view.cut_of(members[0]), None);
    }

    #[test]
    fn return_variants_round_trip() {
        for m in [
            ReturnMessage::Normal(vec![9, 9]),
            ReturnMessage::Normal(vec![9; 3]),
            ReturnMessage::Error("boom".into()),
            ReturnMessage::WrongTroupe(TroupeId(5)),
            ReturnMessage::NoSuchProcedure,
            ReturnMessage::Part {
                digest: u64::MAX - 5,
                bytes: vec![1, 2, 3],
            },
        ] {
            let bytes = to_bytes(&m);
            assert_eq!(from_bytes::<ReturnMessage>(&bytes).unwrap(), m);
            assert_eq!(m.encoded_len(), bytes.len());
            assert_eq!(m.digest(), digest([&bytes[..]]), "hashed as written");
        }
        let empty = ReturnMessage::Part {
            digest: 7,
            bytes: vec![],
        };
        let empty = to_bytes(&empty);
        assert_eq!(part_vote(&empty), Some((7, &[][..])));
        assert_eq!(empty.len() + pairedmsg::HEADER_LEN, 30, "held in place");
        for other in [
            ReturnMessage::Normal(vec![0; 4]),
            ReturnMessage::Error("abcd".into()),
        ] {
            assert_eq!(part_vote(&to_bytes(&other)), None);
        }
        assert_eq!(part_vote(&empty[..13]), None);
    }

    proptest::proptest! {
        /// A message hashes alike however it is cut into parts, and a
        /// change to any one byte moves its digest.
        #[test]
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

        /// The parts of a return tile its external form in member order:
        /// the head is never empty, every tail part fills one segment or
        /// carries nothing, the empty ones come first, and as many carry
        /// bytes as leave the head one, at most one a member. Each part,
        /// written from the return's runs, is the `Part` of those bytes,
        /// and the parts join back into the return.
        #[test]
        fn parts_tile_the_return(
            results in 0usize..9000,
            owners in 1usize..6,
        ) {
            let segment = Config::DEFAULT.max_segment_data;
            let reply = ReturnMessage::Normal((0..results).map(|i| (i * 7) as u8).collect());
            let (whole, hash) = (to_bytes(&reply), reply.digest());
            let len = whole.len();
            let Some(layout) = parts(len, owners) else {
                proptest::prop_assert!(len <= segment || owners < 2);
                return Ok(());
            };
            let ranges: Vec<_> = (0..owners).map(|i| layout.range(i)).collect();
            proptest::prop_assert_eq!(ranges[0].start, 0);
            proptest::prop_assert!(!ranges[0].is_empty());
            for pair in ranges.windows(2) {
                proptest::prop_assert_eq!(pair[0].end, pair[1].start);
            }
            proptest::prop_assert_eq!(ranges[owners - 1].end, len);
            let tails = &ranges[1..];
            let full = tails.iter().filter(|r| !r.is_empty()).count();
            proptest::prop_assert!(tails.iter().all(|r| r.is_empty() || r.len() == tails[owners - 2].len()));
            proptest::prop_assert!(tails[..owners - 1 - full].iter().all(Range::is_empty));
            let tail = tails[owners - 2].len();
            proptest::prop_assert_eq!(full, (owners - 1).min((len - 1) / tail));
            let mut sent = Vec::new();
            for range in &ranges {
                let part = to_bytes(&reply.part(hash, range.clone()));
                let owned = ReturnMessage::Part { digest: hash, bytes: whole[range.clone()].to_vec() };
                proptest::prop_assert_eq!(&part, &to_bytes(&owned));
                if range.len() == tail {
                    proptest::prop_assert!(part.len() <= segment, "one segment");
                    proptest::prop_assert!(part.len() + 2 > segment, "and all of it");
                }
                sent.push(part);
            }
            let bytes = || sent.iter().map(|p| part_vote(p).expect("a part").1);
            proptest::prop_assert_eq!(digest(bytes()), hash);
            proptest::prop_assert_eq!(join_parts(bytes()), Ok(reply_data(&reply)));
        }
    }

    fn reply_data(reply: &ReturnMessage) -> Vec<u8> {
        match reply {
            ReturnMessage::Normal(data) => data.clone(),
            _ => unreachable!(),
        }
    }

    /// Any message other than a normal return, and a normal return whose
    /// length word the parts belie, comes back joined.
    #[test]
    fn join_parts_reads_only_a_normal_return_in_place() {
        let error = to_bytes(&ReturnMessage::Error("e".repeat(3001)));
        let cut = [&error[..1], &error[1..2000], &error[2000..]];
        assert_eq!(join_parts(cut.into_iter()), Err(error.clone()));
        let normal = to_bytes(&ReturnMessage::Normal(vec![5; 3001]));
        let cut = [&normal[..3], &normal[3..2000], &normal[2000..]];
        assert_eq!(join_parts(cut.into_iter()), Ok(vec![5; 3001]));
        let short = [&normal[..3], &normal[3..2000]];
        assert_eq!(join_parts(short.into_iter()), Err(normal[..2000].to_vec()));
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
            members: vec![SockAddr::new(HostId(5), 9); 3],
        };
        let wire = Payload::from(to_bytes(&m));
        let view = CallMessage::decode(&wire).unwrap();
        assert_eq!((view.call_seq, view.module, view.proc), (7, 1, 4));
        assert_eq!(view.args, m.args);
        assert!(view.args.len() > Payload::INLINE);
        assert!(view.args.shares_buffer_with(&wire), "a window, not a copy");
        assert_eq!(view.members, wire.slice(wire.len() - 18..wire.len()));
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
