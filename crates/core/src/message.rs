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
//! normal and error results) and the results" (§4.3).

use crate::addr::TroupeId;
use crate::thread::ThreadId;
use pairedmsg::Framed;
use simnet::{Payload, SockAddr};
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
}

// not a declaration: generic over the buffer its arguments are borrowed from.
impl<A: AsRef<[u8]>> Externalize for CallMessage<A> {
    fn externalize(&self, w: &mut Writer) {
        self.thread.externalize(w);
        w.put_u32(self.call_seq);
        self.client_troupe.externalize(w);
        self.server_troupe.externalize(w);
        w.put_u16(self.module);
        w.put_u16(self.proc);
        w.put_bytes(self.args.as_ref());
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

    /// Internalizes the fixed fields, then the parameters with `args`.
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
}

const ST_NORMAL: u16 = 0;
const ST_ERROR: u16 = 1;
const ST_WRONG_TROUPE: u16 = 2;
const ST_NO_SUCH_PROC: u16 = 3;

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
        };
        assert_eq!(from_bytes::<CallMessage>(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn return_variants_round_trip() {
        for m in [
            ReturnMessage::Normal(vec![9, 9]),
            ReturnMessage::Error("boom".into()),
            ReturnMessage::WrongTroupe(TroupeId(5)),
            ReturnMessage::NoSuchProcedure,
        ] {
            assert_eq!(from_bytes::<ReturnMessage>(&to_bytes(&m)).unwrap(), m);
        }
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
