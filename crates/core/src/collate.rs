//! Collators: reducing a set of messages from a troupe to a single value
//! (§4.3.6).
//!
//! "A collator is a function that maps a set of messages into a single
//! result. To improve performance, it is desirable for computation to
//! proceed as soon as enough messages have arrived for the collator to
//! make a decision." Three collators are supported at the protocol level
//! — unanimous, majority, and first-come — plus application-specific
//! collators (§7.4's generators appear here as the [`Collate`] trait over
//! the current vote slots).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use simnet::Payload;

use crate::message::{digest, join_parts, part_vote, parts};

/// The state of one troupe member's contribution to a replicated call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VoteSlot {
    /// No message from this member yet.
    Pending,
    /// This member's process has been declared dead (§4.2.3); no message
    /// will come.
    Dead,
    /// The member's message — as the runtime collects them, a window of
    /// the datagram it arrived in.
    Vote(Payload),
}

impl VoteSlot {
    fn vote(&self) -> Option<&Payload> {
        match self {
            VoteSlot::Vote(v) => Some(v),
            _ => None,
        }
    }
}

/// A collator's verdict over the current votes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Not enough messages yet; keep waiting.
    Wait,
    /// Computation may proceed with this value (one of the votes, shared
    /// rather than copied, under the built-in policies).
    Ready(Payload),
    /// The call fails.
    Fail(CollateError),
}

/// Why a collation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CollateError {
    /// Unanimous collation saw two differing messages — a determinism
    /// violation was detected (§4.3.4's "error detection").
    Disagreement,
    /// Every member died before enough messages arrived.
    AllDead,
    /// No value can reach a majority of the expected set (§4.3.5).
    NoMajority,
    /// An application-specific collator rejected the votes.
    Rejected(String),
}

impl fmt::Display for CollateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollateError::Disagreement => write!(f, "troupe members disagreed"),
            CollateError::AllDead => write!(f, "every troupe member crashed"),
            CollateError::NoMajority => write!(f, "no majority among troupe members"),
            CollateError::Rejected(why) => write!(f, "collator rejected votes: {why}"),
        }
    }
}

impl std::error::Error for CollateError {}

/// An application-specific collator (§4.3.6, §7.4).
pub trait Collate {
    /// Examines the votes so far and decides.
    fn decide(&self, slots: &[VoteSlot]) -> Decision;
}

/// Which collation to apply to a set of messages.
#[derive(Clone)]
pub enum CollationPolicy {
    /// Require all (surviving) messages to be identical; any disagreement
    /// raises an exception. The Circus default (§4.3.4).
    Unanimous,
    /// Proceed with the first message to arrive, forfeiting error
    /// detection (§4.3.4).
    FirstCome,
    /// Proceed with the first message, but keep watching: late messages
    /// are compared against it, and any inconsistency raises a
    /// determinism alarm — the *watchdog scheme* of §4.3.4 ("computation
    /// proceeds with the first message, but another thread of control
    /// waits for the remaining messages and compares them").
    FirstComeWatchdog,
    /// Proceed once a value has a majority of the *expected* set; also
    /// prevents divergence under network partitions (§4.3.5).
    Majority,
    /// An application-specific collator (§7.4).
    Custom(Rc<dyn Collate>),
}

impl fmt::Debug for CollationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollationPolicy::Unanimous => write!(f, "Unanimous"),
            CollationPolicy::FirstCome => write!(f, "FirstCome"),
            CollationPolicy::FirstComeWatchdog => write!(f, "FirstComeWatchdog"),
            CollationPolicy::Majority => write!(f, "Majority"),
            CollationPolicy::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// One entry per member of a troupe, in member order: in place for a
/// troupe of one — the `Members::Solo` rule, so the assembly an
/// unregistered caller opens allocates nothing for its votes or its
/// responders — and a vector for more.
#[derive(Clone, Debug)]
pub(crate) enum Slots<T> {
    One([T; 1]),
    Many(Vec<T>),
}

impl<T: Clone> Slots<T> {
    /// `n` copies of `init`.
    pub(crate) fn new(n: usize, init: T) -> Slots<T> {
        match n {
            1 => Slots::One([init]),
            n => Slots::Many(vec![init; n]),
        }
    }
}

impl<T> Deref for Slots<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            Slots::One(one) => one,
            Slots::Many(many) => many,
        }
    }
}

impl<'a, T> IntoIterator for &'a Slots<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T> DerefMut for Slots<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Slots::One(one) => one,
            Slots::Many(many) => many,
        }
    }
}

/// Collects the messages of one replicated call (or of one many-to-one
/// argument set) and applies a collation policy.
#[derive(Debug)]
pub struct Collation {
    policy: CollationPolicy,
    slots: Slots<VoteSlot>,
}

/// What a unanimous collation decides of votes that may be parts of one
/// return (`message::parts`).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PartsDecision {
    /// What it decides of whole votes, or of a whole vote and parts that
    /// each vouch for it.
    Decided(Decision),
    /// Every part is in and each vouches for the return they make, read
    /// by `message::join_parts`: the results of a normal return, or any
    /// other message joined whole.
    Joined(Result<Vec<u8>, Vec<u8>>),
    /// The parts are not cut as a return of their length is.
    Garbled,
}

impl Collation {
    /// A collation over `n` expected messages. Allocates nothing for one.
    pub fn new(policy: CollationPolicy, n: usize) -> Collation {
        Collation {
            policy,
            slots: Slots::new(n, VoteSlot::Pending),
        }
    }

    fn votes(&self) -> impl Iterator<Item = &Payload> + Clone {
        self.slots.iter().filter_map(VoteSlot::vote)
    }

    /// The parts among the votes, in member order: digest and bytes.
    fn parts(&self) -> impl Iterator<Item = (u64, &[u8])> + Clone {
        self.votes().filter_map(|v| part_vote(v))
    }

    /// The first vote that is not a part.
    fn whole(&self) -> Option<&Payload> {
        self.votes().find(|v| part_vote(v).is_none())
    }

    /// `true` while some member is still to answer.
    pub(crate) fn is_pending(&self) -> bool {
        self.slots.contains(&VoteSlot::Pending)
    }

    /// A unanimous collation of a call whose return `owners` members cut
    /// into parts, all admitted in member order: its votes are parts, or
    /// whole returns (one segment's, or one fetched in a dead owner's
    /// place). It decides once no member is still to answer. Whole votes must agree, and every part's digest
    /// must be the digest of the return: of the whole vote where there is
    /// one, else of the parts joined, once every owner's is in and they
    /// are cut as [`parts`] cuts a return of their length. The return is
    /// hashed once, read out of the parts once.
    pub(crate) fn decide_parts(&self, owners: usize) -> PartsDecision {
        let disagree = PartsDecision::Decided(Decision::Fail(CollateError::Disagreement));
        if self.is_pending() {
            return PartsDecision::Decided(Decision::Wait);
        }
        if self.parts().next().is_none() {
            return PartsDecision::Decided(self.decide_unanimous());
        }
        let whole = self.whole();
        let bytes = self.parts().map(|(_, bytes)| bytes);
        let hash = match whole {
            Some(whole) if self.votes().any(|v| part_vote(v).is_none() && v != whole) => {
                return disagree
            }
            Some(whole) => digest([&whole[..]]),
            // An owner died before its part came: the return is fetched.
            None if bytes.clone().count() < owners => {
                return PartsDecision::Decided(Decision::Wait)
            }
            None => {
                let len = bytes.clone().map(<[u8]>::len).sum();
                let Some(layout) = parts(len, owners) else {
                    return PartsDecision::Garbled;
                };
                let ranges = (0..owners).map(|i| layout.range(i).len());
                if !bytes.clone().map(<[u8]>::len).eq(ranges) {
                    return PartsDecision::Garbled;
                }
                digest(bytes.clone())
            }
        };
        if self.parts().any(|(part, _)| part != hash) {
            return disagree;
        }
        match whole {
            Some(whole) => PartsDecision::Decided(Decision::Ready(whole.clone())),
            None => PartsDecision::Joined(join_parts(bytes)),
        }
    }

    /// `true` if the whole return must be fetched: some part's owner died
    /// before its part came (`owners` of the slots were admitted, so more
    /// dead than were refused is an owner), and no whole vote is in hand.
    pub(crate) fn wants_whole(&self, owners: usize) -> bool {
        let dead = self.slots.iter().filter(|s| **s == VoteSlot::Dead).count();
        dead > self.slots.len() - owners && self.whole().is_none()
    }

    /// Records the whole return fetched in a dead owner's place.
    pub(crate) fn add_fetched(&mut self, whole: Payload) {
        if let Some(slot) = self.slots.iter_mut().find(|s| **s == VoteSlot::Dead) {
            *slot = VoteSlot::Vote(whole);
        }
    }

    /// Number of expected messages (the troupe's degree at call time).
    pub fn expected(&self) -> usize {
        self.slots.len()
    }

    /// Records member `i`'s message. Late or duplicate votes for a slot
    /// are ignored (the paired message layer already filtered duplicates;
    /// this guards against a member resurrecting).
    pub fn add_vote(&mut self, i: usize, data: impl Into<Payload>) {
        if let Some(slot @ VoteSlot::Pending) = self.slots.get_mut(i) {
            *slot = VoteSlot::Vote(data.into());
        }
    }

    /// Records that member `i` has crashed.
    pub fn mark_dead(&mut self, i: usize) {
        if let Some(slot @ VoteSlot::Pending) = self.slots.get_mut(i) {
            *slot = VoteSlot::Dead;
        }
    }

    /// Returns `true` if member `i` was given up on before it voted.
    pub fn is_dead(&self, i: usize) -> bool {
        matches!(self.slots.get(i), Some(VoteSlot::Dead))
    }

    /// `true` if this collation runs the watchdog scheme (§4.3.4).
    pub fn is_watchdog(&self) -> bool {
        matches!(self.policy, CollationPolicy::FirstComeWatchdog)
    }

    /// `true` if every received vote is identical (dead/pending slots
    /// ignored) — what the watchdog checks as stragglers arrive.
    pub fn votes_agree(&self) -> bool {
        let mut votes = self.slots.iter().filter_map(VoteSlot::vote);
        match votes.next() {
            Some(first) => votes.all(|v| v == first),
            None => true,
        }
    }

    /// The current verdict.
    pub fn decide(&self) -> Decision {
        match &self.policy {
            CollationPolicy::Unanimous => self.decide_unanimous(),
            CollationPolicy::FirstCome | CollationPolicy::FirstComeWatchdog => {
                self.decide_first_come()
            }
            CollationPolicy::Majority => self.decide_majority(),
            CollationPolicy::Custom(c) => c.decide(&self.slots),
        }
    }

    fn decide_unanimous(&self) -> Decision {
        let mut first: Option<&Payload> = None;
        let mut pending = 0usize;
        for s in &self.slots {
            match s {
                VoteSlot::Pending => pending += 1,
                VoteSlot::Dead => {}
                VoteSlot::Vote(v) => match first {
                    None => first = Some(v),
                    Some(f) if f != v => return Decision::Fail(CollateError::Disagreement),
                    Some(_) => {}
                },
            }
        }
        match (pending, first) {
            (0, Some(v)) => Decision::Ready(v.clone()),
            (0, None) => Decision::Fail(CollateError::AllDead),
            _ => Decision::Wait,
        }
    }

    fn decide_first_come(&self) -> Decision {
        for s in &self.slots {
            if let Some(v) = s.vote() {
                return Decision::Ready(v.clone());
            }
        }
        if self.slots.iter().all(|s| matches!(s, VoteSlot::Dead)) {
            Decision::Fail(CollateError::AllDead)
        } else {
            Decision::Wait
        }
    }

    fn decide_majority(&self) -> Decision {
        let n = self.slots.len();
        let quorum = n / 2 + 1;
        // Count identical votes.
        let votes = || self.slots.iter().filter_map(VoteSlot::vote);
        let mut best = 0usize;
        for v in votes() {
            let count = votes().filter(|w| *w == v).count();
            if count >= quorum {
                return Decision::Ready(v.clone());
            }
            best = best.max(count);
        }
        let pending = self
            .slots
            .iter()
            .filter(|s| matches!(s, VoteSlot::Pending))
            .count();
        if best + pending < quorum {
            Decision::Fail(CollateError::NoMajority)
        } else {
            Decision::Wait
        }
    }
}

/// A collator for **explicit replication** (§7.4): wait for every live
/// member, then deliver the whole response set — each member's raw reply
/// or `None` for crashed members — as one externalized
/// `Vec<Option<Vec<u8>>>`. Client code iterates the decoded vector,
/// which is the Rust rendering of the paper's result *generator*
/// (Figure 7.6: "pages() generates the set of responses").
pub struct GatherAll;

impl Collate for GatherAll {
    fn decide(&self, slots: &[VoteSlot]) -> Decision {
        let mut gathered: Vec<Option<&[u8]>> = Vec::with_capacity(slots.len());
        for s in slots {
            match s {
                VoteSlot::Pending => return Decision::Wait,
                VoteSlot::Dead => gathered.push(None),
                VoteSlot::Vote(v) => gathered.push(Some(v)),
            }
        }
        if gathered.iter().all(|g| g.is_none()) {
            return Decision::Fail(CollateError::AllDead);
        }
        Decision::Ready(crate::message::wrap_reply_vote(wire::to_bytes(&gathered)).into())
    }
}

/// The collation policy for explicit replication (§7.4).
pub fn gather_all_collation() -> CollationPolicy {
    CollationPolicy::Custom(Rc::new(GatherAll))
}

/// Decodes the value produced by [`GatherAll`] back into the per-member
/// reply set: `None` entries are crashed members; `Some(bytes)` are raw
/// return messages (unwrap with
/// [`unwrap_reply_vote`](crate::message::unwrap_reply_vote)).
pub fn decode_gathered(payload: &[u8]) -> Result<Vec<Option<Vec<u8>>>, wire::WireError> {
    wire::from_bytes(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(b: u8) -> Payload {
        Payload::from(vec![b])
    }

    #[test]
    fn unanimous_waits_for_all() {
        let mut c = Collation::new(CollationPolicy::Unanimous, 3);
        c.add_vote(0, bytes(1));
        assert_eq!(c.decide(), Decision::Wait);
        c.add_vote(1, bytes(1));
        assert_eq!(c.decide(), Decision::Wait);
        c.add_vote(2, bytes(1));
        assert_eq!(c.decide(), Decision::Ready(bytes(1)));
    }

    #[test]
    fn built_in_policies_decide_with_a_shared_vote() {
        for policy in [
            CollationPolicy::Unanimous,
            CollationPolicy::FirstCome,
            CollationPolicy::Majority,
        ] {
            // Past the inline limit, so there is a buffer to share.
            let vote = Payload::from(vec![4u8; 40]);
            let mut c = Collation::new(policy, 1);
            c.add_vote(0, vote.clone());
            match c.decide() {
                Decision::Ready(v) => assert!(v.shares_buffer_with(&vote)),
                other => panic!("expected ready, got {other:?}"),
            }
        }
    }

    #[test]
    fn unanimous_detects_disagreement_early() {
        let mut c = Collation::new(CollationPolicy::Unanimous, 3);
        c.add_vote(0, bytes(1));
        c.add_vote(1, bytes(2));
        assert_eq!(c.decide(), Decision::Fail(CollateError::Disagreement));
    }

    #[test]
    fn unanimous_proceeds_past_dead_members() {
        let mut c = Collation::new(CollationPolicy::Unanimous, 3);
        c.add_vote(0, bytes(1));
        c.mark_dead(1);
        assert_eq!(c.decide(), Decision::Wait);
        c.add_vote(2, bytes(1));
        assert_eq!(c.decide(), Decision::Ready(bytes(1)));
    }

    #[test]
    fn unanimous_all_dead_fails() {
        let mut c = Collation::new(CollationPolicy::Unanimous, 2);
        c.mark_dead(0);
        c.mark_dead(1);
        assert_eq!(c.decide(), Decision::Fail(CollateError::AllDead));
    }

    #[test]
    fn first_come_takes_first() {
        let mut c = Collation::new(CollationPolicy::FirstCome, 3);
        assert_eq!(c.decide(), Decision::Wait);
        c.add_vote(2, bytes(9));
        assert_eq!(c.decide(), Decision::Ready(bytes(9)));
    }

    #[test]
    fn first_come_all_dead_fails() {
        let mut c = Collation::new(CollationPolicy::FirstCome, 2);
        c.mark_dead(0);
        assert_eq!(c.decide(), Decision::Wait);
        c.mark_dead(1);
        assert_eq!(c.decide(), Decision::Fail(CollateError::AllDead));
    }

    #[test]
    fn majority_needs_quorum_of_expected() {
        let mut c = Collation::new(CollationPolicy::Majority, 5);
        c.add_vote(0, bytes(7));
        c.add_vote(1, bytes(7));
        assert_eq!(c.decide(), Decision::Wait);
        c.add_vote(2, bytes(7));
        assert_eq!(c.decide(), Decision::Ready(bytes(7)));
    }

    #[test]
    fn majority_fails_when_impossible() {
        let mut c = Collation::new(CollationPolicy::Majority, 3);
        c.add_vote(0, bytes(1));
        c.add_vote(1, bytes(2));
        c.add_vote(2, bytes(3));
        assert_eq!(c.decide(), Decision::Fail(CollateError::NoMajority));
    }

    #[test]
    fn majority_fails_with_too_many_dead() {
        // 2 of 5 dead; the 3 live must all agree, else no quorum. If two
        // more die, quorum is unreachable.
        let mut c = Collation::new(CollationPolicy::Majority, 5);
        c.mark_dead(0);
        c.mark_dead(1);
        c.mark_dead(2);
        assert_eq!(c.decide(), Decision::Fail(CollateError::NoMajority));
    }

    #[test]
    fn majority_masks_minority_disagreement() {
        // Unlike unanimous, majority voting masks a single bad value.
        let mut c = Collation::new(CollationPolicy::Majority, 3);
        c.add_vote(0, bytes(7));
        c.add_vote(1, bytes(8));
        assert_eq!(c.decide(), Decision::Wait);
        c.add_vote(2, bytes(7));
        assert_eq!(c.decide(), Decision::Ready(bytes(7)));
    }

    #[test]
    fn custom_collator_averaging() {
        /// Averages little-endian u32 votes once all arrived — the
        /// temperature-averaging server of Figure 7.7.
        struct Average;
        impl Collate for Average {
            fn decide(&self, slots: &[VoteSlot]) -> Decision {
                let mut sum = 0u64;
                let mut n = 0u64;
                for s in slots {
                    match s {
                        VoteSlot::Pending => return Decision::Wait,
                        VoteSlot::Dead => {}
                        VoteSlot::Vote(v) => {
                            let mut a = [0u8; 4];
                            a.copy_from_slice(v);
                            sum += u32::from_le_bytes(a) as u64;
                            n += 1;
                        }
                    }
                }
                if n == 0 {
                    return Decision::Fail(CollateError::AllDead);
                }
                Decision::Ready(((sum / n) as u32).to_le_bytes().to_vec().into())
            }
        }
        let mut c = Collation::new(CollationPolicy::Custom(Rc::new(Average)), 3);
        c.add_vote(0, 10u32.to_le_bytes().to_vec());
        c.add_vote(1, 20u32.to_le_bytes().to_vec());
        assert_eq!(c.decide(), Decision::Wait);
        c.add_vote(2, 30u32.to_le_bytes().to_vec());
        assert_eq!(
            c.decide(),
            Decision::Ready(20u32.to_le_bytes().to_vec().into())
        );
    }

    #[test]
    fn duplicate_and_out_of_range_votes_ignored() {
        let mut c = Collation::new(CollationPolicy::Unanimous, 2);
        c.add_vote(0, bytes(1));
        c.add_vote(0, bytes(2)); // Ignored: slot already voted.
        c.add_vote(9, bytes(3)); // Ignored: out of range.
        c.add_vote(1, bytes(1));
        assert_eq!(c.decide(), Decision::Ready(bytes(1)));
    }

    #[test]
    fn gather_all_waits_then_collects() {
        let mut c = Collation::new(gather_all_collation(), 3);
        c.add_vote(0, crate::message::wrap_reply_vote(vec![1]));
        c.mark_dead(1);
        assert_eq!(c.decide(), Decision::Wait);
        c.add_vote(2, crate::message::wrap_reply_vote(vec![3]));
        match c.decide() {
            Decision::Ready(out) => {
                let payload = crate::message::unwrap_reply_vote(&out).unwrap();
                let set = decode_gathered(&payload).unwrap();
                assert_eq!(set.len(), 3);
                assert!(set[0].is_some());
                assert!(set[1].is_none());
                assert!(set[2].is_some());
            }
            other => panic!("expected ready, got {other:?}"),
        }
    }

    #[test]
    fn gather_all_all_dead_fails() {
        let mut c = Collation::new(gather_all_collation(), 2);
        c.mark_dead(0);
        c.mark_dead(1);
        assert_eq!(c.decide(), Decision::Fail(CollateError::AllDead));
    }

    /// A normal return of `results`, whole, and the parts of it its
    /// `owners` members send.
    fn cut(results: &[u8], owners: usize) -> (Payload, Vec<Payload>) {
        let reply = crate::ReturnMessage::Normal(results.to_vec());
        let whole = wire::to_bytes(&reply);
        let layout = parts(whole.len(), owners).expect("two segments or more");
        let part = |i| wire::to_bytes(&reply.part(reply.digest(), layout.range(i))).into();
        (whole.into(), (0..owners).map(part).collect())
    }

    /// Parts are joined once every owner's is in, in whatever order they
    /// came, and checked against their digests and the layout.
    #[test]
    fn parts_are_joined_once_all_are_in() {
        let results = vec![7; 5000];
        let (_, sent) = cut(&results, 3);
        for order in [[0, 1, 2], [1, 2, 0], [2, 0, 1]] {
            let mut c = Collation::new(CollationPolicy::Unanimous, 3);
            for i in order {
                assert_eq!(c.decide_parts(3), PartsDecision::Decided(Decision::Wait));
                c.add_vote(i, sent[i].clone());
            }
            assert_eq!(
                c.decide_parts(3),
                PartsDecision::Joined(Ok(results.clone()))
            );
        }
        // One byte off inside a part, or a digest off, is a disagreement;
        // a part cut other than the layout cuts is garbled.
        let (_, other) = cut(&[8; 5000], 3);
        let mut flipped = sent[2].to_vec();
        *flipped.last_mut().expect("bytes") ^= 1;
        // Of 2,006 bytes, member 1's part is empty and member 2's full.
        let (_, mut swapped) = cut(&[7; 2000], 3);
        swapped.swap(1, 2);
        let (hash, bytes) = crate::message::part_vote(&sent[2]).expect("a part");
        let short = crate::ReturnMessage::Part {
            digest: hash,
            bytes: bytes[1..].to_vec(),
        };
        for (votes, verdict) in [
            (
                vec![sent[0].clone(), other[1].clone(), sent[2].clone()],
                PartsDecision::Decided(Decision::Fail(CollateError::Disagreement)),
            ),
            (
                vec![sent[0].clone(), sent[1].clone(), flipped.into()],
                PartsDecision::Decided(Decision::Fail(CollateError::Disagreement)),
            ),
            (swapped, PartsDecision::Garbled),
            (
                vec![
                    sent[0].clone(),
                    sent[1].clone(),
                    wire::to_bytes(&short).into(),
                ],
                PartsDecision::Garbled,
            ),
        ] {
            let mut c = Collation::new(CollationPolicy::Unanimous, 3);
            for (i, vote) in votes.into_iter().enumerate() {
                c.add_vote(i, vote);
            }
            assert_eq!(c.decide_parts(3), verdict);
        }
    }

    /// With an owner dead before its part came, the collation wants the
    /// whole return, then checks it against every part in.
    #[test]
    fn a_dead_owner_waits_for_the_whole_return() {
        let (whole, sent) = cut(&[7; 5000], 3);
        let (other, _) = cut(&[9; 5000], 3);
        for (fetched, verdict) in [
            (whole.clone(), Decision::Ready(whole.clone())),
            (other, Decision::Fail(CollateError::Disagreement)),
        ] {
            // Four members, the first refused when the call was made.
            let mut c = Collation::new(CollationPolicy::Unanimous, 4);
            c.mark_dead(0);
            c.add_vote(2, sent[1].clone());
            assert!(!c.wants_whole(3), "every owner may yet answer");
            c.mark_dead(1);
            assert!(c.wants_whole(3) && c.is_pending());
            c.add_vote(3, sent[2].clone());
            assert_eq!(c.decide_parts(3), PartsDecision::Decided(Decision::Wait));
            c.add_fetched(fetched);
            assert!(!c.wants_whole(3));
            assert_eq!(c.decide_parts(3), PartsDecision::Decided(verdict));
        }
        // Whole votes alone are collated as they always were.
        let mut c = Collation::new(CollationPolicy::Unanimous, 2);
        c.add_vote(0, whole.clone());
        c.add_vote(1, whole.clone());
        assert_eq!(
            c.decide_parts(2),
            PartsDecision::Decided(Decision::Ready(whole))
        );
    }

    #[test]
    fn dead_after_vote_keeps_vote() {
        let mut c = Collation::new(CollationPolicy::Unanimous, 2);
        c.add_vote(0, bytes(1));
        c.mark_dead(0); // The vote already arrived; death is irrelevant.
        c.add_vote(1, bytes(1));
        assert_eq!(c.decide(), Decision::Ready(bytes(1)));
    }
}
