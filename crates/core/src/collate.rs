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

use crate::message::{digest, digest_vote};

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
    /// Set on a unanimous call that named a data member, whose other
    /// members' votes may be digests of the return: the digest of the
    /// full vote, made once there is both a full vote and a digest to
    /// compare with it.
    digests: Option<Option<u64>>,
}

impl Collation {
    /// A collation over `n` expected messages. Allocates nothing for one.
    pub fn new(policy: CollationPolicy, n: usize) -> Collation {
        Collation {
            policy,
            slots: Slots::new(n, VoteSlot::Pending),
            digests: None,
        }
    }

    /// Lets the votes be digests: the call named a data member, and a
    /// unanimous collation then compares each digest with the full vote
    /// and decides only once it holds one.
    pub(crate) fn take_digests(&mut self) {
        self.digests = Some(None);
    }

    /// The hash `vote` carries if it is a digest this collation takes.
    fn digest_of(&self, vote: &Payload) -> Option<u64> {
        self.digests.and(digest_vote(vote))
    }

    /// The full vote: the first vote that is not a digest.
    fn full(&self) -> Option<&Payload> {
        let mut votes = self.slots.iter().filter_map(VoteSlot::vote);
        votes.find(|v| self.digest_of(v).is_none())
    }

    /// `true` once some vote is a digest.
    fn digested(&self) -> bool {
        let mut votes = self.slots.iter().filter_map(VoteSlot::vote);
        self.digests.is_some() && votes.any(|v| digest_vote(v).is_some())
    }

    /// Hashes the full vote, once, as soon as there is a digest to
    /// compare it with.
    fn hash_full(&mut self) {
        let due = self.digests == Some(None) && self.digested();
        if let Some(hash) = due.then(|| self.full().map(|v| digest([&v[..]]))).flatten() {
            self.digests = Some(Some(hash));
        }
    }

    /// Records the full return fetched from a digest member as the vote
    /// of the data member, slot `data`, which died before its own came.
    pub(crate) fn add_fetched(&mut self, data: usize, full: Payload) {
        if let Some(slot @ VoteSlot::Dead) = self.slots.get_mut(data) {
            *slot = VoteSlot::Vote(full);
            self.hash_full();
        }
    }

    /// `true` if the full return must be fetched from a digest member: the
    /// data member, slot `data`, is dead without having voted, no full
    /// vote is in hand, and some member has sent a digest of one.
    pub(crate) fn wants_fetch(&self, data: usize) -> bool {
        self.is_dead(data) && self.full().is_none() && self.digested()
    }

    /// `true` if the collation waits for nothing but a fetched return.
    pub(crate) fn stranded(&self) -> bool {
        let pending = self.slots.contains(&VoteSlot::Pending);
        !pending && self.full().is_none() && self.digested()
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
            self.hash_full();
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
        let (mut pending, mut digested) = (0usize, false);
        let full = self.digests.flatten();
        for s in &self.slots {
            match s {
                VoteSlot::Pending => pending += 1,
                VoteSlot::Dead => {}
                VoteSlot::Vote(v) => match (self.digest_of(v), first) {
                    (Some(hash), _) => {
                        digested = true;
                        if full.is_some_and(|f| f != hash) {
                            return Decision::Fail(CollateError::Disagreement);
                        }
                    }
                    (None, None) => first = Some(v),
                    (None, Some(f)) if f != v => return Decision::Fail(CollateError::Disagreement),
                    (None, Some(_)) => {}
                },
            }
        }
        match (pending, first) {
            (0, Some(v)) => Decision::Ready(v.clone()),
            // Digests vouch for a return that is still to be fetched.
            (0, None) if digested => Decision::Wait,
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
/// `Vec<Option<wire::Bytes>>`. Client code iterates the decoded vector,
/// which is the Rust rendering of the paper's result *generator*
/// (Figure 7.6: "pages() generates the set of responses").
pub struct GatherAll;

impl Collate for GatherAll {
    fn decide(&self, slots: &[VoteSlot]) -> Decision {
        let mut gathered: Vec<Option<wire::Bytes>> = Vec::with_capacity(slots.len());
        for s in slots {
            match s {
                VoteSlot::Pending => return Decision::Wait,
                VoteSlot::Dead => gathered.push(None),
                VoteSlot::Vote(v) => gathered.push(Some(wire::Bytes(v.to_vec()))),
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
    let v: Vec<Option<wire::Bytes>> = wire::from_bytes(payload)?;
    Ok(v.into_iter().map(|o| o.map(|b| b.0)).collect())
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

    /// A return message and digest votes of it, as members send them.
    fn full_and_digest(body: &[u8]) -> (Payload, Payload) {
        let full = wire::to_bytes(&crate::ReturnMessage::Normal(body.to_vec()));
        let hash = crate::message::digest([&full[..]]);
        let digest = wire::to_bytes(&crate::ReturnMessage::Digest(hash));
        (full.into(), digest.into())
    }

    /// A unanimous collation that takes digests compares each with the
    /// full vote, whichever comes first, and decides with the full vote.
    #[test]
    fn digests_are_compared_with_the_full_vote() {
        let (full, digest) = full_and_digest(&[7; 64]);
        let (_, other) = full_and_digest(&[8; 64]);
        for order in [[0, 1, 2], [1, 2, 0], [2, 0, 1]] {
            let mut c = Collation::new(CollationPolicy::Unanimous, 3);
            c.take_digests();
            for i in order {
                assert_eq!(c.decide(), Decision::Wait);
                c.add_vote(i, if i == 0 { full.clone() } else { digest.clone() });
            }
            assert_eq!(c.decide(), Decision::Ready(full.clone()));

            let mut c = Collation::new(CollationPolicy::Unanimous, 3);
            c.take_digests();
            for i in order {
                c.add_vote(i, [&full, &digest, &other][i].clone());
            }
            assert_eq!(c.decide(), Decision::Fail(CollateError::Disagreement));
        }
        // Without `take_digests` a digest is a vote like any other.
        let mut c = Collation::new(CollationPolicy::Unanimous, 2);
        c.add_vote(0, full.clone());
        c.add_vote(1, digest.clone());
        assert_eq!(c.decide(), Decision::Fail(CollateError::Disagreement));
    }

    /// With the data member dead and only digests in, the collation waits
    /// for the fetched return, then checks it against them.
    #[test]
    fn digests_alone_wait_for_a_fetched_return() {
        let (full, digest) = full_and_digest(&[7; 64]);
        let (other, _) = full_and_digest(&[9; 64]);
        for (fetched, verdict) in [
            (full.clone(), Decision::Ready(full.clone())),
            (other, Decision::Fail(CollateError::Disagreement)),
        ] {
            let mut c = Collation::new(CollationPolicy::Unanimous, 3);
            c.take_digests();
            c.add_vote(1, digest.clone());
            assert!(!c.wants_fetch(0), "the data member may yet answer");
            c.mark_dead(0);
            assert!(c.wants_fetch(0) && !c.stranded());
            c.add_vote(2, digest.clone());
            assert!(c.stranded());
            assert_eq!(c.decide(), Decision::Wait);
            c.add_fetched(0, fetched);
            assert!(!c.wants_fetch(0) && !c.stranded());
            assert_eq!(c.decide(), verdict);
        }
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
