//! The ordered broadcast protocol (§5.4, Figure 5.1).
//!
//! A starvation-free alternative to the troupe commit protocol: "the
//! ordered broadcast protocol guarantees that concurrent broadcasts are
//! never interleaved: all recipients of broadcast messages accept them
//! for application-level processing in the same order." It assumes
//! synchronized clocks and is a simplification of Skeen's atomic
//! broadcast — the replicated structure of troupes obviates sender crash
//! recovery.
//!
//! Two phases, expressed as replicated procedure calls: the client calls
//! `get_proposed_time(message)` at the troupe, takes the **maximum** of
//! the proposals (a custom collator, §7.4), and calls
//! `accept_time(message, max)`. A member processes a queued message only
//! once it is accepted, its time has arrived, and no earlier-proposed
//! message remains unaccepted.
//!
//! Fault coverage forced these hardenings beyond Figure 5.1:
//!
//! * **Orphan GC.** A broadcaster that dies between the two phases
//!   leaves a `Proposed` entry that would head the queue forever and
//!   stall every later message. A proposal older than the TTL is
//!   discarded when it blocks the drain. GC is safe against a *slow*
//!   (not dead) broadcaster because `accept_time` carries the payload
//!   and reinstalls a collected entry at the agreed time.
//! * **Idempotence.** Two things are kept, for two different reasons.
//!   *Which ids were applied here* is an exact [`IdSet`] that is never
//!   pruned and never inferred from: it alone decides whether a message
//!   applies, so no retry, duplicate or reordering can apply one twice
//!   or skip one. (Paired messages deliver a lower-numbered call after a
//!   higher one, so a member can see a client's *first* `accept_time(k)`
//!   after that client's `get_proposed_time(k+1)` — it must apply — and
//!   a crossed *second* `accept_time(k)` after k was applied — it must
//!   not. Only an exact set tells them apart.) *What the answer was* —
//!   `(accepted time, result)` — matters only to the one client that
//!   might retry, so it lives in a retry cache keyed `(origin, msg_id)`
//!   that the origin itself retires: its `get_proposed_time` for id k
//!   drops that origin's entries below k. A duplicated `accept_time`
//!   replies the cached result and a duplicated `get_proposed_time` the
//!   *stored* accepted time, so retries and network duplicates cannot
//!   reorder members; the cache holds O(clients) entries, the set one
//!   range per client.
//! * **The sequential-client contract.** A client's block is sequential:
//!   proposing id k says every lower id of that origin is finished
//!   (the assumption the commit service's recovery token rests on). A
//!   retired id that is asked about all the same is answered without
//!   touching state — a duplicate `accept_time` replies the empty
//!   result, a duplicate `get_proposed_time` replies an error and never
//!   queues a placeholder (one would head the queue until the proposal
//!   TTL). A client that breaks the contract therefore gets a worse
//!   *answer*, never a double apply. A pipelined client (ROADMAP 5c)
//!   will need an explicit low-water mark in its calls; it arrives with
//!   that client.
//! * **Full state transfer.** `get_state`/`set_state` externalize the
//!   application snapshot, the folded applied order, the id set, the
//!   retry cache and the queue (each entry with its origin), so a spare
//!   that rejoins mid-broadcast continues the protocol — and answers a
//!   live retry exactly as the dead member would — instead of replying
//!   "unknown message" and diverging.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use circus::{Collate, CollationPolicy, Decision, Service, ServiceCtx, Step, VoteSlot};
use simnet::Duration;
use wire::{from_bytes, to_bytes, Externalize, Internalize, Reader, WireError, Writer};

use crate::pack_origin;
use crate::wedge::Wedge;
use circus::IdSet;
use obs::{fnv1a_fold, FNV1A_BASIS};

/// Procedure number of `get_proposed_time`.
pub const PROC_GET_PROPOSED_TIME: u16 = 0;
/// Procedure number of `accept_time`.
pub const PROC_ACCEPT_TIME: u16 = 1;

/// How long a proposal may wait for its accept before a drain collects it
/// as an orphan. It must dominate the longest partition plus the slowest
/// client's accept-retry backoff (under chaos, fault windows of up to
/// ~60 s of self-heal), so a proposal is only ever collected when its
/// broadcaster is genuinely gone: collecting one whose accept is merely
/// delayed elsewhere is *correct* (see the module docs) but costs an
/// extra queue pass.
pub const PROPOSAL_TTL: Duration = Duration::from_secs(90);

wire::record! {
    /// Argument of `get_proposed_time`. The payload is owned
    /// (`Propose<Vec<u8>>`, the default) or borrowed (`Propose<&[u8]>`):
    /// a client encodes from its own buffer, and a member reads the
    /// payload in place and copies it exactly once, into the refcounted
    /// queue entry.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct Propose<P: wire::Block = Vec<u8>> {
        /// Client-unique message identifier (also the tie-breaker between
        /// equal proposed times).
        pub msg_id: u64,
        /// The message payload.
        pub payload: P,
    }
}

wire::record! {
    /// Argument of `accept_time`, owned or borrowed as [`Propose`] is.
    ///
    /// Carrying the payload makes the accept *self-contained*: a member
    /// that never saw the proposal — a rejoined spare, or one whose
    /// orphan GC already collected the entry — installs the message
    /// directly at the agreed time instead of failing the broadcast.
    ///
    /// The payload is a byte block and nothing else ([`wire::Block`]): a
    /// payload of words, which would go out as a SEQUENCE, does not
    /// compile,
    ///
    /// ```compile_fail,E0277
    /// let words: Vec<i32> = vec![1, 2, 3];
    /// let _ = transactions::broadcast::Accept { msg_id: 1, accepted_time: 2, payload: words };
    /// ```
    ///
    /// and an untyped literal is read as bytes:
    ///
    /// ```
    /// let a = transactions::broadcast::Accept { msg_id: 1, accepted_time: 2, payload: vec![1, 2, 3] };
    /// assert_eq!(wire::to_bytes(&a.payload), [0, 0, 0, 3, 1, 2, 3, 0]);
    /// ```
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct Accept<P: wire::Block = Vec<u8>> {
        /// The message being accepted.
        pub msg_id: u64,
        /// The maximum proposed time, now its acceptance time.
        pub accepted_time: u64,
        /// The message payload (see above).
        pub payload: P,
    }
}

/// What a member does with messages once they are accepted, in order.
///
/// This is the "deterministic local concurrency control algorithm"
/// required by §5.4 — here, serial execution in acceptance order.
pub trait OrderedApply: 'static {
    /// Processes one message; the result is returned to the broadcaster
    /// of `accept_time`.
    fn apply(&mut self, payload: &[u8]) -> Vec<u8>;

    /// Externalizes application state (for state transfer, §6.4.1).
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores application state.
    fn restore(&mut self, _state: &[u8]) {}
}

wire::enumeration! {
    /// Where a queued message stands in Figure 5.1's two phases.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum QStatus {
        /// Proposed: its time is not agreed yet, so it blocks the queue.
        Proposed = 0,
        /// Accepted at its agreed time: it applies once that time comes.
        Accepted = 1,
    }
}

#[derive(Clone, Debug)]
struct QEntry {
    /// Shared handle on the proposed message bytes: requeuing on accept
    /// and the pre-apply clone in `drain` are refcount bumps.
    payload: simnet::Payload,
    status: QStatus,
    /// The proposing (or accepting) client, packed: the retry cache is
    /// keyed by it when the entry applies.
    origin: u64,
}

/// How many of the most recently applied ids [`AppliedOrder`] keeps for
/// diagnostics.
pub const RECENT_IDS: usize = 16;

/// The order in which a member applied its messages, folded: a count, a
/// running FNV fold taken at apply time, and a window of the last
/// [`RECENT_IDS`] ids. Two members applied the same ids in the same
/// order iff their folded orders are equal (up to a 64-bit collision);
/// the window says *where* two unequal ones part.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AppliedOrder {
    count: u64,
    fold: u64,
    recent: VecDeque<u64>,
}

impl Default for AppliedOrder {
    fn default() -> AppliedOrder {
        AppliedOrder {
            count: 0,
            fold: FNV1A_BASIS,
            recent: VecDeque::with_capacity(RECENT_IDS),
        }
    }
}

impl AppliedOrder {
    fn push(&mut self, msg_id: u64) {
        self.count += 1;
        self.fold = fnv1a_fold(self.fold, &msg_id.to_be_bytes());
        if self.recent.len() == RECENT_IDS {
            self.recent.pop_front();
        }
        self.recent.push_back(msg_id);
    }

    /// Messages applied so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether nothing has been applied yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The order-sensitive fold of every id applied so far.
    pub fn fold(&self) -> u64 {
        self.fold
    }

    /// The last [`RECENT_IDS`] ids applied, oldest first (the whole order
    /// while it is that short).
    pub fn recent(&self) -> Vec<u64> {
        self.recent.iter().copied().collect()
    }
}

// not a declaration: the window is a `VecDeque`, laid out as `(count, fold, recent)`.
impl Externalize for AppliedOrder {
    fn externalize(&self, w: &mut Writer) {
        w.put_u64(self.count);
        w.put_u64(self.fold);
        w.put_seq_len(self.recent.len());
        for id in &self.recent {
            w.put_u64(*id);
        }
    }
}

// not a declaration: rejects a window no `AppliedOrder` could have kept.
impl Internalize<'_> for AppliedOrder {
    /// Rejects a window longer than [`RECENT_IDS`] or than the count.
    fn internalize(r: &mut Reader<'_>) -> Result<AppliedOrder, WireError> {
        let (count, fold) = (r.get_u64()?, r.get_u64()?);
        let len = r.get_seq_len()?;
        if len > RECENT_IDS || len as u64 > count {
            return Err(WireError::Invalid("AppliedOrder"));
        }
        let mut order = AppliedOrder {
            count,
            fold,
            ..AppliedOrder::default()
        };
        for _ in 0..len {
            order.recent.push_back(r.get_u64()?);
        }
        Ok(order)
    }
}

/// The folded order of applying `ids` one after another — what tests and
/// oracles compare a member against.
impl FromIterator<u64> for AppliedOrder {
    fn from_iter<I: IntoIterator<Item = u64>>(ids: I) -> AppliedOrder {
        let mut order = AppliedOrder::default();
        for id in ids {
            order.push(id);
        }
        order
    }
}

/// One troupe member's half of the ordered broadcast protocol, wrapping
/// an application that consumes messages in the agreed order.
pub struct OrderedBroadcastService<A: OrderedApply> {
    app: A,
    /// Message queue ordered by (time, msg_id) — the tie-break makes the
    /// order total.
    queue: BTreeMap<(u64, u64), QEntry>,
    /// Where each known message currently sits in the queue.
    position: BTreeMap<u64, (u64, u64)>,
    /// The order in which messages were accepted for processing, folded
    /// (observable by tests: must be identical at every member).
    pub applied_order: AppliedOrder,
    /// Every id ever applied here. Exact, never pruned: safety (no double
    /// apply, no skipped apply) rests on this set alone.
    applied_ids: IdSet,
    /// Retry cache: `(origin, msg_id)` → (accepted time, result), for the
    /// originating client's retries only; its next proposal retires it.
    retry: BTreeMap<(u64, u64), (u64, Vec<u8>)>,
    /// Wedged for a membership change.
    wedge: Wedge,
}

impl<A: OrderedApply> OrderedBroadcastService<A> {
    /// Wraps an application.
    pub fn new(app: A) -> OrderedBroadcastService<A> {
        OrderedBroadcastService {
            app,
            queue: BTreeMap::new(),
            position: BTreeMap::new(),
            applied_order: AppliedOrder::default(),
            applied_ids: IdSet::new(),
            retry: BTreeMap::new(),
            wedge: Wedge::default(),
        }
    }

    /// Read access to the application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Messages still queued (proposed or accepted-but-undrained). A
    /// quiesced, starvation-free member has an empty queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether message `msg_id` was applied at this member.
    pub fn has_applied(&self, msg_id: u64) -> bool {
        self.applied_ids.contains(msg_id)
    }

    /// Ranges the applied-id set is held in: one per client that mints
    /// consecutive ids, plus one per id a client abandoned.
    pub fn id_ranges(&self) -> usize {
        self.applied_ids.range_count()
    }

    /// Retry-cache entries held: one per client between its broadcasts.
    pub fn retry_cache_len(&self) -> usize {
        self.retry.len()
    }

    /// Order-sensitive digest of the replicated state: the application
    /// snapshot, the applied count and the applied-order fold. Equal at
    /// every member iff the members applied the same messages in the same
    /// order.
    pub fn state_digest(&self) -> u64 {
        let h = fnv1a_fold(FNV1A_BASIS, &self.app.snapshot());
        let h = fnv1a_fold(h, &self.applied_order.count.to_be_bytes());
        fnv1a_fold(h, &self.applied_order.fold.to_be_bytes())
    }

    /// Drops `origin`'s retry-cache entries below `msg_id`: by proposing
    /// `msg_id` the (sequential) client says it is done with them.
    fn retire(&mut self, origin: u64, msg_id: u64) {
        while let Some((&key, _)) = self.retry.range((origin, 0)..(origin, msg_id)).next() {
            self.retry.remove(&key);
        }
    }

    /// Processes the queue head while it is accepted and due (Figure
    /// 5.1's loop), collecting orphaned proposals past the TTL out of
    /// the way. Returns the result of processing `for_msg` if that
    /// message was among those applied.
    fn drain(&mut self, now: u64, for_msg: u64, metrics: &obs::Registry) -> Option<Vec<u8>> {
        let mut wanted = None;
        while let Some((&(time, msg_id), entry)) = self.queue.iter().next() {
            if entry.status == QStatus::Proposed {
                if now.saturating_sub(time) >= PROPOSAL_TTL.as_micros() {
                    // The broadcaster died between the phases (or is so
                    // slow its accept will reinstall the entry anyway):
                    // stop it stalling everything behind it.
                    self.queue.remove(&(time, msg_id));
                    self.position.remove(&msg_id);
                    metrics.add("bcast.gc_orphans", 1);
                    continue;
                }
                break;
            }
            if time > now {
                break;
            }
            let (payload, origin) = (entry.payload.clone(), entry.origin);
            self.queue.remove(&(time, msg_id));
            self.position.remove(&msg_id);
            let result = self.app.apply(&payload);
            self.applied_ids.insert(msg_id);
            self.applied_order.push(msg_id);
            self.retry.insert((origin, msg_id), (time, result.clone()));
            if msg_id == for_msg {
                wanted = Some(result);
            }
        }
        wanted
    }
}

impl<A: OrderedApply> Service for OrderedBroadcastService<A> {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        if self.wedge.active(ctx.now) {
            // Refuse work while quiescing for a membership change; the
            // client retries with backoff and lands on the re-incarnated
            // troupe (or back here once the wedge lapses).
            return Step::Error("ordered broadcast: wedged for membership change".into());
        }
        match proc {
            PROC_GET_PROPOSED_TIME => {
                let Ok(p) = from_bytes::<Propose<&[u8]>>(args) else {
                    return Step::Error("bad get_proposed_time arguments".into());
                };
                let origin = pack_origin(ctx.thread.origin);
                self.retire(origin, p.msg_id);
                if self.applied_ids.contains(p.msg_id) {
                    // Duplicate of a message already applied: replying
                    // the *stored* accepted time keeps any late collation
                    // from moving the message. Once its client has moved
                    // on there is no time to reply — and no placeholder
                    // either: nothing would ever accept it.
                    ctx.metrics.add("bcast.dup_proposes", 1);
                    return match self.retry.get(&(origin, p.msg_id)) {
                        Some(&(time, _)) => Step::Reply(to_bytes(&time)),
                        None => Step::Error(
                            "ordered broadcast: message already applied and retired".into(),
                        ),
                    };
                }
                if let Some(&(time, _)) = self.position.get(&p.msg_id) {
                    let entry = &self.queue[&(time, p.msg_id)];
                    if entry.status == QStatus::Accepted {
                        // Already accepted here: the agreed time stands.
                        ctx.metrics.add("bcast.dup_proposes", 1);
                        return Step::Reply(to_bytes(&time));
                    }
                    // A retried proposal round replaces the stale entry.
                    self.queue.remove(&(time, p.msg_id));
                    self.position.remove(&p.msg_id);
                }
                // Propose the current (synchronized) clock reading.
                let time = ctx.now.as_micros();
                self.queue.insert(
                    (time, p.msg_id),
                    QEntry {
                        payload: simnet::Payload::copy_from(p.payload),
                        status: QStatus::Proposed,
                        origin,
                    },
                );
                self.position.insert(p.msg_id, (time, p.msg_id));
                Step::Reply(to_bytes(&time))
            }
            PROC_ACCEPT_TIME => {
                let Ok(a) = from_bytes::<Accept<&[u8]>>(args) else {
                    return Step::Error("bad accept_time arguments".into());
                };
                let origin = pack_origin(ctx.thread.origin);
                if self.applied_ids.contains(a.msg_id) {
                    // Duplicate or retried accept for an applied message:
                    // reply the cached result (empty once its client has
                    // retired it), never re-apply.
                    ctx.metrics.add("bcast.dup_accepts", 1);
                    let result = self.retry.get(&(origin, a.msg_id));
                    let result = result.map(|(_, r)| r.clone()).unwrap_or_default();
                    return Step::Reply(to_bytes(&result));
                }
                let payload = match self.position.remove(&a.msg_id) {
                    Some(old) => {
                        self.queue
                            .remove(&old)
                            .expect("positioned entry exists")
                            .payload
                    }
                    None => {
                        // This member never saw the proposal (rejoined
                        // spare, or the orphan GC collected it): the
                        // accept is self-contained, install it.
                        ctx.metrics.add("bcast.accept_installs", 1);
                        simnet::Payload::copy_from(a.payload)
                    }
                };
                self.queue.insert(
                    (a.accepted_time, a.msg_id),
                    QEntry {
                        payload,
                        status: QStatus::Accepted,
                        origin,
                    },
                );
                self.position.insert(a.msg_id, (a.accepted_time, a.msg_id));
                ctx.metrics.add("bcast.accepted", 1);
                let result = self.drain(ctx.now.as_micros(), a.msg_id, &ctx.metrics);
                // The reply carries the application's result once the
                // message has actually been processed; a message stalled
                // behind an unaccepted earlier proposal replies empty
                // and the client learns the result is pending. In the
                // simulated system acceptance times are always in the
                // past by the time accept_time arrives, so the only
                // stall is a genuinely earlier concurrent broadcast.
                Step::Reply(to_bytes(&result.unwrap_or_default()))
            }
            _ => Step::Error(format!("ordered broadcast: unknown procedure {proc}")),
        }
    }

    fn wedge(&mut self, ctx: &mut ServiceCtx) -> Step {
        // Every dispatch completes synchronously — there is nothing in
        // flight to drain — so the wedge lands immediately; dispatch
        // refuses new work until the unwedge (or the TTL lapse).
        self.wedge.engage(ctx.now);
        Step::Reply(Vec::new())
    }

    fn unwedge(&mut self) {
        self.wedge.release();
    }

    fn get_state(&self) -> Vec<u8> {
        // The full protocol state, not just the app snapshot: a rejoined
        // member must know the queue (to keep accepting in-flight
        // broadcasts), the applied order (the oracle's object of proof),
        // the applied ids (so retried accepts stay no-ops) and the retry
        // cache (so a live retry gets the dead member's answer).
        // Rows borrow the results and payloads they carry: each is copied
        // once, into the encoding.
        let retry: Vec<RetryWire<&[u8]>> = self
            .retry
            .iter()
            .map(|(&(origin, id), (time, result))| (origin, id, *time, &result[..]))
            .collect();
        let queue: Vec<QueueWire<&[u8]>> = self
            .queue
            .iter()
            .map(|(&(time, id), e)| (time, id, e.origin, e.status, &e.payload[..]))
            .collect();
        let snapshot = self.app.snapshot();
        to_bytes(&(
            snapshot,
            &self.applied_order,
            &self.applied_ids,
            retry,
            queue,
        ))
    }

    fn set_state(&mut self, state: &[u8]) {
        // Read in place: each result and payload is copied once, out of
        // the transfer into the member's own tables.
        let Ok((snapshot, order, ids, retry, queue)) = from_bytes::<StateWire<&[u8]>>(state) else {
            // Garbled transfer, any part of it: keep the state held (blank,
            // for a joining spare, whose join goes on all the same).
            return;
        };
        self.app.restore(snapshot);
        self.applied_order = order;
        self.applied_ids = ids;
        self.retry = retry
            .into_iter()
            .map(|(origin, id, time, result)| ((origin, id), (time, result.to_vec())))
            .collect();
        self.queue.clear();
        self.position.clear();
        for (time, id, origin, status, payload) in queue {
            self.queue.insert(
                (time, id),
                QEntry {
                    payload: simnet::Payload::copy_from(payload),
                    status,
                    origin,
                },
            );
            self.position.insert(id, (time, id));
        }
    }
}

/// What `get_state` externalizes and `set_state` expects: the application
/// snapshot, the folded applied order, the applied ids, the retry cache,
/// and the queue. Its blocks are owned (`StateWire`, the default) or
/// borrowed from the transfer (`StateWire<&[u8]>`), as [`Propose`]'s
/// payload is.
pub type StateWire<B = Vec<u8>> = (B, AppliedOrder, IdSet, Vec<RetryWire<B>>, Vec<QueueWire<B>>);

/// One retry-cache entry in state transfer: `(origin, msg_id, accepted
/// time, result)`.
pub type RetryWire<B = Vec<u8>> = (u64, u64, u64, B);

/// One queue entry in state transfer: `(time, msg_id, origin, status,
/// payload)`.
pub type QueueWire<B = Vec<u8>> = (u64, u64, u64, QStatus, B);

/// Reply collator for `get_proposed_time`: wait for every member, then
/// yield the **maximum** proposal (Figure 5.1's client side). It is
/// Dead-intolerant: the propose round fails unless **every** member of
/// the current incarnation voted. A dead member fails it only once every
/// live one has answered, so a survivor's `WrongTroupe`, which fails the
/// call before collation, always wins over it and the client rebinds:
/// failing on the dead slot at once would keep a client on a stale
/// binding retrying while the dead member's marker lasts.
///
/// Skipping dead slots is how the identical-order guarantee breaks under
/// partitions: a member that misses a proposal has nothing queued to
/// block later broadcasts, so it can apply a concurrent message first
/// and diverge. The client retries the propose round (a fresh round is
/// always safe before any accept is sent) until the partition heals or
/// the unreachable member is evicted and the retry lands on the
/// re-incarnated troupe.
///
/// As a *reply* collator it sees raw return-message votes and must emit
/// one (`circus::reply_vote`/`wrap_reply_vote`).
pub(crate) struct StrictMaxTime;

impl Collate for StrictMaxTime {
    fn decide(&self, slots: &[VoteSlot]) -> Decision {
        let (mut max, mut dead) = (0u64, false);
        for s in slots {
            match s {
                VoteSlot::Pending => return Decision::Wait,
                VoteSlot::Dead => dead = true,
                VoteSlot::Vote(v) => {
                    match circus::reply_vote(v).and_then(|p| from_bytes::<u64>(p).ok()) {
                        Some(t) => max = max.max(t),
                        None => {
                            return Decision::Fail(circus::CollateError::Rejected(
                                "garbled time proposal".into(),
                            ))
                        }
                    }
                }
            }
        }
        if dead {
            Decision::Fail(circus::CollateError::Rejected(
                "member unreachable during propose".into(),
            ))
        } else if slots.is_empty() {
            Decision::Fail(circus::CollateError::AllDead)
        } else {
            Decision::Ready(circus::wrap_reply_vote(to_bytes(&max)).into())
        }
    }
}

/// Reply collator for `accept_time`: succeed only when **every** member
/// of the current incarnation acknowledged the accept.
///
/// [`CollationPolicy::Unanimous`] proceeds past `Dead` slots, which
/// would let an accept "succeed" while a partitioned member never hears
/// it — that member's applied order then silently diverges. `AllAck`
/// fails instead, once every live member has answered (as
/// [`StrictMaxTime`] does); the client retries the *same* accepted time
/// until the partition heals or the dead member is evicted (the retry
/// then lands on the re-incarnated troupe, whose spare carries the full
/// protocol state). The replies' contents are ignored — members legitimately
/// reply different bytes while a message is pending behind an earlier
/// proposal — so the collation yields `empty`, the canonical empty
/// result, built once. The commutative client acknowledges its batches
/// the same way.
pub(crate) struct AllAck {
    empty: simnet::Payload,
}

impl AllAck {
    pub(crate) fn new() -> AllAck {
        let empty = circus::wrap_reply_vote(to_bytes(&[0u8; 0][..]));
        AllAck {
            empty: simnet::Payload::copy_from(&empty),
        }
    }
}

impl Collate for AllAck {
    fn decide(&self, slots: &[VoteSlot]) -> Decision {
        let mut dead = false;
        for s in slots {
            match s {
                VoteSlot::Pending => return Decision::Wait,
                VoteSlot::Dead => dead = true,
                VoteSlot::Vote(v) => {
                    if circus::reply_vote(v).is_none() {
                        return Decision::Fail(circus::CollateError::Rejected(
                            "member rejected accept".into(),
                        ));
                    }
                }
            }
        }
        if dead {
            Decision::Fail(circus::CollateError::Rejected(
                "member unreachable during accept".into(),
            ))
        } else if slots.is_empty() {
            Decision::Fail(circus::CollateError::AllDead)
        } else {
            Decision::Ready(self.empty.clone())
        }
    }
}

thread_local! {
    /// The one `StrictMaxTime` every propose round on this thread collates
    /// with, and the one `AllAck` every accept and commutative batch does
    /// (neither holds per-call state).
    static STRICT_MAX_TIME: Rc<dyn Collate> = Rc::new(StrictMaxTime);
    static ALL_ACK: Rc<dyn Collate> = Rc::new(AllAck::new());
}

/// The collation of `get_proposed_time` calls (see [`StrictMaxTime`]).
pub(crate) fn strict_max_time_collation() -> CollationPolicy {
    CollationPolicy::Custom(STRICT_MAX_TIME.with(Rc::clone))
}

/// The collation of `accept_time` and commutative calls (see
/// [`AllAck`]).
pub(crate) fn all_ack_collation() -> CollationPolicy {
    CollationPolicy::Custom(ALL_ACK.with(Rc::clone))
}

#[cfg(test)]
mod tests;
