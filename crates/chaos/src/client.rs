//! The workload client: one rebinding core, three protocols.
//!
//! [`Client`] is the part of a chaos client that is the same whatever it
//! is asking the troupe to do — the full binding story of Chapter 6. It
//! *imports* the troupe by name from the Ringmaster into an
//! [`ImportCache`], walks a seeded script against the cached binding one
//! item at a time, paces itself with think time, retries failures under
//! a bounded exponential backoff, and on a stale-binding rejection (§6.2)
//! invalidates, rebinds, and retries. What one script item *is*, how it
//! is sent, and what a reply means belong to a [`Protocol`] — one per
//! synchronization scheme of §5.5:
//!
//! - [`Txn`] submits a transaction to the troupe commit protocol. Every
//!   submission, a retry included, is a *new* transaction on a new
//!   distributed thread (§2.3.1); the protocol records each one's
//!   `(thread, nonce)` key and outcome so the oracles can audit
//!   exactly-once execution against the members' commit ledgers.
//! - [`ProposeAccept`] drives the ordered broadcast protocol (§5.4) with
//!   the retry discipline its safety depends on: proposals go to *every*
//!   member ([`strict_max_time_collation`]) so each holds a queue
//!   placeholder that blocks later messages, accepts must be
//!   acknowledged by *every* member ([`all_ack_collation`]) so no
//!   member's applied order silently falls behind, and once an accept
//!   has been sent the broadcast never re-proposes — every retry carries
//!   the same accepted time and payload, so a partially delivered accept
//!   can only be completed, never contradicted.
//! - [`CmBatch`] submits commutative operations (counter increments, set
//!   inserts): no phases, no locks — a failed call is retried under the
//!   *same* idempotence id until every member has acknowledged it, which
//!   is all that convergence needs.
//!
//! The client is generic, not boxed: each workload's client is its own
//! monomorphised type, and [`Client`] derefs to its protocol so the
//! oracles read the protocol's ledgers straight off the agent.

use circus::binding::BINDING_MODULE;
use circus::{
    Agent, CallError, CallHandle, CollationPolicy, NodeBuilder, NodeCtx, ThreadId, TimerKey, Troupe,
};
use ringmaster::ImportCache;
use simnet::{Duration, SimRng};
use transactions::{
    all_ack_collation, strict_max_time_collation, Accept, Backoff, CmOp, CmRequest,
    CommitVoterService, ExecuteRequest, ObjId, Op, Propose, TxnOutcome, PROC_ACCEPT_TIME,
    PROC_CM_EXECUTE, PROC_EXECUTE, PROC_GET_PROPOSED_TIME,
};
use wire::{from_bytes, to_bytes};

use crate::harness::COMMIT_MODULE;

const RETRY_KEY: TimerKey = TimerKey::new(0x6368); // "ch"

/// Mean think time between script items. Pacing spreads the script
/// across the fault window, so faults land on a *live* workload rather
/// than an idle, already-finished one.
const THINK_MEAN_US: u64 = 1_200_000;

/// What a protocol made of one completed workload call.
pub enum Step {
    /// The script item is done; the client moves on to the next one.
    Confirmed,
    /// The item entered its next phase; send again at once.
    Again,
    /// The call failed (the reason is kept for the give-up message);
    /// resend the item's current phase after a backoff.
    Retry(String),
    /// Unrecoverable: the client stops.
    Fatal(String),
}

/// One call for the client to make: `(procedure, arguments, collation)`.
pub type Request = (u16, Vec<u8>, CollationPolicy);

/// One synchronization scheme's client side: what a script item is, how
/// scripts are drawn, what call (re)sends an item, and what a reply
/// means. The ids, phases and ledgers live here; binding, pacing, backoff
/// and rebinding live in [`Client`].
pub trait Protocol: 'static {
    /// One script entry.
    type Item;
    /// Consecutive failed attempts tolerated before the client gives up;
    /// the budget refills at every confirmed item.
    const RETRIES: u32;
    /// Whether the think timer is armed after the *last* scripted item
    /// too (it fires into an empty script; it still draws from the
    /// world's RNG, so it is part of the run).
    const THINK_AFTER_LAST: bool;

    /// The protocol state of client number `client` (ids minted by
    /// different clients must never collide).
    fn new(client: usize) -> Self;

    /// Draws script item number `index` of client number `client`.
    fn script_item(rng: &mut SimRng, client: usize, index: usize) -> Self::Item;

    /// The quiesce probe of client number `client`: a no-op item that
    /// forces one call through the client's binding cache.
    fn probe(client: usize) -> Self::Item;

    /// Adds whatever else a client process must export.
    fn client_node(node: NodeBuilder) -> NodeBuilder {
        node
    }

    /// Called once per script item before its first send: mint whatever
    /// identifies the item across retries.
    fn start(&mut self) {}

    /// The call that sends, or resends, the current phase of `item`; the
    /// client makes it on the fresh distributed thread `thread`.
    fn request(&mut self, thread: ThreadId, item: &Self::Item) -> Request;

    /// Digests the outcome of the call [`request`](Protocol::request)
    /// asked for.
    /// Stale-binding rejections never get here: the call did not execute
    /// and the client rebinds and resends.
    fn reply(&mut self, result: Result<Vec<u8>, CallError>) -> Step;
}

/// What the client's one in-flight call is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pending {
    /// A name lookup or rebind at the binding agent.
    Binding,
    /// The workload call itself.
    Work,
}

/// A scripted client that binds by name, rebinds when stale, and speaks
/// protocol `P` to whatever troupe the name resolves to.
pub struct Client<P: Protocol> {
    binder: Troupe,
    name: &'static str,
    module: u16,
    cache: ImportCache,
    script: Vec<P::Item>,
    /// Index of the item being worked on (confirmed items lie below it).
    next: usize,
    /// Whether `script[next]` has been started and awaits confirmation.
    started: bool,
    backoff: Backoff,
    pending: Option<Pending>,
    retries_left: u32,
    /// How many times a stale binding forced a rebind.
    pub rebinds: u32,
    /// Unrecoverable failures.
    pub errors: Vec<String>,
    proto: P,
}

/// The transaction client of the store and recovery workloads.
pub type RebindingClient = Client<Txn>;

impl<P: Protocol> std::ops::Deref for Client<P> {
    type Target = P;
    fn deref(&self) -> &P {
        &self.proto
    }
}

/// For a test that doctors a client's record behind the oracles' back.
impl<P: Protocol> std::ops::DerefMut for Client<P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.proto
    }
}

impl<P: Protocol> Client<P> {
    /// A client importing `name` from `binder` and running `script`
    /// against module `module` of whatever troupe the name resolves to.
    pub fn new(
        binder: Troupe,
        name: &'static str,
        module: u16,
        script: Vec<P::Item>,
        proto: P,
    ) -> Self {
        Client {
            binder,
            name,
            module,
            cache: ImportCache::new(),
            script,
            next: 0,
            started: false,
            backoff: Backoff::default_1985(),
            pending: None,
            retries_left: P::RETRIES,
            rebinds: 0,
            errors: Vec::new(),
            proto,
        }
    }

    /// `true` once the whole script is confirmed (or the client failed
    /// hard).
    pub fn finished(&self) -> bool {
        (self.next >= self.script.len() && self.pending.is_none()) || !self.errors.is_empty()
    }

    /// Script items confirmed so far.
    pub fn confirmed_items(&self) -> usize {
        self.next
    }

    /// The binding cache, for the stale-binding oracle.
    pub fn cache(&self) -> &ImportCache {
        &self.cache
    }

    /// Appends one more item to the script (the quiesce phase uses this
    /// to force one post-reconfiguration call through every client's
    /// cache). Poke the client afterwards if it had finished.
    pub fn enqueue(&mut self, item: P::Item) {
        self.script.push(item);
    }

    fn lookup(&mut self, nc: &mut NodeCtx<'_, '_, '_>, rebind: bool) {
        let (proc, args) = if rebind {
            self.cache.rebind_request(self.name)
        } else {
            ImportCache::lookup_request(self.name)
        };
        self.pending = Some(Pending::Binding);
        let thread = nc.fresh_thread();
        nc.call(
            thread,
            &self.binder,
            BINDING_MODULE,
            proc,
            args,
            CollationPolicy::Majority,
        );
    }

    /// Sends (or resends) the current phase of the item in progress, or
    /// starts the next scripted one.
    fn drive(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.pending.is_some() || !self.errors.is_empty() {
            return;
        }
        if !self.started {
            if self.next >= self.script.len() {
                return;
            }
            self.proto.start();
            self.started = true;
        }
        let Some(troupe) = self.cache.get(self.name).cloned() else {
            self.lookup(nc, false);
            return;
        };
        self.pending = Some(Pending::Work);
        let thread = nc.fresh_thread();
        let (proc, args, collation) = self.proto.request(thread, &self.script[self.next]);
        nc.call(thread, &troupe, self.module, proc, args, collation);
    }

    fn retry_later(&mut self, nc: &mut NodeCtx<'_, '_, '_>, why: &str) {
        if self.retries_left == 0 {
            self.errors.push(format!("gave up after retries: {why}"));
            return;
        }
        self.retries_left -= 1;
        let delay = self.backoff.next_delay(nc.sim().rng());
        nc.set_app_timer(delay, RETRY_KEY);
    }
}

impl<P: Protocol> Agent for Client<P> {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.drive(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        match self.pending.take() {
            None => {}
            Some(Pending::Binding) => match result {
                Ok(bytes) if self.cache.store_reply(self.name, &bytes).is_some() => self.drive(nc),
                Ok(_) => self.retry_later(nc, "name not bound"),
                Err(e) => self.retry_later(nc, &format!("lookup failed: {e}")),
            },
            Some(Pending::Work) => match result {
                Err(e) if ImportCache::should_rebind(&e) => {
                    // The call never executed under the stale incarnation
                    // (§6.2: WrongTroupe is rejected before dispatch).
                    self.cache.invalidate(self.name);
                    self.rebinds += 1;
                    self.lookup(nc, true);
                }
                result => match self.proto.reply(result) {
                    Step::Confirmed => {
                        self.next += 1;
                        self.started = false;
                        self.backoff.reset();
                        self.retries_left = P::RETRIES;
                        if P::THINK_AFTER_LAST || self.next < self.script.len() {
                            let think = 200_000 + nc.sim().rng().below(2 * THINK_MEAN_US);
                            nc.set_app_timer(Duration::from_micros(think), RETRY_KEY);
                        }
                    }
                    Step::Again => self.drive(nc),
                    Step::Retry(why) => self.retry_later(nc, &why),
                    Step::Fatal(why) => self.errors.push(why),
                },
            },
        }
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key == RETRY_KEY {
            self.drive(nc);
        }
    }
}

/// The troupe commit protocol's client side, with the submission ledgers
/// the store oracles audit.
#[derive(Default)]
pub struct Txn {
    nonce: u64,
    /// Every submission ever made: `(thread, nonce, ops)` — the oracles
    /// join the members' commit ledgers against this.
    pub submitted: Vec<(ThreadId, u64, Vec<Op>)>,
    /// Keys the client *knows* committed (it saw `Committed`).
    pub committed_keys: Vec<(ThreadId, u64)>,
    /// Keys the client saw explicitly aborted; a member committing one of
    /// these violates commit atomicity.
    pub aborted_keys: Vec<(ThreadId, u64)>,
    /// Per-transaction results, in script order.
    pub committed_results: Vec<Vec<i64>>,
    /// Abort count (deadlock pressure plus fault-induced vote failures).
    pub aborts: u32,
}

impl Protocol for Txn {
    type Item = Vec<Op>;
    const RETRIES: u32 = 200;
    const THINK_AFTER_LAST: bool = true;

    fn new(_client: usize) -> Txn {
        Txn::default()
    }

    /// One or two reads/adds over a small object set, so clients
    /// conflict (deadlock-and-retry pressure, §5.3.1).
    fn script_item(rng: &mut SimRng, _client: usize, _index: usize) -> Vec<Op> {
        let objs = [ObjId(1), ObjId(2), ObjId(3)];
        let mut txn = Vec::new();
        for _ in 0..=rng.below(2) {
            let obj = objs[rng.below(objs.len() as u64) as usize];
            txn.push(if rng.chance(0.25) {
                Op::Read(obj)
            } else {
                Op::Add(obj, 1 + rng.below(5) as i64)
            });
        }
        txn
    }

    /// A no-op write.
    fn probe(_client: usize) -> Vec<Op> {
        vec![Op::Add(ObjId(1), 0)]
    }

    /// The client half of the troupe commit protocol votes.
    fn client_node(node: NodeBuilder) -> NodeBuilder {
        node.service(COMMIT_MODULE, Box::new(CommitVoterService))
    }

    fn request(&mut self, thread: ThreadId, ops: &Vec<Op>) -> Request {
        // Every submission, including a retry, is a new transaction
        // under a new nonce (and the fresh thread the client minted).
        self.nonce += 1;
        let req = ExecuteRequest {
            nonce: self.nonce,
            ops: ops.clone(),
        };
        let args = to_bytes(&req);
        self.submitted.push((thread, self.nonce, req.ops));
        (PROC_EXECUTE, args, CollationPolicy::Unanimous)
    }

    fn reply(&mut self, result: Result<Vec<u8>, CallError>) -> Step {
        let &(thread, nonce, _) = self.submitted.last().expect("a reply follows a request");
        match result {
            Ok(bytes) => match from_bytes::<TxnOutcome>(&bytes) {
                Ok(TxnOutcome::Committed(results)) => {
                    self.committed_keys.push((thread, nonce));
                    self.committed_results.push(results);
                    Step::Confirmed
                }
                Ok(TxnOutcome::Aborted(_)) => {
                    self.aborted_keys.push((thread, nonce));
                    self.aborts += 1;
                    Step::Retry("aborted".into())
                }
                Err(e) => Step::Fatal(format!("garbled outcome: {e}")),
            },
            Err(e) => {
                // Ambiguous: the call failed at this client, but some
                // members may have executed it. It is *not* recorded as
                // aborted — the oracles treat its key as unknown.
                self.aborts += 1;
                Step::Retry(format!("call failed: {e}"))
            }
        }
    }
}

/// The ordered broadcast protocol's client side. `accepted_time` is the
/// phase: `None` while proposing, and fixed forever at the transition to
/// accepting — a re-propose after a partially delivered accept could
/// mint a second accepted time and split the troupe's applied order.
pub struct ProposeAccept {
    next_msg_id: u64,
    /// Ids minted so far.
    minted: usize,
    msg_id: u64,
    accepted_time: Option<u64>,
    /// Message ids whose accept every member acknowledged — each must
    /// appear in every member's applied order at quiesce.
    pub confirmed: Vec<u64>,
}

impl ProposeAccept {
    /// Ids minted but never confirmed (abandoned, or still in progress):
    /// each may split a member's applied-id range in two.
    pub fn unconfirmed(&self) -> usize {
        self.minted - self.confirmed.len()
    }
}

impl Protocol for ProposeAccept {
    type Item = Vec<u8>;
    const RETRIES: u32 = 300;
    const THINK_AFTER_LAST: bool = false;

    /// Message ids are globally unique: each client mints from a range
    /// of its own.
    fn new(client: usize) -> ProposeAccept {
        ProposeAccept {
            next_msg_id: 1 + client as u64 * 1_000_000,
            minted: 0,
            msg_id: 0,
            accepted_time: None,
            confirmed: Vec::new(),
        }
    }

    fn script_item(rng: &mut SimRng, _client: usize, _index: usize) -> Vec<u8> {
        let len = 1 + rng.below(6) as usize;
        (0..len).map(|_| rng.below(256) as u8).collect()
    }

    fn probe(client: usize) -> Vec<u8> {
        vec![0xEE, client as u8]
    }

    fn start(&mut self) {
        self.msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        self.minted += 1;
        self.accepted_time = None;
    }

    fn request(&mut self, _thread: ThreadId, payload: &Vec<u8>) -> Request {
        // The payload rides along in both phases: a member that missed
        // the proposal installs the message from the accept.
        let (msg_id, payload) = (self.msg_id, payload.clone());
        match self.accepted_time {
            // A proposal (or proposal retry: the members' idempotence
            // cache answers duplicates with the stored time) must reach
            // every member, so each holds a queue placeholder that
            // blocks later messages until this one resolves.
            None => (
                PROC_GET_PROPOSED_TIME,
                to_bytes(&Propose { msg_id, payload }),
                strict_max_time_collation(),
            ),
            // The accept must be acknowledged by every member — a
            // member that never hears it would silently diverge — and
            // every retry carries the same agreed time and payload.
            Some(accepted_time) => (
                PROC_ACCEPT_TIME,
                to_bytes(&Accept {
                    msg_id,
                    accepted_time,
                    payload,
                }),
                all_ack_collation(),
            ),
        }
    }

    fn reply(&mut self, result: Result<Vec<u8>, CallError>) -> Step {
        match (result, self.accepted_time) {
            (Ok(bytes), None) => match from_bytes::<u64>(&bytes) {
                Ok(max) => {
                    self.accepted_time = Some(max);
                    Step::Again
                }
                Err(_) => Step::Fatal("garbled max proposal".into()),
            },
            (Ok(_), Some(_)) => {
                self.confirmed.push(self.msg_id);
                Step::Confirmed
            }
            (Err(e), _) => Step::Retry(format!("broadcast call failed: {e}")),
        }
    }
}

/// The commutative-operations client side: one batch under one
/// idempotence id until every member has acknowledged it.
pub struct CmBatch {
    next_op_id: u64,
    /// Ids minted so far.
    minted: usize,
    op_id: u64,
    /// Idempotence ids every member acknowledged — each must be in
    /// every member's seen ledger at quiesce.
    pub confirmed: Vec<u64>,
}

impl CmBatch {
    /// Ids minted but never confirmed (abandoned, or still in progress):
    /// each may split a member's dedup-ledger range in two.
    pub fn unconfirmed(&self) -> usize {
        self.minted - self.confirmed.len()
    }
}

impl Protocol for CmBatch {
    type Item = Vec<CmOp>;
    const RETRIES: u32 = 300;
    const THINK_AFTER_LAST: bool = false;

    fn new(client: usize) -> CmBatch {
        CmBatch {
            next_op_id: 1 + client as u64 * 1_000_000,
            minted: 0,
            op_id: 0,
            confirmed: Vec::new(),
        }
    }

    /// Counter bumps over a small object set, plus set inserts of
    /// elements unique to `(client, index)`.
    fn script_item(rng: &mut SimRng, client: usize, index: usize) -> Vec<CmOp> {
        let objs = [ObjId(1), ObjId(2), ObjId(3)];
        let mut ops = Vec::new();
        for _ in 0..=rng.below(2) {
            ops.push(if rng.chance(0.3) {
                CmOp::Insert(1 + client as u64 * 10_000 + index as u64)
            } else {
                let obj = objs[rng.below(objs.len() as u64) as usize];
                CmOp::Incr(obj, 1 + rng.below(5) as i64)
            });
        }
        ops
    }

    fn probe(client: usize) -> Vec<CmOp> {
        vec![CmOp::Insert(0xEE00 + client as u64)]
    }

    fn start(&mut self) {
        self.op_id = self.next_op_id;
        self.next_op_id += 1;
        self.minted += 1;
    }

    fn request(&mut self, _thread: ThreadId, ops: &Vec<CmOp>) -> Request {
        // Every member must acknowledge (the ops commute, but a member
        // that never *receives* one diverges); members that already
        // executed this op_id answer from their seen ledger.
        let req = CmRequest {
            op_id: self.op_id,
            ops: ops.clone(),
        };
        (PROC_CM_EXECUTE, to_bytes(&req), all_ack_collation())
    }

    fn reply(&mut self, result: Result<Vec<u8>, CallError>) -> Step {
        match result {
            Ok(_) => {
                self.confirmed.push(self.op_id);
                Step::Confirmed
            }
            Err(e) => Step::Retry(format!("commutative call failed: {e}")),
        }
    }
}
