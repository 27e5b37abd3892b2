//! The client side of each §5.5 synchronization scheme, and the one
//! closed-loop driver that runs a script of them against a troupe.
//!
//! A [`Protocol`] is one scheme's client, with the retry discipline its
//! safety depends on:
//!
//! - [`Txn`]: every submission, a retry included, is a *new* transaction
//!   under a new nonce on a new distributed thread (§2.3.1), stamped with
//!   the client's clock at submission; aborts are retried after a binary
//!   exponential backoff (§5.3.1).
//! - [`ProposeAccept`] (§5.4): proposals and accepts must reach *every*
//!   member, and once an accept has been sent the broadcast never
//!   re-proposes — every retry carries the same accepted time and
//!   payload, so a partially delivered accept can only be completed,
//!   never contradicted.
//! - [`CmBatch`]: a batch is retried under the *same* idempotence id
//!   until every member has acknowledged it. The operations commute, but
//!   a member that never *receives* one diverges.
//!
//! [`Script`] is what every client does alike: walk the items one at a
//! time, back off and retry within the protocol's budget. [`ClosedLoop`]
//! runs a script against a fixed troupe — [`TxnClient`], [`Broadcaster`]
//! and [`CmClient`] are its instances — and the chaos harness runs the
//! same scripts through a binding cache that rebinds when stale.

use std::fmt;
use std::ops::Deref;

use crate::backoff::Backoff;
use crate::broadcast::{
    all_ack_collation, strict_max_time_collation, Accept, Propose, PROC_ACCEPT_TIME,
    PROC_GET_PROPOSED_TIME,
};
use crate::commit::{ExecuteRequest, TxnOutcome, PROC_EXECUTE};
use crate::commute::{CmOp, CmRequest, PROC_CM_EXECUTE};
use crate::txn::Op;
use circus::{Agent, CallError, CallHandle, CollationPolicy, NodeCtx, TimerKey, Troupe};
use simnet::Time;
use wire::from_bytes;

const RETRY_KEY: TimerKey = TimerKey::new(0x7472); // "tr"

/// What a protocol made of one completed call.
#[derive(Debug)]
pub enum Next {
    /// The script item is done; the client moves on to the next one.
    Confirmed,
    /// The item entered its next phase; send again at once.
    Again,
    /// The members refused the item (an aborted transaction); resend
    /// after a backoff.
    Refused(&'static str),
    /// The call failed, so whether the members executed it is unknown;
    /// resend the current phase after a backoff.
    Failed(CallError),
    /// Unrecoverable: the client stops.
    Fatal(String),
}

/// One call for the client to make: `(procedure, arguments, collation)`.
pub type Request = (u16, Vec<u8>, CollationPolicy);

/// One scheme's client side: its ids, phases and results. Backoff lives
/// in [`Script`], binding and pacing in the agent that drives it.
pub trait Protocol: 'static {
    /// One script entry.
    type Item;
    /// Consecutive failed attempts tolerated before the client gives up;
    /// the budget refills at every confirmed item.
    const RETRIES: u32;

    /// Called once per script item before its first send: mint whatever
    /// identifies the item across retries.
    fn start(&mut self) {}

    /// The call that sends, or resends, the current phase of `item`, at
    /// `now` on the client's clock.
    fn request(&mut self, item: &Self::Item, now: Time) -> Request;

    /// Digests the outcome of the call [`request`](Protocol::request)
    /// asked for.
    fn reply(&mut self, result: Result<Vec<u8>, CallError>) -> Next;
}

/// A protocol's script in progress, with the current item's retry budget
/// and backoff. Derefs to the protocol, whose ledgers the caller reads.
pub struct Script<P: Protocol> {
    items: Vec<P::Item>,
    /// Index of the item being worked on (confirmed items lie below it).
    next: usize,
    /// Whether `items[next]` has been started and awaits confirmation.
    started: bool,
    backoff: Backoff,
    retries_left: u32,
    /// Unrecoverable failures.
    pub errors: Vec<String>,
    proto: P,
}

impl<P: Protocol> Deref for Script<P> {
    type Target = P;
    fn deref(&self) -> &P {
        &self.proto
    }
}

impl<P: Protocol> Script<P> {
    /// `items`, to be run through `proto`.
    pub fn new(items: Vec<P::Item>, proto: P) -> Script<P> {
        Script {
            items,
            next: 0,
            started: false,
            backoff: Backoff::default(),
            retries_left: P::RETRIES,
            errors: Vec::new(),
            proto,
        }
    }

    /// `true` once every item is confirmed (or the script failed hard).
    pub fn finished(&self) -> bool {
        self.next >= self.items.len() || !self.errors.is_empty()
    }

    /// Items confirmed so far.
    pub fn confirmed_items(&self) -> usize {
        self.next
    }

    /// Appends one more item.
    pub fn push(&mut self, item: P::Item) {
        self.items.push(item);
    }

    /// Starts the next item unless one is in progress; `false` when there
    /// is nothing to send (every item confirmed, or the script failed).
    pub fn start(&mut self) -> bool {
        if !self.started {
            if self.finished() {
                return false;
            }
            self.proto.start();
            self.started = true;
        }
        self.errors.is_empty()
    }

    /// The item [`start`](Script::start) said is in progress.
    pub fn current(&self) -> &P::Item {
        &self.items[self.next]
    }

    /// The call that sends the current phase of the item in progress, at
    /// `now` on the client's clock.
    pub fn request(&mut self, now: Time) -> Request {
        self.proto.request(&self.items[self.next], now)
    }

    /// Digests the reply to the last [`request`](Script::request) and
    /// returns it for the caller to act on: a confirmed item moves the
    /// script on, a refusal or failure [retries](Script::retry_later), and
    /// a fatal error stops it.
    pub fn reply(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        key: TimerKey,
        result: Result<Vec<u8>, CallError>,
    ) -> Next {
        let next = self.proto.reply(result);
        match &next {
            Next::Confirmed => {
                self.next += 1;
                self.started = false;
                self.backoff.reset();
                self.retries_left = P::RETRIES;
            }
            Next::Again => {}
            Next::Refused(why) => self.retry_later(nc, key, why),
            Next::Failed(e) => self.retry_later(nc, key, e),
            Next::Fatal(why) => self.errors.push(why.clone()),
        }
        next
    }

    /// Spends one retry on a failure: arms timer `key` to resend after
    /// the next backoff delay or, once the budget is gone, fails the
    /// script with `why`, the last reason.
    pub fn retry_later(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        key: TimerKey,
        why: &dyn fmt::Display,
    ) {
        if self.retries_left == 0 {
            self.errors.push(format!("gave up after retries: {why}"));
            return;
        }
        self.retries_left -= 1;
        let delay = self.backoff.next_delay(nc.sim().rng());
        nc.set_app_timer(delay, key);
    }
}

/// Runs a script of protocol `P` against one fixed troupe, each call on a
/// fresh distributed thread. Poke it once to start. Derefs to its
/// [`Script`], and through it to the protocol.
pub struct ClosedLoop<P: Protocol> {
    /// The troupe.
    pub troupe: Troupe,
    /// Module number of the scheme's service at the troupe.
    pub module: u16,
    script: Script<P>,
    waiting: bool,
}

/// The transaction client.
pub type TxnClient = ClosedLoop<Txn>;
/// The ordered broadcast client (Figure 5.1's `atomic_broadcast`).
pub type Broadcaster = ClosedLoop<ProposeAccept>;
/// The commutative-operations client.
pub type CmClient = ClosedLoop<CmBatch>;

impl TxnClient {
    /// A client running `script` against `troupe`/`module`.
    pub fn new(troupe: Troupe, module: u16, script: Vec<Vec<Op>>) -> TxnClient {
        ClosedLoop::over(troupe, module, Txn::default(), script)
    }
}

impl Broadcaster {
    /// A broadcaster of `script`, minting message ids from `id_base` up.
    pub fn new(troupe: Troupe, module: u16, id_base: u64, script: Vec<Vec<u8>>) -> Broadcaster {
        ClosedLoop::over(troupe, module, ProposeAccept::new(id_base), script)
    }
}

impl CmClient {
    /// A client of the batches of `script`, minting idempotence ids from
    /// `id_base` up.
    pub fn new(troupe: Troupe, module: u16, id_base: u64, script: Vec<Vec<CmOp>>) -> CmClient {
        ClosedLoop::over(troupe, module, CmBatch::new(id_base), script)
    }
}

impl<P: Protocol> ClosedLoop<P> {
    fn over(troupe: Troupe, module: u16, proto: P, items: Vec<P::Item>) -> ClosedLoop<P> {
        ClosedLoop {
            troupe,
            module,
            script: Script::new(items, proto),
            waiting: false,
        }
    }

    fn send(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.waiting || !self.script.start() {
            return;
        }
        self.waiting = true;
        let thread = nc.fresh_thread();
        let (proc, args, collation) = self.script.request(nc.now());
        nc.call(thread, &self.troupe, self.module, proc, args, collation);
    }
}

impl<P: Protocol> Deref for ClosedLoop<P> {
    type Target = Script<P>;
    fn deref(&self) -> &Script<P> {
        &self.script
    }
}

impl<P: Protocol> Agent for ClosedLoop<P> {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.send(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.waiting = false;
        if let Next::Confirmed | Next::Again = self.script.reply(nc, RETRY_KEY, result) {
            self.send(nc);
        }
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key == RETRY_KEY {
            self.send(nc);
        }
    }
}

/// The troupe commit protocol's client side.
#[derive(Default)]
pub struct Txn {
    nonce: u64,
    /// Per-transaction results, in script order.
    pub committed: Vec<Vec<i64>>,
    /// Abort count: a member that let a younger transaction overtake
    /// this one, a failed vote under faults, or a wedged troupe.
    pub aborts: u32,
}

impl Txn {
    /// The nonce of the last submission: with the thread it was made on,
    /// the key the members' commit ledgers record it under.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }
}

impl Protocol for Txn {
    type Item = Vec<Op>;
    const RETRIES: u32 = 200;

    fn request(&mut self, ops: &Vec<Op>, now: Time) -> Request {
        self.nonce += 1;
        let args = ExecuteRequest::encode(self.nonce, ops, now.as_micros());
        (PROC_EXECUTE, args, CollationPolicy::Unanimous)
    }

    fn reply(&mut self, result: Result<Vec<u8>, CallError>) -> Next {
        let outcome = match result {
            Ok(bytes) => from_bytes::<TxnOutcome>(&bytes),
            Err(e) => {
                self.aborts += 1;
                return Next::Failed(e);
            }
        };
        match outcome {
            Ok(TxnOutcome::Committed(results)) => {
                self.committed.push(results);
                Next::Confirmed
            }
            Ok(TxnOutcome::Aborted(_)) => {
                self.aborts += 1;
                Next::Refused("aborted")
            }
            Err(e) => Next::Fatal(format!("garbled outcome: {e}")),
        }
    }
}

/// The ordered broadcast protocol's client side.
pub struct ProposeAccept {
    first_id: u64,
    /// Ids minted so far, one per script item: the current one is
    /// `first_id + minted - 1`.
    minted: usize,
    /// The phase: `None` while proposing, then fixed for good — a
    /// re-propose could mint a second time and split the applied order.
    accepted_time: Option<u64>,
    /// The ids of the broadcasts every member acknowledged, in order:
    /// each must appear in every member's applied order.
    pub results: Vec<u64>,
}

impl ProposeAccept {
    /// A broadcaster minting message ids from `first_id` up; each
    /// broadcaster's range must be its own.
    pub fn new(first_id: u64) -> ProposeAccept {
        ProposeAccept {
            first_id,
            minted: 0,
            accepted_time: None,
            results: Vec::new(),
        }
    }

    /// Ids minted but never confirmed (abandoned, or still in progress):
    /// each may split a member's applied-id range in two.
    pub fn unconfirmed(&self) -> usize {
        self.minted - self.results.len()
    }

    fn msg_id(&self) -> u64 {
        self.first_id + self.minted as u64 - 1
    }
}

impl Protocol for ProposeAccept {
    type Item = Vec<u8>;
    const RETRIES: u32 = 300;

    fn start(&mut self) {
        self.minted += 1;
        self.accepted_time = None;
    }

    /// The payload rides in both phases: a member that missed the
    /// proposal installs the message from the accept.
    fn request(&mut self, payload: &Vec<u8>, _now: Time) -> Request {
        let msg_id = self.msg_id();
        match self.accepted_time {
            None => (
                PROC_GET_PROPOSED_TIME,
                Propose::encode(msg_id, payload),
                strict_max_time_collation(),
            ),
            Some(time) => (
                PROC_ACCEPT_TIME,
                Accept::encode(msg_id, time, payload),
                all_ack_collation(),
            ),
        }
    }

    fn reply(&mut self, result: Result<Vec<u8>, CallError>) -> Next {
        match (result, self.accepted_time) {
            (Ok(bytes), None) => match from_bytes::<u64>(&bytes) {
                Ok(max) => {
                    self.accepted_time = Some(max);
                    Next::Again
                }
                Err(_) => Next::Fatal("garbled max proposal".into()),
            },
            (Ok(_), Some(_)) => {
                self.results.push(self.msg_id());
                Next::Confirmed
            }
            (Err(e), _) => Next::Failed(e),
        }
    }
}

/// The commutative-operations client side: one batch under one
/// idempotence id until every member has acknowledged it (members that
/// already applied the id answer from their seen ledger).
pub struct CmBatch {
    first_id: u64,
    /// Ids minted so far (see [`ProposeAccept`]).
    minted: usize,
    /// Idempotence ids every member acknowledged — each must be in
    /// every member's seen ledger.
    pub confirmed: Vec<u64>,
}

impl CmBatch {
    /// A client minting idempotence ids from `first_id` up; each client's
    /// range must be its own.
    pub fn new(first_id: u64) -> CmBatch {
        CmBatch {
            first_id,
            minted: 0,
            confirmed: Vec::new(),
        }
    }

    /// Ids minted but never confirmed (abandoned, or still in progress):
    /// each may split a member's dedup-ledger range in two.
    pub fn unconfirmed(&self) -> usize {
        self.minted - self.confirmed.len()
    }

    fn op_id(&self) -> u64 {
        self.first_id + self.minted as u64 - 1
    }
}

impl Protocol for CmBatch {
    type Item = Vec<CmOp>;
    const RETRIES: u32 = 300;

    fn start(&mut self) {
        self.minted += 1;
    }

    fn request(&mut self, ops: &Vec<CmOp>, _now: Time) -> Request {
        let args = CmRequest::encode(self.op_id(), ops);
        (PROC_CM_EXECUTE, args, all_ack_collation())
    }

    fn reply(&mut self, result: Result<Vec<u8>, CallError>) -> Next {
        match result {
            Ok(_) => {
                self.confirmed.push(self.op_id());
                Next::Confirmed
            }
            Err(e) => Next::Failed(e),
        }
    }
}
