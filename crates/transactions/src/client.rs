//! Client-side agents: transaction submission with retry/backoff, and
//! the two-phase ordered broadcast driver (Figure 5.1, client side).

use crate::backoff::Backoff;
use crate::broadcast::{
    max_time_collation, Accept, Propose, PROC_ACCEPT_TIME, PROC_GET_PROPOSED_TIME,
};
use crate::commit::{ExecuteRequest, TxnOutcome, PROC_EXECUTE};
use crate::commute::{CmOp, CmRequest, PROC_CM_EXECUTE};
use crate::txn::Op;
use circus::{Agent, CallError, CallHandle, CollationPolicy, NodeCtx, ThreadId, TimerKey, Troupe};
use wire::{from_bytes, to_bytes, Bytes};

const RETRY_KEY: TimerKey = TimerKey::new(0x7472); // "tr"

/// An agent that executes a scripted sequence of transactions against a
/// transactional store troupe, retrying aborts with binary exponential
/// backoff (§5.3.1). Poke it once to start; it runs the whole script.
pub struct TxnClient {
    /// The store troupe.
    pub troupe: Troupe,
    /// Module number of the store at the troupe.
    pub module: u16,
    script: Vec<Vec<Op>>,
    next: usize,
    nonce: u64,
    thread: Option<ThreadId>,
    backoff: Backoff,
    /// Per-transaction committed results, in script order.
    pub committed: Vec<Vec<i64>>,
    /// Number of aborts observed (deadlock pressure, §5.3.1).
    pub aborts: u32,
    /// Unrecoverable errors.
    pub errors: Vec<String>,
    /// Retries remaining before giving up on one transaction.
    retries_left: u32,
}

impl TxnClient {
    /// Creates a client running `script` against `troupe`/`module`.
    pub fn new(troupe: Troupe, module: u16, script: Vec<Vec<Op>>) -> TxnClient {
        TxnClient {
            troupe,
            module,
            script,
            next: 0,
            nonce: 0,
            thread: None,
            backoff: Backoff::default_1985(),
            committed: Vec::new(),
            aborts: 0,
            errors: Vec::new(),
            retries_left: 40,
        }
    }

    /// `true` once the whole script has committed (or failed hard).
    pub fn finished(&self) -> bool {
        self.next >= self.script.len() || !self.errors.is_empty()
    }

    fn submit(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.next >= self.script.len() {
            return;
        }
        self.nonce += 1;
        // Every submission (including a retry) is a NEW distributed
        // thread: a retried transaction is a new transaction (§2.3.1).
        let thread = nc.fresh_thread();
        self.thread = Some(thread);
        nc.call(
            thread,
            &self.troupe,
            self.module,
            PROC_EXECUTE,
            ExecuteRequest::encode(self.nonce, &self.script[self.next]),
            CollationPolicy::Unanimous,
        );
    }
}

impl Agent for TxnClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.submit(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        let outcome = match result {
            Ok(bytes) => from_bytes::<TxnOutcome>(&bytes),
            Err(e) => {
                // The whole replicated call failed (e.g. commit deadlock
                // resolved by vote-assembly timeout can surface as a
                // remote abort; member disagreement would be a bug).
                self.aborts += 1;
                if self.retries_left == 0 {
                    self.errors.push(format!("call failed: {e}"));
                    return;
                }
                self.retries_left -= 1;
                let delay = self.backoff.next_delay(nc.sim().rng());
                nc.set_app_timer(delay, RETRY_KEY);
                return;
            }
        };
        match outcome {
            Ok(TxnOutcome::Committed(results)) => {
                self.committed.push(results);
                self.next += 1;
                self.backoff.reset();
                self.retries_left = 40;
                self.submit(nc);
            }
            Ok(TxnOutcome::Aborted(_)) => {
                self.aborts += 1;
                if self.retries_left == 0 {
                    self.errors.push("transaction starved".into());
                    return;
                }
                self.retries_left -= 1;
                let delay = self.backoff.next_delay(nc.sim().rng());
                nc.set_app_timer(delay, RETRY_KEY);
            }
            Err(e) => self.errors.push(format!("garbled outcome: {e}")),
        }
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key == RETRY_KEY {
            self.submit(nc);
        }
    }
}

/// One broadcast in flight. The payload is held through the proposal
/// because `accept_time` carries it (a member that missed the proposal
/// installs the message from the accept), and moves into the accept.
#[derive(Debug)]
enum InFlight {
    Proposing { msg_id: u64, payload: Vec<u8> },
    Accepting,
}

/// An agent that performs ordered broadcasts (Figure 5.1's
/// `atomic_broadcast`): `get_proposed_time` at the troupe, take the
/// maximum, `accept_time`. Poke it once per queued message.
pub struct Broadcaster {
    /// The ordered-broadcast troupe.
    pub troupe: Troupe,
    /// Module number of the broadcast service.
    pub module: u16,
    /// Messages to broadcast, consumed front to back: each entry is taken
    /// out (left empty) as its broadcast starts.
    script: Vec<Vec<u8>>,
    next: usize,
    /// Globally unique message-id seed (callers give each broadcaster a
    /// distinct one).
    next_msg_id: u64,
    inflight: Option<InFlight>,
    /// Application results of completed broadcasts.
    pub results: Vec<Vec<u8>>,
    /// Failures.
    pub errors: Vec<String>,
}

impl Broadcaster {
    /// Creates a broadcaster; `id_base` must be unique per broadcaster
    /// (message ids are `id_base`, `id_base+1`, ...).
    pub fn new(troupe: Troupe, module: u16, id_base: u64, script: Vec<Vec<u8>>) -> Broadcaster {
        Broadcaster {
            troupe,
            module,
            script,
            next: 0,
            next_msg_id: id_base,
            inflight: None,
            results: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// `true` once every scripted message has been broadcast.
    pub fn finished(&self) -> bool {
        self.next >= self.script.len() && self.inflight.is_none()
    }

    fn propose_next(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.next >= self.script.len() {
            return;
        }
        let payload = std::mem::take(&mut self.script[self.next]);
        self.next += 1;
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let propose = Propose { msg_id, payload };
        let args = to_bytes(&propose);
        self.inflight = Some(InFlight::Proposing {
            msg_id,
            payload: propose.payload,
        });
        let thread = nc.fresh_thread();
        nc.call(
            thread,
            &self.troupe,
            self.module,
            PROC_GET_PROPOSED_TIME,
            args,
            max_time_collation(),
        );
    }
}

impl Agent for Broadcaster {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        if self.inflight.is_none() {
            self.propose_next(nc);
        }
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        let Some(inflight) = self.inflight.take() else {
            return;
        };
        let bytes = match result {
            Ok(b) => b,
            Err(e) => {
                self.errors.push(format!("broadcast failed: {e}"));
                return;
            }
        };
        match inflight {
            InFlight::Proposing { msg_id, payload } => {
                let Ok(max) = from_bytes::<u64>(&bytes) else {
                    self.errors.push("garbled max proposal".into());
                    return;
                };
                self.inflight = Some(InFlight::Accepting);
                let thread = nc.fresh_thread();
                nc.call(
                    thread,
                    &self.troupe,
                    self.module,
                    PROC_ACCEPT_TIME,
                    to_bytes(&Accept {
                        msg_id,
                        accepted_time: max,
                        payload,
                    }),
                    // Members may drain different amounts of queue at
                    // accept time depending on concurrent broadcasts, so
                    // the replies (the application result or empty) can
                    // differ transiently; first-come suffices since the
                    // *ordering* guarantee is what matters.
                    CollationPolicy::FirstCome,
                );
            }
            InFlight::Accepting => {
                if let Ok(Bytes(result)) = from_bytes::<Bytes>(&bytes) {
                    self.results.push(result);
                }
                self.propose_next(nc);
            }
        }
    }
}

/// An agent that submits scripted batches of commutative operations
/// (crate::commute) — one replicated call each, no locks, no phases.
/// Poke it once to start; it runs the whole script.
pub struct CmClient {
    /// The commutative troupe.
    pub troupe: Troupe,
    /// Module number of the commutative service at the troupe.
    pub module: u16,
    script: Vec<Vec<CmOp>>,
    next: usize,
    /// Globally unique idempotence-id seed (callers give each client a
    /// distinct one).
    next_op_id: u64,
    waiting: bool,
    /// Number of confirmed requests.
    pub completed: u32,
    /// Unrecoverable errors.
    pub errors: Vec<String>,
}

impl CmClient {
    /// Creates a client running `script` against `troupe`/`module`;
    /// `id_base` must be unique per client.
    pub fn new(troupe: Troupe, module: u16, id_base: u64, script: Vec<Vec<CmOp>>) -> CmClient {
        CmClient {
            troupe,
            module,
            script,
            next: 0,
            next_op_id: id_base,
            waiting: false,
            completed: 0,
            errors: Vec::new(),
        }
    }

    /// `true` once the whole script has been confirmed (or failed hard).
    pub fn finished(&self) -> bool {
        (self.next >= self.script.len() && !self.waiting) || !self.errors.is_empty()
    }

    fn submit(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.next >= self.script.len() {
            return;
        }
        let ops = self.script[self.next].clone();
        self.next += 1;
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        self.waiting = true;
        let thread = nc.fresh_thread();
        nc.call(
            thread,
            &self.troupe,
            self.module,
            PROC_CM_EXECUTE,
            to_bytes(&CmRequest { op_id, ops }),
            CollationPolicy::Unanimous,
        );
    }
}

impl Agent for CmClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        if !self.waiting {
            self.submit(nc);
        }
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.waiting = false;
        match result {
            Ok(_) => {
                self.completed += 1;
                self.submit(nc);
            }
            Err(e) => self.errors.push(format!("commutative call failed: {e}")),
        }
    }
}
